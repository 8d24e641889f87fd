//! Differential lock-down of warm starts and batched solving.
//!
//! Three invariants, each property-tested over random convex instances
//! (`SpeedupCurve::None` plus the default entropy weight ρ > 0, so the
//! relaxed optimum is unique and cold/warm trajectories must meet):
//!
//! 1. A [`RobustSolver::solve`] handed the prices of a drifted
//!    sibling's solve agrees with the cold solve on the objective within
//!    `1e-8` and on the argmax-rounded assignment exactly.
//! 2. A poisoned start never costs a wrong answer.
//!    Unusable given prices (NaN, wrong length, out of scale, or handed
//!    to a solve that takes no price trials) are reported as
//!    [`SeedProvenance::Rejected`], never reach the solver, and return
//!    the cold answer bit for bit; admissible but wild prices seed the
//!    one primary attempt and still land on the cold answer.
//! 3. Batched [`solve_batch`] fan-out is bit-for-bit identical to the
//!    sequential path, including the per-solve diagnostics ordering.
//!
//! Under `--features strict-determinism` the batched side runs
//! single-threaded, re-checking the same invariants with the thread pool
//! taken out of the picture (CI runs both configurations).

use mfcp::optim::learned::RepairError;
use mfcp::optim::recovery::{RobustSolver, SeedProvenance, SeedSource, SolveCtx};
use mfcp::optim::rounding::round_argmax;
use mfcp::optim::solver::SolverOptions;
use mfcp::optim::{MatchingProblem, RelaxationParams};
use mfcp::parallel::{solve_batch, ParallelConfig};
use mfcp_linalg::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random convex instance: no speedup curves, data bounded away from the
/// degenerate corners, and a slack reliability threshold. The ranges are
/// chosen so the smooth-max curvature (≈ β·t²) stays inside the stable
/// step-size regime for the solver below — the point of this suite is
/// trajectory equivalence at a certified optimum, not worst-case
/// conditioning (the recovery ladder owns that).
fn convex_problem(seed: u64, m: usize, n: usize) -> MatchingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.7..1.8));
    let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.75..1.0));
    MatchingProblem::new(t, a, 0.6)
}

/// Relaxation with a strong entropy modulus: the strong-convexity
/// constant scales with ρ, and at 0.05 every generated instance reaches
/// the 1e-12 step tolerance in well under the iteration budget (probed
/// at ~4.3k iterations worst-case over 2000 instances).
fn test_params() -> RelaxationParams {
    RelaxationParams {
        rho: 0.05,
        ..Default::default()
    }
}

/// The same instance after a small data drift (structure unchanged): the
/// situation a warm start is for.
fn drifted(problem: &MatchingProblem, seed: u64) -> MatchingProblem {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD21F);
    let (m, n) = problem.times.shape();
    let t = Matrix::from_fn(m, n, |i, j| {
        problem.times[(i, j)] * (1.0 + 0.02 * rng.gen_range(-1.0..1.0))
    });
    MatchingProblem::new(t, problem.reliability.clone(), problem.gamma)
}

/// A solver tight enough that cold and warm runs both land within ~1e-10
/// of the unique optimum: production's options except for `tol` and
/// `max_iters`.
fn tight_solver(params: RelaxationParams) -> RobustSolver {
    let mut solver = RobustSolver::new(params);
    solver.solver_opts = SolverOptions {
        max_iters: 20_000,
        tol: 1e-12,
        ..Default::default()
    };
    solver
}

/// Thread fan-out for the batched differential checks; pinned to one
/// thread under `strict-determinism` so CI exercises both shapes.
fn batch_parallel() -> ParallelConfig {
    if cfg!(feature = "strict-determinism") {
        ParallelConfig::sequential()
    } else {
        ParallelConfig::with_threads(4)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Invariant 1: a solve started from a drifted sibling's prices
    /// agrees with the cold solve on the objective within 1e-8 and on
    /// the rounded assignment exactly.
    #[test]
    fn prop_warm_agrees_with_cold(seed in 0u64..1_000_000, m in 2usize..4, n in 2usize..6) {
        let p0 = convex_problem(seed, m, n);
        let p1 = drifted(&p0, seed);
        let solver = tight_solver(test_params());

        let prev = solver.solve(&p0, SolveCtx::default()).expect("cold solve");
        let cold = solver.solve(&p1, SolveCtx::default()).expect("cold solve");
        let ctx = SolveCtx { prices: Some(&prev.prices), ..SolveCtx::default() };
        let warm = solver.solve(&p1, ctx).expect("warm solve");

        prop_assert_eq!(prev.diagnostics.seed, SeedProvenance::Cold);
        prop_assert_eq!(warm.diagnostics.seed, SeedProvenance::Seeded(SeedSource::Given));
        prop_assert_eq!(warm.diagnostics.attempts[0].seed, Some(SeedSource::Given));
        prop_assert!(
            (cold.objective - warm.objective).abs() <= 1e-8,
            "objective drift {} vs {}",
            cold.objective,
            warm.objective
        );
        prop_assert_eq!(
            round_argmax(&cold.x).cluster_of,
            round_argmax(&warm.x).cluster_of
        );
    }

    /// Invariant 2: a poisoned start never costs a wrong answer.
    /// Unusable prices are rejected before the solver runs, and the
    /// result is the cold solve bit for bit; admissible but wild prices
    /// seed the one primary attempt, which succeeds on the cold answer.
    #[test]
    fn prop_poisoned_start_falls_back_to_cold(seed in 0u64..1_000_000, m in 2usize..4, n in 2usize..6) {
        let p0 = convex_problem(seed, m, n);
        let solver = tight_solver(test_params());
        let cold = solver.solve(&p0, SolveCtx::default()).expect("cold solve");
        // A solve without price trials (no entropy term) reads no start
        // prices; a short budget keeps its cold twin cheap.
        let mut untried = solver.clone();
        untried.params.rho = 0.0;
        untried.solver_opts.max_iters = 200;
        let untried_cold = untried.solve(&p0, SolveCtx::default()).expect("cold solve");

        let fit = cold.prices.clone();
        for (k, (solver, cold, prices)) in [
            (&solver, &cold, vec![f64::NAN; m + 1]),
            (&solver, &cold, vec![0.5; m]),
            (&solver, &cold, vec![0.5; m + 2]),
            (&solver, &cold, vec![1.0e6; m + 1]),
            (&untried, &untried_cold, fit),
        ]
        .into_iter()
        .enumerate()
        {
            let ctx = SolveCtx { prices: Some(&prices), ..SolveCtx::default() };
            let sol = solver.solve(&p0, ctx).expect("poisoned start must not fail the solve");
            prop_assert_eq!(
                sol.diagnostics.seed,
                SeedProvenance::Rejected(SeedSource::Given, RepairError::Prices),
                "poison {}",
                k
            );
            prop_assert_eq!(sol.diagnostics.attempts[0].seed, None, "poison {}", k);
            prop_assert_eq!(sol.objective.to_bits(), cold.objective.to_bits(), "poison {}", k);
            prop_assert_eq!(sol.x.as_slice(), cold.x.as_slice(), "poison {}", k);
        }

        let mut rng = StdRng::seed_from_u64(seed ^ 0xBAD);
        let wild: Vec<f64> = (0..=m).map(|_| rng.gen_range(-900.0..900.0)).collect();
        let ctx = SolveCtx { prices: Some(&wild), ..SolveCtx::default() };
        let sol = solver.solve(&p0, ctx).expect("a wild start must not fail the solve");
        prop_assert_eq!(sol.diagnostics.seed, SeedProvenance::Seeded(SeedSource::Given));
        prop_assert_eq!(
            sol.diagnostics.attempts.len(),
            1,
            "path: {}",
            sol.diagnostics.path()
        );
        prop_assert!(
            (cold.objective - sol.objective).abs() <= 1e-8,
            "objective drift {} vs {}",
            cold.objective,
            sol.objective
        );
        prop_assert_eq!(
            round_argmax(&cold.x).cluster_of,
            round_argmax(&sol.x).cluster_of
        );
    }

    /// Invariant 3: `solve_batch` returns results in input order and
    /// bit-for-bit identical to the sequential path — objectives,
    /// assignments, and the diagnostics path strings.
    #[test]
    fn prop_batched_matches_sequential_bitwise(seed in 0u64..1_000_000, count in 1usize..7) {
        let problems: Vec<MatchingProblem> = (0..count)
            .map(|k| convex_problem(seed.wrapping_add(k as u64), 3, 4))
            .collect();
        // Bit-for-bit comparison needs identical execution, not tight
        // convergence — a short budget keeps 256 cases cheap.
        let mut solver = RobustSolver::new(RelaxationParams::default());
        solver.solver_opts = SolverOptions {
            max_iters: 150,
            ..Default::default()
        };
        let run = |parallel: &ParallelConfig| -> Vec<(u64, Vec<usize>, String)> {
            solve_batch(parallel, &problems, |_, p| {
                let sol = solver.solve(p, SolveCtx::default()).expect("convex instance solves");
                (
                    sol.objective.to_bits(),
                    round_argmax(&sol.x).cluster_of,
                    sol.diagnostics.path(),
                )
            })
            .into_iter()
            .map(|slot| slot.expect("no slot panics here"))
            .collect()
        };
        let seq = run(&ParallelConfig::sequential());
        let par = run(&batch_parallel());
        prop_assert_eq!(seq, par);
    }
}
