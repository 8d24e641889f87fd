//! Differential lock-down of the learned-duals warm-start path.
//!
//! Property-tested over random convex instances (unique entropic
//! optimum, so any-seed trajectories must meet):
//!
//! 1. A solve seeded from *any* repairable prediction — however far
//!    from the optimum — agrees with the cold
//!    [`RobustSolver::solve`] on the objective within `1e-8` and on
//!    the argmax-rounded assignment exactly, and is reported as
//!    [`SeedProvenance::Seeded`] from [`SeedSource::Predicted`].
//! 2. Adversarial predictions (NaN/Inf duals, ×1e6-scaled duals,
//!    wrong-shape or non-finite primal) are rejected by the repair
//!    kernel before any solver work: the solve is bit-for-bit the cold
//!    solve, with a typed [`SeedProvenance::Rejected`] in the
//!    diagnostics — never a panic, never a degraded answer.
//!    Both hold for price predictions too (a solve that takes price
//!    trials starts from admissible predicted prices alone; mis-sized,
//!    non-finite or out-of-scale prices are rejected with
//!    [`RepairError::Prices`]).
//! 3. Given prices take precedence: a predictor is never consulted when
//!    admissible start prices are handed in, and is consulted when the
//!    given prices are rejected.
//! 4. A repaired prediction whose attempt fails goes to greedy
//!    rounding ([`SeedProvenance::FellBack`]) and lands on the failed
//!    cold solve's answer bit for bit — greedy rounding does not depend
//!    on the start.
//!
//! CI runs this suite in the workspace test job and again, in release,
//! in its strict-determinism job.

use mfcp_linalg::Matrix;
use mfcp_optim::learned::{DualPrediction, DualPredictor, LearnedDualHead, RepairError};
use mfcp_optim::recovery::{RobustSolver, SeedProvenance, SeedSource, SolveCtx, StageOutcome};
use mfcp_optim::rounding::round_argmax;
use mfcp_optim::solver::SolverOptions;
use mfcp_optim::{Budget, CancelToken, MatchingProblem, RelaxationParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random convex instance: no speedup curves, data bounded away from
/// the degenerate corners (same family as `tests/warm_vs_cold.rs`).
fn convex_problem(seed: u64, m: usize, n: usize) -> MatchingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.7..1.8));
    let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.75..1.0));
    MatchingProblem::new(t, a, 0.6)
}

/// Strong entropy modulus: every generated instance reaches the 1e-12
/// step tolerance well inside the iteration budget.
fn test_params() -> RelaxationParams {
    RelaxationParams {
        rho: 0.05,
        ..Default::default()
    }
}

/// A solver tight enough that cold and seeded runs both land within
/// ~1e-10 of the unique optimum.
fn tight_solver(params: RelaxationParams) -> RobustSolver {
    let mut solver = RobustSolver::new(params);
    solver.solver_opts = SolverOptions {
        max_iters: 20_000,
        tol: 1e-12,
        ..Default::default()
    };
    solver
}

/// A mock predictor returning a fixed raw prediction — the adversarial
/// handle the repair kernel and fallback semantics are tested through.
struct Mock(Option<DualPrediction>);

impl DualPredictor for Mock {
    fn predict_duals(
        &self,
        _problem: &MatchingProblem,
        _params: &RelaxationParams,
    ) -> Option<DualPrediction> {
        self.0.clone()
    }
}

/// A mock predictor with fixed raw prices and no column prediction —
/// the handle the price start and its admissibility gate are tested
/// through.
struct PriceMock(Vec<f64>);

impl DualPredictor for PriceMock {
    fn predict_duals(
        &self,
        _problem: &MatchingProblem,
        _params: &RelaxationParams,
    ) -> Option<DualPrediction> {
        None
    }

    fn predict_prices(
        &self,
        _problem: &MatchingProblem,
        _params: &RelaxationParams,
    ) -> Option<Vec<f64>> {
        Some(self.0.clone())
    }
}

/// A predictor that must never be consulted (given-price precedence).
struct PanicPredictor;

impl DualPredictor for PanicPredictor {
    fn predict_duals(
        &self,
        _problem: &MatchingProblem,
        _params: &RelaxationParams,
    ) -> Option<DualPrediction> {
        panic!("predictor consulted despite admissible given prices");
    }
}

/// A solve context whose only start is `predictor`'s.
fn predicting(predictor: &dyn DualPredictor) -> SolveCtx<'_> {
    SolveCtx {
        predictor: Some(predictor),
        ..SolveCtx::default()
    }
}

/// An arbitrary repairable prediction: finite primal entries of any
/// sign and duals inside the admissible bound.
fn random_prediction(seed: u64, m: usize, n: usize) -> DualPrediction {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
    let x = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.5..2.5));
    let duals = (0..n).map(|_| rng.gen_range(-50.0..50.0)).collect();
    DualPrediction { x, duals }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Invariant 1: any repairable prediction — good, mediocre, or
    /// wildly off — seeds a solve that agrees with the cold solve on
    /// the objective within 1e-8 and on the rounded assignment exactly.
    #[test]
    fn prop_predicted_seed_agrees_with_cold(
        seed in 0u64..1_000_000,
        m in 2usize..4,
        n in 2usize..6,
    ) {
        let problem = convex_problem(seed, m, n);
        let solver = tight_solver(test_params());
        let cold = solver.solve(&problem, SolveCtx::default()).expect("cold solve");

        let mock = Mock(Some(random_prediction(seed, m, n)));
        let sol = solver
            .solve(&problem, predicting(&mock))
            .expect("predicted solve");

        prop_assert_eq!(sol.diagnostics.seed, SeedProvenance::Seeded(SeedSource::Predicted));
        prop_assert_eq!(sol.diagnostics.attempts[0].seed, Some(SeedSource::Predicted));
        prop_assert!(
            sol.diagnostics.path().starts_with("pred-primary"),
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

    /// Invariant 2: adversarial predictions are rejected before any
    /// solver work and the result is bit-for-bit the cold solve.
    #[test]
    fn prop_adversarial_predictions_fall_back_to_cold(
        seed in 0u64..1_000_000,
        m in 2usize..4,
        n in 2usize..6,
    ) {
        let problem = convex_problem(seed, m, n);
        let solver = tight_solver(test_params());
        let cold = solver.solve(&problem, SolveCtx::default()).expect("cold solve");
        let uniform = Matrix::filled(m, n, 1.0 / m as f64);

        let poisons: Vec<DualPrediction> = vec![
            // NaN duals.
            DualPrediction { x: uniform.clone(), duals: vec![f64::NAN; n] },
            // Infinite duals.
            DualPrediction { x: uniform.clone(), duals: vec![f64::INFINITY; n] },
            // Duals scaled ×1e6: finite but out of scale.
            DualPrediction { x: uniform.clone(), duals: vec![1.0e6; n] },
            // Wrong-shape primal.
            DualPrediction {
                x: Matrix::filled(m + 1, n, 1.0 / (m + 1) as f64),
                duals: vec![0.0; n],
            },
            // Non-finite primal.
            DualPrediction {
                x: Matrix::from_fn(m, n, |i, j| if i == 0 && j == 0 { f64::NAN } else { 0.5 }),
                duals: vec![0.0; n],
            },
        ];

        for (k, poison) in poisons.into_iter().enumerate() {
            let mock = Mock(Some(poison));
            let sol = solver
                .solve(&problem, predicting(&mock))
                .expect("poisoned prediction must not fail the solve");
            prop_assert!(
                matches!(
                    sol.diagnostics.seed,
                    SeedProvenance::Rejected(SeedSource::Predicted, _)
                ),
                "poison {}: expected a typed rejection, got {:?}",
                k,
                sol.diagnostics.seed
            );
            prop_assert_eq!(sol.diagnostics.attempts[0].seed, None);
            prop_assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
            prop_assert_eq!(sol.x.as_slice(), cold.x.as_slice());
        }
    }

    /// Invariant 1 for price predictions: any admissible prices start
    /// a solve (from their softmax, no columns involved) that agrees
    /// with the cold solve like a column prediction does.
    #[test]
    fn prop_predicted_prices_agree_with_cold(
        seed in 0u64..1_000_000,
        m in 2usize..4,
        n in 2usize..6,
    ) {
        let problem = convex_problem(seed, m, n);
        let solver = tight_solver(test_params());
        let cold = solver.solve(&problem, SolveCtx::default()).expect("cold solve");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5052);
        let prices: Vec<f64> = (0..=m).map(|_| rng.gen_range(-1.0..1.0)).collect();

        let mock = PriceMock(prices);
        let sol = solver
            .solve(&problem, predicting(&mock))
            .expect("price-seeded solve");
        prop_assert_eq!(sol.diagnostics.seed, SeedProvenance::Seeded(SeedSource::Predicted));
        prop_assert_eq!(sol.diagnostics.attempts[0].seed, Some(SeedSource::Predicted));
        prop_assert!(
            (cold.objective - sol.objective).abs() <= 1e-8,
            "objective drift {} vs {}",
            cold.objective,
            sol.objective
        );
        prop_assert_eq!(round_argmax(&sol.x), round_argmax(&cold.x));
    }

    /// Invariant 2 for price predictions: mis-sized, non-finite or
    /// out-of-scale prices are rejected with a typed event, and with no
    /// column prediction behind them the solve is bit-for-bit cold.
    #[test]
    fn prop_inadmissible_prices_fall_back_to_cold(
        seed in 0u64..1_000_000,
        m in 2usize..4,
        n in 2usize..6,
    ) {
        let problem = convex_problem(seed, m, n);
        let solver = tight_solver(test_params());
        let cold = solver.solve(&problem, SolveCtx::default()).expect("cold solve");
        for (k, prices) in [
            vec![0.5; m],
            vec![f64::NAN; m + 1],
            vec![f64::INFINITY; m + 1],
            vec![1.0e6; m + 1],
        ]
        .into_iter()
        .enumerate()
        {
            let mock = PriceMock(prices);
            let sol = solver
                .solve(&problem, predicting(&mock))
                .expect("rejected prices must not fail the solve");
            prop_assert_eq!(
                sol.diagnostics.seed,
                SeedProvenance::Rejected(SeedSource::Predicted, RepairError::Prices),
                "poison {}",
                k
            );
            prop_assert_eq!(sol.diagnostics.attempts[0].seed, None);
            prop_assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
            prop_assert_eq!(sol.x.as_slice(), cold.x.as_slice());
        }
    }

    /// Invariant 3: admissible given prices pre-empt the predictor
    /// entirely (the panic predictor proves it is never consulted);
    /// rejected ones leave the start to the predictor.
    #[test]
    fn prop_given_prices_beat_prediction(
        seed in 0u64..1_000_000,
        m in 2usize..4,
        n in 2usize..6,
    ) {
        let problem = convex_problem(seed, m, n);
        let solver = tight_solver(test_params());
        let prices = solver
            .solve(&problem, SolveCtx::default())
            .expect("cold solve")
            .prices;
        let warm = solver
            .solve(&problem, SolveCtx { prices: Some(&prices), predictor: Some(&PanicPredictor) })
            .expect("given prices solve without touching the predictor");
        prop_assert_eq!(warm.diagnostics.seed, SeedProvenance::Seeded(SeedSource::Given));
        prop_assert_eq!(warm.diagnostics.attempts[0].seed, Some(SeedSource::Given));

        let bad = vec![f64::NAN; m + 1];
        let mock = Mock(Some(random_prediction(seed, m, n)));
        let sol = solver
            .solve(&problem, SolveCtx { prices: Some(&bad), predictor: Some(&mock) })
            .expect("rejected given prices fall to the predictor");
        prop_assert_eq!(sol.diagnostics.seed, SeedProvenance::Seeded(SeedSource::Predicted));
    }
}

/// Invariant 4: a repaired prediction whose seeded attempt fails goes
/// to greedy rounding with a typed event and lands on the failed cold
/// solve's answer bit for bit.
#[test]
fn failed_predicted_attempt_falls_back_to_greedy() {
    // A request budget whose cancel token has fired: every primary
    // attempt fails at its first iterate, whatever the seed, and the
    // solve ends on greedy rounding.
    let problem = convex_problem(1, 3, 6);
    let token = CancelToken::new();
    token.cancel();
    let solver = RobustSolver::new(RelaxationParams::default())
        .with_budget(Budget::unlimited().with_cancel(token));
    let cold = solver
        .solve(&problem, SolveCtx::default())
        .expect("greedy rounding recovers");

    let prediction = DualPrediction {
        x: Matrix::filled(3, 6, 1.0 / 3.0),
        duals: vec![0.0; 6],
    };
    let mock = Mock(Some(prediction));
    let sol = solver
        .solve(&problem, predicting(&mock))
        .expect("failed prediction must fall back, not fail");

    assert_eq!(
        sol.diagnostics.seed,
        SeedProvenance::FellBack(SeedSource::Predicted)
    );
    let first = &sol.diagnostics.attempts[0];
    assert_eq!(
        first.seed,
        Some(SeedSource::Predicted),
        "path: {}",
        sol.diagnostics.path()
    );
    assert!(
        matches!(first.outcome, StageOutcome::Failed(_)),
        "predicted attempt must be on record as failed"
    );
    assert_eq!(
        sol.diagnostics.path(),
        "pred-primary x(deadline) -> greedy-rounding ok"
    );
    assert!(sol.diagnostics.recovered);
    assert_eq!(sol.stage, cold.stage);
    assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
    assert_eq!(sol.x.as_slice(), cold.x.as_slice());
}

/// End-to-end: a head trained on a drifted family serves predictions
/// for unseen instances that agree with the cold solve and are
/// reported as predicted.
#[test]
fn trained_head_agrees_with_cold_on_unseen_instances() {
    const M: usize = 3;
    const N: usize = 5;
    let params = test_params();
    let solver = tight_solver(params);
    let mut head = LearnedDualHead::new(M, 42);

    // Train on one family of drifted instances...
    let train: Vec<MatchingProblem> = (0..12).map(|k| convex_problem(1000 + k, M, N)).collect();
    let solved: Vec<(usize, Matrix)> = train
        .iter()
        .enumerate()
        .map(|(i, p)| {
            (
                i,
                solver.solve(p, SolveCtx::default()).expect("train solve").x,
            )
        })
        .collect();
    for _ in 0..40 {
        for (i, x) in &solved {
            head.observe(&train[*i], &params, x);
        }
    }
    assert!(head.ready());

    // ...and serve unseen instances from the same distribution.
    for k in 0..4u64 {
        let unseen = convex_problem(9000 + k, M, N);
        let cold = solver
            .solve(&unseen, SolveCtx::default())
            .expect("cold solve");
        let sol = solver
            .solve(&unseen, predicting(&head))
            .expect("predicted solve");
        assert_eq!(
            sol.diagnostics.seed,
            SeedProvenance::Seeded(SeedSource::Predicted)
        );
        assert!(
            (cold.objective - sol.objective).abs() <= 1e-8,
            "unseen {k}: objective drift {} vs {}",
            cold.objective,
            sol.objective
        );
        assert_eq!(
            round_argmax(&cold.x).cluster_of,
            round_argmax(&sol.x).cluster_of,
            "unseen {k}: rounded assignments must match"
        );
    }
}
