//! Property tests for the robust solver on degenerate inputs.
//!
//! Whatever the instance — empty task sets, a single cluster, a
//! reliability constraint no matching can satisfy, all-equal costs, or a
//! barrier configured to blow up — `RobustSolver::solve` must return
//! either a finite column-stochastic matching or a typed error. It must
//! never panic and never leak a NaN. A zero-cutoff log barrier is
//! rejected as `SolveError::InvalidInput` before any attempt runs.

use mfcp_linalg::Matrix;
use mfcp_optim::{
    BarrierKind, MatchingProblem, RelaxationParams, RobustSolver, SolveCtx, SolveError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts the solve contract: finite feasible solution or typed error,
/// and the typed rejection of a zero-cutoff barrier.
fn assert_contract(solver: &RobustSolver, problem: &MatchingProblem) {
    let result = solver.solve(problem, SolveCtx::default());
    if solver.params.barrier == (BarrierKind::Log { eps: 0.0 }) {
        assert!(
            matches!(result, Err(SolveError::InvalidInput(_))),
            "a zero-cutoff barrier must be rejected as invalid input, got {result:?}"
        );
        return;
    }
    match result {
        Ok(sol) => {
            assert!(
                sol.objective.is_finite(),
                "objective must be finite, got {} via {} ({})",
                sol.objective,
                sol.stage,
                sol.diagnostics.path()
            );
            assert!(
                sol.x
                    .as_slice()
                    .iter()
                    .all(|v| v.is_finite() && *v >= -1e-9),
                "matching entries must be finite and non-negative ({})",
                sol.diagnostics.path()
            );
            for j in 0..problem.tasks() {
                let col: f64 = (0..problem.clusters()).map(|i| sol.x[(i, j)]).sum();
                assert!(
                    (col - 1.0).abs() < 1e-6,
                    "column {j} sums to {col}, not 1 ({})",
                    sol.diagnostics.path()
                );
            }
        }
        // A typed error is an acceptable outcome for a degenerate
        // instance; the contract only forbids panics and NaN results.
        Err(e) => {
            assert!(!e.to_string().is_empty());
        }
    }
}

fn barrier_for(choice: usize) -> BarrierKind {
    match choice % 3 {
        0 => BarrierKind::log(),
        1 => BarrierKind::HardPenalty,
        // The pathological configuration validation rejects.
        _ => BarrierKind::Log { eps: 0.0 },
    }
}

proptest::proptest! {
    #[test]
    fn empty_task_set_never_panics(m in 1usize..5, choice in 0usize..3) {
        let problem = MatchingProblem::new(Matrix::zeros(m, 0), Matrix::zeros(m, 0), 0.8);
        let params = RelaxationParams { barrier: barrier_for(choice), ..Default::default() };
        assert_contract(&RobustSolver::new(params), &problem);
    }

    #[test]
    fn single_cluster_always_column_stochastic(n in 1usize..7, seed in 0u64..200) {
        // With one cluster the only feasible matching is all-ones; the
        // solver must land there whatever the costs.
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Matrix::from_fn(1, n, |_, _| rng.gen_range(0.1..5.0));
        let a = Matrix::from_fn(1, n, |_, _| rng.gen_range(0.5..1.0));
        let problem = MatchingProblem::new(t, a, 0.4);
        assert_contract(&RobustSolver::new(RelaxationParams::default()), &problem);
    }

    #[test]
    fn infeasible_reliability_recovers_or_errors(
        n in 1usize..6,
        m in 2usize..4,
        choice in 0usize..3,
    ) {
        // No matching can reach gamma = 0.99 when every reliability is
        // 0.5 — the barrier is violated everywhere, which is exactly
        // where a raw log barrier produces non-finite gradients.
        let t = Matrix::filled(m, n, 1.0);
        let a = Matrix::filled(m, n, 0.5);
        let problem = MatchingProblem::new(t, a, 0.99);
        let params = RelaxationParams { barrier: barrier_for(choice), ..Default::default() };
        assert_contract(&RobustSolver::new(params), &problem);
    }

    #[test]
    fn all_equal_costs_never_panic(
        n in 1usize..6,
        m in 1usize..4,
        choice in 0usize..3,
    ) {
        // Perfectly tied costs leave the objective flat in many
        // directions: a stall-prone instance by construction.
        let t = Matrix::filled(m, n, 2.0);
        let a = Matrix::filled(m, n, 0.9);
        let problem = MatchingProblem::new(t, a, 0.8);
        let params = RelaxationParams { barrier: barrier_for(choice), ..Default::default() };
        assert_contract(&RobustSolver::new(params), &problem);
    }

    #[test]
    fn random_instances_uphold_the_contract(seed in 0u64..120) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(1..4usize);
        let n = rng.gen_range(0..6usize);
        let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.05..8.0));
        let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.3..1.0));
        let gamma = rng.gen_range(0.0..1.0);
        let problem = MatchingProblem::new(t, a, gamma);
        let params = RelaxationParams {
            barrier: barrier_for(seed as usize),
            ..Default::default()
        };
        assert_contract(&RobustSolver::new(params), &problem);
    }
}
