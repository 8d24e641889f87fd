//! Workspace-wide property-based tests: invariants that must hold for
//! arbitrary (generated) inputs, spanning the substrate crates.

use mfcp::optim::objective::{self, RelaxationParams};
use mfcp::optim::solver::{is_column_stochastic, solve_relaxed, uniform_init, SolverOptions};
use mfcp::optim::{Assignment, MatchingProblem};
use mfcp::platform::cluster::PerfModel;
use mfcp::platform::embedding::FeatureEmbedder;
use mfcp::platform::settings::ClusterPool;
use mfcp::platform::task::{TaskGenerator, TaskSpec};
use mfcp_linalg::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn problem_from_seed(seed: u64, m: usize, n: usize) -> MatchingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.2..4.0));
    let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.6..1.0));
    MatchingProblem::new(t, a, 0.7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// With a step size inside the descent-lemma regime (η ≤ 1/L; the
    /// smoothed objective's curvature here is ≲ β·t² ≈ 10²), the relaxed
    /// solver's final objective never exceeds the uniform start's.
    /// (Fixed-step mirror descent is not monotone for aggressive steps.)
    #[test]
    fn prop_solver_improves_on_uniform(seed in 0u64..10_000, m in 2usize..5, n in 1usize..8) {
        let problem = problem_from_seed(seed, m, n);
        let params = RelaxationParams::default();
        let start = objective::value(&problem, &params, &uniform_init(m, n));
        let sol = solve_relaxed(&problem, &params, &SolverOptions {
            max_iters: 1500, lr: 0.01, ..Default::default()
        });
        prop_assert!(sol.objective <= start + 1e-6,
            "final {} vs start {}", sol.objective, start);
        prop_assert!(is_column_stochastic(&sol.x, 1e-6));
    }

    /// Any 0/1 assignment matrix gives a smoothed cost within log(M)/β of
    /// its true makespan (Theorem 1 instantiated on vertices).
    #[test]
    fn prop_smooth_cost_sandwich_on_vertices(
        seed in 0u64..10_000, n in 1usize..8, beta in 1.0f64..50.0
    ) {
        let problem = problem_from_seed(seed, 3, n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        let asg = Assignment::new((0..n).map(|_| rng.gen_range(0..3)).collect());
        let x = asg.to_matrix(3);
        let params = RelaxationParams { beta, ..Default::default() };
        let smooth = objective::smooth_cost(&problem, &params, &x);
        let truth = asg.makespan(&problem);
        prop_assert!(smooth >= truth - 1e-9);
        prop_assert!(smooth <= truth + (3.0f64).ln() / beta + 1e-9);
    }

    /// The ground-truth performance model is always physical: positive
    /// finite times, probabilities in range, and monotone in compute.
    #[test]
    fn prop_perf_model_is_physical(seed in 0u64..10_000) {
        let pool = ClusterPool::standard();
        let model = PerfModel::new(pool.clusters.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let task = TaskGenerator::default().sample(&mut rng);
        for c in &model.clusters {
            let t = c.execution_time(&task);
            let a = c.reliability(&task);
            prop_assert!(t > 0.0 && t.is_finite());
            prop_assert!((0.5..=0.999).contains(&a));
        }
        // Doubling depth (more compute, more memory) never speeds a task up.
        let deeper = TaskSpec { depth: task.depth * 2, ..task.clone() };
        for c in &model.clusters {
            prop_assert!(c.execution_time(&deeper) >= c.execution_time(&task));
        }
    }

    /// Embeddings are finite, bounded, and deterministic for any task.
    #[test]
    fn prop_embedding_bounded(seed in 0u64..10_000) {
        let embedder = FeatureEmbedder::bottlenecked_platform();
        let mut rng = StdRng::seed_from_u64(seed);
        let task = TaskGenerator::default().sample(&mut rng);
        let z1 = embedder.embed(&task);
        let z2 = embedder.embed(&task);
        prop_assert_eq!(&z1, &z2);
        prop_assert_eq!(z1.len(), embedder.dim());
        for v in z1 {
            prop_assert!(v.is_finite() && (-1.5..=1.5).contains(&v));
        }
    }

    /// Assignment metrics are mutually consistent: utilization equals the
    /// busy-time ratio implied by cluster_times and makespan.
    #[test]
    fn prop_assignment_metric_consistency(seed in 0u64..10_000, n in 1usize..10) {
        let problem = problem_from_seed(seed, 3, n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
        let asg = Assignment::new((0..n).map(|_| rng.gen_range(0..3)).collect());
        let times = asg.cluster_times(&problem);
        let span = asg.makespan(&problem);
        prop_assert!((span - times.iter().cloned().fold(0.0, f64::max)).abs() < 1e-12);
        if span > 0.0 {
            let util = times.iter().sum::<f64>() / (3.0 * span);
            prop_assert!((asg.utilization(&problem) - util).abs() < 1e-12);
            prop_assert!(util <= 1.0 + 1e-12);
        }
    }
}
