//! Fault-tolerance demo: the three recovery layers end to end.
//!
//! 1. **Robust solver** — an instance whose log-barrier is configured
//!    with `eps = 0` drives the plain solver to NaN; the
//!    [`RobustSolver`] rejects that barrier with a typed error, and a
//!    request whose budget has expired fails its one primary attempt at
//!    the first iterate and lands on greedy rounding.
//! 2. **Guarded training** — a dataset with a poisoned (NaN) measurement
//!    trains to completion, with the loss-spike guard rolling the iterate
//!    back whenever a corrupt round is drawn.
//! 3. **Cluster-outage execution** — the same matching replayed with and
//!    without a mid-run outage, showing re-matching keeping the round
//!    alive at a makespan cost.
//!
//! Usage: `cargo run -p mfcp-bench --release --bin fault_demo`

use mfcp_core::train::{train_mfcp, MfcpTrainConfig, TsmTrainConfig};
use mfcp_linalg::Matrix;
use mfcp_optim::rounding::solve_discrete;
use mfcp_optim::solver::{solve_relaxed, SolverOptions};
use mfcp_optim::{
    BarrierKind, Budget, CancelToken, MatchingProblem, RelaxationParams, RobustSolver, SolveCtx,
};
use mfcp_platform::dataset::{NoiseConfig, PlatformDataset};
use mfcp_platform::embedding::FeatureEmbedder;
use mfcp_platform::fault::{simulate_with_faults, ClusterOutage, FaultPlan};
use mfcp_platform::settings::{ClusterPool, Setting};
use mfcp_platform::task::TaskGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn solver_ladder_demo() {
    println!("== 1. Robust solver: typed rejection and greedy fallback ==");
    // Reliability 0.7 everywhere with gamma = 0.95 makes the uniform
    // start infeasible for the reliability constraint; with a raw log
    // barrier (eps = 0) its linear extension divides by zero and the
    // first gradient step is -inf.
    let problem = MatchingProblem::new(Matrix::filled(2, 4, 1.0), Matrix::filled(2, 4, 0.7), 0.95);
    let params = RelaxationParams {
        barrier: BarrierKind::Log { eps: 0.0 },
        ..Default::default()
    };

    let raw = solve_relaxed(&problem, &params, &SolverOptions::default());
    println!(
        "plain solver:  objective {} (finite: {})",
        raw.objective,
        raw.objective.is_finite()
    );

    match RobustSolver::new(params).solve(&problem, SolveCtx::default()) {
        Ok(sol) => println!("robust solver: unexpectedly solved via {}", sol.stage),
        Err(e) => println!("robust solver: {e}"),
    }

    // With a valid barrier but a request budget that has already run
    // out (its cancel token fired), the primary attempt stops at its
    // first iterate with a deadline error and greedy rounding still
    // serves a feasible 0/1 matching. (The instance above is symmetric,
    // so its uniform start is already stationary and would be returned
    // without an iterate; this one is not.)
    let problem = MatchingProblem::new(
        Matrix::from_rows(&[&[1.0, 2.0, 1.5, 0.5], &[2.0, 1.0, 0.5, 1.5]]),
        Matrix::filled(2, 4, 0.9),
        0.8,
    );
    let token = CancelToken::new();
    token.cancel();
    let solver = RobustSolver::new(RelaxationParams::default())
        .with_budget(Budget::unlimited().with_cancel(token));
    match solver.solve(&problem, SolveCtx::default()) {
        Ok(sol) => {
            println!(
                "expired budget: objective {:.6} via {}",
                sol.objective, sol.stage
            );
            println!("recovery path: {}", sol.diagnostics.path());
            for a in &sol.diagnostics.attempts {
                println!(
                    "  {:<16} iters {:>5} {:>8.3}s  {:?}",
                    a.stage.to_string(),
                    a.iterations,
                    a.elapsed_secs,
                    a.outcome
                );
            }
        }
        Err(e) => println!("robust solver failed: {e}"),
    }
    println!();
}

fn guarded_training_demo() {
    println!("== 2. NaN-guarded training with rollback ==");
    let model = ClusterPool::standard().setting(Setting::A);
    let mut rng = StdRng::seed_from_u64(31);
    let mut train = PlatformDataset::generate(
        &model,
        &FeatureEmbedder::default_platform(),
        &TaskGenerator::default(),
        12,
        &NoiseConfig::default(),
        &mut rng,
    );
    // One corrupt measurement: a NaN probe poisons every round that
    // samples task 3.
    train.times[(0, 3)] = f64::NAN;
    let cfg = MfcpTrainConfig {
        warm_start: TsmTrainConfig {
            hidden: vec![24],
            epochs: 120,
            batch_size: 16,
            ..Default::default()
        },
        rounds: 12,
        round_size: 6,
        gamma: 0.8,
        validation_rounds: 0,
        ..Default::default()
    };
    let (pred, report) = train_mfcp(&train, &cfg, 41);
    println!(
        "trained {} rounds, {} rollback(s), {} recovery event(s):",
        report.loss_history.len(),
        report.rollbacks(),
        report.recovery.len()
    );
    for e in &report.recovery {
        println!("  {e}");
    }
    let finite = pred.predictors.iter().all(|p| {
        p.predict_times(&train.features)
            .iter()
            .all(|v| v.is_finite())
            && p.predict_reliability(&train.features)
                .iter()
                .all(|v| v.is_finite())
    });
    println!("final predictors finite: {finite}");
    println!();
}

fn outage_execution_demo() {
    println!("== 3. Cluster outage with failure-aware re-matching ==");
    let t = Matrix::from_rows(&[
        &[1.0, 1.2, 0.8, 1.1, 0.9, 1.3],
        &[1.4, 1.0, 1.2, 0.9, 1.1, 1.0],
    ]);
    let a = Matrix::filled(2, 6, 0.97);
    let problem = MatchingProblem::new(t, a, 0.9);
    let assignment = solve_discrete(
        &problem,
        &RelaxationParams::default(),
        &SolverOptions::default(),
    );
    println!("planned assignment: {:?}", assignment.cluster_of);

    let healthy = simulate_with_faults(
        &problem,
        &assignment,
        &FaultPlan::none(),
        3,
        &mut StdRng::seed_from_u64(7),
    );
    // Cluster 0 goes down early and stays down for most of the round.
    let plan = FaultPlan::none()
        .with_outage(ClusterOutage::new(0, 0.5, 50.0))
        .with_stragglers(0.1, 3.0);
    let faulty = simulate_with_faults(
        &problem,
        &assignment,
        &plan,
        3,
        &mut StdRng::seed_from_u64(7),
    );

    println!(
        "healthy: makespan {:.2}  success rate {:.2}  remapped {:?}",
        healthy.makespan, healthy.success_rate, healthy.remapped
    );
    println!(
        "faulty:  makespan {:.2}  success rate {:.2}  remapped {:?}  outage kills {}  stragglers {}",
        faulty.makespan,
        faulty.success_rate,
        faulty.remapped,
        faulty.outage_kills,
        faulty.stragglers
    );
    println!("final clusters under faults: {:?}", faulty.final_cluster);
}

fn main() {
    solver_ladder_demo();
    guarded_training_demo();
    outage_execution_demo();
}
