//! Workload behind the `report` binary: one pass through every
//! instrumented layer of the pipeline, sized for a CI smoke run.
//!
//! The stages mirror `fault_demo` — the robust solver's exits (typed
//! rejection, then a failed primary landing on greedy), guarded
//! training, fault-injected execution — but are
//! parameterized so CI can run a tiny configuration and the profile
//! snapshot still shows non-zero activity in every subsystem:
//!
//! * solver attempts (`optim.robust.attempts`),
//! * training epochs (`train.supervised.epochs`),
//! * batched training solves (`parallel.batch.calls`),
//! * re-matching attempts (`platform.faults.rematch`).
//!
//! [`measure_overhead`] A/Bs the same workload with recording enabled
//! vs. [`mfcp_obs::set_enabled`]`(false)` to bound the instrumentation
//! cost (the <5% budget recorded in DESIGN.md).

use mfcp_core::train::{train_mfcp, MfcpTrainConfig, TsmTrainConfig};
use mfcp_linalg::Matrix;
use mfcp_optim::rounding::solve_discrete;
use mfcp_optim::solver::SolverOptions;
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
use std::time::Instant;

/// Size knobs for one report workload pass.
#[derive(Debug, Clone)]
pub struct ReportConfig {
    /// Tasks in the training dataset and the fault-injected round.
    pub tasks: usize,
    /// Decision-focused training rounds.
    pub rounds: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for ReportConfig {
    fn default() -> Self {
        ReportConfig {
            tasks: 16,
            rounds: 3,
            seed: 7,
        }
    }
}

/// Stage 1: the robust solver's two exits. A degenerate barrier
/// (`eps = 0`) is rejected with a typed error before any attempt; then a
/// request budget whose cancel token has fired fails the primary
/// attempt at its first iterate, and greedy rounding answers.
pub(crate) fn solver_stage(cfg: &ReportConfig) {
    let n = cfg.tasks.max(2);
    let t = Matrix::from_fn(2, n, |i, j| 1.0 + 0.1 * ((i + j) % 5) as f64);
    let problem = MatchingProblem::new(t, Matrix::filled(2, n, 0.9), 0.8);
    let degenerate = RelaxationParams {
        barrier: BarrierKind::Log { eps: 0.0 },
        ..Default::default()
    };
    let _ = RobustSolver::new(degenerate).solve(&problem, SolveCtx::default());
    let token = CancelToken::new();
    token.cancel();
    let solver = RobustSolver::new(RelaxationParams::default())
        .with_budget(Budget::unlimited().with_cancel(token));
    let _ = solver.solve(&problem, SolveCtx::default());
}

/// Stage 2: a tiny guarded training run with one poisoned measurement
/// (exercising rollbacks) and periodic checkpoints.
pub(crate) fn training_stage(cfg: &ReportConfig) {
    let model = ClusterPool::standard().setting(Setting::A);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut train = PlatformDataset::generate(
        &model,
        &FeatureEmbedder::bottlenecked_platform(),
        &TaskGenerator::default(),
        cfg.tasks.max(8),
        &NoiseConfig::default(),
        &mut rng,
    );
    // One corrupt probe so the loss-spike guard has something to catch.
    let poisoned = 3.min(train.times.cols().saturating_sub(1));
    train.times[(0, poisoned)] = f64::NAN;
    let ckpt_dir = std::env::temp_dir().join(format!("mfcp-report-ckpt-{}", cfg.seed));
    let train_cfg = MfcpTrainConfig {
        warm_start: TsmTrainConfig {
            hidden: vec![8],
            epochs: 30,
            ..Default::default()
        },
        rounds: cfg.rounds,
        round_size: 4,
        gamma: 0.8,
        // Validation builds exact matching problems from *measured*
        // times, which asserts finiteness — incompatible with the
        // poisoned probe above (fault_demo disables it for the same
        // reason).
        validation_rounds: 0,
        checkpoint_every: cfg.rounds.max(1),
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..Default::default()
    };
    let _ = train_mfcp(&train, &train_cfg, cfg.seed.wrapping_add(1));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

/// Stage 3: a fault-injected execution round with a mid-run outage and
/// stragglers, exercising dispatch-time migration and failure re-queues.
pub(crate) fn fault_stage(cfg: &ReportConfig) {
    let n = cfg.tasks.max(4);
    let t = Matrix::from_fn(2, n, |i, j| 1.0 + 0.1 * ((i + j) % 5) as f64);
    let a = Matrix::filled(2, n, 0.9);
    let problem = MatchingProblem::new(t, a, 0.8);
    let assignment = solve_discrete(
        &problem,
        &RelaxationParams::default(),
        &SolverOptions::default(),
    );
    let plan = FaultPlan::none()
        .with_outage(ClusterOutage::new(0, 0.5, 30.0))
        .with_stragglers(0.2, 3.0);
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(2));
    let _ = simulate_with_faults(&problem, &assignment, &plan, 3, &mut rng);
}

/// Runs all three stages once under whatever recording state is current.
pub fn run_workload(cfg: &ReportConfig) {
    let _span = mfcp_obs::span("report_workload");
    solver_stage(cfg);
    training_stage(cfg);
    fault_stage(cfg);
}

/// Resets the registry, runs the workload with recording on, and returns
/// the resulting snapshot.
pub fn run_report(cfg: &ReportConfig) -> mfcp_obs::Snapshot {
    mfcp_obs::set_enabled(true);
    mfcp_obs::reset();
    run_workload(cfg);
    mfcp_obs::snapshot()
}

/// Result of an enabled-vs-disabled A/B timing run.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// Total wall time across repetitions with recording enabled.
    pub enabled_secs: f64,
    /// Total wall time across repetitions with recording disabled.
    pub disabled_secs: f64,
    /// Workload repetitions per arm.
    pub reps: usize,
}

impl OverheadReport {
    /// Relative overhead `(enabled - disabled) / disabled` (0 when the
    /// disabled arm measured as instantaneous, or when enabled ran
    /// faster — noise, not a negative cost).
    pub fn fraction(&self) -> f64 {
        if self.disabled_secs <= 0.0 {
            return 0.0;
        }
        ((self.enabled_secs - self.disabled_secs) / self.disabled_secs).max(0.0)
    }
}

/// Times `reps` workload passes with recording enabled, then `reps` with
/// recording disabled (after one untimed warm-up pass), restoring the
/// enabled state before returning.
pub fn measure_overhead(cfg: &ReportConfig, reps: usize) -> OverheadReport {
    let reps = reps.max(1);
    mfcp_obs::set_enabled(true);
    run_workload(cfg); // warm-up: page in code, spawn nothing lasting
    mfcp_obs::reset();

    let start = Instant::now();
    for _ in 0..reps {
        run_workload(cfg);
    }
    let enabled_secs = start.elapsed().as_secs_f64();

    mfcp_obs::set_enabled(false);
    let start = Instant::now();
    for _ in 0..reps {
        run_workload(cfg);
    }
    let disabled_secs = start.elapsed().as_secs_f64();
    mfcp_obs::set_enabled(true);

    OverheadReport {
        enabled_secs,
        disabled_secs,
        reps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_report_covers_every_subsystem() {
        let _registry = crate::OBS_REGISTRY
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let cfg = ReportConfig {
            tasks: 8,
            rounds: 2,
            seed: 3,
        };
        let snap = run_report(&cfg);
        for name in [
            "optim.robust.attempts",
            "optim.robust.stage.primary.failed",
            "optim.robust.stage.greedy-rounding.ok",
            "train.supervised.epochs",
            "parallel.batch.calls",
            "platform.faults.rematch",
            "platform.faults.attempts",
            "train.rounds",
        ] {
            let v = snap.counters.get(name).copied().unwrap_or(0);
            assert!(v > 0, "counter {name} should be non-zero, got {v}");
        }
        assert!(
            snap.spans.values().any(|s| s.total_secs > 0.0),
            "at least one span should have accumulated wall time"
        );
        let json = snap.to_json();
        assert!(json.contains("\"optim.robust.attempts\""));
        assert!(snap.to_text().contains("report_workload"));
    }
}
