//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! Every binary in this crate follows the same protocol, mirroring §4.1:
//! for each random seed, (1) generate a fresh platform dataset for the
//! chosen cluster setting, (2) train each method on the training half,
//! (3) evaluate regret / reliability / utilization over sampled test
//! rounds against the exact branch-and-bound optimum, and (4) aggregate
//! mean ± std across seeds.

// `deny`, not `forbid`: the one `unsafe` block in this crate is the
// thread-CPU clock in `perfgate::thread_cpu_secs`, allowed locally.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod perfgate;
pub mod report;

/// Serializes this crate's tests that reset the process-wide `mfcp_obs`
/// registry: one test's reset would zero the counters another is
/// about to assert on.
#[cfg(test)]
pub(crate) static OBS_REGISTRY: std::sync::Mutex<()> = std::sync::Mutex::new(());

use mfcp_core::eval::{evaluate_method, EvalOptions, MethodScores};
use mfcp_core::methods::{PerformancePredictor, TamPredictor};
use mfcp_core::train::{
    train_mfcp, train_tsm, train_ucb, GradientMode, MfcpTrainConfig, TsmTrainConfig,
};
use mfcp_optim::solver::SolverOptions;
use mfcp_optim::zeroth::ZerothOrderOptions;
use mfcp_optim::{BarrierKind, CostKind, RelaxationParams, SpeedupCurve};
use mfcp_parallel::ParallelConfig;
use mfcp_platform::dataset::{NoiseConfig, PlatformDataset};
use mfcp_platform::embedding::FeatureEmbedder;
use mfcp_platform::metrics::MeanStd;
use mfcp_platform::settings::{ClusterPool, Setting};
use mfcp_platform::task::TaskGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::Path;

/// Which system to train and evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// Task-agnostic averages.
    Tam,
    /// Two-stage MSE predictors.
    Tsm,
    /// Robust confidence-bound matching.
    Ucb,
    /// MFCP with analytic KKT gradients.
    MfcpAd,
    /// MFCP with zeroth-order forward gradients.
    MfcpFg,
}

impl MethodKind {
    /// Paper display name.
    pub fn name(self) -> &'static str {
        match self {
            MethodKind::Tam => "TAM",
            MethodKind::Tsm => "TSM",
            MethodKind::Ucb => "UCB",
            MethodKind::MfcpAd => "MFCP-AD",
            MethodKind::MfcpFg => "MFCP-FG",
        }
    }

    /// The paper's five methods in display order.
    pub const ALL: [MethodKind; 5] = [
        MethodKind::Tam,
        MethodKind::Tsm,
        MethodKind::Ucb,
        MethodKind::MfcpAd,
        MethodKind::MfcpFg,
    ];
}

/// One experiment's full configuration.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    /// Cluster setting (A/B/C).
    pub setting: Setting,
    /// Training tasks sampled per seed.
    pub n_train: usize,
    /// Test tasks sampled per seed.
    pub n_test: usize,
    /// Reliability threshold `γ`.
    pub gamma: f64,
    /// Tasks per matching round `N`.
    pub round_size: usize,
    /// Evaluation rounds per seed.
    pub eval_rounds: usize,
    /// Speedup curve applied to every cluster (`None` = sequential).
    pub speedup: Option<SpeedupCurve>,
    /// Relaxation hyper-parameters.
    pub relaxation: RelaxationParams,
    /// Decision-focused training rounds for MFCP.
    pub mfcp_rounds: usize,
    /// Supervised warm-start / baseline training config.
    pub supervised: TsmTrainConfig,
    /// UCB confidence width.
    pub kappa: f64,
    /// Measurement noise on the training data.
    pub noise: NoiseConfig,
    /// Use the lossy (projection-only) task embedding instead of the raw
    /// structural features. The paper's GNN embedder is similarly
    /// imperfect; an information bottleneck forces predictors to
    /// *underfit*, which is precisely the regime where matching-focused
    /// training pays off (Fig. 2's predictor is a linear regression).
    pub lossy_embedding: bool,
}

impl Default for ExperimentSetup {
    fn default() -> Self {
        ExperimentSetup {
            setting: Setting::A,
            // The paper's regime: physical measurements are expensive and
            // noisy, and the predictors are deliberately small — the
            // capacity limit is what gives matching-focused training its
            // edge (Fig. 2: the predictor must choose *where* to be
            // accurate).
            n_train: 100,
            n_test: 60,
            gamma: 0.82,
            round_size: 5,
            eval_rounds: 30,
            speedup: None,
            relaxation: RelaxationParams::default(),
            mfcp_rounds: 240,
            supervised: TsmTrainConfig {
                hidden: vec![8],
                epochs: 200,
                ..Default::default()
            },
            kappa: 1.0,
            noise: NoiseConfig {
                time_rel_std: 0.10,
                reliability_trials: 15,
            },
            lossy_embedding: true,
        }
    }
}

impl ExperimentSetup {
    /// The task embedder implied by `lossy_embedding`.
    pub fn embedder(&self) -> FeatureEmbedder {
        if self.lossy_embedding {
            FeatureEmbedder::bottlenecked_platform()
        } else {
            FeatureEmbedder::default_platform()
        }
    }

    fn speedup_vec(&self, m: usize) -> Vec<SpeedupCurve> {
        match self.speedup {
            Some(curve) => vec![curve; m],
            None => Vec::new(),
        }
    }

    /// Generates the per-seed train/test datasets.
    pub fn datasets(&self, seed: u64) -> (PlatformDataset, PlatformDataset) {
        let model = ClusterPool::standard().setting(self.setting);
        let embedder = self.embedder();
        let generator = TaskGenerator::default();
        let noise = self.noise;
        let mut rng = StdRng::seed_from_u64(seed);
        let train = PlatformDataset::generate(
            &model,
            &embedder,
            &generator,
            self.n_train,
            &noise,
            &mut rng,
        );
        let test =
            PlatformDataset::generate(&model, &embedder, &generator, self.n_test, &noise, &mut rng);
        (train, test)
    }

    /// Builds the MFCP training config for a gradient mode.
    pub fn mfcp_config(&self, m: usize, mode: GradientMode) -> MfcpTrainConfig {
        MfcpTrainConfig {
            warm_start: self.supervised.clone(),
            rounds: self.mfcp_rounds,
            round_size: self.round_size,
            lr: 5e-3,
            gamma: self.gamma,
            speedup: self.speedup_vec(m),
            relaxation: self.relaxation,
            // Implicit differentiation assumes a converged stationary
            // point; give the training-time solver a tight budget.
            solver: SolverOptions {
                max_iters: 2000,
                tol: 1e-11,
                ..Default::default()
            },
            mode,
            alternating: true,
            ..Default::default()
        }
    }

    /// Default zeroth-order options for MFCP-FG.
    pub fn zeroth_options(&self) -> ZerothOrderOptions {
        ZerothOrderOptions {
            delta: 0.05,
            samples: 8,
            parallel: ParallelConfig::default(),
        }
    }

    /// Evaluation options matching this setup.
    pub fn eval_options(&self, m: usize) -> EvalOptions {
        EvalOptions {
            round_size: self.round_size,
            rounds: self.eval_rounds,
            gamma: self.gamma,
            speedup: self.speedup_vec(m),
            relaxation: self.relaxation,
            ..Default::default()
        }
    }

    /// Trains one method on `train` (3 clusters) and returns it boxed.
    pub fn train_method(
        &self,
        kind: MethodKind,
        train: &PlatformDataset,
        seed: u64,
    ) -> Box<dyn PerformancePredictor> {
        let m = train.clusters();
        match kind {
            MethodKind::Tam => Box::new(TamPredictor::fit(train)),
            MethodKind::Tsm => Box::new(train_tsm(train, &self.supervised, seed)),
            MethodKind::Ucb => Box::new(train_ucb(train, &self.supervised, self.kappa, seed)),
            MethodKind::MfcpAd => {
                let cfg = self.mfcp_config(m, GradientMode::Analytic);
                Box::new(train_mfcp(train, &cfg, seed).0)
            }
            MethodKind::MfcpFg => {
                let cfg = self.mfcp_config(m, GradientMode::ForwardGradient(self.zeroth_options()));
                Box::new(train_mfcp(train, &cfg, seed).0)
            }
        }
    }

    /// Runs one method for one seed: fresh data, train, evaluate.
    pub fn run_method_seed(&self, kind: MethodKind, seed: u64) -> MethodScores {
        let (train, test) = self.datasets(seed);
        let method = self.train_method(kind, &train, seed.wrapping_add(101));
        let opts = self.eval_options(test.clusters());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(707));
        evaluate_method(method.as_ref(), &test, &opts, &mut rng)
    }
}

/// Per-method aggregate over seeds (mean of per-seed means, std across
/// seeds — the paper's error bars).
#[derive(Debug, Clone)]
pub struct AggregateScores {
    /// Method display name.
    pub method: String,
    /// Regret across seeds.
    pub regret: MeanStd,
    /// Reliability across seeds.
    pub reliability: MeanStd,
    /// Utilization across seeds.
    pub utilization: MeanStd,
    /// Per-seed mean regrets, aligned with the seed list (for paired
    /// comparisons across methods).
    pub per_seed_regret: Vec<f64>,
}

/// Runs `kind` over all `seeds` and aggregates.
pub fn run_method(setup: &ExperimentSetup, kind: MethodKind, seeds: &[u64]) -> AggregateScores {
    let per_seed: Vec<MethodScores> = seeds
        .iter()
        .map(|&s| setup.run_method_seed(kind, s))
        .collect();
    AggregateScores {
        method: kind.name().into(),
        regret: MeanStd::from_values(per_seed.iter().map(|s| s.regret.mean())),
        reliability: MeanStd::from_values(per_seed.iter().map(|s| s.reliability.mean())),
        utilization: MeanStd::from_values(per_seed.iter().map(|s| s.utilization.mean())),
        per_seed_regret: per_seed.iter().map(|s| s.regret.mean()).collect(),
    }
}

/// Renders a paper-style table and returns it (also suitable for stdout).
pub fn format_table(title: &str, rows: &[AggregateScores]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(
        out,
        "{:<10} {:>18} {:>18} {:>18}",
        "Method", "Regret", "Reliability", "Utilization"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>18} {:>18} {:>18}",
            r.method,
            r.regret.to_string(),
            r.reliability.to_string(),
            r.utilization.to_string()
        );
    }
    out
}

/// Writes rows as CSV under `results/` (creating the directory).
pub fn write_csv(path: &str, header: &str, lines: &[String]) -> std::io::Result<()> {
    let path = Path::new(path);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut content = String::from(header);
    content.push('\n');
    for l in lines {
        content.push_str(l);
        content.push('\n');
    }
    std::fs::write(path, content)
}

/// The ablation variants of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationVariant {
    /// (1) Linear Σ-of-times cost instead of the smoothed max.
    LinearCost,
    /// (2) Hard hinge penalty instead of the log barrier.
    HardPenalty,
    /// (3) Zeroth-order gradients in the convex case.
    ZerothOrder,
    /// Full MFCP (smooth max + log barrier + analytic gradients).
    Full,
}

impl AblationVariant {
    /// Display label matching Table 1.
    pub fn label(self) -> &'static str {
        match self {
            AblationVariant::LinearCost => "(1) linear cost",
            AblationVariant::HardPenalty => "(2) hard penalty",
            AblationVariant::ZerothOrder => "(3) zeroth-order",
            AblationVariant::Full => "MFCP",
        }
    }

    /// All four rows of Table 1.
    pub const ALL: [AblationVariant; 4] = [
        AblationVariant::LinearCost,
        AblationVariant::HardPenalty,
        AblationVariant::ZerothOrder,
        AblationVariant::Full,
    ];

    /// Maps the variant onto a setup + gradient mode.
    pub fn configure(self, base: &ExperimentSetup) -> (ExperimentSetup, GradientMode) {
        let mut setup = base.clone();
        let mode = match self {
            AblationVariant::LinearCost => {
                setup.relaxation.cost = CostKind::LinearSum;
                GradientMode::Analytic
            }
            AblationVariant::HardPenalty => {
                setup.relaxation.barrier = BarrierKind::HardPenalty;
                GradientMode::Analytic
            }
            AblationVariant::ZerothOrder => GradientMode::ForwardGradient(base.zeroth_options()),
            AblationVariant::Full => GradientMode::Analytic,
        };
        (setup, mode)
    }
}

/// Runs one ablation variant over seeds. The variant's relaxation is used
/// **both for training and for the deployed matching** — the paper's
/// Table 1 row (1) explicitly simplifies "the time loss function f(·)
/// used for matching", so e.g. the linear-cost variant also *matches*
/// with the linear objective (which is what collapses its utilization).
pub fn run_ablation(
    base: &ExperimentSetup,
    variant: AblationVariant,
    seeds: &[u64],
) -> AggregateScores {
    let (train_setup, mode) = variant.configure(base);
    let per_seed: Vec<MethodScores> = seeds
        .iter()
        .map(|&seed| {
            let (train, test) = base.datasets(seed);
            let m = train.clusters();
            let cfg = train_setup.mfcp_config(m, mode.clone());
            let (pred, _) = train_mfcp(&train, &cfg, seed.wrapping_add(101));
            let opts = train_setup.eval_options(test.clusters());
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(707));
            evaluate_method(&pred, &test, &opts, &mut rng)
        })
        .collect();
    AggregateScores {
        method: variant.label().into(),
        regret: MeanStd::from_values(per_seed.iter().map(|s| s.regret.mean())),
        reliability: MeanStd::from_values(per_seed.iter().map(|s| s.reliability.mean())),
        utilization: MeanStd::from_values(per_seed.iter().map(|s| s.utilization.mean())),
        per_seed_regret: per_seed.iter().map(|s| s.regret.mean()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names() {
        assert_eq!(MethodKind::MfcpAd.name(), "MFCP-AD");
        assert_eq!(MethodKind::ALL.len(), 5);
        assert_eq!(AblationVariant::ALL.len(), 4);
    }

    #[test]
    fn tam_runs_end_to_end_quickly() {
        let setup = ExperimentSetup {
            n_train: 30,
            n_test: 20,
            eval_rounds: 4,
            ..Default::default()
        };
        let scores = setup.run_method_seed(MethodKind::Tam, 1);
        assert_eq!(scores.regret.count(), 4);
        assert!(scores.regret.mean() >= 0.0);
    }

    #[test]
    fn table_formatting() {
        let rows = vec![AggregateScores {
            method: "TAM".into(),
            regret: MeanStd::from_values([1.0, 2.0]),
            reliability: MeanStd::from_values([0.8, 0.9]),
            utilization: MeanStd::from_values([0.5, 0.6]),
            per_seed_regret: vec![1.0, 2.0],
        }];
        let t = format_table("Test", &rows);
        assert!(t.contains("TAM"));
        assert!(t.contains("1.500"));
    }

    #[test]
    fn ablation_configures_relaxation() {
        let base = ExperimentSetup::default();
        let (s, _) = AblationVariant::LinearCost.configure(&base);
        assert_eq!(s.relaxation.cost, CostKind::LinearSum);
        let (s, _) = AblationVariant::HardPenalty.configure(&base);
        assert_eq!(s.relaxation.barrier, BarrierKind::HardPenalty);
        let (s, _) = AblationVariant::Full.configure(&base);
        assert_eq!(s.relaxation.barrier, base.relaxation.barrier);
    }
}
