//! The two workloads and the inputs each one builds from its seed.
//!
//! Each workload runs both of MFCP's end-to-end paths, because every
//! run reports every end-to-end metric: replays of a multi-day trace
//! through fresh `ExchangeDaemon`s, and repeated `train_mfcp` calls on
//! one profiled dataset. The two differ in how each path is configured,
//! so that every layer is on the timed path of one of them and off the
//! path of the other; README.md says why each one exists.

use mfcp_core::methods::MfcpPredictor;
use mfcp_core::train::{GradientMode, MfcpTrainConfig, TsmTrainConfig};
use mfcp_optim::zeroth::ZerothOrderOptions;
use mfcp_optim::{LearnedDualHead, SpeedupCurve};
use mfcp_parallel::ParallelConfig;
use mfcp_platform::dataset::{NoiseConfig, PlatformDataset};
use mfcp_platform::prelude::{ClusterPool, FeatureEmbedder, PerfModel, Setting};
use mfcp_platform::stream::{generate_trace, TraceConfig, TraceEvent};
use mfcp_platform::task::TaskGenerator;
use mfcp_serve::{DaemonConfig, MatrixSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Share of every timed part spent serving; retraining gets the rest.
pub const SERVE_SHARE: f64 = 0.7;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ground-truth serving of a default-shaped trace, with MFCP-FG
    /// retrains under the paper's speedup curve.
    ServeDay,
    /// Learned serving over five pool clusters with a dual head, with
    /// the MFCP-AD retrains that train both.
    ServeLearned,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ServeDay, Workload::ServeLearned];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeDay => "serve_day",
            Workload::ServeLearned => "serve_learned",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed configuration.
    pub fn spec(self) -> Spec {
        match self {
            Workload::ServeDay => {
                let mut train = train_config(GradientMode::ForwardGradient(fg_options()), 24, 30);
                train.speedup = vec![SpeedupCurve::paper_parallel(); 3];
                Spec {
                    pool: Setting::A.indices().to_vec(),
                    train,
                    dataset_tasks: 160,
                    learned: false,
                    trace_days: 5.0,
                    service_secs: 7_200.0,
                }
            }
            Workload::ServeLearned => Spec {
                pool: (0..5).collect(),
                train: train_config(GradientMode::Analytic, 16, 60),
                dataset_tasks: 48,
                learned: true,
                trace_days: 10.0,
                service_secs: 1_800.0,
            },
        }
    }
}

/// Seed of the profiled history every workload retrains on and is
/// evaluated against. It is fixed, so every retrain of every run
/// repeats the same inputs: retrain timings vary only with the host,
/// and `test_regret` is the same for every run seed. (Drawn per seed,
/// the spike guard rolled back 0–42% of MFCP-FG rounds, so the work in
/// a retrain varied by nearly half with the seed.) The run's seed draws
/// the serve trace.
pub const HISTORY_SEED: u64 = 0x4D46_4350;

/// The zeroth-order options of `serve_day`'s retrain (and of the
/// off-path zeroth probe on `serve_learned`).
pub fn fg_options() -> ZerothOrderOptions {
    ZerothOrderOptions {
        delta: 0.05,
        samples: 4,
        parallel: ParallelConfig::default(),
    }
}

/// A small platform-style retrain: supervised warm start, then
/// decision-focused rounds at the solver's default 400-iteration cap.
fn train_config(mode: GradientMode, rounds: usize, epochs: usize) -> MfcpTrainConfig {
    MfcpTrainConfig {
        warm_start: TsmTrainConfig {
            hidden: vec![16],
            epochs,
            ..TsmTrainConfig::default()
        },
        rounds,
        round_size: 8,
        gamma: 0.8,
        validation_rounds: 3,
        validate_every: rounds.div_ceil(2).max(1),
        mode,
        ..MfcpTrainConfig::default()
    }
}

/// A workload's fixed configuration.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Indices into [`ClusterPool::standard`].
    pub pool: Vec<usize>,
    /// The retrain configuration (every retrain in a run repeats it).
    pub train: MfcpTrainConfig,
    /// Tasks in the profiled training dataset (the held-out test set
    /// has the same size).
    pub dataset_tasks: usize,
    /// Serve from the retrained predictors, with a [`LearnedDualHead`]
    /// trained alongside them and attached to the daemon; otherwise
    /// serve from the ground truth.
    pub learned: bool,
    /// Virtual length of each part's serve trace, sized so one pass
    /// fits in a part's serve share at the default run length.
    pub trace_days: f64,
    /// Mean task service time of the serve trace.
    pub service_secs: f64,
}

/// Everything one part of a run needs, built during its set-up: the
/// serve trace from the run's seed and the part's index, everything else
/// from [`HISTORY_SEED`].
pub struct Inputs {
    /// The workload's configuration.
    pub spec: Spec,
    /// The run's seed (the trace comes from it and the part).
    pub seed: u64,
    /// Ground-truth performance model of the workload's clusters.
    pub model: PerfModel,
    /// Feature embedding the predictors train and serve on.
    pub embedder: FeatureEmbedder,
    /// Profiled training dataset.
    pub train: PlatformDataset,
    /// Held-out dataset for `test_regret`.
    pub test: PlatformDataset,
    /// The part's serve trace.
    pub trace: Vec<TraceEvent>,
    /// The set-up warm-up trace: one virtual day of the workload's trace
    /// shape, drawn from [`HISTORY_SEED`] rather than the run's seed, so
    /// every set-up of every run replays the same events.
    pub warm_up: Vec<TraceEvent>,
}

/// The model a retrain produced: predictors plus, on dual-head
/// workloads, the trained head.
#[derive(Clone)]
pub struct Trained {
    /// The retrained predictor.
    pub predictor: MfcpPredictor,
    /// The dual head trained alongside it, if the workload has one.
    pub head: Option<LearnedDualHead>,
    /// Relaxed regret per round (the loss history).
    pub loss_history: Vec<f64>,
    /// Recovery events that skipped a cluster gradient.
    pub skipped_clusters: u64,
}

impl Inputs {
    /// Builds the inputs of part `part` of a run with `seed`: datasets,
    /// trace. Every part of a run serves its own trace, so a run's
    /// quality averages over as many independent traces as it has parts.
    pub fn build(workload: Workload, seed: u64, part: u64) -> Inputs {
        let spec = workload.spec();
        let model = ClusterPool::standard().select(&spec.pool);
        let embedder = FeatureEmbedder::bottlenecked_platform();
        let mut rng = StdRng::seed_from_u64(HISTORY_SEED);
        let generator = TaskGenerator::default();
        let noise = NoiseConfig::default();
        let train = PlatformDataset::generate(
            &model,
            &embedder,
            &generator,
            spec.dataset_tasks,
            &noise,
            &mut rng,
        );
        let test = PlatformDataset::generate(
            &model,
            &embedder,
            &generator,
            spec.dataset_tasks,
            &noise,
            &mut rng,
        );
        let draw = |seed: u64, days: f64| {
            generate_trace(&TraceConfig {
                seed,
                duration_secs: days * 86_400.0,
                mean_service_secs: spec.service_secs,
                clusters: model.len(),
                outages: (3.0 * days).round() as usize,
                ..TraceConfig::default()
            })
        };
        let warm_up = draw(HISTORY_SEED, 1.0);
        let trace_seed =
            (seed ^ 0x5EED_7ACE).wrapping_add(part.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let trace = draw(trace_seed, spec.trace_days);
        Inputs {
            spec,
            seed,
            model,
            embedder,
            train,
            test,
            trace,
            warm_up,
        }
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.model.len()
    }

    /// One retrain, exactly as the platform runs it: the same dataset,
    /// configuration and seed every time (a fresh dual head on dual-head
    /// workloads), so repeated calls differ only in timing.
    pub fn retrain(&self) -> Trained {
        let mut head = self
            .spec
            .learned
            .then(|| LearnedDualHead::new(self.clusters(), HISTORY_SEED));
        let (predictor, report) = match head.as_mut() {
            Some(h) => mfcp_core::train::train_mfcp_with_dual_head(
                &self.train,
                &self.spec.train,
                HISTORY_SEED,
                h,
            ),
            None => mfcp_core::train::train_mfcp(&self.train, &self.spec.train, HISTORY_SEED),
        };
        let skipped_clusters = report
            .recovery
            .iter()
            .filter(|e| matches!(e, mfcp_core::train::RecoveryEvent::SkippedCluster { .. }))
            .count() as u64;
        Trained {
            predictor,
            head,
            loss_history: report.loss_history,
            skipped_clusters,
        }
    }

    /// The daemon configuration every workload serves with.
    pub fn daemon_config(&self) -> DaemonConfig {
        DaemonConfig::default()
    }

    /// The daemon's matrix source: the ground truth, or the retrained
    /// predictors over the workload's embedding.
    pub fn source(&self, trained: &Trained) -> MatrixSource {
        if self.spec.learned {
            MatrixSource::Learned {
                predictors: trained.predictor.predictors.clone(),
                embedder: self.embedder.clone(),
            }
        } else {
            MatrixSource::GroundTruth(self.model.clone())
        }
    }
}
