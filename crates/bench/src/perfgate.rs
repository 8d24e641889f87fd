//! Continuous benchmark gate behind the `perfgate` binary.
//!
//! Runs a fixed suite of tier-1 workloads — an MFCP-AD solve, an MFCP-FG
//! solve, the MFCP-FG solve with the paper's speedup curve on every
//! cluster (`solve_fg_parallel`), one guarded training round, a
//! fault-injected replay, a batched relaxed-solve
//! fan-out (`batch_solve`), an online-serving trace replay with one
//! kill/restore cycle (`serve_replay`), the live ops surface — endpoint latency over every `mfcp_obs::http`
//! route plus a serve-replay overhead A/B with the ops server on vs off
//! (`obs_http`) — and the
//! learned-duals head-to-head on unseen instances: predict-seeded vs
//! cold vs previous-prices solves with a not-worse-than-cold tripwire
//! (`learned_duals`) — each repeated `runs` times, and emits a
//! schema-stable JSON report (`BENCH_perfgate.json` at the repo root):
//! median/p95 wall time per suite, the deterministic observability
//! counters and histogram quantiles from the final run, and enough
//! environment metadata to interpret a number before comparing it.
//!
//! Sub-millisecond suites are timed with batched repetition: each run
//! executes the workload `inner_reps` times (see the `SUITES` table) and
//! reports elapsed-over-reps, so the gate measures a multi-millisecond
//! window instead of scheduler noise.
//!
//! `--check` mode reads a checked-in baseline (`bench/baseline.json`),
//! compares suite-by-suite, and exits nonzero on regression:
//!
//! * `median_wall_secs` gates with a noise-tolerant relative threshold
//!   (default 25%, `--tolerance` overrides, and a baseline may pin a
//!   per-metric threshold in its `"thresholds"` map);
//! * counter metrics gate on *increases* only (more solver attempts,
//!   more rollbacks, more re-matches than the baseline is a regression;
//!   fewer is an improvement), and a baseline counter missing from the
//!   current report fails like a missing suite;
//! * `hist.*` quantile metrics are informational — bucket resolution and
//!   scheduling noise make them poor gates.
//!
//! Everything is hand-rolled JSON validated by [`mfcp_obs::json`]; there
//! is no serde in this workspace.

use crate::batch::{build_round_problems, solve_rounds, BatchWorkloadConfig};
use crate::report::{fault_stage, training_stage, ReportConfig};
use mfcp_core::train::{train_mfcp, GradientMode, MfcpTrainConfig, TsmTrainConfig};
use mfcp_linalg::Matrix;
use mfcp_obs::json::{self, Json};
use mfcp_optim::zeroth::ZerothOrderOptions;
use mfcp_optim::{
    LearnedDualHead, MatchingProblem, RelaxationParams, RobustSolver, SeedProvenance, SeedSource,
    SolveCtx, SolverOptions, SpeedupCurve,
};
use mfcp_parallel::ParallelConfig;
use mfcp_platform::dataset::{NoiseConfig, PlatformDataset};
use mfcp_platform::embedding::FeatureEmbedder;
use mfcp_platform::settings::{ClusterPool, Setting};
use mfcp_platform::stream::{generate_trace, TraceConfig};
use mfcp_platform::task::TaskGenerator;
use mfcp_serve::{replay_with_kills, DaemonConfig, MatrixSource};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Report schema version; bump on any field rename or semantic change.
pub const SCHEMA_VERSION: u64 = 1;

/// Default relative regression threshold (25%).
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Size knobs for one perfgate pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfgateConfig {
    /// Timed repetitions per suite (median over these).
    pub runs: usize,
    /// Tasks per generated dataset / fault round.
    pub tasks: usize,
    /// Decision-focused training rounds in the solve suites.
    pub rounds: usize,
    /// Base RNG seed (suites derive their own sub-seeds).
    pub seed: u64,
}

impl Default for PerfgateConfig {
    fn default() -> Self {
        PerfgateConfig {
            runs: 3,
            tasks: 12,
            rounds: 3,
            seed: 7,
        }
    }
}

impl PerfgateConfig {
    fn report_cfg(&self) -> ReportConfig {
        ReportConfig {
            tasks: self.tasks,
            rounds: self.rounds,
            seed: self.seed,
        }
    }
}

/// One suite's aggregated timings plus the final run's metric snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    /// Suite name (stable across versions; baseline keys match on it).
    pub name: String,
    /// Per-run wall times, in run order.
    pub wall_secs: Vec<f64>,
    /// Median of `wall_secs`.
    pub median_wall_secs: f64,
    /// 95th percentile of `wall_secs` (max for small run counts).
    pub p95_wall_secs: f64,
    /// Observability counters (`name -> value`) and histogram quantiles
    /// (`hist.<name>.p50` / `.p95`) from the final run.
    pub metrics: BTreeMap<String, f64>,
}

/// A full perfgate pass: config echo, environment, and per-suite results.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfgateReport {
    /// Schema version of the serialized form.
    pub schema_version: u64,
    /// Seconds since the Unix epoch when the report was produced.
    pub created_unix: u64,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available parallelism on the producing machine.
    pub threads: u64,
    /// The config the pass ran with.
    pub config: PerfgateConfig,
    /// Suite results in fixed suite order.
    pub suites: Vec<SuiteResult>,
    /// Optional per-metric tolerance overrides, keyed
    /// `"<suite>.<metric>"`. Only meaningful on a baseline.
    pub thresholds: BTreeMap<String, f64>,
}

/// One gate failure found by [`PerfgateReport::compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Suite the metric belongs to.
    pub suite: String,
    /// Metric name (`median_wall_secs` or a counter name).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Relative change `(current - baseline) / baseline`.
    pub rel_change: f64,
    /// Tolerance the change was gated against.
    pub tolerance: f64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}.{}: {:.6} -> {:.6} (+{:.1}%, tolerance {:.0}%)",
            self.suite,
            self.metric,
            self.baseline,
            self.current,
            self.rel_change * 100.0,
            self.tolerance * 100.0
        )
    }
}

// ---------------------------------------------------------------------
// Suites
// ---------------------------------------------------------------------

fn tiny_dataset(cfg: &PerfgateConfig, salt: u64) -> PlatformDataset {
    let model = ClusterPool::standard().setting(Setting::A);
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(salt));
    PlatformDataset::generate(
        &model,
        &FeatureEmbedder::bottlenecked_platform(),
        &TaskGenerator::default(),
        cfg.tasks.max(8),
        &NoiseConfig::default(),
        &mut rng,
    )
}

fn solve_train_cfg(cfg: &PerfgateConfig, mode: GradientMode) -> MfcpTrainConfig {
    MfcpTrainConfig {
        warm_start: TsmTrainConfig {
            hidden: vec![8],
            epochs: 20,
            ..Default::default()
        },
        // Full-population rounds over enough of them for the predictors to
        // settle: every round re-solves the same task set (shuffled), the
        // slowly-drifting re-solve regime of a live platform's retrains.
        rounds: cfg.rounds.max(6),
        round_size: cfg.tasks.max(8),
        gamma: 0.8,
        validation_rounds: 0,
        mode,
        // Run-to-convergence solver (the deployed `ExperimentSetup` regime)
        // rather than the 400-iteration default cap, so iteration counts
        // respond to solve difficulty.
        solver: SolverOptions {
            max_iters: 20_000,
            tol: 1e-8,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// MFCP-AD: decision-focused rounds with analytic KKT gradients. This is
/// the tier-1 hot path — PGD solves plus implicit differentiation.
fn suite_solve_ad(cfg: &PerfgateConfig) {
    let data = tiny_dataset(cfg, 11);
    let train_cfg = solve_train_cfg(cfg, GradientMode::Analytic);
    let _ = train_mfcp(&data, &train_cfg, cfg.seed.wrapping_add(1));
}

/// MFCP-FG: the same rounds with zeroth-order forward gradients, which
/// multiplies the solve count by the perturbation sample count.
fn suite_solve_fg(cfg: &PerfgateConfig) {
    let data = tiny_dataset(cfg, 13);
    let train_cfg = solve_fg_cfg(cfg);
    let _ = train_mfcp(&data, &train_cfg, cfg.seed.wrapping_add(2));
}

/// `solve_fg`'s rounds with the paper's speedup curve on every cluster
/// (paper §4.5), the setting MFCP-FG exists for: every solve carries
/// count prices, and its `optim.solve.cap_hits`,
/// `optim.solve.price_steps` and `optim.solve.model_fallbacks` counters
/// show whether the price trials still carry it past the curve's kink
/// at one task.
fn suite_solve_fg_parallel(cfg: &PerfgateConfig) {
    let data = tiny_dataset(cfg, 13);
    let mut train_cfg = solve_fg_cfg(cfg);
    train_cfg.speedup = vec![SpeedupCurve::paper_parallel(); data.clusters()];
    let _ = train_mfcp(&data, &train_cfg, cfg.seed.wrapping_add(2));
}

fn solve_fg_cfg(cfg: &PerfgateConfig) -> MfcpTrainConfig {
    let zeroth = ZerothOrderOptions {
        delta: 0.05,
        samples: 4,
        parallel: ParallelConfig::default(),
    };
    let mut train_cfg = solve_train_cfg(cfg, GradientMode::ForwardGradient(zeroth));
    // FG multiplies the solve count by ~2·samples per cluster; keep these
    // suites at the smaller round shape so they track the FG machinery's
    // cost without dominating the gate's wall time.
    train_cfg.rounds = cfg.rounds.max(1);
    train_cfg.round_size = 4;
    train_cfg
}

/// One guarded training round with a poisoned sample and a checkpoint —
/// the rollback/checkpoint machinery, not just the solver.
fn suite_train_round(cfg: &PerfgateConfig) {
    training_stage(&cfg.report_cfg());
}

/// Fault-injected replay: outage + stragglers over a discrete matching.
fn suite_fault_replay(cfg: &PerfgateConfig) {
    fault_stage(&cfg.report_cfg());
}

/// Batched relaxed solves over structurally identical round problems
/// through `solve_batch` (deterministic ordering, per-slot isolation).
fn suite_batch_solve(cfg: &PerfgateConfig) {
    let bcfg = BatchWorkloadConfig {
        tasks: cfg.tasks.max(8) * 2,
        seed: cfg.seed.wrapping_add(17),
        ..Default::default()
    };
    let problems = build_round_problems(&bcfg);
    let _ = solve_rounds(&problems, &ParallelConfig::default());
}

/// Online serving: replay a short synthetic trace through the exchange
/// daemon, with one snapshot/kill/restore cycle at the halfway mark so
/// the gate also times crash recovery. Latency percentiles surface as
/// `hist.serve.match_latency_secs.*` and the shed/deadline-miss
/// counters gate on increases like every other counter. The
/// bit-identity of the chaotic run is asserted by the serve crate's
/// differential tests; here we only keep the serving loop fast.
fn suite_serve_replay(cfg: &PerfgateConfig) {
    let trace = generate_trace(&TraceConfig {
        seed: cfg.seed.wrapping_add(23),
        duration_secs: 1800.0,
        mean_interarrival_secs: 60.0,
        mean_service_secs: 600.0,
        ..TraceConfig::default()
    });
    let config = DaemonConfig::default();
    let source = || MatrixSource::GroundTruth(ClusterPool::standard().setting(Setting::A));
    let dir = std::env::temp_dir().join(format!("mfcp_perfgate_serve_{}", std::process::id()));
    let outcome = replay_with_kills(&trace, &config, source, &dir, &[trace.len() / 2])
        .expect("serve replay with one kill/restore");
    std::fs::remove_dir_all(&dir).ok();
    assert!(outcome.counters.resolves > 0);
    assert!(outcome.last.is_some());
}

/// Learned-duals warm start head-to-head on *unseen* instances. A
/// [`LearnedDualHead`] is trained by observing cold-solved siblings of
/// a drifted convex family, then each held-out sibling is solved three
/// ways: cold (uniform seed), predict-seeded (the head is the only
/// start), and previous-prices (a drifted sibling's final prices handed
/// in as the start). Per-path iteration counts and wall times land in the
/// `learned.{cold,pred,warm}_iters` / `learned.{cold,pred,warm}_secs`
/// histograms, the iteration speedup in `gauge.learned.iter_speedup`
/// and the predicted/cold ratio of the median CPU times in
/// `gauge.learned.cpu_ratio`.
/// Tripwires: every predict-seeded solve must report
/// [`SeedProvenance::Seeded`] from [`SeedSource::Predicted`] and match
/// the cold objective to `1e-8`, and every previous-prices solve must
/// report [`SeedSource::Given`];
/// at the default scale the deterministic iteration counts must show
/// predict-seeded ≥ 1.2× faster than cold, and (release builds only)
/// predict-seeded must cost less thread CPU time than cold, compared on
/// the medians of interleaved pairs.
fn suite_learned_duals(cfg: &PerfgateConfig) {
    const M: usize = 3;
    let full_scale = cfg.tasks >= 12;
    let n = cfg.tasks.max(4);
    let params = RelaxationParams {
        rho: 0.05,
        ..Default::default()
    };
    // Step tolerance 1e-8 (not the differential suite's 1e-12): both
    // paths still land well inside the 1e-8 objective-gap bar (the
    // entropic objective is flat to ~ρ·dist² around the optimum), but
    // the seed's head start is not drowned by the deep-tolerance tail
    // that every start pays identically — at 1e-12 even a perfect seed
    // saves under 5% of the iterations.
    let mut solver = RobustSolver::new(params);
    solver.solver_opts = SolverOptions {
        max_iters: 20_000,
        tol: 1e-8,
        ..Default::default()
    };

    // One base instance; siblings drift the data ±1% around it. The
    // family mimics successive exchange rounds: same structure,
    // slightly different measurements, optima that cluster.
    let seed0 = cfg.seed.wrapping_add(31);
    let mut rng = StdRng::seed_from_u64(seed0);
    let t_base = Matrix::from_fn(M, n, |_, _| rng.gen_range(0.7..1.8));
    let a_base = Matrix::from_fn(M, n, |_, _| rng.gen_range(0.75..1.0));
    let sibling = |k: u64| {
        let mut rng = StdRng::seed_from_u64(seed0.wrapping_add(1 + k));
        let t = Matrix::from_fn(M, n, |i, j| {
            t_base[(i, j)] * (1.0 + 0.01 * rng.gen_range(-1.0..1.0))
        });
        let a = Matrix::from_fn(M, n, |i, j| {
            (a_base[(i, j)] * (1.0 + 0.01 * rng.gen_range(-1.0..1.0))).clamp(0.0, 1.0)
        });
        MatchingProblem::new(t, a, 0.6)
    };

    // Train the head on cold-solved siblings (never the eval ones).
    let (train_count, epochs) = if full_scale { (24, 1500) } else { (6, 30) };
    let mut head = LearnedDualHead::new(M, seed0);
    let train: Vec<(MatchingProblem, Matrix)> = (0..train_count)
        .map(|k| {
            let p = sibling(k);
            let x = solver
                .solve(&p, SolveCtx::default())
                .expect("train solve")
                .x;
            (p, x)
        })
        .collect();
    for _ in 0..epochs {
        for (p, x) in &train {
            head.observe(p, &params, x);
        }
    }
    assert!(head.ready(), "training must clear the readiness bar");

    let cold_iters_h = mfcp_obs::histogram("learned.cold_iters");
    let pred_iters_h = mfcp_obs::histogram("learned.pred_iters");
    let warm_iters_h = mfcp_obs::histogram("learned.warm_iters");
    let cold_secs_h = mfcp_obs::histogram("learned.cold_secs");
    let pred_secs_h = mfcp_obs::histogram("learned.pred_secs");
    let warm_secs_h = mfcp_obs::histogram("learned.warm_secs");

    let iters_of = |sol: &mfcp_optim::RobustSolution| -> usize {
        sol.diagnostics.attempts.iter().map(|a| a.iterations).sum()
    };

    let (mut cold_total, mut pred_total) = (0usize, 0usize);
    // Each held-out instance is timed in `PAIRS` interleaved
    // cold/predicted pairs of thread CPU seconds (the side that goes
    // first alternates): one solve takes tens of microseconds, so a
    // single sample is at the noise level, the median of 4 × `PAIRS`
    // is not. The solves are deterministic, so every repeat returns
    // the same answer.
    const PAIRS: u64 = 16;
    let (mut cold_cpu, mut pred_cpu) = (Vec::new(), Vec::new());
    for k in 0..4u64 {
        let p = sibling(1000 + k);
        let mut cold = None;
        let mut pred = None;
        for rep in 0..PAIRS {
            let cold_first = (k + rep) % 2 == 0;
            for cold_side in [cold_first, !cold_first] {
                let t0 = thread_cpu_secs();
                if cold_side {
                    cold = Some(solver.solve(&p, SolveCtx::default()).expect("cold solve"));
                    cold_cpu.push(thread_cpu_secs() - t0);
                    cold_secs_h.record(*cold_cpu.last().expect("timed"));
                } else {
                    // Predict-seeded: the head is the only seed source.
                    let ctx = SolveCtx {
                        predictor: Some(&head),
                        ..SolveCtx::default()
                    };
                    pred = Some(solver.solve(&p, ctx).expect("predicted solve"));
                    pred_cpu.push(thread_cpu_secs() - t0);
                    pred_secs_h.record(*pred_cpu.last().expect("timed"));
                }
            }
        }
        let (cold, pred) = (
            cold.expect("cold side ran"),
            pred.expect("predicted side ran"),
        );
        cold_iters_h.record(iters_of(&cold) as f64);
        cold_total += iters_of(&cold);
        pred_iters_h.record(iters_of(&pred) as f64);
        pred_total += iters_of(&pred);
        assert_eq!(
            pred.diagnostics.seed,
            SeedProvenance::Seeded(SeedSource::Predicted),
            "a ready head on an in-family instance must seed the solve"
        );
        assert!(
            (cold.objective - pred.objective).abs() <= 1e-8,
            "predicted solve off the cold objective: {} vs {}",
            pred.objective,
            cold.objective
        );

        // Previous prices: a drifted sibling's final prices handed in
        // as the start (the warm-start baseline, as the daemon runs it).
        let prev = solver
            .solve(&sibling(2000 + k), SolveCtx::default())
            .expect("sibling solve")
            .prices;
        let ctx = SolveCtx {
            prices: Some(&prev),
            ..SolveCtx::default()
        };
        let t0 = Instant::now();
        let warm = solver.solve(&p, ctx).expect("warm solve");
        warm_secs_h.record(t0.elapsed().as_secs_f64());
        warm_iters_h.record(iters_of(&warm) as f64);
        assert_eq!(
            warm.diagnostics.seed,
            SeedProvenance::Seeded(SeedSource::Given)
        );
    }
    mfcp_obs::gauge("learned.iter_speedup").set(cold_total as f64 / pred_total.max(1) as f64);

    if full_scale {
        // Iteration counts are deterministic, so this tripwire holds in
        // every build profile: the acceptance bar is ≥1.2× fewer PGD
        // iterations than cold on unseen instances.
        assert!(
            5 * cold_total >= 6 * pred_total,
            "predict-seeded speedup below 1.2x: {cold_total} cold iters vs {pred_total} predicted"
        );
        if !cfg!(debug_assertions) {
            // Medians of the pairs' thread CPU times: neither scheduler
            // noise nor a stolen vCPU decides the verdict.
            let pairs = cold_cpu.len();
            let (cold_cpu, pred_cpu) = (sorted_median(cold_cpu), sorted_median(pred_cpu));
            mfcp_obs::gauge("learned.cpu_ratio").set(pred_cpu / cold_cpu);
            assert!(
                pred_cpu < cold_cpu,
                "predict-seeded CPU time worse than cold: {pred_cpu:.6}s vs {cold_cpu:.6}s \
                 (medians of {pairs} interleaved pairs)"
            );
        }
    }
}

/// The median of `v`.
fn sorted_median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    median(&v)
}

/// CPU seconds the calling thread has run (`CLOCK_THREAD_CPUTIME_ID`):
/// unlike wall time, it leaves out time the hypervisor stole from the
/// vCPU and time other threads ran.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
fn thread_cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this function is compiled for) for the
    // whole call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall seconds since the first call, where the thread CPU clock above
/// is not declared (its clock id and `timespec` layout are those of
/// 64-bit Linux): the pairs still interleave, but time stolen from the
/// thread counts.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_secs() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Live ops surface costs, both sides of it: (a) request latency for
/// every `mfcp_obs::http` endpoint against a populated registry, landing
/// in the `obs_http.request_secs` histogram plus a per-endpoint counter;
/// (b) a serve-replay overhead A/B — the same short trace replayed with
/// the ops surface off and on in interleaved pairs, timed in the serving
/// thread's CPU seconds (`obs_http.replay_off_secs` /
/// `obs_http.replay_on_secs`), with a release-build tripwire on the
/// pairs' median on/off ratio holding the enabled run inside 3x the 5%
/// overhead budget DESIGN.md records.
fn suite_obs_http(cfg: &PerfgateConfig) {
    // --- endpoint latency over a populated registry ---
    let series = Arc::new(mfcp_obs::TimeSeries::new(
        mfcp_obs::TimeSeriesConfig::default(),
    ));
    mfcp_obs::counter("obs_http.bench.events").add(41);
    mfcp_obs::gauge("obs_http.bench.level").set(3.5);
    let h_seed = mfcp_obs::histogram("obs_http.bench.lat");
    for i in 0..64 {
        h_seed.record(0.001 * (1 + i % 7) as f64);
    }
    series.sample_now();
    mfcp_obs::counter("obs_http.bench.events").add(17);
    series.sample_now();
    let server =
        mfcp_obs::ObsServer::start(mfcp_obs::HttpConfig::default(), Some(Arc::clone(&series)))
            .expect("ops server binds an ephemeral port");
    let addr = server.local_addr();
    let h_request = mfcp_obs::histogram("obs_http.request_secs");
    const ENDPOINT_REPS: usize = 8;
    for path in [
        "/healthz",
        "/metrics",
        "/metrics.txt",
        "/slo",
        "/trace",
        "/timeseries?window=32",
        "/dashboard",
    ] {
        for _ in 0..ENDPOINT_REPS {
            let t0 = Instant::now();
            let reply = http_get(addr, path);
            h_request.record_duration(t0.elapsed());
            assert!(
                reply.starts_with("HTTP/1.1 200"),
                "{path} did not answer 200: {reply}"
            );
        }
        mfcp_obs::counter("obs_http.requests").inc();
    }
    drop(server);

    // --- serving overhead A/B: ops surface off vs on ---
    let trace = generate_trace(&TraceConfig {
        seed: cfg.seed.wrapping_add(31),
        // Long enough that the serving loop dominates the measurement:
        // at the serve_replay suite's 30-event scale the replay is ~5 ms
        // and the ops surface's fixed per-process costs (sampler ticks,
        // allocator state) masquerade as double-digit relative overhead.
        duration_secs: 7200.0,
        mean_interarrival_secs: 30.0,
        mean_service_secs: 900.0,
        ..TraceConfig::default()
    });
    let source = || MatrixSource::GroundTruth(ClusterPool::standard().setting(Setting::A));
    let off_h = mfcp_obs::histogram("obs_http.replay_off_secs");
    let on_h = mfcp_obs::histogram("obs_http.replay_on_secs");
    // One replay with the ops surface on or off; returns the serving
    // thread's CPU seconds. The daemon (and with it the server and its
    // sampler threads) starts outside the timed window.
    let replay = |enabled: bool| {
        let config = DaemonConfig {
            metrics_addr: enabled.then(|| "127.0.0.1:0".to_string()),
            ..DaemonConfig::default()
        };
        let mut daemon = mfcp_serve::ExchangeDaemon::new(config, source());
        assert_eq!(daemon.ops_addr().is_some(), enabled);
        let t0 = thread_cpu_secs();
        let outcome = mfcp_serve::replay(&mut daemon, &trace);
        let dt = thread_cpu_secs() - t0;
        assert!(outcome.counters.resolves > 0);
        (if enabled { &on_h } else { &off_h }).record(dt);
        dt
    };
    // Nine interleaved on/off pairs (the side that goes first
    // alternates), each pair's ratio taken in the serving thread's CPU
    // seconds: the ops surface's own threads and the hypervisor's steal
    // stay out of the measurement, and a drift in the host's speed
    // cancels within a pair. On a 2-vCPU VM the median ratio of nine
    // pairs lands within ±5% of 1 with the surface idle, where the
    // best-of-three wall times it replaces swung past the budget.
    let mut ratios: Vec<f64> = (0..9)
        .map(|pair| {
            let on_first = pair % 2 != 0;
            let first = replay(on_first);
            let second = replay(!on_first);
            if on_first {
                first / second
            } else {
                second / first
            }
        })
        .collect();
    // The tripwire sits at 3x the 5% budget DESIGN.md records ("Live ops
    // surface"), catching a real collapse (per-event locking, a hot
    // sampler loop). Only meaningful in release at the default scale —
    // debug builds and smoke configs measure constant costs, not the
    // serving loop.
    if !cfg!(debug_assertions) && cfg.tasks >= 12 {
        ratios.sort_by(f64::total_cmp);
        let overhead = median(&ratios) - 1.0;
        assert!(
            overhead < 0.15,
            "ops surface overhead collapsed past 3x the 5% budget: {:.1}% \
             (median on/off CPU-time ratio of {} interleaved pairs)",
            overhead * 100.0,
            ratios.len()
        );
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write as _};
    let mut s = std::net::TcpStream::connect(addr).expect("connect ops server");
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: perfgate\r\n\r\n").as_bytes())
        .expect("send request");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    out
}

type SuiteFn = fn(&PerfgateConfig);

/// Suite table: `(name, inner_reps, workload)`. `inner_reps` is the
/// batched-repetition count: each timed run executes the workload that
/// many times and divides the elapsed wall by it, so short suites
/// (`fault_replay` at ~0.1 ms, `solve_fg_parallel` at ~5 ms) gate on a
/// stable multi-millisecond measurement window instead of scheduler
/// noise.
/// Counters in those suites accumulate across the inner reps; the
/// baseline is recorded the same way, so comparisons stay consistent.
const SUITES: [(&str, usize, SuiteFn); 9] = [
    ("solve_ad", 1, suite_solve_ad),
    ("solve_fg", 1, suite_solve_fg),
    ("solve_fg_parallel", 8, suite_solve_fg_parallel),
    ("train_round", 1, suite_train_round),
    ("fault_replay", 16, suite_fault_replay),
    ("batch_solve", 1, suite_batch_solve),
    ("serve_replay", 1, suite_serve_replay),
    ("obs_http", 1, suite_obs_http),
    ("learned_duals", 1, suite_learned_duals),
];

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

fn metrics_from(snap: &mfcp_obs::Snapshot) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (name, v) in &snap.counters {
        out.insert(name.clone(), *v as f64);
    }
    for (name, v) in &snap.gauges {
        if v.is_finite() {
            out.insert(format!("gauge.{name}"), *v);
        }
    }
    for (name, h) in &snap.histograms {
        for (label, q) in [("p50", 0.5), ("p95", 0.95)] {
            let v = h.quantile(q);
            if v.is_finite() {
                out.insert(format!("hist.{name}.{label}"), v);
            }
        }
    }
    out
}

/// Runs every suite `cfg.runs` times and aggregates. When `trace_sink`
/// is provided, the flight-recorder contents of the final `train_round`
/// run are exported as Chrome trace JSON into it.
pub fn run_perfgate(cfg: &PerfgateConfig, mut trace_sink: Option<&mut String>) -> PerfgateReport {
    let runs = cfg.runs.max(1);
    let mut suites = Vec::with_capacity(SUITES.len());
    for (name, inner_reps, workload) in SUITES {
        let inner_reps = inner_reps.max(1);
        let mut wall_secs = Vec::with_capacity(runs);
        let mut metrics = BTreeMap::new();
        for run in 0..runs {
            mfcp_obs::set_enabled(true);
            mfcp_obs::reset();
            let t0 = Instant::now();
            for _ in 0..inner_reps {
                workload(cfg);
            }
            wall_secs.push(t0.elapsed().as_secs_f64() / inner_reps as f64);
            if run + 1 == runs {
                metrics = metrics_from(&mfcp_obs::snapshot());
                if name == "train_round" {
                    if let Some(sink) = trace_sink.as_deref_mut() {
                        *sink = mfcp_obs::trace::drain().to_chrome_json();
                    }
                }
            }
        }
        let mut sorted = wall_secs.clone();
        sorted.sort_by(f64::total_cmp);
        suites.push(SuiteResult {
            name: name.to_string(),
            median_wall_secs: median(&sorted),
            p95_wall_secs: percentile(&sorted, 0.95),
            wall_secs,
            metrics,
        });
    }
    PerfgateReport {
        schema_version: SCHEMA_VERSION,
        created_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        os: std::env::consts::OS.to_string(),
        arch: std::env::consts::ARCH.to_string(),
        threads: std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1),
        config: cfg.clone(),
        suites,
        thresholds: BTreeMap::new(),
    }
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

impl PerfgateReport {
    /// Serializes the report as schema-stable JSON (keys in fixed order,
    /// suites in suite order, metric maps sorted by name).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(out, "  \"created_unix\": {},", self.created_unix);
        let _ = writeln!(
            out,
            "  \"env\": {{\"os\": {}, \"arch\": {}, \"threads\": {}}},",
            json::escape(&self.os),
            json::escape(&self.arch),
            self.threads
        );
        let _ = writeln!(
            out,
            "  \"config\": {{\"runs\": {}, \"tasks\": {}, \"rounds\": {}, \"seed\": {}}},",
            self.config.runs, self.config.tasks, self.config.rounds, self.config.seed
        );
        out.push_str("  \"thresholds\": {");
        for (i, (k, v)) in self.thresholds.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json::escape(k), json::number(*v));
        }
        out.push_str("},\n");
        out.push_str("  \"suites\": [\n");
        for (i, s) in self.suites.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"name\": {},", json::escape(&s.name));
            let _ = writeln!(out, "      \"runs\": {},", s.wall_secs.len());
            let _ = writeln!(
                out,
                "      \"median_wall_secs\": {},",
                json::number(s.median_wall_secs)
            );
            let _ = writeln!(
                out,
                "      \"p95_wall_secs\": {},",
                json::number(s.p95_wall_secs)
            );
            let walls: Vec<String> = s.wall_secs.iter().map(|w| json::number(*w)).collect();
            let _ = writeln!(out, "      \"wall_secs\": [{}],", walls.join(", "));
            out.push_str("      \"metrics\": {");
            for (j, (k, v)) in s.metrics.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\n        {}: {}", json::escape(k), json::number(*v));
            }
            if !s.metrics.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("}\n");
            out.push_str(if i + 1 == self.suites.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Deserializes a report (or baseline) previously written by
    /// [`PerfgateReport::to_json`]. Unknown keys are ignored so a newer
    /// binary can read an older baseline.
    pub fn from_json(doc: &Json) -> Result<PerfgateReport, String> {
        let num = |j: Option<&Json>, what: &str| -> Result<f64, String> {
            j.and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or non-numeric {what}"))
        };
        let schema_version = num(doc.get("schema_version"), "schema_version")? as u64;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {schema_version} (expected {SCHEMA_VERSION})"
            ));
        }
        let env = doc.get("env");
        let config = doc.get("config");
        let mut thresholds = BTreeMap::new();
        if let Some(t) = doc.get("thresholds").and_then(Json::as_object) {
            for (k, v) in t {
                thresholds.insert(
                    k.clone(),
                    v.as_f64()
                        .ok_or_else(|| format!("threshold {k} not numeric"))?,
                );
            }
        }
        let mut suites = Vec::new();
        for (i, s) in doc
            .get("suites")
            .and_then(Json::as_array)
            .ok_or("missing suites array")?
            .iter()
            .enumerate()
        {
            let name = s
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("suite {i}: missing name"))?
                .to_string();
            let wall_secs: Vec<f64> = s
                .get("wall_secs")
                .and_then(Json::as_array)
                .map(|a| a.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default();
            let mut metrics = BTreeMap::new();
            if let Some(m) = s.get("metrics").and_then(Json::as_object) {
                for (k, v) in m {
                    metrics.insert(
                        k.clone(),
                        v.as_f64()
                            .ok_or_else(|| format!("suite {name}: metric {k} not numeric"))?,
                    );
                }
            }
            suites.push(SuiteResult {
                median_wall_secs: num(s.get("median_wall_secs"), "median_wall_secs")?,
                p95_wall_secs: num(s.get("p95_wall_secs"), "p95_wall_secs")?,
                name,
                wall_secs,
                metrics,
            });
        }
        Ok(PerfgateReport {
            schema_version,
            created_unix: num(doc.get("created_unix"), "created_unix").unwrap_or(0.0) as u64,
            os: env
                .and_then(|e| e.get("os"))
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            arch: env
                .and_then(|e| e.get("arch"))
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            threads: env
                .and_then(|e| e.get("threads"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64,
            config: PerfgateConfig {
                runs: num(config.and_then(|c| c.get("runs")), "config.runs")? as usize,
                tasks: num(config.and_then(|c| c.get("tasks")), "config.tasks")? as usize,
                rounds: num(config.and_then(|c| c.get("rounds")), "config.rounds")? as usize,
                seed: num(config.and_then(|c| c.get("seed")), "config.seed")? as u64,
            },
            suites,
            thresholds,
        })
    }

    /// Gates `self` (the current run) against `baseline`. Returns every
    /// violation found; empty means the gate passes.
    ///
    /// * `median_wall_secs` fails when it grew more than the tolerance.
    /// * Counter metrics fail on relative *increase* beyond the
    ///   tolerance. Over a baseline of zero (cap hits, panics) any
    ///   increase fails, and a non-finite current value always fails.
    ///   `hist.*` and `gauge.*` metrics are informational only.
    /// * Tolerance per metric: `baseline.thresholds["<suite>.<metric>"]`
    ///   when present, else `default_tolerance`.
    /// * A suite present in the baseline but missing here is a violation
    ///   (the gate must not silently shrink its coverage).
    pub fn compare(&self, baseline: &PerfgateReport, default_tolerance: f64) -> Vec<Violation> {
        let tol_for = |suite: &str, metric: &str| -> f64 {
            baseline
                .thresholds
                .get(&format!("{suite}.{metric}"))
                .copied()
                .unwrap_or(default_tolerance)
        };
        let mut violations = Vec::new();
        for base in &baseline.suites {
            let Some(cur) = self.suites.iter().find(|s| s.name == base.name) else {
                violations.push(Violation {
                    suite: base.name.clone(),
                    metric: "missing_suite".into(),
                    baseline: 1.0,
                    current: 0.0,
                    rel_change: -1.0,
                    tolerance: 0.0,
                });
                continue;
            };
            let mut gate = |metric: &str, base_v: f64, cur_v: f64| {
                if base_v < 0.0 || !base_v.is_finite() {
                    return;
                }
                let rel = if !cur_v.is_finite() || (base_v == 0.0 && cur_v > 0.0) {
                    f64::INFINITY
                } else if base_v == 0.0 {
                    0.0
                } else {
                    (cur_v - base_v) / base_v
                };
                let tol = tol_for(&base.name, metric);
                if rel > tol {
                    violations.push(Violation {
                        suite: base.name.clone(),
                        metric: metric.to_string(),
                        baseline: base_v,
                        current: cur_v,
                        rel_change: rel,
                        tolerance: tol,
                    });
                }
            };
            gate(
                "median_wall_secs",
                base.median_wall_secs,
                cur.median_wall_secs,
            );
            for (name, base_v) in &base.metrics {
                // Histogram quantiles and gauge levels are informational:
                // bucket resolution / end-of-run levels are poor gates.
                if name.starts_with("hist.") || name.starts_with("gauge.") {
                    continue;
                }
                match cur.metrics.get(name) {
                    Some(cur_v) => gate(name, *base_v, *cur_v),
                    // A deleted or renamed counter must fail like a
                    // missing suite, not shrink the gate without a word.
                    None => gate(&format!("missing_metric({name})"), *base_v, f64::NAN),
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "full-scale probe for tuning the learned_duals tripwire"]
    fn learned_duals_full_scale_probe() {
        suite_learned_duals(&PerfgateConfig::default());
    }

    fn small_report() -> PerfgateReport {
        let mut metrics = BTreeMap::new();
        metrics.insert("optim.robust.attempts".to_string(), 10.0);
        metrics.insert("train.rollbacks".to_string(), 1.0);
        metrics.insert("hist.train.round.loss.p50".to_string(), 0.25);
        metrics.insert("gauge.serve.queue.pending".to_string(), 4.0);
        PerfgateReport {
            schema_version: SCHEMA_VERSION,
            created_unix: 1_700_000_000,
            os: "linux".into(),
            arch: "x86_64".into(),
            threads: 8,
            config: PerfgateConfig::default(),
            suites: vec![SuiteResult {
                name: "solve_ad".into(),
                wall_secs: vec![0.5, 0.4, 0.6],
                median_wall_secs: 0.5,
                p95_wall_secs: 0.6,
                metrics,
            }],
            thresholds: BTreeMap::new(),
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = small_report();
        assert!(r.compare(&r, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn injected_slowdown_fails_check() {
        let base = small_report();
        let mut slow = base.clone();
        slow.suites[0].median_wall_secs *= 2.0; // +100% >> 25%
        let violations = slow.compare(&base, DEFAULT_TOLERANCE);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "median_wall_secs");
        assert!(violations[0].rel_change > 0.9);
        // The other direction (a speedup) is not a violation.
        assert!(base.compare(&slow, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn counter_regressions_gate_but_hist_quantiles_do_not() {
        let base = small_report();
        let mut cur = base.clone();
        *cur.suites[0]
            .metrics
            .get_mut("optim.robust.attempts")
            .unwrap() = 20.0;
        *cur.suites[0]
            .metrics
            .get_mut("hist.train.round.loss.p50")
            .unwrap() = 100.0;
        *cur.suites[0]
            .metrics
            .get_mut("gauge.serve.queue.pending")
            .unwrap() = 100.0;
        let violations = cur.compare(&base, DEFAULT_TOLERANCE);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].metric, "optim.robust.attempts");
    }

    #[test]
    fn any_rise_over_a_zero_baseline_fails() {
        let mut base = small_report();
        base.suites[0]
            .metrics
            .insert("optim.solve.cap_hits".to_string(), 0.0);
        let mut cur = base.clone();
        assert!(cur.compare(&base, DEFAULT_TOLERANCE).is_empty());
        *cur.suites[0]
            .metrics
            .get_mut("optim.solve.cap_hits")
            .unwrap() = 1.0;
        // No relative tolerance can excuse a counter leaving zero.
        let violations = cur.compare(&base, 1e9);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].metric, "optim.solve.cap_hits");
        assert_eq!(violations[0].rel_change, f64::INFINITY);
    }

    #[test]
    fn non_finite_current_values_fail() {
        let base = small_report();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut cur = base.clone();
            *cur.suites[0]
                .metrics
                .get_mut("optim.robust.attempts")
                .unwrap() = bad;
            cur.suites[0].median_wall_secs = bad;
            let violations = cur.compare(&base, DEFAULT_TOLERANCE);
            let metrics: Vec<&str> = violations.iter().map(|v| v.metric.as_str()).collect();
            assert_eq!(
                metrics,
                ["median_wall_secs", "optim.robust.attempts"],
                "{bad}"
            );
        }
    }

    #[test]
    fn per_metric_threshold_overrides_default() {
        let mut base = small_report();
        base.thresholds
            .insert("solve_ad.median_wall_secs".to_string(), 3.0);
        let mut cur = base.clone();
        cur.suites[0].median_wall_secs *= 2.0;
        // +100% clears the 300% override even though it fails the default.
        assert!(cur.compare(&base, DEFAULT_TOLERANCE).is_empty());
        base.thresholds.clear();
        assert!(!cur.compare(&base, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn missing_suite_is_a_violation() {
        let base = small_report();
        let mut cur = base.clone();
        cur.suites.clear();
        let violations = cur.compare(&base, DEFAULT_TOLERANCE);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "missing_suite");
    }

    #[test]
    fn missing_counter_is_a_violation() {
        let base = small_report();
        assert!(base.compare(&base, DEFAULT_TOLERANCE).is_empty());
        let mut cur = base.clone();
        cur.suites[0].metrics.remove("train.rollbacks");
        let violations = cur.compare(&base, 1e9);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].metric, "missing_metric(train.rollbacks)");
        // Informational metrics may come and go.
        let mut cur = base.clone();
        cur.suites[0]
            .metrics
            .retain(|k, _| !k.starts_with("hist.") && !k.starts_with("gauge."));
        assert!(cur.compare(&base, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = small_report();
        r.thresholds.insert("solve_ad.median_wall_secs".into(), 0.5);
        let json_text = r.to_json();
        let doc = json::parse(&json_text).unwrap_or_else(|e| panic!("{e}\n{json_text}"));
        let back = PerfgateReport::from_json(&doc).expect("deserializes");
        assert_eq!(back.suites, r.suites);
        assert_eq!(back.thresholds, r.thresholds);
        assert_eq!(back.config.runs, r.config.runs);
        assert_eq!(back.schema_version, SCHEMA_VERSION);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut r = small_report();
        r.schema_version = SCHEMA_VERSION + 1;
        let doc = json::parse(&r.to_json()).unwrap();
        assert!(PerfgateReport::from_json(&doc).is_err());
    }

    /// End-to-end smoke at the smallest sizes: every suite produces a
    /// median and at least one metric, and the report's JSON parses.
    #[test]
    fn tiny_pass_covers_every_suite() {
        let _registry = crate::OBS_REGISTRY
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let cfg = PerfgateConfig {
            runs: 1,
            tasks: 6,
            rounds: 1,
            seed: 3,
        };
        let mut trace = String::new();
        let report = run_perfgate(&cfg, Some(&mut trace));
        assert_eq!(report.suites.len(), SUITES.len());
        for s in &report.suites {
            assert!(s.median_wall_secs.is_finite() && s.median_wall_secs >= 0.0);
            assert!(!s.metrics.is_empty(), "suite {} has no metrics", s.name);
        }
        let suite = |name: &str| {
            report
                .suites
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("suite {name} missing"))
        };
        assert!(
            suite("train_round").metrics.contains_key("train.rounds"),
            "train_round suite records training counters"
        );
        assert!(
            suite("solve_fg_parallel")
                .metrics
                .contains_key("optim.solve.price_steps"),
            "solve_fg_parallel's solves take price trials"
        );
        let doc = json::parse(&report.to_json()).expect("report JSON is valid");
        assert!(PerfgateReport::from_json(&doc).is_ok());
        // The train_round trace export is valid Chrome trace JSON.
        let trace_doc = json::parse(&trace).expect("trace JSON is valid");
        assert!(trace_doc.get("traceEvents").is_some());
    }
}
