//! The long-running exchange daemon.
//!
//! [`ExchangeDaemon`] consumes [`ExchangeEvent`]s in order and keeps a
//! current matching over the active task set:
//!
//! * **Arrivals** pass admission control (bounded pending queue plus a
//!   platform-capacity bound) or are shed; admitted tasks buffer in the
//!   pending queue until the next resolve.
//! * **Departures** and **cluster outage events** change the structure
//!   of the matching and trigger an immediate re-solve; arrivals batch
//!   up to [`DaemonConfig::resolve_batch`] before triggering one.
//! * **Matrices** come from a per-task column store: a task's times and
//!   reliabilities on every cluster are computed once, on the first
//!   resolve that sees the task, and dropped when it departs; each
//!   resolve gathers its matrices from the store. The store is derived
//!   from the active set and the frozen [`MatrixSource`], so snapshots
//!   leave it out and a restored daemon refills it on its first resolve.
//! * **Resolves** run [`RobustSolver::solve`] handed the previous
//!   solve's prices, mapped over the clusters that are up. Prices are
//!   per cluster, so they carry over any change of the task set without
//!   remapping; the solve starts at their softmax, which also regrows a
//!   cluster back from an outage in one step. A resolve without
//!   previous prices (the first one, one after the exchange ran empty,
//!   or one after a greedy resolve) starts from the dual head's
//!   prediction when a head is attached, and cold otherwise.
//! * A per-resolve [`Budget`] deadline cooperatively cancels the
//!   primary rung mid-iteration when the request blows its latency
//!   budget; the greedy rung still runs, so every resolve produces a
//!   feasible matching (`serve.deadline_miss` counts the degradations).
//! * Under overload (pending at or past
//!   [`DaemonConfig::degrade_watermark`]) the resolve runs greedy-only
//!   ([`RobustSolver::greedy_only`]) to drain the backlog quickly.
//!
//! The daemon is deliberately single-threaded and wall-clock-free
//! except for the optional deadline: given the same trace it performs
//! the same solves in the same order, which is what makes the
//! kill/resume differential test meaningful.
//!
//! Cluster outages are modeled as a mask: a resolve solves over the
//! clusters that are up and commits zero rows for the downed ones, so
//! the served matching keeps the full pool's shape. (A slowdown on the
//! downed row would leave the idle cluster looking free to the smooth
//! max.) Only when every cluster is down does the resolve fall back to
//! [`DaemonConfig::outage_slowdown`] on the full pool.

use std::path::Path;
use std::time::{Duration, Instant};

use mfcp_core::predictor::ClusterPredictor;
use mfcp_linalg::Matrix;
use mfcp_optim::{
    Budget, DualPredictor, LearnedDualHead, MatchingProblem, RelaxationParams, RobustSolver,
    SolveCtx, SolveDiagnostics, SolveError, StageOutcome,
};
use mfcp_platform::prelude::{FeatureEmbedder, PerfModel};
use mfcp_platform::stream::ExchangeEvent;
use mfcp_platform::task::TaskSpec;

use crate::columns::ColumnStore;
use crate::state::{
    read_snapshot, write_snapshot, ExchangeState, LastSolution, ServeCounters, SnapshotError,
    PREDICTOR_DIR,
};

/// Where the daemon gets its time/reliability matrices.
///
/// Both sources compute a task's column from that task alone, so the
/// daemon computes each column once, on the first resolve that sees the
/// task, and keeps it until the task departs (DESIGN.md, "Per-task
/// matrix columns").
pub enum MatrixSource {
    /// The platform's ground-truth performance model (simulation mode).
    GroundTruth(PerfModel),
    /// Trained per-cluster predictors over embedded task features
    /// (deployment mode; these are what the snapshot checkpoints).
    Learned {
        /// One predictor per cluster.
        predictors: Vec<ClusterPredictor>,
        /// The feature embedding the predictors were trained on.
        embedder: FeatureEmbedder,
    },
}

impl MatrixSource {
    /// Number of clusters this source predicts for.
    pub fn clusters(&self) -> usize {
        match self {
            MatrixSource::GroundTruth(model) => model.len(),
            MatrixSource::Learned { predictors, .. } => predictors.len(),
        }
    }

    /// Builds the `(time, reliability)` matrices for `specs`, one column
    /// per task: learned times clamped to at least `1e-6` and learned
    /// reliabilities to `[0, 1]`. The daemon calls it on the tasks that
    /// have no column yet; over a whole active set it is the reference
    /// the gathered matrices are pinned to bit for bit.
    pub(crate) fn matrices(&self, specs: &[TaskSpec]) -> (Matrix, Matrix) {
        match self {
            MatrixSource::GroundTruth(model) => {
                (model.time_matrix(specs), model.reliability_matrix(specs))
            }
            MatrixSource::Learned {
                predictors,
                embedder,
            } => {
                let features = embedder.embed_batch(specs);
                let m = predictors.len();
                let n = specs.len();
                let mut t = Matrix::zeros(m, n);
                let mut a = Matrix::zeros(m, n);
                for (i, p) in predictors.iter().enumerate() {
                    let ti = p.predict_times(&features);
                    let ai = p.predict_reliability(&features);
                    for j in 0..n {
                        t[(i, j)] = ti[j].max(1e-6);
                        a[(i, j)] = ai[j].clamp(0.0, 1.0);
                    }
                }
                (t, a)
            }
        }
    }
}

/// Tuning knobs for the daemon.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Relaxation parameters for the matching solves. They are not
    /// checked up front: invalid ones (say a `BarrierKind::Log` with
    /// `eps = 0`) fail every resolve's validation, each counted in
    /// `serve.solve_error`, and no new matching is committed.
    pub params: RelaxationParams,
    /// Platform-wide reliability threshold γ.
    pub gamma: f64,
    /// Admission bound on the pending queue; arrivals beyond it shed.
    pub max_pending: usize,
    /// Admission bound on total load (active + pending); arrivals
    /// beyond it shed. This is the platform-at-capacity backstop that
    /// keeps the matching problem itself bounded.
    pub max_load: usize,
    /// Number of buffered arrivals that triggers a resolve.
    pub resolve_batch: usize,
    /// Pending length at which resolves degrade to the greedy-only
    /// ladder (catch-up mode under overload).
    pub degrade_watermark: usize,
    /// Per-resolve wall-clock deadline. `None` disables the deadline —
    /// required for bit-for-bit differential tests, since wall time is
    /// inherently nondeterministic.
    pub deadline: Option<Duration>,
    /// Multiplier applied to every cluster's execution times when all
    /// clusters are down (otherwise downed clusters are masked out of
    /// the solve); scorers read it to price a matching that still uses
    /// a downed cluster.
    pub outage_slowdown: f64,
    /// Bind address for the live ops surface (`mfcp_obs::http`), e.g.
    /// `127.0.0.1:9184`; `None` (the default) disables it. The server
    /// and its sampler only *read* registry atomics — solver state is
    /// untouched, so enabling it keeps replays bit-identical (the chaos
    /// suite asserts this).
    pub metrics_addr: Option<String>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            params: RelaxationParams::default(),
            gamma: 0.75,
            max_pending: 32,
            max_load: 256,
            resolve_batch: 8,
            degrade_watermark: 24,
            deadline: None,
            outage_slowdown: 1e4,
            metrics_addr: None,
        }
    }
}

/// The daemon's live ops surface: the embedded HTTP server plus the
/// background registry sampler feeding its rolling windows. Field order
/// is drop order — the HTTP server stops answering before the sampler
/// stops ticking, so no request ever reads a dead sampler's window.
struct LiveOps {
    server: mfcp_obs::ObsServer,
    _sampler: mfcp_obs::SamplerHandle,
}

impl LiveOps {
    /// Sampling interval for the daemon's rolling windows: fine enough
    /// that a 60-tick window is ~15 s of history, coarse enough that a
    /// tick is noise next to a resolve.
    const SAMPLE_INTERVAL: Duration = Duration::from_millis(250);

    fn start(addr: &str) -> Option<LiveOps> {
        let series = std::sync::Arc::new(mfcp_obs::TimeSeries::new(mfcp_obs::TimeSeriesConfig {
            interval: Self::SAMPLE_INTERVAL,
            capacity: 480,
        }));
        let sampler = series.start();
        let cfg = mfcp_obs::HttpConfig {
            addr: addr.to_string(),
            ..mfcp_obs::HttpConfig::default()
        };
        match mfcp_obs::ObsServer::start(cfg, Some(series)) {
            Ok(server) => Some(LiveOps {
                server,
                _sampler: sampler,
            }),
            Err(e) => {
                // The ops surface is auxiliary: a bind failure (port in
                // use, bad address) must not take the exchange down.
                mfcp_obs::counter("serve.ops_bind_error").inc();
                eprintln!("serve: ops server failed to bind {addr}: {e}");
                None
            }
        }
    }
}

/// The online exchange daemon. See the module docs for the event-loop
/// semantics and [`crate::state`] for what snapshots persist.
pub struct ExchangeDaemon {
    config: DaemonConfig,
    source: MatrixSource,
    solver: RobustSolver,
    // Frozen at attach time: the online loop never trains it, so a
    // restored daemon with the same head replays bit-identically.
    dual_head: Option<LearnedDualHead>,
    state: ExchangeState,
    // One matrix column per active task; derived from `state.active`
    // and `source`, so never snapshotted.
    columns: ColumnStore,
    // How the last resolve's ladder ran; observability only, never
    // snapshotted.
    last_resolve: Option<SolveDiagnostics>,
    // Obs handles resolved once; per-event cost is an atomic op.
    c_admitted: mfcp_obs::Counter,
    c_shed: mfcp_obs::Counter,
    c_deadline_miss: mfcp_obs::Counter,
    c_resolves: mfcp_obs::Counter,
    c_degraded: mfcp_obs::Counter,
    c_columns_computed: mfcp_obs::Counter,
    h_latency: mfcp_obs::Histogram,
    h_batch: mfcp_obs::Histogram,
    g_pending: mfcp_obs::Gauge,
    g_active: mfcp_obs::Gauge,
    g_columns: mfcp_obs::Gauge,
    ops: Option<LiveOps>,
}

impl ExchangeDaemon {
    /// A fresh daemon with empty state.
    pub fn new(config: DaemonConfig, source: MatrixSource) -> Self {
        let solver = RobustSolver::new(config.params);
        let ops = config.metrics_addr.as_deref().and_then(LiveOps::start);
        ExchangeDaemon {
            config,
            source,
            solver,
            dual_head: None,
            state: ExchangeState::default(),
            columns: ColumnStore::default(),
            last_resolve: None,
            c_admitted: mfcp_obs::counter("serve.admitted"),
            c_shed: mfcp_obs::counter("serve.shed"),
            c_deadline_miss: mfcp_obs::counter("serve.deadline_miss"),
            c_resolves: mfcp_obs::counter("serve.resolves"),
            c_degraded: mfcp_obs::counter("serve.degraded"),
            c_columns_computed: mfcp_obs::counter("serve.columns.computed"),
            h_latency: mfcp_obs::histogram("serve.match_latency_secs"),
            h_batch: mfcp_obs::histogram("serve.resolve_batch_size"),
            g_pending: mfcp_obs::gauge("serve.queue.pending"),
            g_active: mfcp_obs::gauge("serve.active_tasks"),
            g_columns: mfcp_obs::gauge("serve.columns.entries"),
            ops,
        }
    }

    /// Attaches a trained [`LearnedDualHead`] (typically from
    /// [`mfcp_core::train::train_mfcp_with_dual_head`]). The daemon
    /// treats the head as frozen — it predicts the start of resolves
    /// without previous prices but is never trained online, so two
    /// daemons holding the same head stay bit-identical. Heads are not
    /// part of snapshots; re-attach after [`ExchangeDaemon::restore`].
    pub fn with_dual_head(mut self, head: LearnedDualHead) -> Self {
        self.dual_head = Some(head);
        self
    }

    /// The attached dual head, if any.
    pub fn dual_head(&self) -> Option<&LearnedDualHead> {
        self.dual_head.as_ref()
    }

    /// The bound address of the live ops surface, when
    /// [`DaemonConfig::metrics_addr`] was set and the bind succeeded
    /// (resolves a port-`0` request to the actual port).
    pub fn ops_addr(&self) -> Option<std::net::SocketAddr> {
        self.ops.as_ref().map(|o| o.server.local_addr())
    }

    /// Number of trace events applied so far.
    pub fn cursor(&self) -> u64 {
        self.state.cursor
    }

    /// SLO counters accumulated so far.
    pub fn counters(&self) -> ServeCounters {
        self.state.counters
    }

    /// The current matching, if one has been solved.
    pub fn last_solution(&self) -> Option<&LastSolution> {
        self.state.last.as_ref()
    }

    /// How the last resolve's solve ran (rungs, stop reasons,
    /// residuals); `None` before the first resolve and after a restore.
    pub fn last_resolve(&self) -> Option<&SolveDiagnostics> {
        self.last_resolve.as_ref()
    }

    /// Current pending-queue length.
    pub fn pending_len(&self) -> usize {
        self.state.pending.len()
    }

    /// Applies one event, advancing the cursor and resolving when the
    /// event calls for it.
    pub fn apply(&mut self, event: &ExchangeEvent) {
        self.state.cursor += 1;
        match event {
            ExchangeEvent::Arrival { task_id, spec } => {
                mfcp_obs::trace::instant("serve.arrival", Some(*task_id));
                let load = self.state.active.len() + self.state.pending.len();
                if self.state.pending.len() >= self.config.max_pending
                    || load >= self.config.max_load
                {
                    self.state.counters.shed += 1;
                    self.c_shed.inc();
                    mfcp_obs::trace::instant("serve.shed", Some(*task_id));
                } else {
                    self.state.pending.push_back((*task_id, spec.clone()));
                    self.state.counters.admitted += 1;
                    self.c_admitted.inc();
                    let depth = self.state.pending.len() as u64;
                    self.state.counters.max_pending_seen =
                        self.state.counters.max_pending_seen.max(depth);
                    if self.state.pending.len() >= self.config.resolve_batch {
                        self.resolve();
                    }
                }
            }
            ExchangeEvent::Departure { task_id } => {
                mfcp_obs::trace::instant("serve.departure", Some(*task_id));
                let was_active = self.state.active.remove(task_id).is_some();
                self.columns.remove(*task_id);
                self.state.pending.retain(|(id, _)| id != task_id);
                if was_active {
                    // The freed slot changes the optimum; rebalance now.
                    self.resolve();
                }
            }
            ExchangeEvent::ClusterDown { cluster } => {
                mfcp_obs::trace::instant("serve.cluster_down", Some(*cluster as u64));
                self.state.down.insert(*cluster);
                self.resolve();
            }
            ExchangeEvent::ClusterUp { cluster } => {
                mfcp_obs::trace::instant("serve.cluster_up", Some(*cluster as u64));
                self.state.down.remove(cluster);
                self.resolve();
            }
        }
        // Levels, not counts: published once per event after the queues
        // settle, so the sampler's rings see consistent depths.
        self.g_pending.set(self.state.pending.len() as f64);
        self.g_active.set(self.state.active.len() as f64);
        self.g_columns.set(self.columns.len() as f64);
    }

    /// Flushes any buffered arrivals with a final resolve. Call at end
    /// of trace (replay does).
    pub fn finish(&mut self) {
        if !self.state.pending.is_empty() {
            self.resolve();
            self.g_columns.set(self.columns.len() as f64);
        }
    }

    /// Drains pending into active and re-solves the matching, started
    /// from the previous solve's prices. The matrices are gathered
    /// from the per-task column store after computing, in one batch, the
    /// columns of the tasks that have none yet (the newly admitted ones,
    /// or every active task on the first resolve after a restore).
    fn resolve(&mut self) {
        let backlog = self.state.pending.len();
        let degraded = backlog >= self.config.degrade_watermark;
        while let Some((id, spec)) = self.state.pending.pop_front() {
            // A re-admitted id may carry a new spec: recompute its column.
            self.columns.remove(id);
            self.state.active.insert(id, spec);
        }
        if self.state.active.is_empty() {
            self.state.last = None;
            return;
        }

        let ids: Vec<u64> = self.state.active.keys().copied().collect();
        let (mut t, a) = {
            let _span = mfcp_obs::span("serve.matrices");
            let computed = self.columns.fill(&self.source, &self.state.active);
            self.c_columns_computed.add(computed as u64);
            self.columns
                .gather(self.source.clusters(), &self.state.active)
                .expect("the fill leaves a column for every active task")
        };
        // The solve runs over the clusters that are up; downed ones get
        // zero rows on commit. With every cluster down there is nothing
        // to mask to, and the slowdown keeps the full pool solvable.
        let up: Vec<usize> = (0..t.rows())
            .filter(|i| !self.state.down.contains(i))
            .collect();
        let problem = if up.is_empty() {
            let slowdown = self.config.outage_slowdown;
            t.map_inplace(|v| v * slowdown);
            MatchingProblem::new(t, a, self.config.gamma)
        } else if up.len() < t.rows() {
            let rows = |src: &Matrix| Matrix::from_fn(up.len(), src.cols(), |k, j| src[(up[k], j)]);
            MatchingProblem::new(rows(&t), rows(&a), self.config.gamma)
        } else {
            MatchingProblem::new(t, a, self.config.gamma)
        };
        let up = if up.is_empty() {
            (0..problem.clusters()).collect()
        } else {
            up
        };

        // The previous prices over the clusters that are up: one load
        // price per up cluster, then the reliability price.
        let pool = self.source.clusters();
        let prices: Option<Vec<f64>> = self
            .state
            .last
            .as_ref()
            .filter(|last| last.prices.len() == pool + 1)
            .map(|last| {
                up.iter()
                    .map(|&i| last.prices[i])
                    .chain([last.prices[pool]])
                    .collect()
            });

        let mut solver = match self.config.deadline {
            Some(limit) => self.solver.with_budget(Budget::with_deadline(limit)),
            None => self.solver.clone(),
        };
        if degraded {
            solver.greedy_only = true;
            self.state.counters.degraded += 1;
            self.c_degraded.inc();
        }

        let started = Instant::now();
        mfcp_obs::trace::begin("serve.resolve", Some(self.state.counters.resolves));
        // With a dual head attached, a resolve without previous prices
        // starts from the head's prediction instead of the uniform
        // simplex point; given prices take precedence inside the solve.
        let ctx = SolveCtx {
            prices: prices.as_deref(),
            predictor: self.dual_head.as_ref().map(|h| h as &dyn DualPredictor),
        };
        let result = solver.solve(&problem, ctx);
        mfcp_obs::trace::end("serve.resolve", Some(self.state.counters.resolves));
        let elapsed = started.elapsed();
        self.h_latency.record_duration(elapsed);
        self.h_batch.record(backlog as f64);
        self.state.counters.resolves += 1;
        self.c_resolves.inc();

        match result {
            Ok(sol) => {
                let missed = sol.diagnostics.attempts.iter().any(|att| {
                    matches!(
                        att.outcome,
                        StageOutcome::Failed(SolveError::DeadlineExceeded { .. })
                    )
                });
                if missed {
                    self.state.counters.deadline_miss += 1;
                    self.c_deadline_miss.inc();
                    mfcp_obs::trace::instant("serve.deadline_miss", None);
                }
                let (x, prices) = self.commit_rows(sol.x, sol.prices, &up);
                self.state.last = Some(LastSolution {
                    ids,
                    x,
                    objective: sol.objective,
                    prices,
                });
                self.last_resolve = Some(sol.diagnostics);
            }
            Err(_) => {
                // Greedy rounding is infallible, so only
                // `SolveError::InvalidInput` (malformed matrices or
                // parameters) reaches here. Keep the previous matching
                // rather than serving nothing.
                mfcp_obs::counter("serve.solve_error").inc();
                mfcp_obs::trace::instant("serve.solve_error", None);
                self.last_resolve = None;
            }
        }
    }

    /// Expands a solve over the clusters `up` to the full pool: downed
    /// clusters get zero rows in `x` and a zero load price (an idle
    /// cluster costs nothing at the margin), the reliability price is
    /// kept. Prices stay empty when the solve kept none.
    fn commit_rows(&self, x: Matrix, prices: Vec<f64>, up: &[usize]) -> (Matrix, Vec<f64>) {
        let m = self.source.clusters();
        if up.len() == m {
            return (x, prices);
        }
        let mut full = Matrix::zeros(m, x.cols());
        for (k, &i) in up.iter().enumerate() {
            full.row_mut(i).copy_from_slice(x.row(k));
        }
        let mut full_prices = Vec::new();
        if prices.len() == up.len() + 1 {
            full_prices.resize(m + 1, 0.0);
            for (k, &i) in up.iter().enumerate() {
                full_prices[i] = prices[k];
            }
            full_prices[m] = prices[up.len()];
        }
        (full, full_prices)
    }

    /// Writes a crash-consistent snapshot of the full exchange state
    /// into `dir` (document plus, in learned mode, the predictor
    /// checkpoint).
    pub fn snapshot(&self, dir: &Path) -> Result<(), SnapshotError> {
        let predictor_count = match &self.source {
            MatrixSource::GroundTruth(_) => 0,
            MatrixSource::Learned { predictors, .. } => {
                mfcp_core::train::write_checkpoint(&dir.join(PREDICTOR_DIR), predictors)?;
                predictors.len()
            }
        };
        write_snapshot(dir, &self.state, predictor_count)?;
        mfcp_obs::counter("serve.snapshots").inc();
        mfcp_obs::trace::instant("serve.snapshot", Some(self.state.cursor));
        Ok(())
    }

    /// Restores a daemon from a snapshot directory.
    ///
    /// `source` supplies the static serving configuration (ground-truth
    /// model or embedder); when the snapshot carries a predictor
    /// checkpoint, the predictors inside `source` are replaced by the
    /// checkpointed ones, so the restored daemon predicts with exactly
    /// the weights it was killed with. Its per-task column store starts
    /// empty, and the first resolve computes every active task's column
    /// from those weights.
    pub fn restore(
        dir: &Path,
        config: DaemonConfig,
        source: MatrixSource,
    ) -> Result<Self, SnapshotError> {
        let mut daemon = ExchangeDaemon::new(config, source);
        let (state, predictor_count) = read_snapshot(dir)?;
        if predictor_count > 0 {
            let MatrixSource::Learned { predictors, .. } = &mut daemon.source else {
                return Err(SnapshotError::Format(
                    "snapshot carries a predictor checkpoint but the daemon \
                     was restored with a ground-truth source"
                        .into(),
                ));
            };
            *predictors =
                mfcp_core::train::load_checkpoint(&dir.join(PREDICTOR_DIR), predictor_count)
                    .map_err(|e| SnapshotError::Format(e.to_string()))?;
        }
        if state
            .last
            .as_ref()
            .is_some_and(|l| l.x.rows() != daemon.source.clusters())
        {
            return Err(SnapshotError::Format(
                "snapshot assignment does not match the cluster pool".into(),
            ));
        }
        daemon.state = state;
        mfcp_obs::counter("serve.restores").inc();
        mfcp_obs::trace::instant("serve.restore", Some(daemon.state.cursor));
        Ok(daemon)
    }
}

#[cfg(test)]
mod tests {
    //! The per-task column store against the whole-set build. After
    //! every event of a replay with arrivals, departures, outages, a
    //! re-admitted id and a kill/restore, the gathered matrices must
    //! equal [`MatrixSource::matrices`] over the whole active set bit
    //! for bit, and the entry gauge must read the active-set size. The
    //! gauge is process-wide, so this is the only test in the crate's
    //! unit-test binary that drives a daemon.

    use super::*;
    use mfcp_platform::prelude::{ClusterPool, Setting};
    use mfcp_platform::stream::{generate_trace, TraceConfig};
    use mfcp_platform::task::{Corpus, TaskFamily};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ground_truth() -> MatrixSource {
        MatrixSource::GroundTruth(ClusterPool::standard().setting(Setting::A))
    }

    fn learned() -> MatrixSource {
        let embedder = FeatureEmbedder::default_platform();
        let mut rng = StdRng::seed_from_u64(23);
        let predictors = (0..3)
            .map(|_| ClusterPredictor::new(embedder.dim(), &[8], &mut rng))
            .collect();
        MatrixSource::Learned {
            predictors,
            embedder,
        }
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Checks the store against the whole-set oracle; returns whether
    /// the store covered the active set (it does not between a restore
    /// and the first resolve after it).
    fn check(daemon: &ExchangeDaemon, at: usize) -> bool {
        let active = &daemon.state.active;
        let Some((t, a)) = daemon.columns.gather(daemon.source.clusters(), active) else {
            return false;
        };
        let specs: Vec<TaskSpec> = active.values().cloned().collect();
        let (want_t, want_a) = daemon.source.matrices(&specs);
        assert_eq!(bits(&t), bits(&want_t), "times differ after event {at}");
        assert_eq!(
            bits(&a),
            bits(&want_a),
            "reliabilities differ after event {at}"
        );
        assert_eq!(
            mfcp_obs::gauge("serve.columns.entries").get(),
            active.len() as f64,
            "one column per active task after event {at}"
        );
        true
    }

    #[test]
    fn gathered_columns_match_the_whole_set_build() {
        let events: Vec<ExchangeEvent> = generate_trace(&TraceConfig {
            seed: 31,
            duration_secs: 3.0 * 3600.0,
            mean_interarrival_secs: 60.0,
            mean_service_secs: 1800.0,
            clusters: 3,
            outages: 3,
            mean_outage_secs: 1500.0,
        })
        .into_iter()
        .map(|e| e.event)
        .collect();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ExchangeEvent::ClusterDown { .. })),
            "the trace must take a cluster down"
        );
        let kill = 2 * events.len() / 3;

        for (tag, make_source) in [
            ("ground_truth", ground_truth as fn() -> MatrixSource),
            ("learned", learned),
        ] {
            let config = DaemonConfig::default();
            let computed = mfcp_obs::counter("serve.columns.computed");
            let computed_before = computed.get();
            let mut daemon = ExchangeDaemon::new(config.clone(), make_source());
            let mut covered = 0usize;
            let readmit_at = kill / 2;
            for (at, event) in events[..kill].iter().enumerate() {
                if at == readmit_at {
                    // Re-admit an active id with another spec: its
                    // column must follow the new spec.
                    let task_id = *daemon.state.active.keys().next().expect("busy exchange");
                    daemon.apply(&ExchangeEvent::Arrival {
                        task_id,
                        spec: TaskSpec {
                            family: TaskFamily::Transformer,
                            corpus: Corpus::Europarl,
                            depth: 24,
                            width: 1024,
                            batch_size: 16,
                        },
                    });
                }
                daemon.apply(event);
                covered += usize::from(check(&daemon, at));
            }
            assert!(covered > kill / 2, "{tag}: the store covers the active set");
            // Each admitted task is predicted once, not once per resolve.
            let admitted = daemon.counters().admitted;
            assert!(
                computed.get() - computed_before <= admitted,
                "{tag}: {} columns computed for {admitted} admitted tasks",
                computed.get() - computed_before
            );

            let dir =
                std::env::temp_dir().join(format!("mfcp_columns_{tag}_{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            daemon.snapshot(&dir).expect("snapshot");
            let active_at_kill = daemon.state.active.len();
            drop(daemon);
            let mut daemon = ExchangeDaemon::restore(&dir, config, make_source()).expect("restore");
            std::fs::remove_dir_all(&dir).ok();
            assert!(
                active_at_kill > 0,
                "{tag}: the kill lands on a busy exchange"
            );
            assert_eq!(
                daemon.columns.len(),
                0,
                "{tag}: a restored daemon starts with an empty store"
            );
            let computed_before = computed.get();
            let admitted_before = daemon.counters().admitted;
            let mut refilled = false;
            for (at, event) in events.iter().enumerate().skip(kill) {
                daemon.apply(event);
                refilled |= check(&daemon, at);
            }
            daemon.finish();
            assert!(
                check(&daemon, events.len()),
                "{tag}: the final resolve covers"
            );
            assert!(refilled, "{tag}: the first resolve after a restore refills");
            let admitted = daemon.counters().admitted - admitted_before;
            assert!(
                computed.get() - computed_before <= admitted + active_at_kill as u64,
                "{tag}: a restore recomputes the active set once"
            );
        }
    }
}
