//! The serve path: closed-loop replays of the workload's trace through
//! fresh `ExchangeDaemon`s, one caller, no queueing.
//!
//! Every pass replays the same trace from an empty daemon, so passes do
//! identical work and differ only in timing. A [`ServeSession`] advances
//! in time-budgeted steps so the run can interleave serving with
//! retraining. Only `apply`/`finish` are timed; the benchmark's
//! bookkeeping and checks sit outside the timer. In a traced session
//! each resolve is followed by the layer probes, timed on the resolve's
//! own task set.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use mfcp_linalg::Matrix;
use mfcp_optim::learned::repair;
use mfcp_optim::{DualPredictor, LearnedDualHead, MatchingProblem};
use mfcp_platform::stream::{ExchangeEvent, TraceEvent};
use mfcp_platform::task::TaskSpec;
use mfcp_serve::{ExchangeDaemon, LastSolution};

use crate::scenario::{Inputs, Trained};
use crate::stats::ServeTally;
use crate::tracer::Tracer;

/// Column sums of a served matching must be 1 to this tolerance.
const SIMPLEX_TOL: f64 = 1e-9;

/// Layer probe totals over a traced session.
#[derive(Debug, Clone, Default)]
pub struct ServeProbes {
    /// `PerfModel::time_matrix` + `reliability_matrix` on each
    /// resolve's task set.
    pub platform_secs: f64,
    /// `embed_batch` + per-cluster `predict_times`/`predict_reliability`
    /// on each resolve's task set.
    pub nn_secs: f64,
    /// `predict_duals` + `repair` on resolves that seed newcomers.
    pub seed_secs: f64,
    /// Resolves the seed probe ran on (a previous matching existed and
    /// new tasks joined).
    pub seed_calls: u64,
    /// Seed probe calls where the head returned a prediction.
    pub seed_predictions: u64,
}

/// What a serve session measured.
#[derive(Debug, Clone, Default)]
pub struct ServeRun {
    /// Latency of every `apply`/`finish` that ran a resolve, in ms.
    pub resolve_ms: Vec<f64>,
    /// Thread CPU time of the same calls, in ms.
    pub resolve_cpu_ms: Vec<f64>,
    /// Latency of every `apply` that did not resolve, in µs.
    pub admit_us: Vec<f64>,
    /// Total time inside `apply`/`finish`.
    pub apply_secs: f64,
    /// Events applied.
    pub events: u64,
    /// Whole trace passes completed.
    pub passes: u64,
    /// Failure accounting.
    pub tally: ServeTally,
    /// Mean relaxed objective per matched task over the served
    /// matchings of the first pass.
    pub objective_mean: f64,
    /// Mean true success probability of the served matchings of the
    /// first pass, under the ground-truth reliability model.
    pub reliability_mean: f64,
    /// Resolves the two quality means average over.
    pub quality_resolves: u64,
    /// The final matching of the first pass, as bits; every later pass
    /// must end in the same bits.
    pub final_bits: Vec<u64>,
    /// Layer probes (traced sessions only).
    pub probes: Option<ServeProbes>,
}

/// A replay in progress: the live daemon, the active set the benchmark
/// tracks from the trace and the admission results, and the position
/// in the current pass.
pub struct ServeSession<'a> {
    inputs: &'a Inputs,
    trained: &'a Trained,
    trace: &'a [TraceEvent],
    daemon: ExchangeDaemon,
    // The head the seed probe of a traced session calls. Workloads
    // without a head probe an untrained one, which abstains exactly as
    // the daemon does without a head; the probe runs there only because
    // every traced run reports every per-layer metric.
    probe_head: Option<LearnedDualHead>,
    active: BTreeMap<u64, TaskSpec>,
    down: BTreeSet<usize>,
    index: usize,
    quality: (f64, f64, u64),
    // The daemon counts ladder errors only in the registry.
    solve_errors: mfcp_obs::Counter,
    /// Everything measured so far.
    pub run: ServeRun,
}

impl<'a> ServeSession<'a> {
    /// A session replaying `trace` once per pass; traced (with layer
    /// probes after every timed resolve) when `traced`.
    pub fn new(
        inputs: &'a Inputs,
        trained: &'a Trained,
        trace: &'a [TraceEvent],
        traced: bool,
    ) -> Self {
        ServeSession {
            inputs,
            trained,
            trace,
            daemon: fresh_daemon(inputs, trained),
            probe_head: traced.then(|| {
                trained
                    .head
                    .clone()
                    .unwrap_or_else(|| LearnedDualHead::new(inputs.clusters(), inputs.seed))
            }),
            active: BTreeMap::new(),
            down: BTreeSet::new(),
            index: 0,
            quality: (0.0, 0.0, 0),
            solve_errors: mfcp_obs::counter("serve.solve_error"),
            run: ServeRun {
                probes: traced.then(ServeProbes::default),
                ..ServeRun::default()
            },
        }
    }

    /// Applies events until `budget` has elapsed (at least one event),
    /// starting a fresh daemon whenever a pass completes. Returns an
    /// error naming the first incorrect output.
    ///
    /// A step follows a retrain, which evicts the daemon's working set
    /// from the caches: events up to and including the step's first
    /// resolve are applied and checked but not timed. Timing them would
    /// put one cold resolve per step into the latency tail.
    pub fn step(&mut self, budget: Duration, tracer: &mut Tracer) -> Result<(), String> {
        let started = Instant::now();
        let mut timed = false;
        loop {
            timed |= self.apply_next(tracer, timed)?;
            if started.elapsed() >= budget {
                return Ok(());
            }
        }
    }

    /// Applies events until the current pass completes, with the same
    /// untimed warm-up as [`ServeSession::step`].
    pub fn finish_pass(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let passes = self.run.passes;
        let mut timed = false;
        while self.run.passes == passes {
            timed |= self.apply_next(tracer, timed)?;
        }
        Ok(())
    }

    /// Snapshots the live daemon into `dir` and restores a second daemon
    /// from it, `reps` times, checking that the restored daemon holds the
    /// same cursor, counters and matching bits. Returns the mean
    /// `snapshot` and `restore` seconds. Both write or read fsync'd
    /// files, so they run only in traced runs, outside every timer that
    /// feeds an end-to-end metric.
    pub fn snapshot_round_trip(&self, dir: &Path, reps: usize) -> Result<(f64, f64), String> {
        let (mut write, mut read) = (0.0, 0.0);
        for _ in 0..reps {
            let started = Instant::now();
            self.daemon
                .snapshot(dir)
                .map_err(|e| format!("snapshot into {}: {e}", dir.display()))?;
            write += started.elapsed().as_secs_f64();
            let started = Instant::now();
            let restored = ExchangeDaemon::restore(
                dir,
                self.inputs.daemon_config(),
                self.inputs.source(self.trained),
            )
            .map_err(|e| format!("restore from {}: {e}", dir.display()))?;
            read += started.elapsed().as_secs_f64();
            if restored.cursor() != self.daemon.cursor()
                || restored.counters() != self.daemon.counters()
                || matching_bits(restored.last_solution())
                    != matching_bits(self.daemon.last_solution())
            {
                return Err("a restored daemon differs from the one snapshotted".into());
            }
        }
        Ok((write / reps as f64, read / reps as f64))
    }

    /// Applies the next event (or the end-of-trace `finish`), checks
    /// any resolve it ran, and rolls over to a new pass at the end.
    /// Records latency samples only when `timed`; returns whether the
    /// event ran a resolve.
    fn apply_next(&mut self, tracer: &mut Tracer, timed: bool) -> Result<bool, String> {
        let inputs = self.inputs;
        let index = self.index;
        let event = self.trace.get(index).map(|e| &e.event);
        let before = self.daemon.counters();
        let errors_before = self.solve_errors.get();
        let prev_ids: Option<Vec<u64>> = if tracer.enabled() {
            self.daemon.last_solution().map(|l| l.ids.clone())
        } else {
            None
        };
        let span = tracer.begin("serve.apply", index as u64);
        let cpu_started = crate::host::thread_cpu_secs();
        let started = Instant::now();
        match event {
            Some(event) => self.daemon.apply(event),
            None => self.daemon.finish(),
        }
        let elapsed = started.elapsed().as_secs_f64();
        let cpu = crate::host::thread_cpu_secs() - cpu_started;
        tracer.end(span);
        let after = self.daemon.counters();
        let run = &mut self.run;
        let resolved = after.resolves > before.resolves;
        if timed {
            run.apply_secs += elapsed;
            if event.is_some() {
                run.events += 1;
            }
            if resolved {
                run.resolve_ms.push(elapsed * 1e3);
                run.resolve_cpu_ms.push(cpu * 1e3);
            } else if event.is_some() {
                run.admit_us.push(elapsed * 1e6);
            }
        }

        match event {
            Some(ExchangeEvent::Arrival { task_id, spec }) => {
                run.tally.arrivals += 1;
                if after.shed == before.shed {
                    self.active.insert(*task_id, spec.clone());
                }
            }
            Some(ExchangeEvent::Departure { task_id }) => {
                self.active.remove(task_id);
            }
            Some(ExchangeEvent::ClusterDown { cluster }) => {
                self.down.insert(*cluster);
            }
            Some(ExchangeEvent::ClusterUp { cluster }) => {
                self.down.remove(cluster);
            }
            None => {}
        }
        run.tally.shed += after.shed - before.shed;
        run.tally.deadline_misses += after.deadline_miss - before.deadline_miss;
        run.tally.solve_errors += self.solve_errors.get() - errors_before;

        if resolved {
            run.tally.resolves += after.resolves - before.resolves;
            let last = self.daemon.last_solution();
            check_matching(last, &self.active, inputs.clusters())
                .map_err(|e| format!("event {index}: incorrect matching: {e}"))?;
            let last = last.expect("checked above");
            if run.passes == 0 {
                let (objective, reliability) =
                    true_quality(inputs, &self.active, &self.down, &last.x);
                self.quality.0 += objective;
                self.quality.1 += reliability;
                self.quality.2 += 1;
            }
            if let (Some(probes), Some(head)) =
                (run.probes.as_mut().filter(|_| timed), &self.probe_head)
            {
                let newcomers = prev_ids
                    .as_ref()
                    .map(|prev| last.ids.iter().filter(|id| !prev.contains(id)).count());
                probe_resolve(
                    inputs,
                    self.trained,
                    head,
                    (&self.active, &self.down),
                    newcomers,
                    index as u64,
                    probes,
                    tracer,
                );
            }
        }

        if event.is_some() {
            self.index += 1;
            return Ok(resolved);
        }
        // The pass is complete: check it against the first pass and
        // start the next one on a fresh daemon.
        let bits = matching_bits(self.daemon.last_solution());
        if run.passes == 0 {
            let (objective, reliability, resolves) = self.quality;
            run.quality_resolves = resolves;
            let resolves = resolves.max(1) as f64;
            run.objective_mean = objective / resolves;
            run.reliability_mean = reliability / resolves;
            run.final_bits = bits;
        } else if bits != run.final_bits {
            return Err(format!(
                "pass {} ended in a different matching than pass 0",
                run.passes
            ));
        }
        run.passes += 1;
        self.daemon = fresh_daemon(inputs, self.trained);
        self.active.clear();
        self.down.clear();
        self.index = 0;
        Ok(resolved)
    }
}

fn fresh_daemon(inputs: &Inputs, trained: &Trained) -> ExchangeDaemon {
    let daemon = ExchangeDaemon::new(inputs.daemon_config(), inputs.source(trained));
    match &trained.head {
        Some(head) => daemon.with_dual_head(head.clone()),
        None => daemon,
    }
}

/// The bits of a final matching: ids, objective, assignment.
fn matching_bits(last: Option<&LastSolution>) -> Vec<u64> {
    let Some(last) = last else {
        return Vec::new();
    };
    let mut bits = last.ids.clone();
    bits.push(last.objective.to_bits());
    bits.extend(last.x.as_slice().iter().map(|v| v.to_bits()));
    bits
}

/// Checks a resolve's matching against the active set the benchmark
/// tracked from the trace and the admission results.
fn check_matching(
    last: Option<&LastSolution>,
    active: &BTreeMap<u64, TaskSpec>,
    m: usize,
) -> Result<(), String> {
    let last = last.ok_or("a resolve left no matching")?;
    if !last.ids.iter().eq(active.keys()) {
        return Err(format!(
            "matching covers {} tasks, the active set has {}",
            last.ids.len(),
            active.len()
        ));
    }
    if last.x.rows() != m || last.x.cols() != last.ids.len() {
        return Err(format!("matching has shape {:?}", last.x.shape()));
    }
    if !last.objective.is_finite() {
        return Err(format!("objective {} is not finite", last.objective));
    }
    for j in 0..last.x.cols() {
        let col: f64 = (0..m).map(|i| last.x[(i, j)]).sum();
        let in_range = (0..m).all(|i| last.x[(i, j)].is_finite() && last.x[(i, j)] >= -SIMPLEX_TOL);
        if !in_range || (col - 1.0).abs() > SIMPLEX_TOL {
            return Err(format!("column {j} is off the simplex (sum {col})"));
        }
    }
    Ok(())
}

/// A served matching scored against the ground truth: its relaxed
/// objective per task on the true time and reliability matrices (with
/// the daemon's outage slowdown on downed clusters), and its expected
/// success probability averaged over tasks. On ground-truth serving
/// the objective is exactly the one the daemon minimized; on learned
/// serving it is what the predicted matching really costs.
fn true_quality(
    inputs: &Inputs,
    active: &BTreeMap<u64, TaskSpec>,
    down: &BTreeSet<usize>,
    x: &Matrix,
) -> (f64, f64) {
    let specs: Vec<TaskSpec> = active.values().cloned().collect();
    let config = inputs.daemon_config();
    let mut t = inputs.model.time_matrix(&specs);
    let a = inputs.model.reliability_matrix(&specs);
    let n = specs.len();
    for &cluster in down {
        for j in 0..n {
            t[(cluster, j)] *= config.outage_slowdown;
        }
    }
    let reliability: f64 = (0..n)
        .map(|j| (0..x.rows()).map(|i| x[(i, j)] * a[(i, j)]).sum::<f64>())
        .sum();
    let problem = MatchingProblem::new(t, a, config.gamma);
    let objective = mfcp_optim::objective::value(&problem, &config.params, x);
    (objective / n as f64, reliability / n as f64)
}

/// Times the layers a resolve passes through, called from outside on
/// the resolve's task set: the ground-truth and learned matrix builds,
/// and — when a previous matching existed and tasks joined — the dual
/// head's seed prediction plus repair, on the problem the daemon built.
#[allow(clippy::too_many_arguments)]
fn probe_resolve(
    inputs: &Inputs,
    trained: &Trained,
    head: &LearnedDualHead,
    (active, down): (&BTreeMap<u64, TaskSpec>, &BTreeSet<usize>),
    newcomers: Option<usize>,
    id: u64,
    probes: &mut ServeProbes,
    tracer: &mut Tracer,
) {
    let specs: Vec<TaskSpec> = active.values().cloned().collect();
    let (m, n) = (inputs.clusters(), specs.len());

    let span = tracer.begin("platform.matrices", id);
    let started = Instant::now();
    let truth = (
        inputs.model.time_matrix(black_box(&specs)),
        inputs.model.reliability_matrix(black_box(&specs)),
    );
    probes.platform_secs += started.elapsed().as_secs_f64();
    tracer.end(span);

    let span = tracer.begin("nn.matrices", id);
    let started = Instant::now();
    let features = inputs.embedder.embed_batch(black_box(&specs));
    let mut learned = (Matrix::zeros(m, n), Matrix::zeros(m, n));
    for (i, p) in trained.predictor.predictors.iter().enumerate() {
        let t = p.predict_times(&features);
        let a = p.predict_reliability(&features);
        for j in 0..n {
            learned.0[(i, j)] = t[j].max(1e-6);
            learned.1[(i, j)] = a[j].clamp(0.0, 1.0);
        }
    }
    probes.nn_secs += started.elapsed().as_secs_f64();
    tracer.end(span);

    if newcomers.unwrap_or(0) == 0 {
        return;
    }
    let (mut t, a) = if inputs.spec.learned { learned } else { truth };
    let config = inputs.daemon_config();
    for &cluster in down {
        for j in 0..n {
            t[(cluster, j)] *= config.outage_slowdown;
        }
    }
    let problem = MatchingProblem::new(t, a, config.gamma);
    let params = config.params;
    let span = tracer.begin("learned.seed", id);
    let started = Instant::now();
    let prediction = head.predict_duals(&problem, &params);
    let repaired = prediction.as_ref().map(|raw| repair(raw, m, n).is_ok());
    probes.seed_secs += started.elapsed().as_secs_f64();
    tracer.end(span);
    probes.seed_calls += 1;
    if repaired.is_some() {
        probes.seed_predictions += 1;
    }
}
