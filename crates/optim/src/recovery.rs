//! Fault-tolerant solving: one guarded primary attempt with a greedy
//! fallback.
//!
//! The plain solvers in [`crate::solver`] assume well-posed inputs and
//! well-behaved parameters. Production traces are messier: predictors
//! occasionally emit `NaN` execution times and a non-finite iterate
//! silently poisons everything downstream. [`RobustSolver`] validates
//! its input and parameters up front — malformed data, a log barrier
//! whose cutoff `ε` is not positive with a finite reciprocal, and a
//! projection other than mirror descent fail with
//! [`SolveError::InvalidInput`] — then runs at most two stages:
//!
//! 1. one attempt of Armijo-safeguarded mirror descent with the
//!    caller's parameters, checked on every accepted iterate against
//!    the request [`Budget`] and for a finite objective
//!    ([`FallbackStage::Primary`]),
//! 2. if that attempt fails, feasible greedy rounding — LPT assignment
//!    plus reliability and capacity repair, which always produces a 0/1
//!    column-stochastic matching ([`FallbackStage::GreedyRounding`]).
//!
//! Mirror and price trials are both Armijo-tested, so `F` never rises
//! inside the attempt from any start: a start only chooses where descent
//! begins. A failure that remains — an expired budget, a non-finite
//! iterate — would hit a second, cold attempt just as hard, so there is
//! none.
//!
//! Every attempt is recorded in [`SolveDiagnostics`] so callers can see
//! the path taken instead of just a final answer.
//!
//! [`RobustSolver::solve`] takes a [`SolveCtx`]: start prices (a
//! previous solve's [`RobustSolution::prices`]) and a
//! [`crate::learned::DualPredictor`]. Admissible given prices start the
//! attempt; otherwise the predictor's feasibility-repaired seed
//! ([`crate::learned::repair`]) does; otherwise it starts cold. A
//! rejected start never reaches the solver. [`SolveDiagnostics::seed`]
//! records the start's provenance as a typed [`SeedProvenance`].

use std::fmt;
use std::time::Instant;

use crate::budget::Budget;
use crate::learned::{prices_admissible, repair, DualPredictor, RepairError};
use crate::objective::{self, price_dim, BarrierKind, RelaxationParams};
use crate::problem::{Assignment, MatchingProblem};
use crate::solver::{
    is_column_stochastic, solve_relaxed_from_guarded, takes_price_trials, uniform_init,
    PgdWorkspace, ProjectionKind, RelaxedSolution, SolverOptions, StopReason,
};
use mfcp_linalg::Matrix;

/// A stage of a robust solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackStage {
    /// Mirror descent with the caller's parameters.
    Primary,
    /// Greedy LPT rounding plus reliability/capacity repair.
    GreedyRounding,
}

impl fmt::Display for FallbackStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FallbackStage::Primary => "primary",
            FallbackStage::GreedyRounding => "greedy-rounding",
        })
    }
}

/// Typed failure modes surfaced by [`RobustSolver`] instead of panics or
/// silent `NaN` propagation. All but [`SolveError::InvalidInput`] end a
/// primary attempt (greedy rounding cannot fail).
#[derive(Debug, Clone)]
pub enum SolveError {
    /// The problem data, relaxation parameters or solver options failed
    /// validation.
    InvalidInput(String),
    /// An iterate or its objective became `NaN`/`±∞`.
    NonFinite {
        /// Iteration at which it was detected.
        iteration: usize,
    },
    /// The caller's per-request [`Budget`] expired: its deadline passed
    /// or its cancel token fired. The solve responds by going straight
    /// to greedy rounding.
    DeadlineExceeded {
        /// Iteration at which the expiry was observed.
        iteration: usize,
    },
    /// An attempt returned an iterate whose columns left the simplex.
    OffSimplex,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::InvalidInput(reason) => write!(f, "invalid input: {reason}"),
            SolveError::NonFinite { iteration } => {
                write!(f, "non-finite iterate at iteration {iteration}")
            }
            SolveError::DeadlineExceeded { iteration } => {
                write!(f, "request budget expired at iteration {iteration}")
            }
            SolveError::OffSimplex => f.write_str("result columns left the probability simplex"),
        }
    }
}

impl std::error::Error for SolveError {}

/// How a single attempt ended.
#[derive(Debug, Clone)]
pub enum StageOutcome {
    /// The stage produced a healthy solution.
    Success,
    /// The stage aborted with a typed error.
    Failed(SolveError),
}

/// Record of one attempt at one stage.
#[derive(Debug, Clone)]
pub struct StageAttempt {
    /// The stage attempted.
    pub stage: FallbackStage,
    /// Iterations the underlying solver performed.
    pub iterations: usize,
    /// Why the underlying solver stopped; `None` when the stage produced
    /// no solver iterate (failed, or greedy rounding).
    pub stop: Option<StopReason>,
    /// Projected stationarity residual of the attempt's iterate, when
    /// the solver returned one.
    pub residual: Option<f64>,
    /// Final objective of the attempt, when one was computed.
    pub objective: Option<f64>,
    /// Wall-clock seconds spent in this attempt.
    pub elapsed_secs: f64,
    /// Where the attempt's start came from; `None` for an attempt that
    /// started cold (the uniform simplex point).
    pub seed: Option<SeedSource>,
    /// Outcome of the attempt.
    pub outcome: StageOutcome,
}

/// Where a seeded start came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedSource {
    /// Prices the caller handed in ([`SolveCtx::prices`]).
    Given,
    /// A [`crate::learned::DualPredictor`]'s repaired prediction.
    Predicted,
}

impl fmt::Display for SeedSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SeedSource::Given => "given",
            SeedSource::Predicted => "pred",
        })
    }
}

/// What became of a solve's start — the typed provenance of the seed,
/// recorded in [`SolveDiagnostics::seed`]. Each solve counts once in
/// `optim.seed.{cold,given,predicted,fell_back}` (a rejected start
/// leaves a cold solve), and each rejection in `optim.seed.rejected`.
///
/// It describes the last start the solve considered: given prices that
/// fail their check and are followed by an admissible prediction report
/// the prediction (the rejection still counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedProvenance {
    /// No start was offered, the predictor abstained, or the solve is
    /// greedy-only: the solve ran cold.
    Cold,
    /// The start seeded the successful primary attempt.
    Seeded(SeedSource),
    /// The start failed its admission check ([`prices_admissible`] and
    /// [`price_dim`] for prices, [`crate::learned::repair`] for columns)
    /// and never reached the solver; the attempt started cold.
    Rejected(SeedSource, RepairError),
    /// The start seeded an attempt that failed, and greedy rounding
    /// answered.
    FellBack(SeedSource),
}

/// What a [`RobustSolver::solve`] call may start from. The default is a
/// cold solve.
#[derive(Clone, Copy, Default)]
pub struct SolveCtx<'a> {
    /// Start prices in [`price_dim`] layout, typically the previous
    /// solve's [`RobustSolution::prices`]. They seed the attempt when
    /// the solve takes price trials, their length is the problem's
    /// [`price_dim`] and they pass [`prices_admissible`]; otherwise they
    /// are rejected.
    pub prices: Option<&'a [f64]>,
    /// Consulted for a learned seed when no given prices seed the solve.
    pub predictor: Option<&'a dyn DualPredictor>,
}

/// Diagnostics for a whole [`RobustSolver::solve`] call: every attempt in
/// order, whether recovery was needed, and total wall time.
#[derive(Debug, Clone)]
pub struct SolveDiagnostics {
    /// Every stage attempt, in execution order.
    pub attempts: Vec<StageAttempt>,
    /// True when the primary attempt failed and greedy rounding answered.
    pub recovered: bool,
    /// Total wall-clock seconds across all attempts.
    pub total_secs: f64,
    /// Where the solve's start came from.
    pub seed: SeedProvenance,
}

impl SolveDiagnostics {
    /// Human-readable path, e.g.
    /// `"primary x(non-finite) -> greedy-rounding ok"`.
    pub fn path(&self) -> String {
        let mut parts = Vec::with_capacity(self.attempts.len());
        for a in &self.attempts {
            let label = match a.seed {
                Some(source) => format!("{source}-{}", a.stage),
                None => a.stage.to_string(),
            };
            let mark = match &a.outcome {
                StageOutcome::Success => "ok".to_string(),
                StageOutcome::Failed(err) => format!("x({})", short_reason(err)),
            };
            parts.push(format!("{label} {mark}"));
        }
        parts.join(" -> ")
    }
}

fn short_reason(err: &SolveError) -> &'static str {
    match err {
        SolveError::InvalidInput(_) => "invalid-input",
        SolveError::NonFinite { .. } => "non-finite",
        SolveError::DeadlineExceeded { .. } => "deadline",
        SolveError::OffSimplex => "off-simplex",
    }
}

/// A successful robust solve: the matching plus how it was obtained.
#[derive(Debug, Clone)]
pub struct RobustSolution {
    /// Column-stochastic matching (fractional, or 0/1 from greedy
    /// rounding).
    pub x: Matrix,
    /// Objective value of `x` under the caller's parameters, whichever
    /// stage produced it, so a greedy answer compares directly with a
    /// primary one (validation keeps it finite).
    pub objective: f64,
    /// The solve's final prices ([`RelaxedSolution::prices`]); empty
    /// when the producing stage keeps none (greedy rounding, or an
    /// instance that takes no price trials).
    pub prices: Vec<f64>,
    /// The stage that produced the result.
    pub stage: FallbackStage,
    /// Discrete assignment, present when greedy rounding produced the
    /// result.
    pub assignment: Option<Assignment>,
    /// Full record of the solve's path.
    pub diagnostics: SolveDiagnostics,
}

/// A seed for the primary attempt: the iterate it starts from, its
/// prices (empty for a column seed), and where it came from.
struct Seed {
    x: Matrix,
    prices: Vec<f64>,
    source: SeedSource,
}

/// Fault-tolerant wrapper around the relaxed-matching solver.
///
/// ```
/// use mfcp_linalg::Matrix;
/// use mfcp_optim::recovery::{RobustSolver, SolveCtx};
/// use mfcp_optim::{MatchingProblem, RelaxationParams};
///
/// let times = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
/// let rel = Matrix::filled(2, 2, 0.9);
/// let problem = MatchingProblem::new(times, rel, 0.8);
/// let sol = RobustSolver::new(RelaxationParams::default())
///     .solve(&problem, SolveCtx::default())
///     .expect("healthy instance solves");
/// assert!(sol.objective.is_finite());
/// assert!(!sol.diagnostics.recovered);
/// ```
#[derive(Debug, Clone)]
pub struct RobustSolver {
    /// Relaxation parameters of the primary attempt and of greedy
    /// rounding's reported objective.
    pub params: RelaxationParams,
    /// First-order solver options (step size, budget). The projection
    /// must be [`ProjectionKind::MirrorDescent`], the only one whose
    /// trials are Armijo-tested; the fixed-step projections are
    /// ablations of [`crate::solver::solve_relaxed`].
    pub solver_opts: SolverOptions,
    /// Skip the primary attempt and answer with greedy rounding alone
    /// (the daemon's degraded mode under overload).
    pub greedy_only: bool,
    /// Per-request solve budget (deadline and/or cancel token); defaults
    /// to [`Budget::unlimited`]. Once the budget expires the primary
    /// attempt aborts at its next accepted iterate with
    /// [`SolveError::DeadlineExceeded`] and the solve goes to greedy
    /// rounding, so an over-budget request still gets a feasible answer
    /// with bounded extra latency: one iteration when it expired before
    /// the solve began (none when the start is already stationary, which
    /// the attempt then returns).
    pub budget: Budget,
}

impl RobustSolver {
    /// A robust solver with default options around `params`.
    pub fn new(params: RelaxationParams) -> Self {
        RobustSolver {
            params,
            solver_opts: SolverOptions::default(),
            greedy_only: false,
            budget: Budget::unlimited(),
        }
    }

    /// Returns a copy of this solver carrying `budget` (builder-style,
    /// for per-request daemons that share one configured solver).
    pub fn with_budget(&self, budget: Budget) -> Self {
        let mut solver = self.clone();
        solver.budget = budget;
        solver
    }

    /// Solves `problem`: one primary attempt, then greedy rounding if it
    /// fails or the budget runs out.
    ///
    /// The attempt starts from the best start `ctx` offers: the given
    /// prices, when the solve takes price trials and they fit the
    /// problem's [`price_dim`] layout and pass [`prices_admissible`];
    /// else the predictor's seed (its prices when it has admissible
    /// ones, else its repaired columns); else the uniform point.
    /// [`SolveDiagnostics::seed`] records the provenance.
    ///
    /// Returns the solution together with the per-attempt diagnostics,
    /// or [`SolveError::InvalidInput`] when the problem data, parameters
    /// or projection are malformed — the only error, since greedy
    /// rounding cannot fail.
    pub fn solve(
        &self,
        problem: &MatchingProblem,
        ctx: SolveCtx<'_>,
    ) -> Result<RobustSolution, SolveError> {
        validate_problem(problem)?;
        validate_params(&self.params)?;
        if self.solver_opts.projection != ProjectionKind::MirrorDescent {
            return Err(SolveError::InvalidInput(format!(
                "projection {:?} (a robust solve runs mirror descent only)",
                self.solver_opts.projection
            )));
        }
        // Only the primary attempt takes a start; a greedy-only solve
        // asks for none.
        let (seed, offered) = if self.greedy_only {
            (None, SeedProvenance::Cold)
        } else {
            self.seed(problem, ctx)
        };
        let mut sol = self.solve_inner(problem, seed);
        let diagnostics = &mut sol.diagnostics;
        diagnostics.seed = match offered {
            SeedProvenance::Seeded(source) if diagnostics.recovered => {
                if source == SeedSource::Predicted {
                    mfcp_obs::counter("optim.learned.fallback").inc();
                }
                SeedProvenance::FellBack(source)
            }
            other => other,
        };
        record_provenance(diagnostics.seed);
        Ok(sol)
    }

    /// The start `ctx` offers for `problem`, with its provenance should
    /// the seeded attempt succeed (see [`RobustSolver::solve`]).
    fn seed(&self, problem: &MatchingProblem, ctx: SolveCtx<'_>) -> (Option<Seed>, SeedProvenance) {
        let (m, n) = (problem.clusters(), problem.tasks());
        let mut provenance = SeedProvenance::Cold;
        if let Some(prices) = ctx.prices {
            if takes_price_trials(&self.params, &self.solver_opts)
                && prices.len() == price_dim(problem)
                && prices_admissible(prices)
            {
                let seed = Seed {
                    x: uniform_init(m, n),
                    prices: prices.to_vec(),
                    source: SeedSource::Given,
                };
                return (Some(seed), SeedProvenance::Seeded(SeedSource::Given));
            }
            note_rejected();
            provenance = SeedProvenance::Rejected(SeedSource::Given, RepairError::Prices);
        }
        match ctx.predictor.map(|p| self.predicted_seed(problem, p)) {
            Some(Ok(Some(seed))) => (Some(seed), SeedProvenance::Seeded(SeedSource::Predicted)),
            Some(Err(err)) => (None, SeedProvenance::Rejected(SeedSource::Predicted, err)),
            Some(Ok(None)) | None => (None, provenance),
        }
    }

    /// A learned seed for `problem` from `predictor`: `Ok(None)` when it
    /// abstains. A solve that takes price trials starts from the
    /// predicted prices alone when the predictor has admissible ones:
    /// one small prediction, no columns to repair. Otherwise the
    /// repaired column prediction seeds it; rejected prices or columns
    /// are the error.
    fn predicted_seed(
        &self,
        problem: &MatchingProblem,
        predictor: &dyn DualPredictor,
    ) -> Result<Option<Seed>, RepairError> {
        let _span = mfcp_obs::span("learned.predict");
        let (m, n) = (problem.clusters(), problem.tasks());
        let mut rejected = None;
        if takes_price_trials(&self.params, &self.solver_opts) {
            if let Some(prices) = predictor.predict_prices(problem, &self.params) {
                mfcp_obs::counter("optim.learned.predict").inc();
                if prices.len() == price_dim(problem) && prices_admissible(&prices) {
                    return Ok(Some(Seed {
                        x: uniform_init(m, n),
                        prices,
                        source: SeedSource::Predicted,
                    }));
                }
                note_learned_rejected();
                rejected = Some(RepairError::Prices);
            }
        }
        let Some(raw) = predictor.predict_duals(problem, &self.params) else {
            return rejected.map_or(Ok(None), Err);
        };
        mfcp_obs::counter("optim.learned.predict").inc();
        match repair(&raw, m, n) {
            Ok(fixed) => {
                mfcp_obs::counter("optim.learned.repaired").inc();
                // A prediction misplaces mass at the model's error scale
                // and needs a floor mirror descent can grow from (see
                // [`crate::learned::PREDICTED_BLEND`]).
                Ok(Some(Seed {
                    x: crate::learned::predicted_init(&fixed.x),
                    prices: Vec::new(),
                    source: SeedSource::Predicted,
                }))
            }
            Err(err) => {
                note_learned_rejected();
                Err(err)
            }
        }
    }

    fn solve_inner(&self, problem: &MatchingProblem, seed: Option<Seed>) -> RobustSolution {
        let _span = mfcp_obs::span("robust_solve");
        register_stage_counters();
        mfcp_obs::counter("optim.robust.calls").inc();
        let start = Instant::now();
        let mut attempts: Vec<StageAttempt> = Vec::with_capacity(2);

        let primary = if self.greedy_only {
            None
        } else {
            self.try_primary(problem, seed, &mut attempts)
        };
        let (x, objective, prices, assignment) = match primary {
            Some(sol) => (sol.x, sol.objective, sol.prices, None),
            None => {
                let (x, objective, asg) = self.greedy(problem, &mut attempts);
                (x, objective, Vec::new(), Some(asg))
            }
        };
        // The last attempt produced the answer.
        let stage = attempts.last().expect("every solve makes an attempt").stage;
        let recovered = attempts
            .iter()
            .any(|a| matches!(a.outcome, StageOutcome::Failed(_)));
        if recovered {
            mfcp_obs::counter("optim.robust.recovered").inc();
        }
        RobustSolution {
            x,
            objective,
            prices,
            stage,
            assignment,
            diagnostics: SolveDiagnostics {
                attempts,
                recovered,
                total_secs: start.elapsed().as_secs_f64(),
                seed: SeedProvenance::Cold,
            },
        }
    }

    /// Runs the guarded primary attempt from `seed` (cold when `None`);
    /// records it and returns the solution on success.
    fn try_primary(
        &self,
        problem: &MatchingProblem,
        seed: Option<Seed>,
        attempts: &mut Vec<StageAttempt>,
    ) -> Option<RelaxedSolution> {
        let stage = FallbackStage::Primary;
        let t0 = Instant::now();
        mfcp_obs::trace::begin(stage_trace_name(stage), None);
        let source = seed.as_ref().map(|seed| seed.source);
        // A seed's prices start the price state; without them the solver
        // prices the seed itself.
        let (x0, prices) = match seed {
            Some(Seed { x, prices, .. }) => (x, prices),
            None => (
                uniform_init(problem.clusters(), problem.tasks()),
                Vec::new(),
            ),
        };
        let result = solve_relaxed_from_guarded(
            problem,
            &self.params,
            &self.solver_opts,
            x0,
            (!prices.is_empty()).then_some(&prices[..]),
            &mut |it, f| check_iterate(&self.budget, it, f),
            &mut PgdWorkspace::default(),
        );
        let mut attempt = StageAttempt {
            stage,
            iterations: 0,
            stop: None,
            residual: None,
            objective: None,
            elapsed_secs: t0.elapsed().as_secs_f64(),
            seed: source,
            outcome: StageOutcome::Success,
        };
        let usable = match result {
            Ok(sol) => {
                let healthy =
                    sol.objective.is_finite() && sol.x.as_slice().iter().all(|v| v.is_finite());
                if !healthy {
                    attempt.outcome = StageOutcome::Failed(SolveError::NonFinite {
                        iteration: sol.iterations,
                    });
                } else if !is_column_stochastic(&sol.x, 1e-6) {
                    attempt.outcome = StageOutcome::Failed(SolveError::OffSimplex);
                }
                attempt.iterations = sol.iterations;
                attempt.stop = Some(sol.stop);
                attempt.residual = Some(sol.residual);
                attempt.objective = Some(sol.objective);
                matches!(attempt.outcome, StageOutcome::Success).then_some(sol)
            }
            Err(err) => {
                if let SolveError::NonFinite { iteration }
                | SolveError::DeadlineExceeded { iteration } = err
                {
                    attempt.iterations = iteration;
                }
                attempt.outcome = StageOutcome::Failed(err);
                None
            }
        };
        mfcp_obs::trace::end(stage_trace_name(stage), Some(attempt.iterations as u64));
        record_attempt_metrics(&attempt);
        attempts.push(attempt);
        usable
    }

    /// Greedy rounding: LPT assignment plus reliability (and capacity)
    /// repair, reported under the caller's parameters.
    fn greedy(
        &self,
        problem: &MatchingProblem,
        attempts: &mut Vec<StageAttempt>,
    ) -> (Matrix, f64, Assignment) {
        let stage = FallbackStage::GreedyRounding;
        let t0 = Instant::now();
        mfcp_obs::trace::begin(stage_trace_name(stage), None);
        let mut asg = crate::exact::greedy_lpt(problem);
        crate::rounding::repair_reliability(problem, &mut asg);
        if problem.capacity.is_some() {
            crate::rounding::repair_capacity(problem, &mut asg);
        }
        let x = asg.to_matrix(problem.clusters());
        let objective = objective::value(problem, &self.params, &x);
        let attempt = StageAttempt {
            stage,
            iterations: 0,
            stop: None,
            residual: None,
            objective: Some(objective),
            elapsed_secs: t0.elapsed().as_secs_f64(),
            seed: None,
            outcome: StageOutcome::Success,
        };
        mfcp_obs::trace::end(stage_trace_name(stage), None);
        record_attempt_metrics(&attempt);
        attempts.push(attempt);
        (x, objective, asg)
    }
}

/// Flight-recorder event name for a stage; each attempt emits a
/// begin/end pair under it.
fn stage_trace_name(stage: FallbackStage) -> &'static str {
    match stage {
        FallbackStage::Primary => "robust.primary",
        FallbackStage::GreedyRounding => "robust.greedy-rounding",
    }
}

/// Registers the stage event counters once per process, so one that
/// has not fired reads 0 in a snapshot rather than being absent: an
/// absent counter is how the perf gate tells a deleted one.
fn register_stage_counters() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        mfcp_obs::counter("optim.robust.recovered");
        for stage in [FallbackStage::Primary, FallbackStage::GreedyRounding] {
            for suffix in ["ok", "failed"] {
                mfcp_obs::counter(&format!("optim.robust.stage.{stage}.{suffix}"));
            }
        }
    });
}

/// Feeds one finished [`StageAttempt`] into the observability registry:
/// the attempt counter, per-stage outcome counters, and the wall-time /
/// iteration histograms that the `report` bin surfaces.
fn record_attempt_metrics(attempt: &StageAttempt) {
    if !mfcp_obs::enabled() {
        return;
    }
    mfcp_obs::counter("optim.robust.attempts").inc();
    let suffix = match attempt.outcome {
        StageOutcome::Success => "ok",
        StageOutcome::Failed(_) => "failed",
    };
    mfcp_obs::counter(&format!("optim.robust.stage.{}.{suffix}", attempt.stage)).inc();
    mfcp_obs::histogram("optim.robust.attempt_secs").record(attempt.elapsed_secs);
    mfcp_obs::histogram("optim.robust.attempt_iters").record(attempt.iterations as f64);
}

/// Counts a solve's [`SeedProvenance`] in one of
/// `optim.seed.{cold,given,predicted,fell_back}`, which partition the
/// solves (a rejected start leaves a cold solve; rejections have their
/// own counter, see [`note_rejected`]).
fn record_provenance(provenance: SeedProvenance) {
    static COUNTERS: std::sync::OnceLock<[mfcp_obs::Counter; 4]> = std::sync::OnceLock::new();
    let [cold, given, predicted, fell_back] = COUNTERS.get_or_init(|| {
        ["cold", "given", "predicted", "fell_back"]
            .map(|kind| mfcp_obs::counter(&format!("optim.seed.{kind}")))
    });
    match provenance {
        SeedProvenance::Cold | SeedProvenance::Rejected(..) => cold,
        SeedProvenance::Seeded(SeedSource::Given) => given,
        SeedProvenance::Seeded(SeedSource::Predicted) => predicted,
        SeedProvenance::FellBack(_) => fell_back,
    }
    .inc();
}

/// Counts a start rejected before it reached the solver
/// (`optim.seed.rejected`, plus a `seed.rejected` flight-recorder
/// instant).
fn note_rejected() {
    mfcp_obs::counter("optim.seed.rejected").inc();
    mfcp_obs::trace::instant("seed.rejected", None);
}

/// [`note_rejected`] for a learned prediction, which also counts in
/// `optim.learned.rejected`.
fn note_learned_rejected() {
    mfcp_obs::counter("optim.learned.rejected").inc();
    note_rejected();
}

/// The primary attempt's guard: judges accepted iterate `iteration` by
/// its objective `obj` (`NaN` when the iterate itself is not finite).
/// The request budget is the tightest contract and is checked first.
fn check_iterate(budget: &Budget, iteration: usize, obj: f64) -> Result<(), SolveError> {
    if budget.expired() {
        return Err(SolveError::DeadlineExceeded { iteration });
    }
    if !obj.is_finite() {
        return Err(SolveError::NonFinite { iteration });
    }
    Ok(())
}

fn validate_problem(problem: &MatchingProblem) -> Result<(), SolveError> {
    let (m, n) = (problem.clusters(), problem.tasks());
    if m == 0 && n > 0 {
        return Err(SolveError::InvalidInput(format!(
            "{n} tasks but no clusters to place them on"
        )));
    }
    if problem.reliability.shape() != (m, n) {
        return Err(SolveError::InvalidInput(format!(
            "reliability shape {:?} does not match times shape {:?}",
            problem.reliability.shape(),
            (m, n)
        )));
    }
    if problem.speedup.len() != m {
        return Err(SolveError::InvalidInput(format!(
            "{} speedup curves for {m} clusters",
            problem.speedup.len()
        )));
    }
    if !problem.gamma.is_finite() {
        return Err(SolveError::InvalidInput(format!(
            "non-finite reliability threshold gamma = {}",
            problem.gamma
        )));
    }
    for i in 0..m {
        for j in 0..n {
            let t = problem.times[(i, j)];
            if !t.is_finite() || t < 0.0 {
                return Err(SolveError::InvalidInput(format!(
                    "times[({i}, {j})] = {t} (must be finite and non-negative)"
                )));
            }
            let a = problem.reliability[(i, j)];
            if !a.is_finite() || !(0.0..=1.0).contains(&a) {
                return Err(SolveError::InvalidInput(format!(
                    "reliability[({i}, {j})] = {a} (must be in [0, 1])"
                )));
            }
        }
    }
    if let Some(cap) = &problem.capacity {
        if cap.usage.shape() != (m, n) {
            return Err(SolveError::InvalidInput(format!(
                "capacity usage shape {:?} does not match {:?}",
                cap.usage.shape(),
                (m, n)
            )));
        }
        if cap.limits.len() != m {
            return Err(SolveError::InvalidInput(format!(
                "{} capacity limits for {m} clusters",
                cap.limits.len()
            )));
        }
        if cap
            .usage
            .as_slice()
            .iter()
            .any(|u| !u.is_finite() || *u < 0.0)
        {
            return Err(SolveError::InvalidInput(
                "capacity usage must be finite and non-negative".into(),
            ));
        }
        if cap.limits.iter().any(|l| !l.is_finite() || *l <= 0.0) {
            return Err(SolveError::InvalidInput(
                "capacity limits must be finite and positive".into(),
            ));
        }
    }
    Ok(())
}

fn validate_params(params: &RelaxationParams) -> Result<(), SolveError> {
    if !params.beta.is_finite() || params.beta <= 0.0 {
        return Err(SolveError::InvalidInput(format!(
            "smooth-max beta = {} (must be finite and positive)",
            params.beta
        )));
    }
    if !params.lambda.is_finite() || params.lambda < 0.0 {
        return Err(SolveError::InvalidInput(format!(
            "barrier weight lambda = {} (must be finite and non-negative)",
            params.lambda
        )));
    }
    if !params.rho.is_finite() || params.rho < 0.0 {
        return Err(SolveError::InvalidInput(format!(
            "entropy weight rho = {} (must be finite and non-negative)",
            params.rho
        )));
    }
    // The barrier's linear extension divides by ε: a zero or subnormal
    // cutoff sends the first gradient, and the objective at a
    // reliability-violating 0/1 point, to infinity.
    if let BarrierKind::Log { eps } = params.barrier {
        if !(eps.is_finite() && eps > 0.0 && eps.recip().is_finite()) {
            return Err(SolveError::InvalidInput(format!(
                "log-barrier eps = {eps} (must be finite, positive and have a finite reciprocal)"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_problem(seed: u64, m: usize, n: usize) -> MatchingProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.5..3.0));
        let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.7..1.0));
        MatchingProblem::new(t, a, 0.75)
    }

    /// A healthy problem under a request budget whose cancel token has
    /// fired: every primary attempt, seeded or cold, fails at its first
    /// guarded iterate, deterministically.
    fn failing_primary_setup() -> (MatchingProblem, RobustSolver) {
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let solver = RobustSolver::new(RelaxationParams::default())
            .with_budget(Budget::unlimited().with_cancel(token));
        (random_problem(1, 3, 6), solver)
    }

    #[test]
    fn healthy_problem_succeeds_on_primary() {
        let problem = random_problem(1, 3, 6);
        let solver = RobustSolver::new(RelaxationParams::default());
        let sol = solver
            .solve(&problem, SolveCtx::default())
            .expect("healthy instance solves");
        assert_eq!(
            sol.stage,
            FallbackStage::Primary,
            "path: {} | attempts: {:?}",
            sol.diagnostics.path(),
            sol.diagnostics.attempts
        );
        assert!(!sol.diagnostics.recovered);
        assert_eq!(sol.diagnostics.attempts.len(), 1);
        let attempt = &sol.diagnostics.attempts[0];
        assert!(attempt.stop.is_some(), "a solver attempt records its stop");
        assert!(attempt.residual.is_some_and(f64::is_finite));
        assert!(is_column_stochastic(&sol.x, 1e-6));
        assert!(sol.objective.is_finite());
    }

    #[test]
    fn failed_primary_recovers_through_greedy() {
        let (problem, solver) = failing_primary_setup();
        let sol = solver
            .solve(&problem, SolveCtx::default())
            .expect("greedy rounding must recover");
        assert!(
            sol.diagnostics.recovered,
            "path: {}",
            sol.diagnostics.path()
        );
        assert_eq!(sol.stage, FallbackStage::GreedyRounding);
        assert!(is_column_stochastic(&sol.x, 1e-12));
        assert!(sol.objective.is_finite());
        // The primary attempt must be on record as a deadline failure at
        // its first iterate, not silently dropped.
        assert_eq!(sol.diagnostics.attempts.len(), 2);
        let first = &sol.diagnostics.attempts[0];
        assert_eq!(first.stage, FallbackStage::Primary);
        assert!(
            matches!(
                first.outcome,
                StageOutcome::Failed(SolveError::DeadlineExceeded { iteration: 1 })
            ),
            "unexpected first outcome: {:?}",
            first.outcome
        );
        assert_eq!(first.iterations, 1);

        // Degradation is deterministic: a second run under the same fired
        // token reproduces the matching bit for bit.
        let again = solver
            .solve(&problem, SolveCtx::default())
            .expect("greedy rounding is infallible");
        assert_eq!(again.objective.to_bits(), sol.objective.to_bits());
        assert_eq!(again.x.as_slice(), sol.x.as_slice());
    }

    #[test]
    fn fixed_step_projections_rejected_as_invalid_input() {
        let problem = random_problem(5, 2, 3);
        for projection in [ProjectionKind::SoftmaxPaper, ProjectionKind::Euclidean] {
            let mut solver = RobustSolver::new(RelaxationParams::default());
            solver.solver_opts.projection = projection;
            let err = solver.solve(&problem, SolveCtx::default()).unwrap_err();
            assert!(
                matches!(err, SolveError::InvalidInput(_)),
                "{projection:?}: {err}"
            );
        }
    }

    #[test]
    fn degenerate_barrier_rejected_as_invalid_input() {
        let problem = random_problem(3, 2, 3);
        // A zero or subnormal cutoff breaks the unguarded solver on a
        // reliability-infeasible start: the barrier's linear extension
        // divides by it.
        let infeasible =
            MatchingProblem::new(Matrix::filled(2, 4, 1.0), Matrix::filled(2, 4, 0.7), 0.95);
        for eps in [0.0, 1e-310] {
            let params = RelaxationParams {
                barrier: BarrierKind::Log { eps },
                ..Default::default()
            };
            let raw = crate::solver::solve_relaxed(&infeasible, &params, &SolverOptions::default());
            assert!(
                !raw.objective.is_finite(),
                "eps = {eps} breaks the plain solver"
            );
        }
        for eps in [0.0, -1e-3, 1e-310, f64::NAN, f64::INFINITY] {
            let params = RelaxationParams {
                barrier: BarrierKind::Log { eps },
                ..Default::default()
            };
            let err = RobustSolver::new(params)
                .solve(&problem, SolveCtx::default())
                .unwrap_err();
            assert!(
                matches!(err, SolveError::InvalidInput(_)),
                "eps = {eps}: {err}"
            );
        }
        // Tiny cutoffs with a finite reciprocal stay valid.
        for eps in [1e-300, 1e-12] {
            let params = RelaxationParams {
                barrier: BarrierKind::Log { eps },
                ..Default::default()
            };
            let sol = RobustSolver::new(params)
                .solve(&problem, SolveCtx::default())
                .expect("a positive cutoff with a finite reciprocal solves");
            assert!(sol.objective.is_finite(), "eps = {eps}");
        }
    }

    #[test]
    fn nan_times_rejected_as_invalid_input() {
        let mut problem = random_problem(2, 2, 3);
        problem.times[(0, 0)] = f64::NAN;
        let err = RobustSolver::new(RelaxationParams::default())
            .solve(&problem, SolveCtx::default())
            .unwrap_err();
        assert!(matches!(err, SolveError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn nan_beta_rejected_as_invalid_input() {
        let problem = random_problem(3, 2, 3);
        let params = RelaxationParams {
            beta: f64::NAN,
            ..Default::default()
        };
        let err = RobustSolver::new(params)
            .solve(&problem, SolveCtx::default())
            .unwrap_err();
        assert!(matches!(err, SolveError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn tasks_without_clusters_rejected() {
        let problem = MatchingProblem::new(Matrix::zeros(0, 3), Matrix::zeros(0, 3), 0.5);
        let err = RobustSolver::new(RelaxationParams::default())
            .solve(&problem, SolveCtx::default())
            .unwrap_err();
        assert!(matches!(err, SolveError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn greedy_rung_alone_produces_feasible_assignment() {
        let problem = random_problem(4, 3, 7);
        let params = RelaxationParams::default();
        let mut solver = RobustSolver::new(params);
        solver.greedy_only = true;
        let sol = solver
            .solve(&problem, SolveCtx::default())
            .expect("greedy rung is infallible");
        assert_eq!(sol.stage, FallbackStage::GreedyRounding);
        // Reported under the caller's parameters, like a primary solve.
        assert_eq!(
            sol.objective.to_bits(),
            objective::value(&problem, &params, &sol.x).to_bits()
        );
        let asg = sol.assignment.expect("greedy rung returns an assignment");
        assert_eq!(asg.tasks(), 7);
        assert!(is_column_stochastic(&sol.x, 1e-12));
        assert!(sol.x.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn empty_task_set_is_fine() {
        let problem = MatchingProblem::new(Matrix::zeros(2, 0), Matrix::zeros(2, 0), 0.5);
        let sol = RobustSolver::new(RelaxationParams::default())
            .solve(&problem, SolveCtx::default())
            .expect("empty task set solves trivially");
        assert_eq!(sol.x.shape(), (2, 0));
    }

    #[test]
    fn diagnostics_path_is_readable() {
        let (problem, solver) = failing_primary_setup();
        let sol = solver.solve(&problem, SolveCtx::default()).unwrap();
        assert_eq!(
            sol.diagnostics.path(),
            "primary x(deadline) -> greedy-rounding ok"
        );
    }

    fn tight_solver() -> RobustSolver {
        let mut solver = RobustSolver::new(RelaxationParams::default());
        // Converge tightly so seeded and cold solves land on the same
        // unique entropic optimum (the default tolerance stops short of
        // the 1e-8 objective agreement these tests assert).
        solver.solver_opts.max_iters = 20_000;
        solver.solver_opts.tol = 1e-12;
        solver
    }

    #[test]
    fn given_prices_match_cold_solve() {
        let problem = random_problem(7, 3, 6);
        let solver = tight_solver();
        let cold = solver.solve(&problem, SolveCtx::default()).expect("cold");
        assert_eq!(cold.diagnostics.seed, SeedProvenance::Cold);
        let ctx = SolveCtx {
            prices: Some(&cold.prices),
            ..SolveCtx::default()
        };
        let warm = solver.solve(&problem, ctx).expect("seeded solve");
        assert_eq!(
            warm.diagnostics.seed,
            SeedProvenance::Seeded(SeedSource::Given)
        );
        assert_eq!(warm.diagnostics.attempts[0].seed, Some(SeedSource::Given));
        assert!(warm.diagnostics.path().starts_with("given-primary"));
        assert!((warm.objective - cold.objective).abs() < 1e-8);
        // Starting from the optimum's own prices takes far fewer
        // iterations than the cold run.
        assert!(
            warm.diagnostics.attempts[0].iterations <= cold.diagnostics.attempts[0].iterations,
            "warm {} vs cold {}",
            warm.diagnostics.attempts[0].iterations,
            cold.diagnostics.attempts[0].iterations
        );
    }

    #[test]
    fn failed_given_attempt_falls_back_to_greedy() {
        // The fired budget fails the seeded attempt (the prices
        // themselves pass their check), so the solver must record the
        // failure and answer with greedy rounding, which does not depend
        // on the start: the same answer as a cold solve.
        let (problem, solver) = failing_primary_setup();
        let prices = vec![0.0; problem.clusters() + 1];
        let cold = solver
            .solve(&problem, SolveCtx::default())
            .expect("greedy rounding recovers");
        let ctx = SolveCtx {
            prices: Some(&prices),
            ..SolveCtx::default()
        };
        let sol = solver
            .solve(&problem, ctx)
            .expect("a failed seed must fall back, not fail");
        assert_eq!(
            sol.diagnostics.seed,
            SeedProvenance::FellBack(SeedSource::Given)
        );
        let first = &sol.diagnostics.attempts[0];
        assert_eq!(first.seed, Some(SeedSource::Given));
        assert!(
            matches!(first.outcome, StageOutcome::Failed(_)),
            "the seeded attempt must be on record as failed"
        );
        assert_eq!(
            sol.diagnostics.path(),
            "given-primary x(deadline) -> greedy-rounding ok"
        );
        assert!(sol.diagnostics.recovered);
        assert_eq!(sol.stage, cold.stage);
        assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(sol.x.as_slice(), cold.x.as_slice());
    }

    #[test]
    fn greedy_only_ladder_takes_no_start() {
        struct Unreachable;
        impl DualPredictor for Unreachable {
            fn predict_duals(
                &self,
                _: &MatchingProblem,
                _: &RelaxationParams,
            ) -> Option<crate::learned::DualPrediction> {
                panic!("a greedy-only solve consulted the predictor");
            }
        }
        let problem = random_problem(10, 3, 7);
        let mut solver = RobustSolver::new(RelaxationParams::default());
        solver.greedy_only = true;
        let prices = vec![0.0; 4];
        let ctx = SolveCtx {
            prices: Some(&prices),
            predictor: Some(&Unreachable),
        };
        let sol = solver
            .solve(&problem, ctx)
            .expect("greedy rung is infallible");
        assert_eq!(sol.diagnostics.seed, SeedProvenance::Cold);
        assert_eq!(sol.stage, FallbackStage::GreedyRounding);
    }

    #[test]
    fn guard_reports_deadline_exceeded_mid_iteration() {
        let problem = random_problem(22, 2, 4);
        let params = RelaxationParams::default();
        let token = crate::budget::CancelToken::new();
        let budget = Budget::unlimited().with_cancel(token.clone());
        let x = crate::solver::uniform_init(problem.clusters(), problem.tasks());
        let f = objective::value(&problem, &params, &x);

        // Healthy while the token is quiet; a non-finite objective is
        // its own typed failure...
        check_iterate(&budget, 0, f).expect("live budget passes");
        let err = check_iterate(&budget, 0, f64::NAN).unwrap_err();
        assert!(
            matches!(err, SolveError::NonFinite { iteration: 0 }),
            "{err}"
        );
        // ...and a typed abort at the very next iterate once it fires,
        // checked before finiteness.
        token.cancel();
        let err = check_iterate(&budget, 1, f64::NAN).unwrap_err();
        match err {
            SolveError::DeadlineExceeded { iteration } => assert_eq!(iteration, 1),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(short_reason(&err), "deadline");
    }
}
