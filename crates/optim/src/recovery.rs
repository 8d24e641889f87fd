//! Fault-tolerant solving: a health-guarded primary solve with a greedy
//! fallback.
//!
//! The plain solvers in [`crate::solver`] assume well-posed inputs and
//! well-behaved parameters. Production traces are messier: predictors
//! occasionally emit `NaN` execution times and a diverging run silently
//! poisons everything downstream. [`RobustSolver`] validates its input
//! and parameters up front — malformed data, and a log barrier whose
//! cutoff `ε` is not positive with a finite reciprocal, fail with
//! [`SolveError::InvalidInput`] — then walks a two-rung ladder:
//!
//! 1. the configured first-order solver with the caller's parameters
//!    under per-iterate health checks (finiteness, objective divergence,
//!    stall and wall-clock budgets) ([`FallbackStage::Primary`]),
//! 2. feasible greedy rounding — LPT assignment plus reliability and
//!    capacity repair, which always produces a 0/1 column-stochastic
//!    matching ([`FallbackStage::GreedyRounding`]).
//!
//! Every attempt is recorded in [`SolveDiagnostics`] so callers can see
//! the recovery path taken instead of just a final answer.
//!
//! [`RobustSolver::solve`] takes a [`SolveCtx`]: start prices (a
//! previous solve's [`RobustSolution::prices`]) and a
//! [`crate::learned::DualPredictor`]. Admissible given prices seed one
//! primary attempt ahead of the cold one; otherwise the predictor's
//! feasibility-repaired seed ([`crate::learned::repair`]) does;
//! otherwise the solve starts cold. A rejected start never reaches the
//! solver, and a seeded attempt that fails falls through to the cold
//! attempt, so a bad start costs at most one attempt — never a wrong
//! answer. [`SolveDiagnostics::seed`] records the start's provenance as
//! a typed [`SeedProvenance`].

use std::fmt;
use std::time::{Duration, Instant};

use crate::budget::Budget;
use crate::learned::{prices_admissible, repair, DualPredictor, RepairError};
use crate::objective::{self, price_dim, BarrierKind, RelaxationParams};
use crate::problem::{Assignment, MatchingProblem};
use crate::solver::{
    is_column_stochastic, solve_relaxed_from_guarded, takes_price_trials, uniform_init,
    PgdWorkspace, RelaxedSolution, SolverOptions, StopReason,
};
use mfcp_linalg::Matrix;

/// A rung of the fallback ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackStage {
    /// The configured first-order solver with the caller's parameters.
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
/// silent `NaN` propagation. All but [`SolveError::InvalidInput`] and
/// [`SolveError::AllSamplesNonFinite`] end a primary attempt (greedy
/// rounding cannot fail).
#[derive(Debug, Clone)]
pub enum SolveError {
    /// The problem data or relaxation parameters failed validation.
    InvalidInput(String),
    /// An iterate or its objective became `NaN`/`±∞`.
    NonFinite {
        /// Iteration at which it was detected.
        iteration: usize,
    },
    /// The objective rose far above the best value seen in the attempt.
    Diverged {
        /// Iteration at which divergence was detected.
        iteration: usize,
        /// Objective value at detection.
        objective: f64,
        /// Best objective seen before divergence.
        reference: f64,
    },
    /// No measurable objective improvement for the configured window
    /// while the iterate kept taking sizable steps.
    Stalled {
        /// Iteration at which the stall was declared.
        iteration: usize,
    },
    /// The caller's per-request [`Budget`] expired mid-attempt: its
    /// deadline passed or its cancel token fired. Unlike
    /// [`SolveError::WallBudget`] (the solver's own safety limit), this
    /// is the *request's* latency contract; the ladder responds by
    /// going straight to the greedy rung.
    DeadlineExceeded {
        /// Iteration at which the expiry was observed.
        iteration: usize,
    },
    /// The shared wall-clock budget ran out mid-attempt.
    WallBudget {
        /// Iteration at which the budget check fired.
        iteration: usize,
        /// Elapsed seconds since the solve started.
        elapsed_secs: f64,
    },
    /// An attempt returned an iterate whose columns left the simplex.
    OffSimplex,
    /// Every zeroth-order perturbation sample produced a non-finite
    /// directional derivative (see
    /// [`crate::zeroth::estimate_gradient_checked`]).
    AllSamplesNonFinite {
        /// Number of samples attempted.
        samples: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::InvalidInput(reason) => write!(f, "invalid input: {reason}"),
            SolveError::NonFinite { iteration } => {
                write!(f, "non-finite iterate at iteration {iteration}")
            }
            SolveError::Diverged {
                iteration,
                objective,
                reference,
            } => write!(
                f,
                "objective diverged at iteration {iteration} ({objective} vs best {reference})"
            ),
            SolveError::Stalled { iteration } => {
                write!(f, "stalled without progress at iteration {iteration}")
            }
            SolveError::DeadlineExceeded { iteration } => {
                write!(f, "request budget expired at iteration {iteration}")
            }
            SolveError::WallBudget {
                iteration,
                elapsed_secs,
            } => write!(
                f,
                "wall-clock budget exhausted at iteration {iteration} after {elapsed_secs:.3}s"
            ),
            SolveError::OffSimplex => f.write_str("result columns left the probability simplex"),
            SolveError::AllSamplesNonFinite { samples } => {
                write!(
                    f,
                    "all {samples} zeroth-order samples gave non-finite directional derivatives"
                )
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Per-iterate health thresholds applied by [`RobustSolver`].
#[derive(Debug, Clone, Copy)]
pub struct HealthPolicy {
    /// Divergence and stall checks run every this many iterations
    /// (finiteness of the iterate's objective is checked on every
    /// iteration).
    pub check_every: usize,
    /// Declare divergence when the objective exceeds
    /// `best + slack + ratio·|best|`.
    pub divergence_ratio: f64,
    /// Additive part of the divergence threshold.
    pub divergence_slack: f64,
    /// Declare a stall after this many consecutive objective checks
    /// without relative improvement beyond [`HealthPolicy::stall_tol`].
    pub stall_checks: usize,
    /// Relative improvement below which a check counts as stalled.
    pub stall_tol: f64,
    /// Stall checks only count while the solver's step magnitude exceeds
    /// this floor — an iterate crawling toward its stationary point is
    /// converging, not stalled; large steps with no objective
    /// improvement are an oscillation.
    pub stall_step_floor: f64,
    /// Shared wall-clock budget for the primary attempts; `None`
    /// disables the budget. Greedy rounding always runs regardless.
    pub wall_limit: Option<Duration>,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            check_every: 10,
            divergence_ratio: 5.0,
            divergence_slack: 5.0,
            stall_checks: 25,
            stall_tol: 1e-12,
            stall_step_floor: 1e-4,
            wall_limit: Some(Duration::from_secs(30)),
        }
    }
}

/// How a single ladder attempt ended.
#[derive(Debug, Clone)]
pub enum StageOutcome {
    /// The stage produced a healthy solution.
    Success,
    /// The stage aborted with a typed error.
    Failed(SolveError),
    /// The stage was not applicable and was skipped (reason attached).
    Skipped(SkipReason),
}

/// Why the primary rung was skipped without running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The caller's per-request [`Budget`] expired or was cancelled.
    RequestBudgetExpired,
    /// The ladder's shared [`HealthPolicy::wall_limit`] ran out.
    WallClockExhausted,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SkipReason::RequestBudgetExpired => "request budget expired",
            SkipReason::WallClockExhausted => "wall-clock budget exhausted",
        })
    }
}

/// Record of one attempt at one rung of the ladder.
#[derive(Debug, Clone)]
pub struct StageAttempt {
    /// The rung attempted.
    pub stage: FallbackStage,
    /// Iterations the underlying solver performed.
    pub iterations: usize,
    /// Why the underlying solver stopped; `None` when the rung produced
    /// no solver iterate (skipped, failed, or greedy rounding).
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
    /// The start seeded the successful first attempt.
    Seeded(SeedSource),
    /// The start failed its admission check ([`prices_admissible`] and
    /// [`price_dim`] for prices, [`crate::learned::repair`] for columns)
    /// and never reached the solver; the cold path ran.
    Rejected(SeedSource, RepairError),
    /// The start seeded an attempt that failed; the solve fell through
    /// to the cold attempt (cost: exactly one attempt).
    FellBack(SeedSource),
}

/// What a [`RobustSolver::solve`] call may start from. The default is a
/// cold solve.
#[derive(Clone, Copy, Default)]
pub struct SolveCtx<'a> {
    /// Start prices in [`price_dim`] layout, typically the previous
    /// solve's [`RobustSolution::prices`]. They seed one attempt when
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
    /// True when at least one attempt failed before a later one
    /// succeeded (i.e. the ladder actually recovered something).
    pub recovered: bool,
    /// Total wall-clock seconds across all attempts.
    pub total_secs: f64,
    /// Where the solve's start came from.
    pub seed: SeedProvenance,
}

impl SolveDiagnostics {
    /// Human-readable recovery path, e.g.
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
                StageOutcome::Skipped(_) => "skipped".to_string(),
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
        SolveError::Diverged { .. } => "diverged",
        SolveError::Stalled { .. } => "stalled",
        SolveError::DeadlineExceeded { .. } => "deadline",
        SolveError::WallBudget { .. } => "wall-budget",
        SolveError::OffSimplex => "off-simplex",
        SolveError::AllSamplesNonFinite { .. } => "non-finite-samples",
    }
}

/// A successful robust solve: the matching plus how it was obtained.
#[derive(Debug, Clone)]
pub struct RobustSolution {
    /// Column-stochastic matching (fractional, or 0/1 from the greedy
    /// rung).
    pub x: Matrix,
    /// Objective value of `x` under the caller's parameters, whichever
    /// rung produced it, so a greedy answer compares directly with a
    /// primary one (validation keeps it finite).
    pub objective: f64,
    /// The solve's final prices ([`RelaxedSolution::prices`]); empty
    /// when the producing rung keeps none (greedy rounding, or an
    /// instance that takes no price trials).
    pub prices: Vec<f64>,
    /// The rung that produced the result.
    pub stage: FallbackStage,
    /// Discrete assignment, present when the greedy rung produced the
    /// result.
    pub assignment: Option<Assignment>,
    /// Full record of the recovery path.
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
    /// Relaxation parameters of the primary attempts and of the greedy
    /// rung's reported objective.
    pub params: RelaxationParams,
    /// First-order solver options (projection kind, step size, budget).
    pub solver_opts: SolverOptions,
    /// Health thresholds applied to every primary attempt.
    pub policy: HealthPolicy,
    /// Skip the primary rung and answer with greedy rounding alone (the
    /// daemon's degraded mode under overload).
    pub greedy_only: bool,
    /// Per-request solve budget (deadline and/or cancel token); defaults
    /// to [`Budget::unlimited`]. When the budget expires mid-solve the
    /// running attempt aborts with [`SolveError::DeadlineExceeded`] and
    /// the solve goes to greedy rounding, so an over-budget request
    /// still gets a feasible answer with bounded extra latency.
    pub budget: Budget,
}

impl RobustSolver {
    /// A robust solver with default options around `params`.
    pub fn new(params: RelaxationParams) -> Self {
        RobustSolver {
            params,
            solver_opts: SolverOptions::default(),
            policy: HealthPolicy::default(),
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

    /// Solves `problem`: the primary rung, then greedy rounding if it
    /// fails or the budget runs out.
    ///
    /// The primary rung first runs one seeded attempt when `ctx` offers
    /// a usable start, best to worst: the given prices, when the solve
    /// takes price trials and they fit the problem's [`price_dim`]
    /// layout and pass [`prices_admissible`]; else the predictor's seed
    /// (its prices when it has admissible ones, else its repaired
    /// columns). A seeded attempt that fails falls through to the cold
    /// primary attempt, so a bad start costs at most one attempt and can
    /// never change the answer. [`SolveDiagnostics::seed`] records the
    /// provenance.
    ///
    /// Returns the first healthy solution together with the full
    /// per-attempt diagnostics, or [`SolveError::InvalidInput`] when the
    /// problem data or parameters are malformed — the only error, since
    /// greedy rounding cannot fail.
    pub fn solve(
        &self,
        problem: &MatchingProblem,
        ctx: SolveCtx<'_>,
    ) -> Result<RobustSolution, SolveError> {
        validate_problem(problem)?;
        validate_params(&self.params)?;
        // Only the primary rung takes a start; a greedy-only solve asks
        // for none.
        let (seed, offered) = if self.greedy_only {
            (None, SeedProvenance::Cold)
        } else {
            self.seed(problem, ctx)
        };
        let mut sol = self.solve_inner(problem, seed);
        let diagnostics = &mut sol.diagnostics;
        diagnostics.seed = match offered {
            SeedProvenance::Seeded(source) => match diagnostics.attempts.first() {
                Some(first) if first.seed.is_some() => {
                    if matches!(first.outcome, StageOutcome::Success) {
                        offered
                    } else {
                        if source == SeedSource::Predicted {
                            mfcp_obs::counter("optim.learned.fallback").inc();
                        }
                        SeedProvenance::FellBack(source)
                    }
                }
                // The budget ran out before the seeded attempt could.
                _ => SeedProvenance::Cold,
            },
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
        register_ladder_counters();
        mfcp_obs::counter("optim.robust.calls").inc();
        let start = Instant::now();
        let mut attempts: Vec<StageAttempt> = Vec::new();

        if !self.greedy_only {
            if self.budget_spent(start) || self.budget.expired() {
                attempts.push(StageAttempt {
                    stage: FallbackStage::Primary,
                    iterations: 0,
                    stop: None,
                    residual: None,
                    objective: None,
                    elapsed_secs: 0.0,
                    seed: None,
                    outcome: StageOutcome::Skipped(if self.budget.expired() {
                        SkipReason::RequestBudgetExpired
                    } else {
                        SkipReason::WallClockExhausted
                    }),
                });
                record_attempt_metrics(attempts.last().expect("just pushed"));
            } else {
                let mut pgd_ws = PgdWorkspace::default();
                // One seeded attempt first, when given prices or a
                // repaired prediction were supplied; its failure falls
                // through to the cold attempt, and that one's to greedy.
                let sol = seed
                    .and_then(|seed| {
                        self.try_primary(problem, start, Some(seed), &mut attempts, &mut pgd_ws)
                    })
                    .or_else(|| self.try_primary(problem, start, None, &mut attempts, &mut pgd_ws));
                if let Some(sol) = sol {
                    return self.finish(
                        (sol.x, sol.objective, sol.prices),
                        FallbackStage::Primary,
                        None,
                        attempts,
                        start,
                    );
                }
            }
        }

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
        attempts.push(StageAttempt {
            stage,
            iterations: 0,
            stop: None,
            residual: None,
            objective: Some(objective),
            elapsed_secs: t0.elapsed().as_secs_f64(),
            seed: None,
            outcome: StageOutcome::Success,
        });
        mfcp_obs::trace::end(stage_trace_name(stage), None);
        record_attempt_metrics(attempts.last().expect("just pushed"));
        self.finish(
            (x, objective, Vec::new()),
            stage,
            Some(asg),
            attempts,
            start,
        )
    }

    fn budget_spent(&self, start: Instant) -> bool {
        self.policy
            .wall_limit
            .is_some_and(|limit| start.elapsed() >= limit)
    }

    /// Runs one guarded primary attempt from `seed` (cold when `None`);
    /// records it and returns the solution on success.
    fn try_primary(
        &self,
        problem: &MatchingProblem,
        start: Instant,
        seed: Option<Seed>,
        attempts: &mut Vec<StageAttempt>,
        pgd_ws: &mut PgdWorkspace,
    ) -> Option<RelaxedSolution> {
        let stage = FallbackStage::Primary;
        let t0 = Instant::now();
        mfcp_obs::trace::begin(stage_trace_name(stage), None);
        let mut guard = GuardRunner::new(&self.policy, &self.budget, start);
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
            &mut |it, f, step| guard.check(it, f, step),
            pgd_ws,
        );
        let elapsed_secs = t0.elapsed().as_secs_f64();
        let (attempt, usable) = match result {
            Ok(sol) => {
                let healthy =
                    sol.objective.is_finite() && sol.x.as_slice().iter().all(|v| v.is_finite());
                let outcome = if !healthy {
                    StageOutcome::Failed(SolveError::NonFinite {
                        iteration: sol.iterations,
                    })
                } else if !is_column_stochastic(&sol.x, 1e-6) {
                    StageOutcome::Failed(SolveError::OffSimplex)
                } else {
                    StageOutcome::Success
                };
                let attempt = StageAttempt {
                    stage,
                    iterations: sol.iterations,
                    stop: Some(sol.stop),
                    residual: Some(sol.residual),
                    objective: Some(sol.objective),
                    elapsed_secs,
                    seed: source,
                    outcome,
                };
                let usable = matches!(attempt.outcome, StageOutcome::Success).then_some(sol);
                (attempt, usable)
            }
            Err(err) => {
                let attempt = StageAttempt {
                    stage,
                    iterations: error_iteration(&err),
                    stop: None,
                    residual: None,
                    objective: None,
                    elapsed_secs,
                    seed: source,
                    outcome: StageOutcome::Failed(err),
                };
                (attempt, None)
            }
        };
        mfcp_obs::trace::end(stage_trace_name(stage), Some(attempt.iterations as u64));
        record_attempt_metrics(&attempt);
        attempts.push(attempt);
        usable
    }

    fn finish(
        &self,
        (x, objective, prices): (Matrix, f64, Vec<f64>),
        stage: FallbackStage,
        assignment: Option<Assignment>,
        attempts: Vec<StageAttempt>,
        start: Instant,
    ) -> RobustSolution {
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
}

/// Flight-recorder event name for a ladder stage. Attempts that actually
/// run emit a begin/end pair under this name; a skipped primary rung
/// emits an instant, so the trace timeline shows where the ladder jumped.
fn stage_trace_name(stage: FallbackStage) -> &'static str {
    match stage {
        FallbackStage::Primary => "robust.primary",
        FallbackStage::GreedyRounding => "robust.greedy-rounding",
    }
}

/// Registers the ladder's event counters once per process, so one that
/// has not fired reads 0 in a snapshot rather than being absent: an
/// absent counter is how the perf gate tells a deleted one.
fn register_ladder_counters() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        mfcp_obs::counter("optim.robust.recovered");
        for stage in [FallbackStage::Primary, FallbackStage::GreedyRounding] {
            for suffix in ["ok", "failed", "skipped"] {
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
        StageOutcome::Skipped(_) => "skipped",
    };
    mfcp_obs::counter(&format!("optim.robust.stage.{}.{suffix}", attempt.stage)).inc();
    if matches!(attempt.outcome, StageOutcome::Skipped(_)) {
        mfcp_obs::trace::instant(stage_trace_name(attempt.stage), None);
    } else {
        mfcp_obs::histogram("optim.robust.attempt_secs").record(attempt.elapsed_secs);
        mfcp_obs::histogram("optim.robust.attempt_iters").record(attempt.iterations as f64);
    }
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

fn error_iteration(err: &SolveError) -> usize {
    match err {
        SolveError::NonFinite { iteration }
        | SolveError::Diverged { iteration, .. }
        | SolveError::Stalled { iteration }
        | SolveError::DeadlineExceeded { iteration }
        | SolveError::WallBudget { iteration, .. } => *iteration,
        _ => 0,
    }
}

/// Per-iterate health state threaded through a guarded primary attempt.
/// It judges the objective the solver hands it and never re-evaluates
/// the iterate.
struct GuardRunner<'a> {
    policy: &'a HealthPolicy,
    budget: &'a Budget,
    start: Instant,
    best: f64,
    stall_count: usize,
}

impl<'a> GuardRunner<'a> {
    fn new(policy: &'a HealthPolicy, budget: &'a Budget, start: Instant) -> Self {
        GuardRunner {
            policy,
            budget,
            start,
            best: f64::INFINITY,
            stall_count: 0,
        }
    }

    /// Judges accepted iterate `iteration` by its objective `obj` (`NaN`
    /// when the iterate itself is not finite) and step magnitude `step`.
    fn check(&mut self, iteration: usize, obj: f64, step: f64) -> Result<(), SolveError> {
        // The request budget is the tightest contract: checked first, on
        // every accepted iterate of the PGD loop.
        if self.budget.expired() {
            return Err(SolveError::DeadlineExceeded { iteration });
        }
        if !obj.is_finite() {
            return Err(SolveError::NonFinite { iteration });
        }
        if let Some(limit) = self.policy.wall_limit {
            if self.start.elapsed() >= limit {
                return Err(SolveError::WallBudget {
                    iteration,
                    elapsed_secs: self.start.elapsed().as_secs_f64(),
                });
            }
        }
        if iteration == 1 || iteration.is_multiple_of(self.policy.check_every.max(1)) {
            if self.best.is_finite() {
                let ceiling = self.best
                    + self.policy.divergence_slack
                    + self.policy.divergence_ratio * self.best.abs();
                if obj > ceiling {
                    return Err(SolveError::Diverged {
                        iteration,
                        objective: obj,
                        reference: self.best,
                    });
                }
                let improved = obj < self.best - self.policy.stall_tol * (1.0 + self.best.abs());
                if improved {
                    self.stall_count = 0;
                } else if step > self.policy.stall_step_floor {
                    // Sizable steps with no objective improvement: the
                    // iterate is bouncing, not converging.
                    self.stall_count += 1;
                    if self.stall_count > self.policy.stall_checks {
                        return Err(SolveError::Stalled { iteration });
                    }
                }
            }
            if obj < self.best {
                self.best = obj;
            }
        }
        Ok(())
    }
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

    /// A healthy problem under a health policy no run can pass: every
    /// iterate is checked, and one that does not beat the best objective
    /// so far by a whole unit counts as diverged. Every primary attempt,
    /// seeded or cold, fails at its second iterate, deterministically.
    fn failing_primary_setup() -> (MatchingProblem, RobustSolver) {
        let mut solver = RobustSolver::new(RelaxationParams::default());
        solver.policy = HealthPolicy {
            check_every: 1,
            divergence_slack: -1.0,
            divergence_ratio: 0.0,
            ..HealthPolicy::default()
        };
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
        // The primary attempt must be on record as a divergence failure.
        let first = &sol.diagnostics.attempts[0];
        assert_eq!(first.stage, FallbackStage::Primary);
        assert!(
            matches!(
                first.outcome,
                StageOutcome::Failed(SolveError::Diverged { iteration: 2, .. })
            ),
            "unexpected first outcome: {:?}",
            first.outcome
        );
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
            "primary x(diverged) -> greedy-rounding ok"
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
    fn failed_given_attempt_falls_back_to_cold_ladder() {
        // The health policy fails the seeded attempt (the prices
        // themselves pass their check), so the solver must record the
        // failure and recover through the cold attempt and greedy with
        // the same answer as a cold solve.
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
            "given-primary x(diverged) -> primary x(diverged) -> greedy-rounding ok"
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
    fn expired_budget_degrades_to_greedy_deterministically() {
        let problem = random_problem(21, 3, 8);
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let solver = RobustSolver::new(RelaxationParams::default())
            .with_budget(Budget::unlimited().with_cancel(token));

        let sol = solver
            .solve(&problem, SolveCtx::default())
            .expect("an expired budget still yields a feasible matching");
        assert_eq!(sol.stage, FallbackStage::GreedyRounding);
        assert!(is_column_stochastic(&sol.x, 1e-9));
        // The primary rung must be on record as budget-skipped, not
        // silently dropped.
        let skipped: Vec<_> = sol
            .diagnostics
            .attempts
            .iter()
            .filter(|a| {
                matches!(
                    a.outcome,
                    StageOutcome::Skipped(SkipReason::RequestBudgetExpired)
                )
            })
            .collect();
        assert_eq!(skipped.len(), sol.diagnostics.attempts.len() - 1);

        // Degradation is deterministic: a second run under the same fired
        // token reproduces the assignment bit for bit.
        let again = solver
            .solve(&problem, SolveCtx::default())
            .expect("greedy rung is infallible");
        assert_eq!(again.objective.to_bits(), sol.objective.to_bits());
        assert_eq!(again.x.as_slice(), sol.x.as_slice());
    }

    #[test]
    fn exhausted_wall_budget_skips_with_its_own_variant() {
        let problem = random_problem(23, 3, 8);
        let mut solver = RobustSolver::new(RelaxationParams::default());
        solver.policy.wall_limit = Some(Duration::ZERO);
        let sol = solver
            .solve(&problem, SolveCtx::default())
            .expect("an exhausted wall budget still yields a feasible matching");
        assert_eq!(sol.stage, FallbackStage::GreedyRounding);
        let skipped = sol
            .diagnostics
            .attempts
            .iter()
            .filter(|a| {
                matches!(
                    a.outcome,
                    StageOutcome::Skipped(SkipReason::WallClockExhausted)
                )
            })
            .count();
        assert_eq!(skipped, sol.diagnostics.attempts.len() - 1);
    }

    #[test]
    fn guard_reports_deadline_exceeded_mid_iteration() {
        let problem = random_problem(22, 2, 4);
        let params = RelaxationParams::default();
        let policy = HealthPolicy::default();
        let token = crate::budget::CancelToken::new();
        let budget = Budget::unlimited().with_cancel(token.clone());
        let mut guard = GuardRunner::new(&policy, &budget, Instant::now());
        let x = crate::solver::uniform_init(problem.clusters(), problem.tasks());
        let f = objective::value(&problem, &params, &x);

        // Healthy while the token is quiet...
        guard.check(0, f, 1.0).expect("live budget passes");
        // ...and a typed abort at the very next iterate once it fires.
        token.cancel();
        let err = guard.check(1, f, 1.0).unwrap_err();
        match err {
            SolveError::DeadlineExceeded { iteration } => assert_eq!(iteration, 1),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(short_reason(&err), "deadline");
    }
}
