//! Fault-tolerant solving: health-guarded solver runs plus a fallback
//! ladder.
//!
//! The plain solvers in [`crate::solver`] assume well-posed inputs and
//! well-behaved parameters. Production traces are messier: predictors
//! occasionally emit `NaN` execution times, barrier parameters get tuned
//! to the edge of numerical validity, and a diverging run silently
//! poisons everything downstream. [`RobustSolver`] wraps the existing
//! solvers with per-iterate health checks (finiteness, objective
//! divergence, stall and wall-clock budgets) and, on failure, walks a
//! configurable ladder of progressively more conservative methods:
//!
//! 1. the configured first-order solver with the caller's parameters
//!    ([`FallbackStage::Primary`]),
//! 2. the same solver with backed-off relaxation parameters — smaller
//!    smooth-max `β`, larger entropy `ρ`, softer barrier `ε`
//!    ([`FallbackStage::BackedOff`]),
//! 3. mirror-descent PGD with conservative parameters
//!    ([`FallbackStage::MirrorDescent`]),
//! 4. Euclidean PGD with conservative parameters
//!    ([`FallbackStage::EuclideanPgd`]),
//! 5. feasible greedy rounding — LPT assignment plus reliability and
//!    capacity repair, which always produces a 0/1 column-stochastic
//!    matching ([`FallbackStage::GreedyRounding`]).
//!
//! Every attempt is recorded in [`SolveDiagnostics`] so callers can see
//! the recovery path taken instead of just a final answer.
//!
//! [`RobustSolver::solve_with_cache`] additionally seeds the primary
//! attempt from a [`crate::cache::WarmStartCache`]: a validated cache
//! hit runs one warm attempt before the cold ladder, and a diverging
//! warm attempt marks the entry stale and falls back to the exact cold
//! path, so warm starts can change only speed — never the answer.
//!
//! [`RobustSolver::solve_with_predictor`] adds one more rung ahead of
//! the cold ladder but *behind* exact cache hits: on a cache miss (or
//! stale entry), a [`crate::learned::DualPredictor`] may supply a
//! predicted seed, which is feasibility-repaired
//! ([`crate::learned::repair`]) before one predicted primary attempt
//! runs. A rejected or diverging prediction falls through the existing
//! ladder with a typed [`PredictionOutcome`] in the diagnostics, so a
//! wrong model costs at most one rung — never a wrong answer.

use std::fmt;
use std::time::{Duration, Instant};

use crate::budget::Budget;
use crate::cache::{
    fingerprint, prices_admissible, warm_init, CacheOutcome, WarmStartCache, WarmStartEntry,
};
use crate::learned::{repair, DualPredictor, RepairError};
use crate::objective::{self, price_dim, BarrierKind, RelaxationParams};
use crate::problem::{Assignment, MatchingProblem};
use crate::solver::{
    is_column_stochastic, solve_relaxed_from_guarded, takes_price_trials, uniform_init,
    PgdWorkspace, ProjectionKind, RelaxedSolution, SolverOptions, StopReason,
};
use mfcp_linalg::Matrix;

/// A rung of the fallback ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackStage {
    /// The configured first-order solver with the caller's parameters.
    Primary,
    /// The primary solver re-run with backed-off relaxation parameters.
    BackedOff,
    /// Mirror-descent PGD with conservative parameters.
    MirrorDescent,
    /// Euclidean-projection PGD with conservative parameters.
    EuclideanPgd,
    /// Greedy LPT rounding plus reliability/capacity repair.
    GreedyRounding,
}

impl fmt::Display for FallbackStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FallbackStage::Primary => "primary",
            FallbackStage::BackedOff => "backoff",
            FallbackStage::MirrorDescent => "mirror-descent",
            FallbackStage::EuclideanPgd => "euclidean-pgd",
            FallbackStage::GreedyRounding => "greedy-rounding",
        };
        f.write_str(name)
    }
}

/// Typed failure modes surfaced by [`RobustSolver`] instead of panics or
/// silent `NaN` propagation.
#[derive(Debug, Clone)]
pub enum SolveError {
    /// The problem data or relaxation parameters failed validation.
    InvalidInput(String),
    /// An iterate or its objective became `NaN`/`±∞`.
    NonFinite {
        /// Stage that produced the non-finite value.
        stage: FallbackStage,
        /// Iteration at which it was detected.
        iteration: usize,
    },
    /// The objective rose far above the best value seen in this stage.
    Diverged {
        /// Diverging stage.
        stage: FallbackStage,
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
        /// Stalled stage.
        stage: FallbackStage,
        /// Iteration at which the stall was declared.
        iteration: usize,
    },
    /// The caller's per-request [`Budget`] expired mid-stage: its
    /// deadline passed or its cancel token fired. Unlike
    /// [`SolveError::WallBudget`] (the solver's own safety limit), this
    /// is the *request's* latency contract; the ladder responds by
    /// skipping straight to the greedy rung.
    DeadlineExceeded {
        /// Stage that was running when the budget expired.
        stage: FallbackStage,
        /// Iteration at which the expiry was observed.
        iteration: usize,
    },
    /// The shared wall-clock budget ran out mid-stage.
    WallBudget {
        /// Stage that exceeded the budget.
        stage: FallbackStage,
        /// Iteration at which the budget check fired.
        iteration: usize,
        /// Elapsed seconds since the solve started.
        elapsed_secs: f64,
    },
    /// A stage returned an iterate whose columns left the simplex.
    OffSimplex {
        /// Offending stage.
        stage: FallbackStage,
    },
    /// Every zeroth-order perturbation sample produced a non-finite
    /// directional derivative (see
    /// [`crate::zeroth::estimate_gradient_checked`]).
    AllSamplesNonFinite {
        /// Number of samples attempted.
        samples: usize,
    },
    /// Every rung of the ladder failed; diagnostics record each attempt.
    Exhausted {
        /// Full per-stage record of the failed solve.
        diagnostics: Box<SolveDiagnostics>,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::InvalidInput(reason) => write!(f, "invalid input: {reason}"),
            SolveError::NonFinite { stage, iteration } => {
                write!(f, "{stage}: non-finite iterate at iteration {iteration}")
            }
            SolveError::Diverged {
                stage,
                iteration,
                objective,
                reference,
            } => write!(
                f,
                "{stage}: objective diverged at iteration {iteration} ({objective} vs best {reference})"
            ),
            SolveError::Stalled { stage, iteration } => {
                write!(f, "{stage}: stalled without progress at iteration {iteration}")
            }
            SolveError::DeadlineExceeded { stage, iteration } => {
                write!(
                    f,
                    "{stage}: request budget expired at iteration {iteration}"
                )
            }
            SolveError::WallBudget {
                stage,
                iteration,
                elapsed_secs,
            } => write!(
                f,
                "{stage}: wall-clock budget exhausted at iteration {iteration} after {elapsed_secs:.3}s"
            ),
            SolveError::OffSimplex { stage } => {
                write!(f, "{stage}: result columns left the probability simplex")
            }
            SolveError::AllSamplesNonFinite { samples } => {
                write!(
                    f,
                    "all {samples} zeroth-order samples gave non-finite directional derivatives"
                )
            }
            SolveError::Exhausted { diagnostics } => {
                write!(f, "all fallback stages failed: {}", diagnostics.path())
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
    /// Shared wall-clock budget for the whole ladder; `None` disables
    /// the budget. Greedy rounding always runs regardless.
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

/// Parameter back-off schedule used by [`FallbackStage::BackedOff`] and,
/// at full strength, by the conservative fallback rungs.
#[derive(Debug, Clone, Copy)]
pub struct BackoffSchedule {
    /// Number of backed-off retries before moving down the ladder.
    pub retries: usize,
    /// Multiplicative shrink applied to the smooth-max sharpness `β`
    /// per retry.
    pub beta_factor: f64,
    /// Lower clamp for the backed-off `β`.
    pub beta_floor: f64,
    /// Multiplicative growth applied to the entropy weight `ρ` per
    /// retry (a larger `ρ` keeps the price system better conditioned).
    pub rho_factor: f64,
    /// `ρ` is raised to at least this value before growing.
    pub rho_floor: f64,
    /// Multiplicative growth applied to the log-barrier cutoff `ε` per
    /// retry (a softer barrier keeps gradients finite near the
    /// constraint boundary).
    pub eps_factor: f64,
    /// `ε` is raised to at least this value before growing.
    pub eps_floor: f64,
}

impl Default for BackoffSchedule {
    fn default() -> Self {
        BackoffSchedule {
            retries: 2,
            beta_factor: 0.5,
            beta_floor: 0.5,
            rho_factor: 4.0,
            rho_floor: 1e-3,
            eps_factor: 10.0,
            eps_floor: 1e-4,
        }
    }
}

impl BackoffSchedule {
    /// Relaxation parameters after `level` rounds of back-off
    /// (`level = 0` returns `params` unchanged).
    pub fn backed_off(&self, params: &RelaxationParams, level: usize) -> RelaxationParams {
        let mut out = *params;
        for _ in 0..level {
            out.beta = (out.beta * self.beta_factor).max(self.beta_floor);
            out.rho = out.rho.max(self.rho_floor) * self.rho_factor;
            if let BarrierKind::Log { eps } = out.barrier {
                let softened = (eps.max(self.eps_floor) * self.eps_factor).min(0.1);
                out.barrier = BarrierKind::Log { eps: softened };
            }
        }
        out
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

/// Why a ladder rung was skipped without running.
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
    /// Retry index within the rung (only [`FallbackStage::BackedOff`]
    /// retries; every other rung uses `0`).
    pub retry: usize,
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
    /// Whether the attempt was seeded from a cached warm start instead
    /// of the uniform simplex point (see [`crate::cache`]).
    pub warm_start: bool,
    /// Whether the attempt was seeded from a repaired learned-dual
    /// prediction (see [`crate::learned`]). Mutually exclusive with
    /// `warm_start`: exact cache hits beat predictions.
    pub predicted: bool,
    /// Outcome of the attempt.
    pub outcome: StageOutcome,
}

/// How a learned-dual prediction fared during one
/// [`RobustSolver::solve_with_predictor`] call — the typed recovery
/// event for a bad model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionOutcome {
    /// The repaired prediction seeded the successful first attempt.
    Seeded,
    /// The raw prediction failed [`crate::learned::repair`] and never
    /// reached the solver; the cold ladder ran.
    Rejected(RepairError),
    /// The repaired prediction seeded an attempt that failed; the
    /// ladder fell through to the cold path (cost: exactly one rung).
    FellBack,
}

impl fmt::Display for PredictionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictionOutcome::Seeded => f.write_str("seeded"),
            PredictionOutcome::Rejected(err) => write!(f, "rejected ({err})"),
            PredictionOutcome::FellBack => f.write_str("fell-back"),
        }
    }
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
    /// Warm-start cache outcome for this solve; `None` for plain
    /// [`RobustSolver::solve`] calls that never consulted a cache.
    pub cache: Option<CacheOutcome>,
    /// What happened to the learned-dual prediction, when a predictor
    /// was consulted and produced one; `None` when no prediction was
    /// attempted (no predictor, predictor abstained, or a cache hit
    /// pre-empted it).
    pub prediction: Option<PredictionOutcome>,
}

impl SolveDiagnostics {
    /// Human-readable recovery path, e.g.
    /// `"primary x(non-finite) -> backoff#1 ok"`.
    pub fn path(&self) -> String {
        let mut parts = Vec::with_capacity(self.attempts.len());
        for a in &self.attempts {
            let mut label = if a.stage == FallbackStage::BackedOff {
                format!("{}#{}", a.stage, a.retry)
            } else {
                a.stage.to_string()
            };
            if a.warm_start {
                label = format!("warm-{label}");
            } else if a.predicted {
                label = format!("pred-{label}");
            }
            let mark = match &a.outcome {
                StageOutcome::Success => "ok".to_string(),
                StageOutcome::Failed(err) => format!("x({})", short_reason(err)),
                StageOutcome::Skipped(_) => "skipped".to_string(),
            };
            parts.push(format!("{label} {mark}"));
        }
        parts.join(" -> ")
    }

    /// Number of attempts that ended in [`StageOutcome::Failed`].
    pub fn failures(&self) -> usize {
        self.attempts
            .iter()
            .filter(|a| matches!(a.outcome, StageOutcome::Failed(_)))
            .count()
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
        SolveError::OffSimplex { .. } => "off-simplex",
        SolveError::AllSamplesNonFinite { .. } => "non-finite-samples",
        SolveError::Exhausted { .. } => "exhausted",
    }
}

/// A successful robust solve: the matching plus how it was obtained.
#[derive(Debug, Clone)]
pub struct RobustSolution {
    /// Column-stochastic matching (fractional, or 0/1 from the greedy
    /// rung).
    pub x: Matrix,
    /// Objective value of `x` (for the greedy rung, evaluated under the
    /// conservative backed-off parameters so it stays finite even when
    /// the caller's parameters are degenerate).
    pub objective: f64,
    /// Per-task simplex duals at `x` ([`RelaxedSolution::duals`]);
    /// empty when the producing rung computes none (greedy rounding).
    pub duals: Vec<f64>,
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

/// Origin of a non-uniform primary seed threaded through the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeedKind {
    /// A validated cache hit (previous optimum of this fingerprint).
    Warm,
    /// A repaired learned-dual prediction.
    Predicted,
}

/// A non-uniform primary seed: the iterate, its prices (possibly
/// empty), and where it came from.
type Seed = (Matrix, Vec<f64>, SeedKind);

/// The default rung order: primary, backed-off retries, mirror descent,
/// Euclidean PGD, greedy rounding.
pub fn default_ladder() -> Vec<FallbackStage> {
    vec![
        FallbackStage::Primary,
        FallbackStage::BackedOff,
        FallbackStage::MirrorDescent,
        FallbackStage::EuclideanPgd,
        FallbackStage::GreedyRounding,
    ]
}

/// Fault-tolerant wrapper around the relaxed-matching solvers.
///
/// ```
/// use mfcp_linalg::Matrix;
/// use mfcp_optim::recovery::RobustSolver;
/// use mfcp_optim::{MatchingProblem, RelaxationParams};
///
/// let times = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
/// let rel = Matrix::filled(2, 2, 0.9);
/// let problem = MatchingProblem::new(times, rel, 0.8);
/// let sol = RobustSolver::new(RelaxationParams::default())
///     .solve(&problem)
///     .expect("healthy instance solves");
/// assert!(sol.objective.is_finite());
/// assert!(!sol.diagnostics.recovered);
/// ```
#[derive(Debug, Clone)]
pub struct RobustSolver {
    /// Relaxation parameters for the primary attempt.
    pub params: RelaxationParams,
    /// First-order solver options (projection kind, step size, budget).
    pub solver_opts: SolverOptions,
    /// Health thresholds applied to every guarded stage.
    pub policy: HealthPolicy,
    /// Parameter back-off schedule.
    pub backoff: BackoffSchedule,
    /// Rung order; defaults to [`default_ladder`].
    pub ladder: Vec<FallbackStage>,
    /// Per-request solve budget (deadline and/or cancel token); defaults
    /// to [`Budget::unlimited`]. When the budget expires mid-solve the
    /// running stage aborts with [`SolveError::DeadlineExceeded`] and
    /// every remaining rung except greedy rounding is skipped, so an
    /// over-budget request still gets a feasible answer with bounded
    /// extra latency.
    pub budget: Budget,
}

impl RobustSolver {
    /// A robust solver with default options around `params`.
    pub fn new(params: RelaxationParams) -> Self {
        RobustSolver {
            params,
            solver_opts: SolverOptions::default(),
            policy: HealthPolicy::default(),
            backoff: BackoffSchedule::default(),
            ladder: default_ladder(),
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

    /// The conservative parameters used by the fallback rungs (full
    /// back-off applied to the caller's parameters).
    pub fn safe_params(&self) -> RelaxationParams {
        self.backoff
            .backed_off(&self.params, self.backoff.retries.max(1))
    }

    /// Solves `problem`, walking the fallback ladder on failure.
    ///
    /// Returns the first healthy solution together with the full
    /// per-stage diagnostics, [`SolveError::InvalidInput`] when the
    /// problem data or parameters are malformed, or
    /// [`SolveError::Exhausted`] when every configured rung failed.
    pub fn solve(&self, problem: &MatchingProblem) -> Result<RobustSolution, SolveError> {
        self.solve_inner(problem, None)
    }

    /// Solves `problem`, seeding the primary attempt from `cache` when a
    /// valid entry exists for the problem's [`fingerprint`].
    ///
    /// A cache hit blends the cached optimum toward the interior (see
    /// [`crate::cache::warm_init`]) and runs one warm primary attempt
    /// before the regular ladder; if that attempt diverges the entry is
    /// marked stale (`cache.stale`) and the full cold ladder runs, so a
    /// poisoned entry can cost at most one failed attempt — never a
    /// wrong answer. Successful non-greedy solves refresh the cache.
    /// [`SolveDiagnostics::cache`] records the outcome.
    pub fn solve_with_cache(
        &self,
        problem: &MatchingProblem,
        cache: &mut WarmStartCache,
    ) -> Result<RobustSolution, SolveError> {
        self.solve_with_predictor(problem, cache, None)
    }

    /// Solves `problem` like [`RobustSolver::solve_with_cache`], but on a
    /// cache miss (or stale entry) consults `predictor` for a learned
    /// seed first.
    ///
    /// Seed precedence, best to worst: an exact cache hit (a previous
    /// optimum of this fingerprint), then a repaired prediction, then
    /// the cold uniform start. The raw prediction is passed through
    /// [`crate::learned::repair`]; a rejected prediction
    /// ([`PredictionOutcome::Rejected`]) never reaches the solver, and a
    /// repaired prediction whose attempt fails falls through the
    /// regular ladder ([`PredictionOutcome::FellBack`], counter
    /// `optim.learned.fallback`) — a wrong model costs at most one rung
    /// and can never change the answer. A successful predicted solve is
    /// reported as [`CacheOutcome::Predicted`] and stores its optimum in
    /// the cache, so later solves of the same fingerprint hit directly.
    pub fn solve_with_predictor(
        &self,
        problem: &MatchingProblem,
        cache: &mut WarmStartCache,
        predictor: Option<&dyn DualPredictor>,
    ) -> Result<RobustSolution, SolveError> {
        validate_problem(problem)?;
        validate_params(&self.params)?;
        let (m, n) = (problem.clusters(), problem.tasks());
        let key = fingerprint(problem, &self.params);
        let (outcome, warm) = cache.lookup(key, m, n);
        let mut seed = warm.map(|(x, prices)| (x, prices, SeedKind::Warm));
        let mut prediction = None;
        if seed.is_none() {
            if let Some(predictor) = predictor {
                (seed, prediction) = self.predicted_seed(problem, predictor, key);
            }
        }
        let warm_used = matches!(seed, Some((_, _, SeedKind::Warm)));
        let predicted = matches!(seed, Some((_, _, SeedKind::Predicted)));
        match self.solve_inner(problem, seed) {
            Ok(mut sol) => {
                let first_seed_failed = sol.diagnostics.attempts.first().is_some_and(|a| {
                    (a.warm_start || a.predicted) && !matches!(a.outcome, StageOutcome::Success)
                });
                sol.diagnostics.cache = Some(if warm_used && first_seed_failed {
                    cache.note_stale(key);
                    CacheOutcome::Stale
                } else if predicted && first_seed_failed {
                    mfcp_obs::counter("optim.learned.fallback").inc();
                    prediction = Some(PredictionOutcome::FellBack);
                    outcome
                } else if predicted {
                    CacheOutcome::Predicted
                } else {
                    outcome
                });
                sol.diagnostics.prediction = prediction;
                // Greedy 0/1 vertices are poor seeds for multiplicative
                // mirror-descent updates; only cache fractional optima.
                if sol.stage != FallbackStage::GreedyRounding {
                    cache.store(
                        key,
                        WarmStartEntry::from_solution(
                            &sol.x,
                            sol.objective,
                            sol.duals.clone(),
                            sol.prices.clone(),
                        ),
                    );
                }
                Ok(sol)
            }
            Err(SolveError::Exhausted { mut diagnostics }) => {
                diagnostics.cache = Some(if warm_used {
                    cache.note_stale(key);
                    CacheOutcome::Stale
                } else {
                    if predicted {
                        mfcp_obs::counter("optim.learned.fallback").inc();
                        prediction = Some(PredictionOutcome::FellBack);
                    }
                    outcome
                });
                diagnostics.prediction = prediction;
                Err(SolveError::Exhausted { diagnostics })
            }
            Err(other) => Err(other),
        }
    }

    /// A learned seed for `problem` from `predictor`, with its outcome.
    /// A solve that takes price trials starts from the predicted prices
    /// alone when the predictor has admissible ones: one small
    /// prediction, no columns to repair. Otherwise the repaired column
    /// prediction seeds it; rejected prices or columns seed nothing.
    fn predicted_seed(
        &self,
        problem: &MatchingProblem,
        predictor: &dyn DualPredictor,
        key: u64,
    ) -> (Option<Seed>, Option<PredictionOutcome>) {
        let _span = mfcp_obs::span("learned.predict");
        let (m, n) = (problem.clusters(), problem.tasks());
        let mut outcome = None;
        if takes_price_trials(&self.params, &self.solver_opts) {
            if let Some(prices) = predictor.predict_prices(problem, &self.params) {
                mfcp_obs::counter("optim.learned.predict").inc();
                if prices.len() == price_dim(problem) && prices_admissible(&prices, m) {
                    let seed = (uniform_init(m, n), prices, SeedKind::Predicted);
                    return (Some(seed), Some(PredictionOutcome::Seeded));
                }
                mfcp_obs::counter("optim.learned.rejected").inc();
                mfcp_obs::trace::instant("learned.rejected", Some(key));
                outcome = Some(PredictionOutcome::Rejected(RepairError::Prices));
            }
        }
        let Some(raw) = predictor.predict_duals(problem, &self.params) else {
            return (None, outcome);
        };
        mfcp_obs::counter("optim.learned.predict").inc();
        match repair(&raw, m, n) {
            Ok(fixed) => {
                mfcp_obs::counter("optim.learned.repaired").inc();
                let seed = (fixed.x, Vec::new(), SeedKind::Predicted);
                (Some(seed), Some(PredictionOutcome::Seeded))
            }
            Err(err) => {
                mfcp_obs::counter("optim.learned.rejected").inc();
                mfcp_obs::trace::instant("learned.rejected", Some(key));
                (None, Some(PredictionOutcome::Rejected(err)))
            }
        }
    }

    fn solve_inner(
        &self,
        problem: &MatchingProblem,
        mut seed: Option<Seed>,
    ) -> Result<RobustSolution, SolveError> {
        let _span = mfcp_obs::span("robust_solve");
        mfcp_obs::counter("optim.robust.calls").inc();
        validate_problem(problem)?;
        validate_params(&self.params)?;
        let start = Instant::now();
        let mut attempts: Vec<StageAttempt> = Vec::new();
        // One PGD workspace serves every first-order rung.
        let mut pgd_ws = PgdWorkspace::default();

        for &stage in &self.ladder {
            if stage != FallbackStage::GreedyRounding
                && (self.budget_spent(start) || self.budget.expired())
            {
                attempts.push(StageAttempt {
                    stage,
                    retry: 0,
                    iterations: 0,
                    stop: None,
                    residual: None,
                    objective: None,
                    elapsed_secs: 0.0,
                    warm_start: false,
                    predicted: false,
                    outcome: StageOutcome::Skipped(if self.budget.expired() {
                        SkipReason::RequestBudgetExpired
                    } else {
                        SkipReason::WallClockExhausted
                    }),
                });
                record_attempt_metrics(attempts.last().expect("just pushed"));
                continue;
            }
            match stage {
                FallbackStage::Primary => {
                    let opts = self.solver_opts;
                    // One seeded attempt first, when a cached optimum or
                    // a repaired prediction was supplied; its failure
                    // falls through to the regular cold primary attempt
                    // and the rest of the ladder.
                    if let Some(seeded) = seed.take() {
                        if let Some(sol) = self.try_pgd(
                            problem,
                            stage,
                            0,
                            self.params,
                            opts,
                            start,
                            Some(seeded),
                            &mut attempts,
                            &mut pgd_ws,
                        ) {
                            return Ok(self.finish(
                                (sol.x, sol.objective, sol.duals, sol.prices),
                                stage,
                                None,
                                attempts,
                                start,
                            ));
                        }
                    }
                    if let Some(sol) = self.try_pgd(
                        problem,
                        stage,
                        0,
                        self.params,
                        opts,
                        start,
                        None,
                        &mut attempts,
                        &mut pgd_ws,
                    ) {
                        return Ok(self.finish(
                            (sol.x, sol.objective, sol.duals, sol.prices),
                            stage,
                            None,
                            attempts,
                            start,
                        ));
                    }
                }
                FallbackStage::BackedOff => {
                    for retry in 1..=self.backoff.retries {
                        if self.budget_spent(start) || self.budget.expired() {
                            break;
                        }
                        let params = self.backoff.backed_off(&self.params, retry);
                        let opts = self.solver_opts;
                        if let Some(sol) = self.try_pgd(
                            problem,
                            stage,
                            retry,
                            params,
                            opts,
                            start,
                            None,
                            &mut attempts,
                            &mut pgd_ws,
                        ) {
                            return Ok(self.finish(
                                (sol.x, sol.objective, sol.duals, sol.prices),
                                stage,
                                None,
                                attempts,
                                start,
                            ));
                        }
                    }
                }
                FallbackStage::MirrorDescent | FallbackStage::EuclideanPgd => {
                    let mut opts = self.solver_opts;
                    opts.projection = if stage == FallbackStage::MirrorDescent {
                        ProjectionKind::MirrorDescent
                    } else {
                        ProjectionKind::Euclidean
                    };
                    let params = self.safe_params();
                    if let Some(sol) = self.try_pgd(
                        problem,
                        stage,
                        0,
                        params,
                        opts,
                        start,
                        None,
                        &mut attempts,
                        &mut pgd_ws,
                    ) {
                        return Ok(self.finish(
                            (sol.x, sol.objective, sol.duals, sol.prices),
                            stage,
                            None,
                            attempts,
                            start,
                        ));
                    }
                }
                FallbackStage::GreedyRounding => {
                    let t0 = Instant::now();
                    mfcp_obs::trace::begin(stage_trace_name(stage), None);
                    let mut asg = crate::exact::greedy_lpt(problem);
                    crate::rounding::repair_reliability(problem, &mut asg);
                    if problem.capacity.is_some() {
                        crate::rounding::repair_capacity(problem, &mut asg);
                    }
                    let x = asg.to_matrix(problem.clusters());
                    let objective = objective::value(problem, &self.safe_params(), &x);
                    attempts.push(StageAttempt {
                        stage,
                        retry: 0,
                        iterations: 0,
                        stop: None,
                        residual: None,
                        objective: Some(objective),
                        elapsed_secs: t0.elapsed().as_secs_f64(),
                        warm_start: false,
                        predicted: false,
                        outcome: StageOutcome::Success,
                    });
                    mfcp_obs::trace::end(stage_trace_name(stage), None);
                    record_attempt_metrics(attempts.last().expect("just pushed"));
                    return Ok(self.finish(
                        (x, objective, Vec::new(), Vec::new()),
                        stage,
                        Some(asg),
                        attempts,
                        start,
                    ));
                }
            }
        }

        mfcp_obs::counter("optim.robust.exhausted").inc();
        Err(SolveError::Exhausted {
            diagnostics: Box::new(SolveDiagnostics {
                recovered: false,
                total_secs: start.elapsed().as_secs_f64(),
                attempts,
                cache: None,
                prediction: None,
            }),
        })
    }

    fn budget_spent(&self, start: Instant) -> bool {
        self.policy
            .wall_limit
            .is_some_and(|limit| start.elapsed() >= limit)
    }

    /// Runs a guarded PGD attempt; records it and returns the solution
    /// on success.
    #[allow(clippy::too_many_arguments)]
    fn try_pgd(
        &self,
        problem: &MatchingProblem,
        stage: FallbackStage,
        retry: usize,
        params: RelaxationParams,
        opts: SolverOptions,
        start: Instant,
        seed: Option<Seed>,
        attempts: &mut Vec<StageAttempt>,
        pgd_ws: &mut PgdWorkspace,
    ) -> Option<RelaxedSolution> {
        let t0 = Instant::now();
        mfcp_obs::trace::begin(stage_trace_name(stage), Some(retry as u64));
        // The softened barrier cutoff is this ladder's μ-style continuation
        // knob; its per-attempt trajectory shows how far back-off had to go.
        if let BarrierKind::Log { eps } = params.barrier {
            mfcp_obs::histogram("optim.robust.barrier_eps").record(eps);
        }
        let mut guard = GuardRunner::new(&self.policy, &self.budget, start, stage);
        let kind = seed.as_ref().map(|(_, _, kind)| *kind);
        let (x0, prices) = match seed {
            // Both seed kinds are blended toward the interior —
            // projection output can carry exact zeros, which
            // multiplicative mirror-descent updates could never recover
            // from — but at very different strengths: a cached optimum
            // only needs its exact zeros lifted (`1e-9`), while a
            // learned prediction misplaces mass at the model's error
            // scale and needs a floor mirror descent can grow from
            // (see [`crate::learned::PREDICTED_BLEND`]).
            //
            // A seed's prices (a cached solve's) start the price state;
            // without them the solver prices the seed itself.
            Some((x, prices, SeedKind::Warm)) => (warm_init(&x), prices),
            Some((x, prices, SeedKind::Predicted)) => (crate::learned::predicted_init(&x), prices),
            None => (
                uniform_init(problem.clusters(), problem.tasks()),
                Vec::new(),
            ),
        };
        let result = solve_relaxed_from_guarded(
            problem,
            &params,
            &opts,
            x0,
            (!prices.is_empty()).then_some(&prices[..]),
            &mut |it, f, step| guard.check(it, f, step),
            pgd_ws,
        );
        self.record(stage, retry, t0, result, kind, attempts)
    }

    /// Health-checks a finished attempt, records it, and returns the
    /// solution when it is usable.
    fn record(
        &self,
        stage: FallbackStage,
        retry: usize,
        t0: Instant,
        result: Result<RelaxedSolution, SolveError>,
        seed: Option<SeedKind>,
        attempts: &mut Vec<StageAttempt>,
    ) -> Option<RelaxedSolution> {
        let warm_start = seed == Some(SeedKind::Warm);
        let predicted = seed == Some(SeedKind::Predicted);
        let elapsed_secs = t0.elapsed().as_secs_f64();
        let iters = match &result {
            Ok(sol) => sol.iterations,
            Err(err) => error_iteration(err),
        };
        mfcp_obs::trace::end(stage_trace_name(stage), Some(iters as u64));
        match result {
            Ok(sol) => {
                let healthy =
                    sol.objective.is_finite() && sol.x.as_slice().iter().all(|v| v.is_finite());
                let on_simplex = healthy && is_column_stochastic(&sol.x, 1e-6);
                let outcome = if !healthy {
                    StageOutcome::Failed(SolveError::NonFinite {
                        stage,
                        iteration: sol.iterations,
                    })
                } else if !on_simplex {
                    StageOutcome::Failed(SolveError::OffSimplex { stage })
                } else {
                    StageOutcome::Success
                };
                let usable = matches!(outcome, StageOutcome::Success);
                attempts.push(StageAttempt {
                    stage,
                    retry,
                    iterations: sol.iterations,
                    stop: Some(sol.stop),
                    residual: Some(sol.residual),
                    objective: Some(sol.objective),
                    elapsed_secs,
                    warm_start,
                    predicted,
                    outcome,
                });
                record_attempt_metrics(attempts.last().expect("just pushed"));
                usable.then_some(sol)
            }
            Err(err) => {
                attempts.push(StageAttempt {
                    stage,
                    retry,
                    iterations: error_iteration(&err),
                    stop: None,
                    residual: None,
                    objective: None,
                    elapsed_secs,
                    warm_start,
                    predicted,
                    outcome: StageOutcome::Failed(err),
                });
                record_attempt_metrics(attempts.last().expect("just pushed"));
                None
            }
        }
    }

    fn finish(
        &self,
        (x, objective, duals, prices): (Matrix, f64, Vec<f64>, Vec<f64>),
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
            duals,
            prices,
            stage,
            assignment,
            diagnostics: SolveDiagnostics {
                attempts,
                recovered,
                total_secs: start.elapsed().as_secs_f64(),
                cache: None,
                prediction: None,
            },
        }
    }
}

/// Flight-recorder event name for a ladder stage. Attempts that actually
/// run emit a begin/end pair under this name; skipped stages emit an
/// instant, so the trace timeline shows where the ladder jumped.
fn stage_trace_name(stage: FallbackStage) -> &'static str {
    match stage {
        FallbackStage::Primary => "robust.primary",
        FallbackStage::BackedOff => "robust.backoff",
        FallbackStage::MirrorDescent => "robust.mirror-descent",
        FallbackStage::EuclideanPgd => "robust.euclidean-pgd",
        FallbackStage::GreedyRounding => "robust.greedy-rounding",
    }
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
        mfcp_obs::trace::instant(stage_trace_name(attempt.stage), Some(attempt.retry as u64));
    } else {
        mfcp_obs::histogram("optim.robust.attempt_secs").record(attempt.elapsed_secs);
        mfcp_obs::histogram("optim.robust.attempt_iters").record(attempt.iterations as f64);
    }
}

fn error_iteration(err: &SolveError) -> usize {
    match err {
        SolveError::NonFinite { iteration, .. }
        | SolveError::Diverged { iteration, .. }
        | SolveError::Stalled { iteration, .. }
        | SolveError::DeadlineExceeded { iteration, .. }
        | SolveError::WallBudget { iteration, .. } => *iteration,
        _ => 0,
    }
}

/// Per-iterate health state threaded through a guarded solver run. It
/// judges the objective the solver hands it and never re-evaluates the
/// iterate.
struct GuardRunner<'a> {
    policy: &'a HealthPolicy,
    budget: &'a Budget,
    start: Instant,
    stage: FallbackStage,
    best: f64,
    stall_count: usize,
}

impl<'a> GuardRunner<'a> {
    fn new(
        policy: &'a HealthPolicy,
        budget: &'a Budget,
        start: Instant,
        stage: FallbackStage,
    ) -> Self {
        GuardRunner {
            policy,
            budget,
            start,
            stage,
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
            return Err(SolveError::DeadlineExceeded {
                stage: self.stage,
                iteration,
            });
        }
        if !obj.is_finite() {
            return Err(SolveError::NonFinite {
                stage: self.stage,
                iteration,
            });
        }
        if let Some(limit) = self.policy.wall_limit {
            if self.start.elapsed() >= limit {
                return Err(SolveError::WallBudget {
                    stage: self.stage,
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
                        stage: self.stage,
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
                        return Err(SolveError::Stalled {
                            stage: self.stage,
                            iteration,
                        });
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
    if let BarrierKind::Log { eps } = params.barrier {
        if !eps.is_finite() || eps < 0.0 {
            return Err(SolveError::InvalidInput(format!(
                "log-barrier eps = {eps} (must be finite and non-negative)"
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

    /// A problem that is reliability-infeasible at the uniform starting
    /// point: with a zero-cutoff log barrier the very first gradient is
    /// `-∞` and the plain solver's iterates go `NaN` immediately.
    fn degenerate_barrier_setup() -> (MatchingProblem, RelaxationParams) {
        let t = Matrix::filled(2, 4, 1.0);
        let a = Matrix::filled(2, 4, 0.7);
        let problem = MatchingProblem::new(t, a, 0.95);
        let params = RelaxationParams {
            barrier: BarrierKind::Log { eps: 0.0 },
            ..Default::default()
        };
        (problem, params)
    }

    #[test]
    fn healthy_problem_succeeds_on_primary() {
        let problem = random_problem(1, 3, 6);
        let solver = RobustSolver::new(RelaxationParams::default());
        let sol = solver.solve(&problem).expect("healthy instance solves");
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
    fn zero_eps_barrier_recovers_through_backoff() {
        let (problem, params) = degenerate_barrier_setup();
        // The unguarded solver silently returns a NaN matching here.
        let raw = crate::solver::solve_relaxed(&problem, &params, &SolverOptions::default());
        assert!(
            raw.x.as_slice().iter().any(|v| v.is_nan()),
            "setup must actually break the plain solver"
        );

        let sol = RobustSolver::new(params)
            .solve(&problem)
            .expect("ladder must recover");
        assert!(
            sol.diagnostics.recovered,
            "path: {}",
            sol.diagnostics.path()
        );
        assert_ne!(sol.stage, FallbackStage::Primary);
        assert!(is_column_stochastic(&sol.x, 1e-6));
        assert!(sol.x.as_slice().iter().all(|v| v.is_finite()));
        assert!(sol.objective.is_finite());
        // The primary attempt must be on record as a non-finite failure.
        let first = &sol.diagnostics.attempts[0];
        assert_eq!(first.stage, FallbackStage::Primary);
        assert!(
            matches!(
                first.outcome,
                StageOutcome::Failed(SolveError::NonFinite { .. })
            ),
            "unexpected first outcome: {:?}",
            first.outcome
        );
    }

    #[test]
    fn nan_times_rejected_as_invalid_input() {
        let mut problem = random_problem(2, 2, 3);
        problem.times[(0, 0)] = f64::NAN;
        let err = RobustSolver::new(RelaxationParams::default())
            .solve(&problem)
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
        let err = RobustSolver::new(params).solve(&problem).unwrap_err();
        assert!(matches!(err, SolveError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn tasks_without_clusters_rejected() {
        let problem = MatchingProblem::new(Matrix::zeros(0, 3), Matrix::zeros(0, 3), 0.5);
        let err = RobustSolver::new(RelaxationParams::default())
            .solve(&problem)
            .unwrap_err();
        assert!(matches!(err, SolveError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn truncated_ladder_exhausts_with_diagnostics() {
        let (problem, params) = degenerate_barrier_setup();
        let mut solver = RobustSolver::new(params);
        solver.ladder = vec![FallbackStage::Primary];
        let err = solver.solve(&problem).unwrap_err();
        let SolveError::Exhausted { diagnostics } = err else {
            panic!("expected exhaustion, got {err}");
        };
        assert_eq!(diagnostics.attempts.len(), 1);
        assert_eq!(diagnostics.failures(), 1);
    }

    #[test]
    fn greedy_rung_alone_produces_feasible_assignment() {
        let problem = random_problem(4, 3, 7);
        let mut solver = RobustSolver::new(RelaxationParams::default());
        solver.ladder = vec![FallbackStage::GreedyRounding];
        let sol = solver.solve(&problem).expect("greedy rung is infallible");
        assert_eq!(sol.stage, FallbackStage::GreedyRounding);
        let asg = sol.assignment.expect("greedy rung returns an assignment");
        assert_eq!(asg.tasks(), 7);
        assert!(is_column_stochastic(&sol.x, 1e-12));
        assert!(sol.x.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn empty_task_set_is_fine() {
        let problem = MatchingProblem::new(Matrix::zeros(2, 0), Matrix::zeros(2, 0), 0.5);
        let sol = RobustSolver::new(RelaxationParams::default())
            .solve(&problem)
            .expect("empty task set solves trivially");
        assert_eq!(sol.x.shape(), (2, 0));
    }

    #[test]
    fn backoff_schedule_softens_parameters() {
        let schedule = BackoffSchedule::default();
        let params = RelaxationParams {
            beta: 8.0,
            rho: 0.0,
            barrier: BarrierKind::Log { eps: 0.0 },
            ..Default::default()
        };
        let once = schedule.backed_off(&params, 1);
        assert!((once.beta - 4.0).abs() < 1e-12);
        assert!(once.rho > 0.0);
        let BarrierKind::Log { eps } = once.barrier else {
            panic!("barrier kind must be preserved");
        };
        assert!(eps > 0.0);
        // Floors hold under heavy back-off.
        let deep = schedule.backed_off(&params, 40);
        assert!(deep.beta >= schedule.beta_floor);
        let BarrierKind::Log { eps } = deep.barrier else {
            panic!("barrier kind must be preserved");
        };
        assert!(eps <= 0.1 + 1e-12);
    }

    #[test]
    fn diagnostics_path_is_readable() {
        let (problem, params) = degenerate_barrier_setup();
        let sol = RobustSolver::new(params).solve(&problem).unwrap();
        let path = sol.diagnostics.path();
        assert!(path.contains("primary x(non-finite)"), "path: {path}");
        assert!(path.contains("ok"), "path: {path}");
    }

    fn cached_solver() -> RobustSolver {
        let mut solver = RobustSolver::new(RelaxationParams::default());
        // Converge tightly so warm and cold land on the same unique
        // entropic optimum (the default tolerance stops short of the 1e-8
        // objective agreement these tests assert).
        solver.solver_opts.max_iters = 20_000;
        solver.solver_opts.tol = 1e-12;
        solver
    }

    #[test]
    fn warm_cache_hit_matches_cold_solve() {
        let problem = random_problem(7, 3, 6);
        let solver = cached_solver();
        let cold = solver.solve(&problem).expect("cold solve");

        let mut cache = WarmStartCache::new();
        let first = solver
            .solve_with_cache(&problem, &mut cache)
            .expect("miss populates");
        assert_eq!(first.diagnostics.cache, Some(CacheOutcome::Miss));
        let warm = solver
            .solve_with_cache(&problem, &mut cache)
            .expect("hit solves");
        assert_eq!(warm.diagnostics.cache, Some(CacheOutcome::Hit));
        assert!(warm.diagnostics.attempts[0].warm_start);
        assert!(warm.diagnostics.path().starts_with("warm-primary"));
        assert!((warm.objective - cold.objective).abs() < 1e-8);
        // Warm convergence from (near) the optimum takes far fewer
        // iterations than the cold run.
        assert!(
            warm.diagnostics.attempts[0].iterations <= cold.diagnostics.attempts[0].iterations,
            "warm {} vs cold {}",
            warm.diagnostics.attempts[0].iterations,
            cold.diagnostics.attempts[0].iterations
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn poisoned_nan_duals_fall_back_to_cold() {
        let problem = random_problem(8, 3, 5);
        let solver = cached_solver();
        let mut cache = WarmStartCache::new();
        solver
            .solve_with_cache(&problem, &mut cache)
            .expect("populate");
        let key = fingerprint(&problem, &solver.params);
        cache.entry_mut(key).expect("entry exists").duals[0] = f64::NAN;

        let cold = solver.solve(&problem).expect("plain solve");
        let sol = solver
            .solve_with_cache(&problem, &mut cache)
            .expect("poisoned entry must not panic or fail the solve");
        assert_eq!(sol.diagnostics.cache, Some(CacheOutcome::Stale));
        assert!(
            !sol.diagnostics.attempts[0].warm_start,
            "stale entry must be dropped before the solver runs"
        );
        assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(sol.x.as_slice(), cold.x.as_slice());
        assert_eq!(cache.stats().stale, 1);
    }

    #[test]
    fn wrong_dimension_cached_assignment_falls_back_to_cold() {
        let problem = random_problem(9, 3, 5);
        let solver = cached_solver();
        let mut cache = WarmStartCache::new();
        solver
            .solve_with_cache(&problem, &mut cache)
            .expect("populate");
        let key = fingerprint(&problem, &solver.params);
        cache.entry_mut(key).expect("entry exists").x = Matrix::filled(2, 2, 0.5);

        let cold = solver.solve(&problem).expect("plain solve");
        let sol = solver
            .solve_with_cache(&problem, &mut cache)
            .expect("wrong-dimension entry must not panic");
        assert_eq!(sol.diagnostics.cache, Some(CacheOutcome::Stale));
        assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(cache.stats().stale, 1);
    }

    #[test]
    fn warm_divergence_falls_back_to_cold_ladder() {
        // The degenerate barrier breaks the warm attempt (the entry
        // itself validates fine), so the solver must record the warm
        // failure, mark the entry stale, and recover through the ladder
        // with the same answer as a plain solve.
        let (problem, params) = degenerate_barrier_setup();
        let solver = RobustSolver::new(params);
        let (m, n) = (problem.clusters(), problem.tasks());
        let mut cache = WarmStartCache::new();
        let key = fingerprint(&problem, &solver.params);
        cache.store(
            key,
            WarmStartEntry {
                x: uniform_init(m, n),
                objective: 1.0,
                duals: vec![0.0; n],
                prices: Vec::new(),
                stored_at: 0,
            },
        );

        let cold = solver.solve(&problem).expect("plain ladder recovers");
        let sol = solver
            .solve_with_cache(&problem, &mut cache)
            .expect("warm divergence must fall back, not fail");
        assert_eq!(sol.diagnostics.cache, Some(CacheOutcome::Stale));
        let first = &sol.diagnostics.attempts[0];
        assert!(first.warm_start, "path: {}", sol.diagnostics.path());
        assert!(
            matches!(first.outcome, StageOutcome::Failed(_)),
            "warm attempt must be on record as failed"
        );
        assert!(sol.diagnostics.recovered);
        assert_eq!(sol.stage, cold.stage);
        assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(sol.x.as_slice(), cold.x.as_slice());
        assert_eq!(cache.stats().stale, 1);
        // The divergent entry was evicted and replaced by the recovered
        // solution, not left in place to diverge again.
        let entry = cache
            .entry_mut(key)
            .expect("recovered solve refreshed the entry");
        assert_eq!(entry.x.as_slice(), cold.x.as_slice());
    }

    #[test]
    fn greedy_results_are_not_cached() {
        let problem = random_problem(10, 3, 7);
        let mut solver = cached_solver();
        solver.ladder = vec![FallbackStage::GreedyRounding];
        let mut cache = WarmStartCache::new();
        solver
            .solve_with_cache(&problem, &mut cache)
            .expect("greedy rung is infallible");
        assert!(cache.is_empty(), "0/1 vertices must not be cached");
    }

    #[test]
    fn expired_budget_degrades_to_greedy_deterministically() {
        let problem = random_problem(21, 3, 8);
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let solver = RobustSolver::new(RelaxationParams::default())
            .with_budget(Budget::unlimited().with_cancel(token));

        let sol = solver
            .solve(&problem)
            .expect("an expired budget still yields a feasible matching");
        assert_eq!(sol.stage, FallbackStage::GreedyRounding);
        assert!(is_column_stochastic(&sol.x, 1e-9));
        // Every optimizing rung must be on record as budget-skipped, not
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
        let again = solver.solve(&problem).expect("greedy rung is infallible");
        assert_eq!(again.objective.to_bits(), sol.objective.to_bits());
        assert_eq!(again.x.as_slice(), sol.x.as_slice());
    }

    #[test]
    fn exhausted_wall_budget_skips_with_its_own_variant() {
        let problem = random_problem(23, 3, 8);
        let mut solver = RobustSolver::new(RelaxationParams::default());
        solver.policy.wall_limit = Some(Duration::ZERO);
        let sol = solver
            .solve(&problem)
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
        let mut guard = GuardRunner::new(&policy, &budget, Instant::now(), FallbackStage::Primary);
        let x = crate::solver::uniform_init(problem.clusters(), problem.tasks());
        let f = objective::value(&problem, &params, &x);

        // Healthy while the token is quiet...
        guard.check(0, f, 1.0).expect("live budget passes");
        // ...and a typed abort at the very next iterate once it fires.
        token.cancel();
        let err = guard.check(1, f, 1.0).unwrap_err();
        match err {
            SolveError::DeadlineExceeded { stage, iteration } => {
                assert_eq!(stage, FallbackStage::Primary);
                assert_eq!(iteration, 1);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(short_reason(&err), "deadline");
    }
}
