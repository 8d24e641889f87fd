//! Algorithm 1: optimal relaxed matching by projected gradient descent,
//! solved to a stated accuracy.
//!
//! The paper's Algorithm 1 alternates a gradient step on `F(X, T, A)` with
//! a per-task-column softmax projection back onto the simplex, for a
//! fixed number of epochs. Here every solve instead stops on the
//! *projected stationarity residual* ([`stationarity_residual`]): per
//! task, the spread of the gradient over its active coordinates, and
//! over its collapsed ones the complementarity `x·(g − g_min)` or the
//! dual infeasibility `ḡ − g`, whichever is larger. The residual is
//! checked every [`RESIDUAL_EVERY`] iterations, and after every accepted
//! price trial, against [`SolverOptions::tol`];
//! [`SolverOptions::max_iters`] is only a safety net, and every solve
//! reports why it stopped ([`StopReason`]).
//!
//! We support three readings of the projection (an ablation in
//! `mfcp-bench`):
//!
//! * [`ProjectionKind::MirrorDescent`] (default) — exponentiated gradient:
//!   `x_ij ← x_ij · exp(-η ∂F/∂x_ij)` renormalized per column. This is the
//!   entropic-geometry projected step; it keeps iterates strictly interior
//!   (which the log barrier and the implicit differentiation both want) and is
//!   what "gradient step then softmax" converges to when `X` is stored as
//!   logits. Its step is Armijo-safeguarded: the first trial step is
//!   `η = lr`, an accepted step grows `η` by 1.2, a rejected one halves
//!   it, and a step is accepted when
//!   `F(x⁺) ≤ F(x) + 10⁻⁴·⟨∇F, x⁺ − x⟩` — so `F` never increases. When
//!   no step within 40 backtracks is accepted, or a rejected step's
//!   predicted decrease is already below the objective's rounding, the
//!   iterate is stationary to numerical resolution and the solve stops
//!   ([`StopReason::NoDescent`]).
//! * [`ProjectionKind::SoftmaxPaper`] — the literal Algorithm 1 lines 3–4:
//!   `X ← X − η∇F`, then `softmax` of each column of the *values*, at the
//!   fixed step `η = lr`. Its fixed point is in general not a
//!   stationary point of `F`, so it usually runs to the iteration cap.
//! * [`ProjectionKind::Euclidean`] — classical sort-based projection onto
//!   the simplex after a fixed gradient step.
//!
//! **Price trials.** Apart from the entropy, `F` depends on `X` only
//! through a few per-cluster sums `A·x` (loads, reliability mass,
//! capacity uses and, with speedup curves, task counts), so
//! `∂F/∂x_ij = θ·f_ij + ρ(1 + ln x_ij)` with the *prices*
//! `θ = ∇Φ(A·x)` ([`price_dim`] numbers; a curve's cluster gets a load
//! price `w_i·ζ_i` and a count price `w_i·ζ_i'·ℓ_i`) and the optimum is
//! a per-task softmax `x(θ)_ij ∝ exp(−θ·f_ij/ρ)` at the fixed point
//! `θ = ∇Φ(A·x(θ))`. A mirror step is a fixed-point iteration on those
//! prices damped by `η·ρ`: from `x = x(θ)` it lands exactly on
//! `x((1 − ηρ)θ + ηρ∇Φ(A·x))`. Such a solve therefore keeps `θ` as its
//! own state, keeps the iterate at `x(θ)`, and before each mirror trial
//! tries Newton's method on the fixed point: with
//! `C = Σ_j Cov_{x_j}(f_j)` the features' covariance under the iterate
//! and `H_Φ` the Hessian of `Φ` (the smooth max's `β(diag w − wwᵀ)`
//! through each cluster's `∇s_i`, plus the barriers' curvature; with
//! speedup curves also the curves' own, indefinite curvature when the
//! direction it gives descends, and otherwise the positive semidefinite
//! model without it — see `newton_direction`), the direction solves the
//! `r×r` system
//! `(I + H_Φ·C/ρ)·d = −(θ − ∇Φ(A·x(θ)))`, and the trials `x(θ + s·d)`,
//! `s = 1, ½, …, 1/32`, face the same Armijo test on `F`. When none is
//! accepted, or the system is singular, the iteration takes the mirror
//! trial. The solve starts at `x(θ₀)`: `θ₀` is the caller's prices
//! (a previous solve's [`RelaxedSolution::prices`]) when it has them,
//! and otherwise the seed's fitted prices, the `θ` whose softmax best
//! reproduces the seed's within-task log-ratios (a uniform newcomer
//! column among informed ones is left out; the uniform start is
//! `x(0)`). `ρ = 0` and the fixed-step projections never take price
//! trials. A speedup curve's `ζ'` jumps at `n = 1`; the Armijo test and
//! the mirror fallback carry the solve across that kink.
//!
//! Each trial step is one fused sweep over the task-major iterate: the
//! projection (or the price softmax), the new iterate's floored logs,
//! its per-cluster sums and entropy, `⟨∇F, x⁺ − x⟩`, `max |Δx|` and,
//! for a price trial, its covariance `C` (an accepted mirror trial on
//! the price path rebuilds `C` in one more pass without
//! transcendentals). `F(x⁺)` then costs `O(M)`, and
//! the next gradient reuses the accepted trial's sums and logs, so it
//! calls no transcendental per entry: an accepted step costs one `exp`
//! per entry and one `ln` per task.

use crate::objective::{self, price_dim, IterStats, RelaxationParams, TransposedEval};
use crate::problem::MatchingProblem;
use crate::recovery::SolveError;
use mfcp_linalg::{vector, Matrix};

/// Iterations between two stationarity-residual checks of the PGD loop
/// (an accepted price trial is checked at once).
pub const RESIDUAL_EVERY: usize = 5;
/// Armijo sufficient-decrease coefficient of the mirror-descent step.
const ARMIJO_C: f64 = 1e-4;
/// Step growth after an accepted mirror-descent step.
const STEP_GROW: f64 = 1.2;
/// Step shrink after a rejected mirror-descent trial.
const STEP_SHRINK: f64 = 0.5;
/// Trial steps per mirror-descent iteration before declaring
/// [`StopReason::NoDescent`].
const MAX_BACKTRACKS: usize = 40;
/// Price trials per iteration along one Newton direction: `s = 1` and
/// its halvings down to `1/32`.
const PRICE_TRIALS: usize = 6;
/// Relative resolution of a computed objective: a rejected trial whose
/// predicted decrease `|⟨∇F, x⁺ − x⟩|` is below one ulp of `1 + |F|`
/// is at the objective's rounding, where shorter steps cannot be told
/// apart from noise either.
const F_RESOLUTION: f64 = f64::EPSILON;
/// Floor under the iterate before taking its log in the update.
const LOG_FLOOR: f64 = 1e-300;
/// Coordinates above this count as active in [`stationarity_residual`].
const ACTIVE_FLOOR: f64 = 1e-6;

/// Reusable buffers for the PGD hot loop: task-major copies of the
/// iterate and of the trial step (each with its floored logs and
/// per-cluster sums), the task-major gradient, the per-task projection
/// scratch, the transposed problem data, and the price state. One
/// workspace per thread makes every iteration and every backtrack
/// allocation-free after warm-up.
#[derive(Debug, Clone)]
struct PgdWorkspace {
    xt: Matrix,
    lx: Matrix,
    stats: IterStats,
    trial_xt: Matrix,
    trial_lx: Matrix,
    trial_stats: IterStats,
    grad_t: Matrix,
    col: Vec<f64>,
    proj: Vec<f64>,
    teval: TransposedEval,
    price: PriceWorkspace,
}

impl Default for PgdWorkspace {
    fn default() -> Self {
        PgdWorkspace {
            xt: Matrix::zeros(0, 0),
            lx: Matrix::zeros(0, 0),
            stats: IterStats::default(),
            trial_xt: Matrix::zeros(0, 0),
            trial_lx: Matrix::zeros(0, 0),
            trial_stats: IterStats::default(),
            grad_t: Matrix::zeros(0, 0),
            col: Vec::new(),
            proj: Vec::new(),
            teval: TransposedEval::default(),
            price: PriceWorkspace::default(),
        }
    }
}

/// The price state of the mirror loop (see the module docs): `θ`, the
/// prices `∇Φ(A·x)` of the point the Newton direction starts from, the
/// direction and the trial prices, and the `r×r` covariance of the
/// iterate and of the trial, the Hessian and the Newton system, all
/// row-major.
#[derive(Debug, Clone, Default)]
struct PriceWorkspace {
    theta: Vec<f64>,
    theta_x: Vec<f64>,
    trial_theta: Vec<f64>,
    dir: Vec<f64>,
    mu: Vec<f64>,
    cov: Vec<f64>,
    trial_cov: Vec<f64>,
    hess: Vec<f64>,
    sys: Vec<f64>,
}

impl PriceWorkspace {
    /// Sizes every buffer for `r` prices (allocation-free once sized).
    fn resize(&mut self, r: usize) {
        for buf in [
            &mut self.theta,
            &mut self.theta_x,
            &mut self.trial_theta,
            &mut self.dir,
            &mut self.mu,
        ] {
            buf.clear();
            buf.resize(r, 0.0);
        }
        for buf in [
            &mut self.cov,
            &mut self.trial_cov,
            &mut self.hess,
            &mut self.sys,
        ] {
            buf.clear();
            buf.resize(r * r, 0.0);
        }
    }
}

/// Per-iterate hook used by the guarded solver entry point in
/// [`crate::recovery`]: called after every accepted iterate with the
/// iteration count and the iterate's objective (`NaN` when the iterate
/// is not finite); returning an error aborts the solve.
pub(crate) type IterGuard<'a> = &'a mut dyn FnMut(usize, f64) -> Result<(), SolveError>;

/// Simplex-projection flavor used after each gradient step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjectionKind {
    /// Armijo-safeguarded exponentiated-gradient / mirror-descent step
    /// (default).
    MirrorDescent,
    /// Literal paper Algorithm 1: value-space softmax after the step.
    SoftmaxPaper,
    /// Euclidean projection onto the simplex after the step.
    Euclidean,
}

/// Options for [`solve_relaxed`].
#[derive(Debug, Clone, Copy)]
pub struct SolverOptions {
    /// Iteration cap (`Epochs` in Algorithm 1): a safety net, since
    /// solves stop on [`SolverOptions::tol`].
    pub max_iters: usize,
    /// Step size `η`: the fixed step of the `SoftmaxPaper` and
    /// `Euclidean` projections, and the first trial step of the
    /// Armijo-safeguarded mirror-descent step.
    pub lr: f64,
    /// Stop once the projected stationarity residual
    /// ([`stationarity_residual`], the worst task) falls below this.
    pub tol: f64,
    /// Projection flavor.
    pub projection: ProjectionKind,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iters: 400,
            lr: 0.8,
            tol: 1e-4,
            projection: ProjectionKind::MirrorDescent,
        }
    }
}

/// Why a relaxed solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The stationarity residual fell below the tolerance.
    Converged,
    /// The iteration cap ended the solve above the tolerance.
    IterationCap,
    /// No trial step decreased the objective: the iterate is stationary
    /// to numerical resolution.
    NoDescent,
}

impl StopReason {
    /// Whether the solve ended at a stationary point rather than at the
    /// cap.
    pub fn converged(self) -> bool {
        self != StopReason::IterationCap
    }
}

/// The result of a relaxed solve.
#[derive(Debug, Clone)]
pub struct RelaxedSolution {
    /// The relaxed matching: columns on the probability simplex.
    pub x: Matrix,
    /// Objective value `F(X, T, A)` at the solution.
    pub objective: f64,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Why the solve stopped.
    pub stop: StopReason,
    /// Projected stationarity residual at the solution (`NaN` when the
    /// iterate is not finite).
    pub residual: f64,
    /// Final prices `θ` in [`price_dim`] layout, whose softmax is `x`.
    /// Empty when the solve cannot take price trials (`ρ = 0` or another
    /// projection). A later solve of a similar
    /// instance starts from them.
    pub prices: Vec<f64>,
}

impl RelaxedSolution {
    /// Whether the solve stopped at a stationary point (see
    /// [`StopReason::converged`]).
    pub fn converged(&self) -> bool {
        self.stop.converged()
    }
}

/// Projected stationarity residual of one task's simplex block: `x` and
/// `grad` hold the task's coordinates over all clusters.
///
/// At a stationary point the gradient is constant across the *active*
/// coordinates (`x > 1e-6`), so their spread around its mean `ḡ`
/// measures how far the block is from stationary. Collapsed coordinates
/// are excluded from the spread — their true entropy gradient is
/// −∞-like and never equalizes in floating point — and contribute their
/// complementarity `x·(g − g_min)` instead, or their dual infeasibility
/// `ḡ − g` when that is larger: a collapsed coordinate whose gradient
/// sits below the active mean wants mass (a cluster back from an
/// outage), however small `x` is. The block's residual is the largest
/// of these terms; a `NaN` term makes it `NaN`.
pub fn stationarity_residual(x: &[f64], grad: &[f64]) -> f64 {
    let mut gmin = f64::INFINITY;
    let (mut sum, mut active) = (0.0, 0usize);
    for (&xi, &gi) in x.iter().zip(grad) {
        gmin = gmin.min(gi);
        if xi > ACTIVE_FLOOR {
            sum += gi;
            active += 1;
        }
    }
    let mean = sum / active.max(1) as f64;
    let mut residual = 0.0;
    for (&xi, &gi) in x.iter().zip(grad) {
        let term = if xi > ACTIVE_FLOOR {
            (gi - mean).abs()
        } else {
            (mean - gi).max(xi * (gi - gmin))
        };
        residual = nan_max(residual, term);
    }
    residual
}

/// The worst task's [`stationarity_residual`] of a task-major iterate
/// and gradient (one row per task).
fn worst_residual(xt: &Matrix, grad_t: &Matrix) -> f64 {
    (0..xt.rows())
        .map(|j| stationarity_residual(xt.row(j), grad_t.row(j)))
        .fold(0.0, nan_max)
}

/// `max` that propagates `NaN` (`f64::max` drops it), so a non-finite
/// iterate can never read as stationary.
fn nan_max(acc: f64, v: f64) -> f64 {
    if v > acc || v.is_nan() {
        v
    } else {
        acc
    }
}

/// Uniform initial matching: every task spread equally over clusters.
pub fn uniform_init(m: usize, n: usize) -> Matrix {
    Matrix::filled(m, n, 1.0 / m.max(1) as f64)
}

/// Solves the relaxed matching problem (10) by Algorithm 1 from the
/// uniform initial point.
///
/// ```
/// use mfcp_linalg::Matrix;
/// use mfcp_optim::solver::{solve_relaxed, SolverOptions};
/// use mfcp_optim::{MatchingProblem, RelaxationParams};
///
/// let times = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
/// let rel = Matrix::filled(2, 2, 0.9);
/// let problem = MatchingProblem::new(times, rel, 0.8);
/// let sol = solve_relaxed(&problem, &RelaxationParams::default(), &SolverOptions::default());
/// // Each task leans toward its faster cluster.
/// assert!(sol.x[(0, 0)] > 0.5 && sol.x[(1, 1)] > 0.5);
/// assert!(sol.converged());
/// ```
pub fn solve_relaxed(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    opts: &SolverOptions,
) -> RelaxedSolution {
    let x0 = uniform_init(problem.clusters(), problem.tasks());
    solve_relaxed_from(problem, params, opts, x0)
}

/// Solves the relaxed matching problem starting from `x0` (columns must
/// lie on the simplex), with no guard and no start prices; the solve
/// counter and iteration histogram count these solves. A solve of a
/// shape its thread has solved before allocates only its returned
/// solution (see [`solve_relaxed_from_guarded`]).
pub fn solve_relaxed_from(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    opts: &SolverOptions,
    x: Matrix,
) -> RelaxedSolution {
    let _span = mfcp_obs::span("solve_relaxed");
    mfcp_obs::counter("optim.solve.calls").inc();
    let solved = solve_relaxed_from_guarded(problem, params, opts, x, None, &mut |_, _| Ok(()));
    let sol = match solved {
        Ok(sol) => sol,
        Err(_) => unreachable!("the no-op guard never fails"),
    };
    mfcp_obs::histogram("optim.solve.iters").record(sol.iterations as f64);
    sol
}

/// Records how a solve stopped: `optim.solve.iterations` sums the
/// solves' iterations, `optim.solve.cap_hits` counts solves the
/// iteration cap ended, `optim.solve.residual` histograms the (finite)
/// final residuals, `optim.solve.backtracks` counts rejected trials
/// (mirror and price), `optim.solve.price_steps` accepted price trials,
/// `optim.solve.mirror_fallbacks` the iterations of a price-eligible
/// solve that took the mirror trial instead, and
/// `optim.solve.model_fallbacks` the Newton directions of a solve with
/// speedup curves that came from the semidefinite Hessian model because
/// the exact Hessian's did not descend.
fn record_stop(stop: StopReason, residual: f64, iterations: usize, counts: &LoopCounts) {
    static METRICS: std::sync::OnceLock<[mfcp_obs::Counter; 6]> = std::sync::OnceLock::new();
    static RESIDUALS: std::sync::OnceLock<mfcp_obs::Histogram> = std::sync::OnceLock::new();
    let [iters, cap_hits, rejected, price_steps, fallbacks, model_fallbacks] =
        METRICS.get_or_init(|| {
            [
                mfcp_obs::counter("optim.solve.iterations"),
                mfcp_obs::counter("optim.solve.cap_hits"),
                mfcp_obs::counter("optim.solve.backtracks"),
                mfcp_obs::counter("optim.solve.price_steps"),
                mfcp_obs::counter("optim.solve.mirror_fallbacks"),
                mfcp_obs::counter("optim.solve.model_fallbacks"),
            ]
        });
    if stop == StopReason::IterationCap {
        cap_hits.inc();
    }
    // A non-finite iterate's `NaN` residual would poison the histogram's
    // sum; the solution's own `residual` field still reports it.
    if residual.is_finite() {
        RESIDUALS
            .get_or_init(|| mfcp_obs::histogram("optim.solve.residual"))
            .record(residual);
    }
    for (counter, n) in [
        (iters, iterations as u64),
        (rejected, counts.backtracks),
        (price_steps, counts.price_steps),
        (fallbacks, counts.mirror_fallbacks),
        (model_fallbacks, counts.model_fallbacks),
    ] {
        if n > 0 {
            counter.add(n);
        }
    }
}

/// Per-solve tallies of the PGD loop's trials.
#[derive(Debug, Default)]
struct LoopCounts {
    backtracks: u64,
    price_steps: u64,
    mirror_fallbacks: u64,
    model_fallbacks: u64,
}

/// Overwrites the logits in `col` (whose maximum is `cmax`) with their
/// softmax in `out` and its log, floored at `ln LOG_FLOOR`, in `lout`:
/// `vector::softmax_inplace`'s arithmetic, with
/// `ln x⁺ = (c − c_max) − ln Σ exp(c − c_max)` at one `ln` per task.
#[inline]
fn softmax_with_logs(col: &mut [f64], cmax: f64, out: &mut [f64], lout: &mut [f64]) {
    let mut sum = 0.0;
    for (o, c) in out.iter_mut().zip(col.iter_mut()) {
        *c -= cmax;
        *o = c.exp();
        sum += *o;
    }
    let inv = 1.0 / sum;
    let ln_sum = sum.ln();
    let ln_floor = LOG_FLOOR.ln();
    for ((o, l), &c) in out.iter_mut().zip(lout.iter_mut()).zip(col.iter()) {
        *o *= inv;
        *l = (c - ln_sum).max(ln_floor);
    }
}

/// Adds task `j`'s feature covariance under its row `x`,
/// `Σ_i x_i f_i f_iᵀ − μμᵀ` with `μ = Σ_i x_i f_i`, to the upper
/// triangle of the `r×r` row-major `cov` (`mu` is scratch of length `r`;
/// see [`price_dim`] for the feature layout).
#[inline]
fn add_task_cov(te: &TransposedEval, j: usize, x: &[f64], mu: &mut [f64], cov: &mut [f64]) {
    let m = x.len();
    let r = mu.len();
    let (tr, ar) = (te.tt.row(j), te.at.row(j));
    let mut rel = 0.0;
    for i in 0..m {
        mu[i] = x[i] * tr[i];
        let xa = x[i] * ar[i];
        rel += xa;
        cov[i * r + i] += mu[i] * tr[i];
        cov[i * r + m] += mu[i] * ar[i];
        cov[m * r + m] += xa * ar[i];
    }
    mu[m] = rel;
    if let Some(ut) = &te.ut {
        let ur = ut.row(j);
        for i in 0..m {
            let k = m + 1 + i;
            mu[k] = x[i] * ur[i];
            cov[i * r + k] += mu[i] * ur[i];
            cov[m * r + k] += x[i] * ar[i] * ur[i];
            cov[k * r + k] += mu[k] * ur[i];
        }
    }
    if let Some(c) = te.count_at {
        for i in 0..m {
            let k = c + i;
            mu[k] = x[i];
            cov[i * r + k] += mu[i];
            cov[m * r + k] += x[i] * ar[i];
            if te.ut.is_some() {
                cov[(m + 1 + i) * r + k] += mu[m + 1 + i];
            }
            cov[k * r + k] += x[i];
        }
    }
    for a in 0..r {
        let ma = mu[a];
        for b in a..r {
            cov[a * r + b] -= ma * mu[b];
        }
    }
}

/// One fused trial sweep over the task-major iterate: projects
/// `x − η∇F` (mirror: `ln x − η∇F`) row by row into `trial_xt`, writes
/// the trial's floored logs into `trial_lx`, accumulates its per-cluster
/// sums and entropy into `trial_stats`, and returns the slope
/// `⟨∇F, x⁺ − x⟩`.
#[allow(clippy::too_many_arguments)]
fn trial_step(
    projection: ProjectionKind,
    eta: f64,
    teval: &TransposedEval,
    xt: &Matrix,
    lx: &Matrix,
    grad_t: &Matrix,
    trial_xt: &mut Matrix,
    trial_lx: &mut Matrix,
    trial_stats: &mut IterStats,
    col: &mut [f64],
    proj: &mut Vec<f64>,
) -> f64 {
    let (n, m) = xt.shape();
    trial_stats.reset(m);
    let mut slope = 0.0;
    for j in 0..n {
        let xr = xt.row(j);
        let gr = grad_t.row(j);
        let out = trial_xt.row_mut(j);
        let lout = trial_lx.row_mut(j);
        match projection {
            ProjectionKind::MirrorDescent => {
                // x⁺ ∝ x · exp(-η g), computed stably in log space.
                let lr = lx.row(j);
                let mut cmax = f64::NEG_INFINITY;
                for (c, (lv, gv)) in col.iter_mut().zip(lr.iter().zip(gr)) {
                    *c = lv - eta * gv;
                    cmax = cmax.max(*c);
                }
                softmax_with_logs(col, cmax, out, lout);
            }
            ProjectionKind::SoftmaxPaper | ProjectionKind::Euclidean => {
                for (c, (xv, gv)) in col.iter_mut().zip(xr.iter().zip(gr)) {
                    *c = xv - eta * gv;
                }
                if projection == ProjectionKind::SoftmaxPaper {
                    vector::softmax_inplace(col);
                } else {
                    project_simplex_with(col, proj);
                }
                for ((o, l), &c) in out.iter_mut().zip(lout.iter_mut()).zip(col.iter()) {
                    *o = c;
                    *l = c.max(LOG_FLOOR).ln();
                }
            }
        }
        for ((&o, &xv), &gv) in out.iter().zip(xr).zip(gr) {
            slope += gv * (o - xv);
        }
        trial_stats.add_row(teval, j, out, lout);
    }
    slope
}

/// The price trial's sweep: writes `x(θ)` — each task's softmax of
/// `−θ·f_ij/ρ` — into `trial_xt` with its floored logs, sums and
/// entropy like [`trial_step`], accumulates its feature covariance into
/// `cov` (`mu` is scratch), and returns the slope `⟨∇F, x⁺ − x⟩`.
#[allow(clippy::too_many_arguments)]
fn price_step(
    theta: &[f64],
    rho: f64,
    teval: &TransposedEval,
    xt: &Matrix,
    grad_t: &Matrix,
    trial_xt: &mut Matrix,
    trial_lx: &mut Matrix,
    trial_stats: &mut IterStats,
    col: &mut [f64],
    (cov, mu): (&mut [f64], &mut [f64]),
) -> f64 {
    let (n, m) = xt.shape();
    trial_stats.reset(m);
    cov.fill(0.0);
    let mut slope = 0.0;
    let counts = teval.count_at.map(|k| &theta[k..k + m]);
    for j in 0..n {
        let (tr, ar) = (teval.tt.row(j), teval.at.row(j));
        let price = |i: usize| {
            let mut p = theta[i] * tr[i] + theta[m] * ar[i];
            if let Some(ut) = &teval.ut {
                p += theta[m + 1 + i] * ut[(j, i)];
            }
            p
        };
        let mut cmax = f64::NEG_INFINITY;
        // Two loops, so the count prices cost trivial-speedup solves no
        // branch per entry.
        match counts {
            None => {
                for (i, c) in col.iter_mut().enumerate() {
                    *c = -price(i) / rho;
                    cmax = cmax.max(*c);
                }
            }
            Some(q) => {
                for (i, c) in col.iter_mut().enumerate() {
                    *c = -(price(i) + q[i]) / rho;
                    cmax = cmax.max(*c);
                }
            }
        }
        let out = trial_xt.row_mut(j);
        let lout = trial_lx.row_mut(j);
        softmax_with_logs(col, cmax, out, lout);
        for ((&o, &xv), &gv) in out.iter().zip(xt.row(j)).zip(grad_t.row(j)) {
            slope += gv * (o - xv);
        }
        trial_stats.add_row(teval, j, out, lout);
        add_task_cov(teval, j, out, mu, cov);
    }
    mirror_upper(cov, mu.len());
    slope
}

/// The feature covariance `C` of the task-major iterate `xt` into `cov`
/// (full symmetric `r×r`; `mu` is scratch).
pub(crate) fn covariance_into(
    teval: &TransposedEval,
    xt: &Matrix,
    mu: &mut [f64],
    cov: &mut [f64],
) {
    cov.fill(0.0);
    for j in 0..xt.rows() {
        add_task_cov(teval, j, xt.row(j), mu, cov);
    }
    mirror_upper(cov, mu.len());
}

/// Copies the upper triangle of the `r×r` row-major `c` onto its lower.
fn mirror_upper(c: &mut [f64], r: usize) {
    for a in 0..r {
        for b in 0..a {
            c[a * r + b] = c[b * r + a];
        }
    }
}

/// The Armijo test of a price trial. Unlike a mirror step, a price trial
/// can move against the gradient, so a positive slope buys no slack:
/// `F` never increases.
fn price_accepts(f_trial: f64, f: f64, slope: f64) -> bool {
    f_trial <= f + ARMIJO_C * slope.min(0.0)
}

/// The Newton direction of the price fixed point at the point `x(θ)`
/// whose sums are `stats` and feature covariance `pw.cov`: writes
/// `∇Φ(A·x(θ))` into `pw.theta_x` and the solution `d` of
/// `(I + H_Φ·C/ρ)·d = −(θ − ∇Φ(A·x(θ)))` into `pw.dir`. With speedup
/// curves `H_Φ` is first the exact Hessian (the model plus the curves'
/// own curvature), kept when its direction descends `F∘x(θ)`; otherwise,
/// and always without curves, it is the positive semidefinite model,
/// whose direction always descends. Returns whether the direction came
/// from the model after the exact one was tried, or `None` when the
/// system is singular or not finite.
fn newton_direction(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    stats: &IterStats,
    pw: &mut PriceWorkspace,
) -> Option<bool> {
    stats.prices_into(problem, params, &mut pw.theta_x);
    stats.price_hessian_into(problem, params, &pw.theta_x, &mut pw.hess);
    let curves = objective::count_slots(problem).is_some();
    if curves {
        stats.add_curve_hessian(problem, &pw.theta_x, &mut pw.hess);
        if solve_newton_system(params.rho, pw) && descends(pw) {
            return Some(false);
        }
        stats.price_hessian_into(problem, params, &pw.theta_x, &mut pw.hess);
    }
    solve_newton_system(params.rho, pw).then_some(curves)
}

/// Solves `(I + H·C/ρ)·d = θ_x − θ` for `d` into `pw.dir`, with `H` in
/// `pw.hess` and `C` in `pw.cov`. Returns `false` when the system is
/// singular or not finite.
fn solve_newton_system(rho: f64, pw: &mut PriceWorkspace) -> bool {
    let r = pw.theta.len();
    for a in 0..r {
        for b in 0..r {
            let mut hc = 0.0;
            for k in 0..r {
                hc += pw.hess[a * r + k] * pw.cov[k * r + b];
            }
            pw.sys[a * r + b] = hc / rho + if a == b { 1.0 } else { 0.0 };
        }
        pw.dir[a] = pw.theta_x[a] - pw.theta[a];
    }
    solve_dense_in_place(&mut pw.sys, &mut pw.dir)
}

/// Whether `pw.dir` descends `F∘x(θ)`, whose gradient in `θ` is
/// `C·(θ − θ_x)/ρ`: `(θ − θ_x)ᵀ·C·d < 0`.
fn descends(pw: &PriceWorkspace) -> bool {
    let r = pw.theta.len();
    let mut slope = 0.0;
    for a in 0..r {
        let mut cd = 0.0;
        for b in 0..r {
            cd += pw.cov[a * r + b] * pw.dir[b];
        }
        slope += (pw.theta[a] - pw.theta_x[a]) * cd;
    }
    slope < 0.0
}

/// The prices a seed without prices starts from: the `θ` whose softmax
/// best reproduces the seed's within-task log-ratios, by `x`-weighted
/// least squares of `ρ ln x_ij + θ·f_ij` around each task's mean. Its
/// normal equations are `C·θ = −ρ Σ_j Cov_{x_j}(f_j, ln x_j)`, with `C`
/// the seed's feature covariance, so a seed that is some `x(θ)` gets
/// exactly that `θ` back (the uniform one, `x(0)`, gets `0` up to the
/// ridge). A uniform column in an otherwise informed seed is the
/// placeholder for a task the seed knows nothing about (a newcomer)
/// and is left out: fitted, it would pull `θ` toward `0` with the full
/// weight of its spread-out mass. A ridge of `1e-10·max diag C`
/// pulls directions the seed leaves undetermined (a feature constant
/// within every task) to `∇Φ(A·x)`, which is also the answer when the
/// system is singular. Writes `pw.theta`.
fn fit_prices(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    teval: &TransposedEval,
    xt: &Matrix,
    lx: &Matrix,
    stats: &IterStats,
    pw: &mut PriceWorkspace,
) {
    let r = pw.theta.len();
    stats.prices_into(problem, params, &mut pw.theta_x);
    pw.sys.fill(0.0);
    pw.dir.fill(0.0);
    let ln_floor = LOG_FLOOR.ln();
    let uniform = |xr: &[f64]| xr.iter().all(|&v| v == xr[0]);
    let skip_uniform = !(0..xt.rows()).all(|j| uniform(xt.row(j)));
    for j in 0..xt.rows() {
        let (xr, lr) = (xt.row(j), lx.row(j));
        if skip_uniform && uniform(xr) {
            continue;
        }
        add_task_cov(teval, j, xr, &mut pw.mu, &mut pw.sys);
        // Cov(f, ln x) = Σ_i x_i f_i ln x_i − μ·Σ_i x_i ln x_i, with
        // `pw.mu` holding this task's μ after `add_task_cov`.
        let m = xr.len();
        let (tr, ar) = (teval.tt.row(j), teval.at.row(j));
        let mean_ln: f64 = xr.iter().zip(lr).map(|(&v, &l)| v * l.max(ln_floor)).sum();
        for i in 0..m {
            let wl = xr[i] * lr[i].max(ln_floor);
            pw.dir[i] += wl * tr[i];
            pw.dir[m] += wl * ar[i];
            if let Some(ut) = &teval.ut {
                pw.dir[m + 1 + i] += wl * ut[(j, i)];
            }
            if let Some(c) = teval.count_at {
                pw.dir[c + i] += wl;
            }
        }
        for (d, &mu) in pw.dir.iter_mut().zip(pw.mu.iter()) {
            *d -= mu * mean_ln;
        }
    }
    mirror_upper(&mut pw.sys, r);
    let ridge = 1e-10 * (0..r).map(|a| pw.sys[a * r + a]).fold(0.0, f64::max);
    for a in 0..r {
        pw.sys[a * r + a] += ridge;
        pw.dir[a] = -params.rho * pw.dir[a] + ridge * pw.theta_x[a];
    }
    if ridge > 0.0 && solve_dense_in_place(&mut pw.sys, &mut pw.dir) {
        pw.theta.copy_from_slice(&pw.dir);
    } else {
        pw.theta.copy_from_slice(&pw.theta_x);
    }
}

/// Solves the `r×r` row-major system `a·x = b` in place (`b` becomes
/// `x`) by Gaussian elimination with partial pivoting. Returns `false`
/// on a zero or non-finite pivot or a non-finite solution.
pub(crate) fn solve_dense_in_place(a: &mut [f64], b: &mut [f64]) -> bool {
    let r = b.len();
    for k in 0..r {
        let p = (k..r)
            .max_by(|&i, &j| a[i * r + k].abs().total_cmp(&a[j * r + k].abs()))
            .expect("non-empty pivot range");
        let pivot = a[p * r + k];
        if pivot == 0.0 || !pivot.is_finite() {
            return false;
        }
        if p != k {
            for c in k..r {
                a.swap(k * r + c, p * r + c);
            }
            b.swap(k, p);
        }
        for i in k + 1..r {
            let l = a[i * r + k] / pivot;
            if l != 0.0 {
                for c in k + 1..r {
                    a[i * r + c] -= l * a[k * r + c];
                }
                b[i] -= l * b[k];
            }
        }
    }
    for k in (0..r).rev() {
        let mut s = b[k];
        for c in k + 1..r {
            s -= a[k * r + c] * b[c];
        }
        b[k] = s / a[k * r + k];
    }
    b.iter().all(|v| v.is_finite())
}

/// Whether a solve takes price trials: they need the optimum's softmax
/// form, so mirror descent and an entropy term. Speedup curves are in
/// scope through their count prices ([`price_dim`]). Only such a solve
/// reads start prices.
pub(crate) fn takes_price_trials(params: &RelaxationParams, opts: &SolverOptions) -> bool {
    opts.projection == ProjectionKind::MirrorDescent && params.rho > 0.0
}

/// Guarded variant of [`solve_relaxed_from`]: `guard` is invoked after
/// every accepted iterate and may abort the solve with a typed error.
/// `prices` (in [`price_dim`] layout, e.g. a previous solve's
/// [`RelaxedSolution::prices`]) seed the price state; missing,
/// mis-sized or non-finite prices are replaced by the seed's fitted
/// prices (`0` for the uniform start, which is `x(0)`). A solve that
/// takes price trials starts from `x(θ₀)`, not from `x`.
///
/// The loop runs on a task-major (`N×M`) working copy of the iterate:
/// with tasks as rows, the gradient step and the per-task simplex
/// projection both read and write contiguous memory instead of striding
/// by `N`, and every buffer lives in the thread's [`PgdWorkspace`], so
/// no iteration or backtrack allocates and a solve of a shape the thread
/// has solved before allocates only its returned solution. `guard` must
/// not solve on the same thread: the workspace is borrowed for the whole
/// solve. The iterate is copied back to cluster-major once, at the end.
pub(crate) fn solve_relaxed_from_guarded(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    opts: &SolverOptions,
    x: Matrix,
    prices: Option<&[f64]>,
    guard: IterGuard<'_>,
) -> Result<RelaxedSolution, SolveError> {
    thread_local! {
        static PGD_WS: std::cell::RefCell<PgdWorkspace> =
            std::cell::RefCell::new(PgdWorkspace::default());
    }
    PGD_WS.with(|ws| {
        solve_in(
            problem,
            params,
            opts,
            x,
            prices,
            guard,
            &mut ws.borrow_mut(),
        )
    })
}

/// [`solve_relaxed_from_guarded`]'s loop on the buffers of `ws`.
fn solve_in(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    opts: &SolverOptions,
    mut x: Matrix,
    prices: Option<&[f64]>,
    guard: IterGuard<'_>,
    ws: &mut PgdWorkspace,
) -> Result<RelaxedSolution, SolveError> {
    let (m, n) = (problem.clusters(), problem.tasks());
    assert_eq!(x.shape(), (m, n), "x0 shape mismatch");
    if n == 0 || m == 0 {
        let objective = objective::value(problem, params, &x);
        return Ok(RelaxedSolution {
            x,
            objective,
            iterations: 0,
            stop: StopReason::Converged,
            residual: 0.0,
            prices: Vec::new(),
        });
    }
    let PgdWorkspace {
        xt,
        lx,
        stats,
        trial_xt,
        trial_lx,
        trial_stats,
        grad_t,
        col,
        proj,
        teval,
        price: pw,
    } = ws;
    teval.prepare(problem);
    for buf in [
        &mut *xt,
        &mut *lx,
        &mut *trial_xt,
        &mut *trial_lx,
        &mut *grad_t,
    ] {
        if buf.shape() != (n, m) {
            *buf = Matrix::zeros(n, m);
        }
    }
    col.clear();
    col.resize(m, 0.0);
    // Only mirror descent searches its step; the other projections keep
    // the fixed step `lr`.
    let line_search = opts.projection == ProjectionKind::MirrorDescent;
    let tries = if line_search { MAX_BACKTRACKS } else { 1 };
    // A price-path solve keeps the iterate at `x(θ)` and `pw.cov` its
    // covariance.
    let price_mode = takes_price_trials(params, opts);
    let start_prices = prices
        .filter(|p| price_mode && p.len() == price_dim(problem) && p.iter().all(|v| v.is_finite()));
    // The starting point's logs and sums, which the fit of its prices
    // and the mirror-only loop read (given prices need neither); from
    // here on every accepted trial carries its own.
    for i in 0..m {
        for (j, &v) in x.row(i).iter().enumerate() {
            xt[(j, i)] = v;
            if start_prices.is_none() {
                lx[(j, i)] = v.max(LOG_FLOOR).ln();
            }
        }
    }
    if start_prices.is_none() {
        stats.reset(m);
        for j in 0..n {
            stats.add_row(teval, j, xt.row(j), lx.row(j));
        }
    }
    if price_mode {
        pw.resize(price_dim(problem));
        match start_prices {
            Some(p) => pw.theta.copy_from_slice(p),
            None => fit_prices(problem, params, teval, xt, lx, stats, pw),
        }
        // Start from x(θ₀): the seed enters only through its prices.
        price_step(
            &pw.theta,
            params.rho,
            teval,
            xt,
            grad_t,
            trial_xt,
            trial_lx,
            trial_stats,
            col,
            (&mut pw.cov, &mut pw.mu),
        );
        std::mem::swap(xt, trial_xt);
        std::mem::swap(lx, trial_lx);
        std::mem::swap(stats, trial_stats);
    }
    let mut f = teval.value(problem, params, stats);
    let mut last_was_price = false;
    let mut eta = opts.lr;
    let mut iterations = 0;
    let mut counts = LoopCounts::default();
    let (stop, residual) = loop {
        teval.grad_into(problem, params, stats, lx, grad_t);
        let at_cap = iterations >= opts.max_iters;
        if at_cap || last_was_price || iterations.is_multiple_of(RESIDUAL_EVERY) {
            let residual = worst_residual(xt, grad_t);
            if residual < opts.tol {
                break (StopReason::Converged, residual);
            }
            if at_cap {
                break (StopReason::IterationCap, residual);
            }
        }
        // Price trials first; `Some(F)` once one is accepted.
        let mut accepted = None;
        let direction = if price_mode && f.is_finite() {
            newton_direction(problem, params, stats, pw)
        } else {
            None
        };
        if let Some(model_fallback) = direction {
            if model_fallback {
                counts.model_fallbacks += 1;
            }
            let mut s = 1.0;
            for _ in 0..PRICE_TRIALS {
                for ((t, &th), &d) in pw.trial_theta.iter_mut().zip(&pw.theta).zip(&pw.dir) {
                    *t = th + s * d;
                }
                let slope = price_step(
                    &pw.trial_theta,
                    params.rho,
                    teval,
                    xt,
                    grad_t,
                    trial_xt,
                    trial_lx,
                    trial_stats,
                    col,
                    (&mut pw.trial_cov, &mut pw.mu),
                );
                let f_trial = teval.value(problem, params, trial_stats);
                if price_accepts(f_trial, f, slope) {
                    std::mem::swap(&mut pw.theta, &mut pw.trial_theta);
                    std::mem::swap(&mut pw.cov, &mut pw.trial_cov);
                    accepted = Some(f_trial);
                    counts.price_steps += 1;
                    break;
                }
                counts.backtracks += 1;
                s *= 0.5;
            }
        }
        last_was_price = accepted.is_some();
        if accepted.is_none() {
            if price_mode {
                counts.mirror_fallbacks += 1;
                stats.prices_into(problem, params, &mut pw.theta_x);
            }
            for _ in 0..tries {
                let slope = trial_step(
                    opts.projection,
                    eta,
                    teval,
                    xt,
                    lx,
                    grad_t,
                    trial_xt,
                    trial_lx,
                    trial_stats,
                    col,
                    proj,
                );
                // A non-finite trial comes from a non-finite gradient,
                // which no smaller step repairs: take it and let the
                // guard decide.
                let f_trial = if trial_stats.is_finite() {
                    teval.value(problem, params, trial_stats)
                } else {
                    f64::NAN
                };
                if !line_search
                    || f_trial.is_nan()
                    || !f.is_finite()
                    || f_trial <= f + ARMIJO_C * slope
                {
                    accepted = Some(f_trial);
                    break;
                }
                counts.backtracks += 1;
                if -slope <= F_RESOLUTION * (1.0 + f.abs()) {
                    // Shorter steps only shrink a decrease that is
                    // already below the objective's rounding.
                    break;
                }
                eta *= STEP_SHRINK;
            }
            if accepted.is_some() && price_mode {
                // From x(θ) the mirror step lands on
                // x((1 − ηρ)θ + ηρ∇Φ(A·x)).
                let damp = eta * params.rho;
                for (t, &tx) in pw.theta.iter_mut().zip(&pw.theta_x) {
                    *t = (1.0 - damp) * *t + damp * tx;
                }
                covariance_into(teval, trial_xt, &mut pw.mu, &mut pw.cov);
            }
        }
        let Some(f_next) = accepted else {
            // No trial decreased F: stationary to numerical resolution.
            break (StopReason::NoDescent, worst_residual(xt, grad_t));
        };
        std::mem::swap(xt, trial_xt);
        std::mem::swap(lx, trial_lx);
        std::mem::swap(stats, trial_stats);
        f = f_next;
        if line_search && !last_was_price {
            eta *= STEP_GROW;
        }
        iterations += 1;
        // Strided flight-recorder markers: iteration 1 plus every 8th keep
        // the per-iteration cost a single branch while still showing PGD
        // progress (arg = iteration) on the trace timeline.
        if (iterations == 1 || iterations.is_multiple_of(8)) && mfcp_obs::trace::recording() {
            static PGD_ITER: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
            let id = *PGD_ITER.get_or_init(|| mfcp_obs::trace::intern("pgd.iter"));
            mfcp_obs::trace::instant_id(id, Some(iterations as u64));
        }
        guard(iterations, f)?;
    };
    for i in 0..m {
        for (j, slot) in x.row_mut(i).iter_mut().enumerate() {
            *slot = xt[(j, i)];
        }
    }
    record_stop(stop, residual, iterations, &counts);
    Ok(RelaxedSolution {
        x,
        objective: f,
        iterations,
        stop,
        residual,
        prices: if price_mode {
            pw.theta.clone()
        } else {
            Vec::new()
        },
    })
}

/// Euclidean projection of `v` onto the probability simplex
/// (Held–Wolfe–Crowder / sort-based algorithm).
///
/// Non-finite input is handled deterministically instead of poisoning the
/// sort-based path (where a NaN pivot silently corrupts `θ`):
///
/// * `NaN` and `-∞` entries carry no mass and project to `0`.
/// * If any entry is `+∞`, the unit mass is split uniformly over the
///   `+∞` entries and every other entry is `0`.
/// * If *no* entry is finite (and none is `+∞`), the result is the
///   uniform vector `1/n`.
pub fn project_simplex(v: &mut [f64]) {
    let mut scratch = Vec::new();
    project_simplex_with(v, &mut scratch);
}

/// [`project_simplex`] with a caller-owned scratch buffer for the sort
/// copy, so hot loops (the Euclidean PGD projection runs once per task
/// per iteration) stay allocation-free after warm-up. Identical
/// arithmetic to the allocating wrapper.
pub fn project_simplex_with(v: &mut [f64], scratch: &mut Vec<f64>) {
    let n = v.len();
    if n == 0 {
        return;
    }
    if v.iter().any(|x| !x.is_finite()) {
        let pos_inf = v.iter().filter(|x| **x == f64::INFINITY).count();
        if pos_inf > 0 {
            let share = 1.0 / pos_inf as f64;
            for vi in v.iter_mut() {
                *vi = if *vi == f64::INFINITY { share } else { 0.0 };
            }
            return;
        }
        let finite: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
        if finite.is_empty() {
            v.fill(1.0 / n as f64);
            return;
        }
        let mut projected = finite;
        project_simplex(&mut projected);
        let mut next = projected.into_iter();
        for vi in v.iter_mut() {
            *vi = if vi.is_finite() {
                next.next().expect("one projected value per finite entry")
            } else {
                0.0
            };
        }
        return;
    }
    scratch.clear();
    scratch.extend_from_slice(v);
    let u = &mut *scratch;
    // Unstable sort: never allocates, and under `total_cmp` equal keys
    // are bitwise-identical floats, so the sorted values — and therefore
    // θ — match the stable sort exactly.
    u.sort_unstable_by(|a, b| b.total_cmp(a));
    let mut css = 0.0;
    let mut theta = 0.0;
    for (k, &uk) in u.iter().enumerate() {
        css += uk;
        let t = (css - 1.0) / (k + 1) as f64;
        if uk - t > 0.0 {
            theta = t;
        }
    }
    for vi in v.iter_mut() {
        *vi = (*vi - theta).max(0.0);
    }
}

/// Checks that every column of `x` lies on the probability simplex within
/// `tol`.
pub fn is_column_stochastic(x: &Matrix, tol: f64) -> bool {
    for j in 0..x.cols() {
        let mut sum = 0.0;
        for i in 0..x.rows() {
            let v = x[(i, j)];
            if !(-tol..=1.0 + tol).contains(&v) {
                return false;
            }
            sum += v;
        }
        if (sum - 1.0).abs() > tol {
            return false;
        }
    }
    true
}

#[cfg(test)]
#[path = "../tests/support/lu.rs"]
mod reference_lu;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{BarrierKind, CostKind};
    use crate::speedup::SpeedupCurve;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Interior blend weight used by [`warm_init`].
    ///
    /// Kept tiny on purpose: the blend is itself a perturbation the solver
    /// must then contract below its stationarity tolerance, so a large blend
    /// caps the warm-start savings no matter how good the seed is (a 1e-3
    /// blend forces ~7 decades of geometric decay at tol 1e-10). 1e-9 is
    /// enough to keep every coordinate strictly positive — multiplicative
    /// mirror-descent updates recover a wrongly-collapsed coordinate from
    /// `1e-9/m` in a few dozen iterations — while a near-exact seed still
    /// stops almost immediately.
    const INTERIOR_BLEND: f64 = 1e-9;

    /// Blends a previous optimum toward the uniform interior point: the
    /// reference warm seed these tests start solves from.
    ///
    /// Mirror-descent updates are multiplicative, so an exact zero in the
    /// starting point stays zero forever; blending
    /// `(1 − τ)·x + τ·uniform` with `τ =` [`INTERIOR_BLEND`] keeps every
    /// coordinate strictly positive (and the columns exactly stochastic)
    /// while staying within `O(τ)` of the previous optimum.
    fn warm_init(x: &Matrix) -> Matrix {
        let (m, n) = x.shape();
        let u = 1.0 / m.max(1) as f64;
        Matrix::from_fn(m, n, |i, j| {
            (1.0 - INTERIOR_BLEND) * x[(i, j)] + INTERIOR_BLEND * u
        })
    }

    #[test]
    fn warm_init_is_interior_and_close() {
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let w = warm_init(&x);
        assert!(w.as_slice().iter().all(|&v| v > 0.0));
        assert!(is_column_stochastic(&w, 1e-12));
        for (a, b) in x.as_slice().iter().zip(w.as_slice()) {
            assert!((a - b).abs() < 2e-3);
        }
    }

    fn random_problem(seed: u64, m: usize, n: usize) -> MatchingProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.5..3.0));
        let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.7..1.0));
        MatchingProblem::new(t, a, 0.75)
    }

    #[test]
    fn project_simplex_known_cases() {
        let mut v = vec![0.5, 0.5];
        project_simplex(&mut v);
        assert!((v[0] - 0.5).abs() < 1e-12);

        let mut v = vec![2.0, 0.0];
        project_simplex(&mut v);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[1] - 0.0).abs() < 1e-12);

        let mut v = vec![0.3, 0.3, 0.3];
        project_simplex(&mut v);
        let sum: f64 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((v[0] - v[1]).abs() < 1e-12);
    }

    #[test]
    fn project_simplex_idempotent() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let mut v: Vec<f64> = (0..5).map(|_| rng.gen_range(-2.0..2.0)).collect();
            project_simplex(&mut v);
            let first = v.clone();
            project_simplex(&mut v);
            for (a, b) in v.iter().zip(&first) {
                assert!((a - b).abs() < 1e-12);
            }
            assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(v.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn project_simplex_nan_entries_get_no_mass() {
        let mut v = vec![f64::NAN, 2.0, f64::NAN, 0.0];
        project_simplex(&mut v);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[2], 0.0);
        assert!((v[1] - 1.0).abs() < 1e-12, "{v:?}");
        assert_eq!(v[3], 0.0);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn project_simplex_neg_infinity_gets_no_mass() {
        let mut v = vec![f64::NEG_INFINITY, 0.25, 0.25];
        project_simplex(&mut v);
        assert_eq!(v[0], 0.0);
        assert!((v[1] - 0.5).abs() < 1e-12, "{v:?}");
        assert!((v[2] - 0.5).abs() < 1e-12, "{v:?}");
    }

    #[test]
    fn project_simplex_pos_infinity_dominates() {
        let mut v = vec![1.0, f64::INFINITY, f64::INFINITY, f64::NAN];
        project_simplex(&mut v);
        assert_eq!(v, vec![0.0, 0.5, 0.5, 0.0]);
    }

    #[test]
    fn project_simplex_all_invalid_falls_back_to_uniform() {
        let mut v = vec![f64::NAN, f64::NEG_INFINITY, f64::NAN, f64::NAN];
        project_simplex(&mut v);
        assert_eq!(v, vec![0.25; 4]);
    }

    #[test]
    fn project_simplex_nonfinite_result_is_idempotent() {
        for case in [
            vec![f64::NAN, 3.0, -1.0],
            vec![f64::INFINITY, 0.0, f64::NAN],
            vec![f64::NAN, f64::NAN],
        ] {
            let mut v = case;
            project_simplex(&mut v);
            let first = v.clone();
            project_simplex(&mut v);
            assert_eq!(v, first);
            assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(v.iter().all(|&x| x.is_finite() && x >= 0.0));
        }
    }

    #[test]
    fn solver_stays_on_simplex_all_projections() {
        let problem = random_problem(1, 3, 6);
        let params = RelaxationParams::default();
        for proj in [
            ProjectionKind::MirrorDescent,
            ProjectionKind::SoftmaxPaper,
            ProjectionKind::Euclidean,
        ] {
            let opts = SolverOptions {
                projection: proj,
                max_iters: 150,
                ..Default::default()
            };
            let sol = solve_relaxed(&problem, &params, &opts);
            assert!(
                is_column_stochastic(&sol.x, 1e-6),
                "projection {proj:?} left the simplex"
            );
            assert!(sol.objective.is_finite());
        }
    }

    #[test]
    fn solver_decreases_objective() {
        let problem = random_problem(2, 3, 8);
        let params = RelaxationParams::default();
        let opts = SolverOptions::default();
        let x0 = uniform_init(3, 8);
        let initial = objective::value(&problem, &params, &x0);
        let sol = solve_relaxed(&problem, &params, &opts);
        assert!(
            sol.objective < initial,
            "objective should improve: {initial} -> {}",
            sol.objective
        );
    }

    #[test]
    fn solver_matches_obvious_optimum() {
        // One task, two clusters; cluster 1 is strictly faster and equally
        // reliable — all mass should end up there.
        let t = Matrix::from_rows(&[&[5.0], &[1.0]]);
        let a = Matrix::from_rows(&[&[0.9], &[0.9]]);
        let problem = MatchingProblem::new(t, a, 0.5);
        let params = RelaxationParams {
            beta: 10.0,
            rho: 0.005,
            ..Default::default()
        };
        let sol = solve_relaxed(&problem, &params, &SolverOptions::default());
        // The *relaxed* optimum splits the task to balance 5·x₀ ≈ 1·x₁
        // (fractional assignment lowers the relaxed makespan); the fast
        // cluster must still carry the dominant share so rounding picks it.
        assert!(
            sol.x[(1, 0)] > sol.x[(0, 0)],
            "fast cluster should dominate, got {:?}",
            sol.x
        );
        // Relaxed cluster times must be closer than the raw 5:1 ratio —
        // the split trades off smooth-max balance against the entropy term.
        let (t0, t1) = (5.0 * sol.x[(0, 0)], sol.x[(1, 0)]);
        assert!(
            (t0 - t1).abs() < 0.5,
            "relaxed optimum should roughly balance cluster times, got {t0} vs {t1}"
        );
        let rounded = crate::rounding::round_argmax(&sol.x);
        assert_eq!(rounded.cluster_of, vec![1]);
    }

    #[test]
    fn solver_balances_identical_clusters() {
        // Identical clusters: by symmetry the smoothed makespan+entropy
        // optimum splits tasks evenly.
        let t = Matrix::filled(2, 4, 1.0);
        let a = Matrix::filled(2, 4, 0.9);
        let problem = MatchingProblem::new(t, a, 0.5);
        let params = RelaxationParams::default();
        let sol = solve_relaxed(&problem, &params, &SolverOptions::default());
        for j in 0..4 {
            assert!((sol.x[(0, j)] - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn barrier_steers_toward_reliable_cluster() {
        // Cluster 0 is faster but unreliable; with a binding reliability
        // threshold the solution must shift mass to cluster 1.
        let t = Matrix::from_rows(&[&[1.0, 1.0], &[1.6, 1.6]]);
        let a = Matrix::from_rows(&[&[0.60, 0.60], &[0.99, 0.99]]);
        let loose = MatchingProblem::new(t.clone(), a.clone(), 0.10);
        let tight = MatchingProblem::new(t, a, 0.90);
        let params = RelaxationParams {
            lambda: 0.08,
            ..Default::default()
        };
        let opts = SolverOptions::default();
        let sol_loose = solve_relaxed(&loose, &params, &opts);
        let sol_tight = solve_relaxed(&tight, &params, &opts);
        let mass1_loose: f64 = (0..2).map(|j| sol_loose.x[(1, j)]).sum();
        let mass1_tight: f64 = (0..2).map(|j| sol_tight.x[(1, j)]).sum();
        assert!(
            mass1_tight > mass1_loose + 0.2,
            "tight constraint should shift mass to the reliable cluster: {mass1_loose} vs {mass1_tight}"
        );
        let slack = objective::reliability_slack(&tight, &sol_tight.x);
        assert!(
            slack > -0.02,
            "solution should be near-feasible, slack={slack}"
        );
    }

    #[test]
    fn theorem4_linear_convergence_in_convex_case() {
        // With SpeedupCurve::None the objective is convex; mirror descent
        // distance-to-solution should shrink geometrically. We verify the
        // objective gap decreases monotonically and collapses (the Armijo
        // step makes every trajectory monotone, at any first step).
        let problem = random_problem(7, 3, 5);
        let params = RelaxationParams::default();
        let mut gaps = Vec::new();
        let final_sol = solve_relaxed(
            &problem,
            &params,
            &SolverOptions {
                max_iters: 2000,
                tol: 0.0,
                ..Default::default()
            },
        );
        for iters in [10, 40, 160, 640] {
            let sol = solve_relaxed(
                &problem,
                &params,
                &SolverOptions {
                    max_iters: iters,
                    tol: 0.0,
                    ..Default::default()
                },
            );
            gaps.push(sol.objective - final_sol.objective);
        }
        for w in gaps.windows(2) {
            assert!(w[1] <= w[0] + 1e-10, "gap must shrink: {gaps:?}");
        }
        assert!(gaps.last().unwrap().abs() < 1e-6, "gaps: {gaps:?}");
    }

    #[test]
    fn nonconvex_parallel_case_still_solves() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = Matrix::from_fn(3, 8, |_, _| rng.gen_range(0.5..3.0));
        let a = Matrix::from_fn(3, 8, |_, _| rng.gen_range(0.7..1.0));
        let problem =
            MatchingProblem::with_speedup(t, a, 0.75, vec![SpeedupCurve::paper_parallel(); 3]);
        let params = RelaxationParams::default();
        let x0 = uniform_init(3, 8);
        let initial = objective::value(&problem, &params, &x0);
        let sol = solve_relaxed(&problem, &params, &SolverOptions::default());
        assert!(sol.objective < initial);
        assert!(is_column_stochastic(&sol.x, 1e-6));
    }

    #[test]
    fn linear_cost_piles_everything_on_cheapest() {
        // With the linear-sum ablation and no barrier, each task just goes
        // to its fastest cluster — exactly the imbalance the paper warns
        // about.
        let t = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]]);
        let a = Matrix::filled(2, 3, 0.9);
        let problem = MatchingProblem::new(t, a, 0.1);
        let params = RelaxationParams {
            cost: CostKind::LinearSum,
            barrier: BarrierKind::None,
            rho: 0.001,
            ..Default::default()
        };
        let sol = solve_relaxed(&problem, &params, &SolverOptions::default());
        for j in 0..3 {
            assert!(
                sol.x[(0, j)] > 0.9,
                "task {j} should sit on the fast cluster"
            );
        }
    }

    #[test]
    fn empty_problem() {
        let problem = MatchingProblem::new(Matrix::zeros(2, 0), Matrix::zeros(2, 0), 0.5);
        let sol = solve_relaxed(
            &problem,
            &RelaxationParams::default(),
            &SolverOptions::default(),
        );
        assert!(sol.converged());
        assert_eq!(sol.x.shape(), (2, 0));
    }

    /// The pre-transposition cluster-major fixed-step PGD loop, kept as
    /// the bitwise oracle for the `SoftmaxPaper` and `Euclidean` arms of
    /// [`solve_relaxed_from_guarded`]. Runs exactly `max_iters` steps.
    fn fixed_step_reference(
        problem: &MatchingProblem,
        params: &RelaxationParams,
        opts: &SolverOptions,
        mut x: Matrix,
    ) -> Matrix {
        let (m, n) = (problem.clusters(), problem.tasks());
        let mut col = vec![0.0; m];
        for _ in 0..opts.max_iters {
            let grad = objective::grad_x(problem, params, &x);
            for j in 0..n {
                for (i, c) in col.iter_mut().enumerate() {
                    *c = x[(i, j)] - opts.lr * grad[(i, j)];
                }
                match opts.projection {
                    ProjectionKind::SoftmaxPaper => vector::softmax_inplace(&mut col),
                    ProjectionKind::Euclidean => project_simplex(&mut col),
                    ProjectionKind::MirrorDescent => unreachable!("see armijo_reference"),
                }
                for (i, &c) in col.iter().enumerate() {
                    x[(i, j)] = c;
                }
            }
        }
        x
    }

    /// Plain cluster-major reference for the mirror-descent arm: the same
    /// step policy and stop rule as [`solve_relaxed_from_guarded`], but
    /// re-evaluating `objective::value` and `grad_x` from scratch on
    /// every trial and taking every log with `ln` directly.
    fn armijo_reference(
        problem: &MatchingProblem,
        params: &RelaxationParams,
        opts: &SolverOptions,
        mut x: Matrix,
    ) -> RelaxedSolution {
        let (m, n) = (problem.clusters(), problem.tasks());
        let residual_of = |x: &Matrix, g: &Matrix| {
            (0..n).fold(0.0, |acc, j| {
                let xc: Vec<f64> = (0..m).map(|i| x[(i, j)]).collect();
                let gc: Vec<f64> = (0..m).map(|i| g[(i, j)]).collect();
                nan_max(acc, stationarity_residual(&xc, &gc))
            })
        };
        let mut f = objective::value(problem, params, &x);
        let mut eta = opts.lr;
        let mut iterations = 0;
        let mut col = vec![0.0; m];
        let (stop, residual) = loop {
            let grad = objective::grad_x(problem, params, &x);
            if iterations >= opts.max_iters || iterations % RESIDUAL_EVERY == 0 {
                let r = residual_of(&x, &grad);
                if r < opts.tol {
                    break (StopReason::Converged, r);
                }
                if iterations >= opts.max_iters {
                    break (StopReason::IterationCap, r);
                }
            }
            let mut next = None;
            for _ in 0..MAX_BACKTRACKS {
                let mut trial = x.clone();
                for j in 0..n {
                    for (i, c) in col.iter_mut().enumerate() {
                        *c = x[(i, j)].max(LOG_FLOOR).ln() - eta * grad[(i, j)];
                    }
                    vector::softmax_inplace(&mut col);
                    for (i, &c) in col.iter().enumerate() {
                        trial[(i, j)] = c;
                    }
                }
                let slope: f64 = (0..m)
                    .flat_map(|i| (0..n).map(move |j| (i, j)))
                    .map(|(i, j)| grad[(i, j)] * (trial[(i, j)] - x[(i, j)]))
                    .sum();
                let f_trial = objective::value(problem, params, &trial);
                if f_trial <= f + ARMIJO_C * slope {
                    next = Some((trial, f_trial));
                    break;
                }
                eta *= STEP_SHRINK;
            }
            let Some((trial, f_trial)) = next else {
                break (StopReason::NoDescent, residual_of(&x, &grad));
            };
            x = trial;
            f = f_trial;
            eta *= STEP_GROW;
            iterations += 1;
        };
        RelaxedSolution {
            x,
            objective: f,
            iterations,
            stop,
            residual,
            prices: Vec::new(),
        }
    }

    /// `max |a − b|` over two same-shape matrices.
    fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// The features `f_ij` of task `j` on cluster `i`, in price layout.
    fn features(problem: &MatchingProblem, i: usize, j: usize) -> Vec<f64> {
        let m = problem.clusters();
        let mut f = vec![0.0; price_dim(problem)];
        f[i] = problem.times[(i, j)];
        f[m] = problem.reliability[(i, j)];
        if let Some(cap) = &problem.capacity {
            f[m + 1 + i] = cap.usage[(i, j)];
        }
        if let Some(c) = objective::count_slots(problem) {
            f[c + i] = 1.0;
        }
        f
    }

    /// `x(θ)`: each task's softmax of `−θ·f_ij/ρ`, cluster-major.
    fn price_point(problem: &MatchingProblem, rho: f64, theta: &[f64]) -> Matrix {
        let (m, n) = (problem.clusters(), problem.tasks());
        let mut x = Matrix::zeros(m, n);
        for j in 0..n {
            let mut col: Vec<f64> = (0..m)
                .map(|i| -vector::dot(theta, &features(problem, i, j)) / rho)
                .collect();
            vector::softmax_inplace(&mut col);
            for (i, &c) in col.iter().enumerate() {
                x[(i, j)] = c;
            }
        }
        x
    }

    /// `∇Φ(A·x)` in price layout, from the cluster-major definitions:
    /// `w_i·ζ_i` per load, the reliability and capacity barriers'
    /// slopes, and `w_i·ζ_i'·ℓ_i` per count.
    fn reference_prices(
        problem: &MatchingProblem,
        params: &RelaxationParams,
        x: &Matrix,
    ) -> Vec<f64> {
        let m = problem.clusters();
        let stats = objective::cluster_stats(problem, params, x);
        let curve = |i: usize| problem.speedup[i];
        let mut theta: Vec<f64> = (0..m)
            .map(|i| stats.weights[i] * curve(i).eval(stats.count[i]))
            .collect();
        let g = objective::reliability_slack(problem, x);
        theta.push(objective::barrier_derivative(params, g) / problem.tasks() as f64);
        if let Some(cap) = &problem.capacity {
            for i in 0..m {
                theta.push(-objective::barrier_derivative(params, cap.slack(x, i)) / cap.limits[i]);
            }
        }
        if objective::count_slots(problem).is_some() {
            theta.extend(
                (0..m).map(|i| {
                    stats.weights[i] * curve(i).derivative(stats.count[i]) * stats.load[i]
                }),
            );
        }
        theta
    }

    /// The Newton direction at `x = x(θ)`, formed densely: the centered
    /// covariance `C = Σ_j Σ_i x_ij (f_ij − μ_j)(f_ij − μ_j)ᵀ`, the
    /// Hessian model `H_Φ` — the smooth max's `β(diag w − wwᵀ)` carried
    /// through the `M×r` Jacobian `J` of the adjusted times
    /// `s_i = ζ_i(n_i)·ℓ_i` (`ζ_i` on load slot `i`, `ζ_i'ℓ_i` on count
    /// slot `i`) as `β·Jᵀ(diag w − wwᵀ)J`, plus the barriers' curvature —
    /// and `(I + H_Φ·C/ρ)·d = −(θ − ∇Φ(A·x))` by LU. With speedup curves
    /// the exact Hessian, the model plus `Σ_i w_i ∇²s_i` (the 2×2 block
    /// `[[ζ_i''ℓ_i, ζ_i'], [ζ_i', 0]]` on count and load slot `i`), goes
    /// first, and its direction is kept when `(θ − θ_x)ᵀ·C·d < 0`.
    fn reference_direction(
        problem: &MatchingProblem,
        params: &RelaxationParams,
        x: &Matrix,
        theta: &[f64],
    ) -> Option<(Vec<f64>, Direction)> {
        let (m, n, r) = (problem.clusters(), problem.tasks(), price_dim(problem));
        let mut c = Matrix::zeros(r, r);
        for j in 0..n {
            let mut mu = vec![0.0; r];
            for i in 0..m {
                vector::axpy(x[(i, j)], &features(problem, i, j), &mut mu);
            }
            for i in 0..m {
                let f = features(problem, i, j);
                for a in 0..r {
                    for b in 0..r {
                        c[(a, b)] += x[(i, j)] * (f[a] - mu[a]) * (f[b] - mu[b]);
                    }
                }
            }
        }
        let theta_x = reference_prices(problem, params, x);
        let stats = objective::cluster_stats(problem, params, x);
        let w = &stats.weights;
        let mut jac = Matrix::zeros(m, r);
        for i in 0..m {
            let curve = problem.speedup[i];
            jac[(i, i)] = curve.eval(stats.count[i]);
            if let Some(c) = objective::count_slots(problem) {
                jac[(i, c + i)] = curve.derivative(stats.count[i]) * stats.load[i];
            }
        }
        let softmax_hess = Matrix::from_fn(m, m, |a, b| {
            params.beta * (if a == b { w[a] } else { 0.0 } - w[a] * w[b])
        });
        let mut h = jac
            .transpose()
            .matmul(&softmax_hess)
            .and_then(|jh| jh.matmul(&jac))
            .expect("r×r");
        let nf = n as f64;
        h[(m, m)] = objective::barrier_curvature(params, objective::reliability_slack(problem, x))
            / (nf * nf);
        if let Some(cap) = &problem.capacity {
            for i in 0..m {
                let l = cap.limits[i];
                h[(m + 1 + i, m + 1 + i)] =
                    objective::barrier_curvature(params, cap.slack(x, i)) / (l * l);
            }
        }
        let rhs: Vec<f64> = (0..r).map(|a| theta_x[a] - theta[a]).collect();
        let newton = |h: &Matrix| {
            let hc = h.matmul(&c).expect("r×r");
            let sys = Matrix::from_fn(r, r, |a, b| {
                hc[(a, b)] / params.rho + if a == b { 1.0 } else { 0.0 }
            });
            super::reference_lu::lu_solve(&sys, &rhs)
        };
        if let Some(k0) = objective::count_slots(problem) {
            let mut exact = h.clone();
            for i in 0..m {
                let (curve, count, k) = (problem.speedup[i], stats.count[i], k0 + i);
                exact[(i, k)] += w[i] * curve.derivative(count);
                exact[(k, i)] += w[i] * curve.derivative(count);
                exact[(k, k)] += w[i] * curve.second_derivative(count) * stats.load[i];
            }
            if let Some(d) = newton(&exact) {
                let cd = c.matvec(&d).expect("r");
                if vector::dot(&rhs, &cd) > 0.0 {
                    return Some((d, Direction::Exact));
                }
            }
            return newton(&h).map(|d| (d, Direction::ModelFallback));
        }
        newton(&h).map(|d| (d, Direction::Model))
    }

    /// Which Hessian a [`reference_direction`] came from.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Direction {
        /// The semidefinite model, on an instance without speedup curves.
        Model,
        /// The exact Hessian, whose direction descends.
        Exact,
        /// The model, after the exact Hessian's direction did not descend.
        ModelFallback,
    }

    /// The seed's fitted prices, densely: the centered covariance `C`
    /// and `Σ_j Cov(f_j, ln x_j)` over the non-uniform columns (all of
    /// them when every column is uniform), the ridge toward `∇Φ(A·x)`,
    /// and LU.
    fn reference_fit(problem: &MatchingProblem, params: &RelaxationParams, x: &Matrix) -> Vec<f64> {
        let (m, n, r) = (problem.clusters(), problem.tasks(), price_dim(problem));
        let (mut c, mut b) = (Matrix::zeros(r, r), vec![0.0; r]);
        let uniform = |j: usize| (0..m).all(|i| x[(i, j)] == x[(0, j)]);
        let skip_uniform = !(0..n).all(uniform);
        for j in (0..n).filter(|&j| !(skip_uniform && uniform(j))) {
            let mut mu = vec![0.0; r];
            let mut mean_ln = 0.0;
            for i in 0..m {
                vector::axpy(x[(i, j)], &features(problem, i, j), &mut mu);
                mean_ln += x[(i, j)] * x[(i, j)].max(LOG_FLOOR).ln();
            }
            for i in 0..m {
                let (f, xi) = (features(problem, i, j), x[(i, j)]);
                let dl = xi.max(LOG_FLOOR).ln() - mean_ln;
                for a in 0..r {
                    b[a] += xi * (f[a] - mu[a]) * dl;
                    for bb in 0..r {
                        c[(a, bb)] += xi * (f[a] - mu[a]) * (f[bb] - mu[bb]);
                    }
                }
            }
        }
        let prior = reference_prices(problem, params, x);
        let ridge = 1e-10 * (0..r).map(|a| c[(a, a)]).fold(0.0, f64::max);
        for a in 0..r {
            c[(a, a)] += ridge;
            b[a] = -params.rho * b[a] + ridge * prior[a];
        }
        super::reference_lu::lu_solve(&c, &b).unwrap_or(prior)
    }

    /// One accepted iterate of [`price_newton_reference`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum RefStep {
        Price,
        Mirror,
    }

    /// A run of [`price_newton_reference`].
    struct RefRun {
        sol: RelaxedSolution,
        /// The objective after every accepted iterate.
        trace: Vec<f64>,
        /// Which kind of step produced each accepted iterate.
        steps: Vec<RefStep>,
        /// The cluster counts `n_i` of the start and of every accepted
        /// iterate.
        counts: Vec<Vec<f64>>,
        /// Which Hessian each Newton direction came from.
        directions: Vec<Direction>,
    }

    /// Plain cluster-major reference for the price trials of the mirror
    /// loop: the same start, trial order, step policy and stop rule as
    /// [`solve_relaxed_from_guarded`] at `ρ > 0`, but forming `C`, `H_Φ`
    /// and the `r×r` solve densely and re-evaluating `objective::value`
    /// and `grad_x` from scratch on every trial.
    fn price_newton_reference(
        problem: &MatchingProblem,
        params: &RelaxationParams,
        opts: &SolverOptions,
        x0: &Matrix,
        prices: Option<&[f64]>,
    ) -> RefRun {
        let (m, n) = (problem.clusters(), problem.tasks());
        let residual_of = |x: &Matrix, g: &Matrix| {
            (0..n).fold(0.0, |acc, j| {
                let xc: Vec<f64> = (0..m).map(|i| x[(i, j)]).collect();
                let gc: Vec<f64> = (0..m).map(|i| g[(i, j)]).collect();
                nan_max(acc, stationarity_residual(&xc, &gc))
            })
        };
        let mut theta = match prices {
            Some(p) => p.to_vec(),
            None => reference_fit(problem, params, x0),
        };
        let mut x = price_point(problem, params.rho, &theta);
        let mut f = objective::value(problem, params, &x);
        let (mut eta, mut iterations, mut last_was_price) = (opts.lr, 0, false);
        let (mut trace, mut steps) = (Vec::new(), Vec::new());
        let counts_of = |x: &Matrix| objective::cluster_stats(problem, params, x).count;
        let mut counts = vec![counts_of(&x)];
        let mut directions = Vec::new();
        let slope_of = |grad: &Matrix, trial: &Matrix, x: &Matrix| -> f64 {
            (0..m)
                .flat_map(|i| (0..n).map(move |j| (i, j)))
                .map(|(i, j)| grad[(i, j)] * (trial[(i, j)] - x[(i, j)]))
                .sum()
        };
        let (stop, residual) = loop {
            let grad = objective::grad_x(problem, params, &x);
            let at_cap = iterations >= opts.max_iters;
            if at_cap || last_was_price || iterations % RESIDUAL_EVERY == 0 {
                let r = residual_of(&x, &grad);
                if r < opts.tol {
                    break (StopReason::Converged, r);
                }
                if at_cap {
                    break (StopReason::IterationCap, r);
                }
            }
            let mut next = None;
            if let Some((d, kind)) = reference_direction(problem, params, &x, &theta) {
                directions.push(kind);
                let mut s = 1.0;
                for _ in 0..PRICE_TRIALS {
                    let t: Vec<f64> = theta.iter().zip(&d).map(|(th, di)| th + s * di).collect();
                    let trial = price_point(problem, params.rho, &t);
                    let f_trial = objective::value(problem, params, &trial);
                    if f_trial <= f + ARMIJO_C * slope_of(&grad, &trial, &x).min(0.0) {
                        next = Some((trial, f_trial, t, RefStep::Price));
                        break;
                    }
                    s *= 0.5;
                }
            }
            if next.is_none() {
                let theta_x = reference_prices(problem, params, &x);
                for _ in 0..MAX_BACKTRACKS {
                    let mut trial = x.clone();
                    for j in 0..n {
                        let mut col: Vec<f64> = (0..m)
                            .map(|i| x[(i, j)].max(LOG_FLOOR).ln() - eta * grad[(i, j)])
                            .collect();
                        vector::softmax_inplace(&mut col);
                        for (i, &c) in col.iter().enumerate() {
                            trial[(i, j)] = c;
                        }
                    }
                    let slope = slope_of(&grad, &trial, &x);
                    let f_trial = objective::value(problem, params, &trial);
                    if f_trial <= f + ARMIJO_C * slope {
                        let damp = eta * params.rho;
                        let t = theta
                            .iter()
                            .zip(&theta_x)
                            .map(|(th, tx)| (1.0 - damp) * th + damp * tx)
                            .collect();
                        next = Some((trial, f_trial, t, RefStep::Mirror));
                        break;
                    }
                    if -slope <= F_RESOLUTION * (1.0 + f.abs()) {
                        break;
                    }
                    eta *= STEP_SHRINK;
                }
            }
            let Some((trial, f_trial, t, kind)) = next else {
                break (StopReason::NoDescent, residual_of(&x, &grad));
            };
            x = trial;
            f = f_trial;
            theta = t;
            last_was_price = kind == RefStep::Price;
            if !last_was_price {
                eta *= STEP_GROW;
            }
            iterations += 1;
            trace.push(f);
            steps.push(kind);
            counts.push(counts_of(&x));
        };
        let sol = RelaxedSolution {
            x,
            objective: f,
            iterations,
            stop,
            residual,
            prices: theta,
        };
        RefRun {
            sol,
            trace,
            steps,
            counts,
            directions,
        }
    }

    /// Mirror-only instances (speedup curves: no price trials) for
    /// [`armijo_reference`], with and without capacity constraints.
    fn parallel_reference_problems() -> Vec<MatchingProblem> {
        reference_problems(&[(22, true, false), (24, true, true)])
    }

    /// Trivial-speedup instances for [`price_newton_reference`].
    fn price_reference_problems() -> Vec<MatchingProblem> {
        reference_problems(&[(21, false, false), (23, false, true)])
    }

    fn reference_problems(cases: &[(u64, bool, bool)]) -> Vec<MatchingProblem> {
        use crate::problem::CapacityConstraint;
        cases
            .iter()
            .map(|&(seed, parallel, with_cap)| {
                let mut problem = random_problem(seed, 3, 6);
                if parallel {
                    problem.speedup = vec![SpeedupCurve::paper_parallel(); 3];
                }
                if with_cap {
                    let mut rng = StdRng::seed_from_u64(seed + 50);
                    problem.capacity = Some(CapacityConstraint {
                        usage: Matrix::from_fn(3, 6, |_, _| rng.gen_range(0.1..1.0)),
                        limits: vec![4.0, 5.0, 6.0],
                    });
                }
                problem
            })
            .collect()
    }

    #[test]
    fn transposed_fixed_step_solver_is_bitwise_identical() {
        let params = RelaxationParams::default();
        let problems = [price_reference_problems(), parallel_reference_problems()].concat();
        for (k, problem) in problems.iter().enumerate() {
            for proj in [ProjectionKind::SoftmaxPaper, ProjectionKind::Euclidean] {
                // tol = 0 runs both loops for exactly `max_iters` steps.
                let opts = SolverOptions {
                    projection: proj,
                    max_iters: 120,
                    tol: 0.0,
                    ..Default::default()
                };
                let x0 = uniform_init(3, 6);
                let reference = fixed_step_reference(problem, &params, &opts, x0.clone());
                let sol = solve_relaxed_from(problem, &params, &opts, x0);
                assert_eq!(sol.iterations, 120, "{proj:?} problem {k}");
                for (idx, (a, b)) in sol
                    .x
                    .as_slice()
                    .iter()
                    .zip(reference.as_slice())
                    .enumerate()
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{proj:?} problem {k} entry {idx}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// The fused mirror-descent loop against [`armijo_reference`], at
    /// `ρ = 0`, where the loop takes no price trials (with and without
    /// speedup curves and capacity constraints).
    ///
    /// The two differ only in rounding: the fused loop sums the entropy
    /// task-major (the reference sums it cluster-major) and takes
    /// `ln x⁺` as `(c − c_max) − ln Σ exp(·)` rather than `ln(x⁺)`; each
    /// is a few ulps per entry per step. At `tol = 1e-5` the solves stop
    /// while every Armijo decision is decided by a margin far above that
    /// rounding, so both take the same accept/reject path and the same
    /// iteration count, and the iterates agree to 1e-10 and the
    /// objectives to 1e-12.
    #[test]
    fn fused_mirror_descent_matches_armijo_reference() {
        let params = RelaxationParams {
            rho: 0.0,
            ..Default::default()
        };
        let problems = [price_reference_problems(), parallel_reference_problems()].concat();
        for (k, problem) in problems.iter().enumerate() {
            let opts = SolverOptions {
                tol: 1e-5,
                max_iters: 5000,
                ..Default::default()
            };
            let x0 = uniform_init(3, 6);
            let reference = armijo_reference(problem, &params, &opts, x0.clone());
            let sol = solve_relaxed_from(problem, &params, &opts, x0);
            assert_eq!(reference.stop, StopReason::Converged, "problem {k}");
            assert_eq!(sol.stop, reference.stop, "problem {k}");
            assert_eq!(sol.iterations, reference.iterations, "problem {k}");
            let dx = max_abs_diff(&sol.x, &reference.x);
            assert!(dx <= 1e-10, "problem {k}: max |Δx| = {dx:e}");
            assert!(
                (sol.objective - reference.objective).abs() <= 1e-12,
                "problem {k}: {} vs {}",
                sol.objective,
                reference.objective
            );
            assert!((sol.residual - reference.residual).abs() <= 1e-9);
        }
    }

    /// A solve's objective after every accepted iterate,
    /// through the guard.
    fn fused_trace(
        problem: &MatchingProblem,
        params: &RelaxationParams,
        opts: &SolverOptions,
        x0: Matrix,
        prices: Option<&[f64]>,
    ) -> (RelaxedSolution, Vec<f64>) {
        let mut trace = Vec::new();
        let mut guard = |_: usize, f: f64| {
            trace.push(f);
            Ok(())
        };
        let sol = solve_relaxed_from_guarded(problem, params, opts, x0, prices, &mut guard)
            .expect("no-fail guard");
        (sol, trace)
    }

    /// The property that lets a caller hand prices to
    /// [`crate::RobustSolver::solve`] with a placeholder iterate: a
    /// price-trial solve given admissible start prices begins at
    /// `x(θ₀)`, so its seed matrix — uniform, blended by
    /// [`warm_init`], or any column-stochastic `x` — never
    /// reaches a single bit of the result or the iterate trace.
    #[test]
    fn start_prices_make_the_seed_matrix_irrelevant() {
        let params = RelaxationParams::default();
        let opts = SolverOptions::default();
        let problems = [price_reference_problems(), parallel_reference_problems()].concat();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for (k, problem) in problems.iter().enumerate() {
            let (m, n) = problem.times.shape();
            // Admissible start prices: a drifted neighbour's optimum.
            let neighbour = problem.with_time_row(0, &vec![1.3; n]);
            let prices = solve_relaxed(&neighbour, &params, &opts).prices;
            assert_eq!(prices.len(), price_dim(problem), "problem {k}");
            assert!(crate::learned::prices_admissible(&prices));
            let mut random = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.0..1.0));
            for j in 0..n {
                let sum: f64 = (0..m).map(|i| random[(i, j)]).sum();
                for i in 0..m {
                    random[(i, j)] /= sum;
                }
            }
            let seeds = [uniform_init(m, n), warm_init(&uniform_init(m, n)), random];
            let runs: Vec<_> = seeds
                .into_iter()
                .map(|x0| fused_trace(problem, &params, &opts, x0, Some(&prices)))
                .collect();
            for (s, (sol, trace)) in runs.iter().enumerate().skip(1) {
                let (base, base_trace) = &runs[0];
                assert_eq!(sol.iterations, base.iterations, "problem {k} seed {s}");
                assert_eq!(bits(trace), bits(base_trace), "problem {k} seed {s}");
                assert_eq!(bits(sol.x.as_slice()), bits(base.x.as_slice()));
                assert_eq!(sol.objective.to_bits(), base.objective.to_bits());
                assert_eq!(bits(&sol.prices), bits(&base.prices));
            }
        }
    }

    /// The fused loop's price trials against [`price_newton_reference`],
    /// from the uniform start, a neighbour's optimum without prices
    /// (fitted prices) and the neighbour's prices, on trivial-speedup
    /// instances and on instances with the paper's speedup curve (count
    /// slots, the exact Hessian with the model as its fallback, both
    /// taken), one of whose paths crosses the `ζ'` jump at `n = 1`.
    ///
    /// The two differ only in rounding: the fused sweep sums the entropy
    /// and the covariances task-major, takes `ln x⁺` by the log-softmax
    /// identity, accumulates `C` uncentered (`Σ x f fᵀ − μμᵀ`, which
    /// loses at most `ε·t²` per task against the reference's centered
    /// sum), forms `H_Φ` from the prices where the reference forms
    /// `β·Jᵀ(diag w − wwᵀ)J`, and solves the `r×r` systems by its own
    /// elimination where the reference uses LU. Each is a few ulps per
    /// entry per step, and the Newton systems are well conditioned
    /// (`I + H_Φ·C/ρ` has eigenvalues ≥ 1 for the model; an exact system
    /// is kept only when its direction descends, far from the sign
    /// flip). Measured on these cases the
    /// final iterates agree to ≤ 1.3e-13 and the per-iterate objectives
    /// to ≤ 3e-11 relative (the largest gaps come from trials near a
    /// vertex, whose many tiny floored entropy terms are summed in
    /// different orders).
    /// At `tol = 1e-5` every accept/reject decision is decided by a
    /// margin far above that, so both take the same path — equal
    /// objective traces pin which trial each iterate came from — and
    /// the same stop; the tolerances below are 1e-12 on the iterate and
    /// 1e-10 (relative) on the objectives.
    #[test]
    fn fused_price_trials_match_dense_reference() {
        let params = RelaxationParams::default();
        let opts = SolverOptions {
            tol: 1e-5,
            ..Default::default()
        };
        let mut problems = [price_reference_problems(), parallel_reference_problems()].concat();
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(500 + seed);
            problems.push(platform_problem(&mut rng, 3, 8));
        }
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(520 + seed);
            problems.push(with_paper_curves(platform_problem(&mut rng, 3, 8)));
        }
        let kink = problems.len();
        problems.push(kink_problem());
        let (mut price_steps, mut mirror_steps, mut curve_price_steps) = (0, 0, 0);
        let (mut exact, mut model_fallbacks) = (0, 0);
        for (k, problem) in problems.iter().enumerate() {
            let (m, n) = (problem.clusters(), problem.tasks());
            let uniform = uniform_init(m, n);
            let neighbour = solve_relaxed(&problem.with_time_row(0, &vec![1.5; n]), &params, &opts);
            let seeded = warm_init(&neighbour.x);
            for (start, x0, prices) in [
                ("uniform", &uniform, None),
                ("seed", &seeded, None),
                ("prices", &uniform, Some(&neighbour.prices[..])),
            ] {
                if k == kink && start == "seed" {
                    // The starved third cluster leaves the fit of the
                    // neighbour's seed nearly singular along its count
                    // and load: the two builds' rounding of `C` then
                    // moves the fitted start by ~1e-9 relative in `F`,
                    // above this test's tolerance. The other curve
                    // instances cover the seed start.
                    continue;
                }
                let run = price_newton_reference(problem, &params, &opts, x0, prices);
                let reference = &run.sol;
                let (sol, trace) = fused_trace(problem, &params, &opts, x0.clone(), prices);
                let case = format!("problem {k} from {start}");
                assert_eq!(sol.stop, reference.stop, "{case}");
                assert_eq!(sol.stop, StopReason::Converged, "{case}");
                assert_eq!(sol.iterations, reference.iterations, "{case}");
                for (it, (a, b)) in trace.iter().zip(&run.trace).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-10 * (1.0 + b.abs()),
                        "{case} iterate {it}: F {a} vs {b}"
                    );
                }
                let dx = max_abs_diff(&sol.x, &reference.x);
                assert!(dx <= 1e-12, "{case}: max |Δx| = {dx:e}");
                assert_eq!(sol.prices.len(), price_dim(problem), "{case}");
                for (a, b) in sol.prices.iter().zip(&reference.prices) {
                    assert!(
                        (a - b).abs() <= 1e-10 * (1.0 + b.abs()),
                        "{case}: prices {a} vs {b}"
                    );
                }
                let prices_taken = run.steps.iter().filter(|s| **s == RefStep::Price).count();
                price_steps += prices_taken;
                mirror_steps += run.steps.iter().filter(|s| **s == RefStep::Mirror).count();
                if objective::count_slots(problem).is_some() {
                    curve_price_steps += prices_taken;
                }
                let directions = |kind| run.directions.iter().filter(|d| **d == kind).count();
                exact += directions(Direction::Exact);
                model_fallbacks += directions(Direction::ModelFallback);
                if k == kink {
                    // Some cluster's count lies on both sides of n = 1,
                    // where ζ' jumps, along the path.
                    let crosses = (0..m).any(|i| {
                        run.counts.iter().any(|c| c[i] < 1.0)
                            && run.counts.iter().any(|c| c[i] > 1.0)
                    });
                    assert!(
                        crosses,
                        "{case}: the path must cross the kink: {:?}",
                        run.counts
                    );
                }
            }
        }
        assert!(
            price_steps > 0 && mirror_steps > 0 && curve_price_steps > 0,
            "the cases must take price trials ({price_steps}, {curve_price_steps} with \
             speedup curves) and mirror fallbacks ({mirror_steps})"
        );
        assert!(
            exact > 0 && model_fallbacks > 0,
            "the curve cases must take exact-Hessian directions ({exact}) and model \
             fallbacks ({model_fallbacks})"
        );
    }

    /// A common shift of the count prices moves every logit of a task by
    /// the same amount, so `x(θ)` cannot see it: the solve from shifted
    /// prices takes the same path as the solve from the prices, and the
    /// Newton system's `I +` keeps the direction finite although `C` is
    /// singular along the shift (measured: iterates within 4.5e-16). A
    /// seed's fitted prices, where only `fit_prices`' ridge pins the
    /// shift, reproduce the seed (within 5.9e-8 measured; the ridge
    /// moves the near-singular directions a little).
    #[test]
    fn count_price_shift_leaves_the_iterate_unchanged() {
        let params = RelaxationParams::default();
        let opts = SolverOptions {
            tol: 1e-5,
            ..Default::default()
        };
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(540 + seed);
            let problem = with_paper_curves(platform_problem(&mut rng, 3, 8));
            let (m, n) = (problem.clusters(), problem.tasks());
            let c = objective::count_slots(&problem).expect("speedup curves have count slots");
            let neighbour = solve_relaxed(&problem.with_time_row(0, &vec![1.5; n]), &params, &opts);
            let mut shifted = neighbour.prices.clone();
            for p in &mut shifted[c..c + m] {
                *p += 0.37;
            }
            let uniform = uniform_init(m, n);
            let (base, base_trace) = fused_trace(
                &problem,
                &params,
                &opts,
                uniform.clone(),
                Some(&neighbour.prices),
            );
            let (moved, moved_trace) =
                fused_trace(&problem, &params, &opts, uniform.clone(), Some(&shifted));
            assert_eq!(moved.stop, StopReason::Converged, "seed {seed}");
            assert_eq!(moved.iterations, base.iterations, "seed {seed}");
            for (a, b) in moved_trace.iter().zip(&base_trace) {
                assert!(
                    (a - b).abs() <= 1e-10 * (1.0 + b.abs()),
                    "seed {seed}: F {a} vs {b}"
                );
            }
            let dx = max_abs_diff(&moved.x, &base.x);
            assert!(dx <= 1e-10, "seed {seed}: max |Δx| = {dx:e}");
            // Fitted prices at a zero-iteration budget: the solve starts
            // at x(θ₀) and stops there, so its iterate is the seed's
            // softmax and its prices are θ₀.
            let start = price_point(&problem, params.rho, &shifted);
            let fitted = solve_relaxed_from(
                &problem,
                &params,
                &SolverOptions {
                    max_iters: 0,
                    ..opts
                },
                start.clone(),
            );
            assert!(fitted.prices.iter().all(|p| p.is_finite()), "seed {seed}");
            let fit_dx = max_abs_diff(&fitted.x, &start);
            assert!(
                fit_dx <= 1e-6,
                "seed {seed}: fitted start moved by {fit_dx:e}"
            );
        }
    }

    #[test]
    fn objective_never_increases_across_accepted_iterates() {
        let params = RelaxationParams::default();
        let problems = [price_reference_problems(), parallel_reference_problems()].concat();
        for (k, problem) in problems.iter().enumerate() {
            // A first step far too long for these instances forces
            // backtracking from the very first iteration.
            for lr in [0.8, 50.0] {
                let opts = SolverOptions {
                    lr,
                    tol: 0.0,
                    max_iters: 300,
                    ..Default::default()
                };
                let x0 = uniform_init(3, 6);
                let mut prev = objective::value(problem, &params, &x0);
                let mut seen = 0;
                let mut guard = |it: usize, f: f64| {
                    assert!(
                        f <= prev,
                        "problem {k} lr {lr}: F rose at iteration {it}: {prev} -> {f}"
                    );
                    prev = f;
                    seen += 1;
                    Ok(())
                };
                let sol = solve_relaxed_from_guarded(problem, &params, &opts, x0, None, &mut guard)
                    .expect("no-fail guard");
                assert_eq!(seen, sol.iterations);
                assert!(sol.iterations > 0);
            }
        }
    }

    /// A platform-scale instance: task times log-uniform over
    /// [0.005, 3) hours, as the exchange's clusters serve them.
    fn platform_problem(rng: &mut StdRng, m: usize, n: usize) -> MatchingProblem {
        let (lo, hi) = (0.005f64.ln(), 3.0f64.ln());
        let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(lo..hi).exp());
        let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.7..1.0));
        MatchingProblem::new(t, a, 0.75)
    }

    /// `problem` with the paper's speedup curve on every cluster.
    fn with_paper_curves(mut problem: MatchingProblem) -> MatchingProblem {
        problem.speedup = vec![SpeedupCurve::paper_parallel(); problem.clusters()];
        problem
    }

    /// A paper-curve instance whose slow third cluster ends up with
    /// about one task, so solves cross `n = 1`, where `ζ'` jumps from 0
    /// to `−rate·(1 − floor)`.
    const KINK_SEED: u64 = 5;
    const KINK_SLOW: f64 = 4.0;
    fn kink_problem() -> MatchingProblem {
        let mut rng = StdRng::seed_from_u64(KINK_SEED);
        let t = Matrix::from_fn(3, 6, |i, _| {
            rng.gen_range(0.5..3.0) * if i == 2 { KINK_SLOW } else { 1.0 }
        });
        let a = Matrix::from_fn(3, 6, |_, _| rng.gen_range(0.7..1.0));
        with_paper_curves(MatchingProblem::new(t, a, 0.75))
    }

    #[test]
    fn warm_start_from_neighbour_optimum_converges_well_before_the_cap() {
        let params = RelaxationParams::default();
        let opts = SolverOptions::default();
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let base = platform_problem(&mut rng, 5, 8);
            let base_sol = solve_relaxed(&base, &params, &opts);
            // The neighbour: task 3 leaves and a fresh task takes its slot,
            // as when the daemon re-solves after one arrival and one
            // departure. The seed keeps the other tasks' optimum and
            // starts the newcomer uniform. Two warm starts: the seed
            // alone (its fitted prices, as a resolve after a greedy one
            // takes), and the base solve's prices (as the daemon's
            // other resolves take).
            let mut next = base.clone();
            let fresh = platform_problem(&mut rng, 5, 1);
            for i in 0..5 {
                next.times[(i, 3)] = fresh.times[(i, 0)];
                next.reliability[(i, 3)] = fresh.reliability[(i, 0)];
            }
            let mut seed_x = base_sol.x.clone();
            for i in 0..5 {
                seed_x[(i, 3)] = 0.2;
            }
            let cold = solve_relaxed(&next, &params, &opts);
            let seeded = solve_relaxed_from(&next, &params, &opts, warm_init(&seed_x));
            let (priced, _) = fused_trace(
                &next,
                &params,
                &opts,
                warm_init(&seed_x),
                Some(&base_sol.prices),
            );
            for (start, warm) in [("seed", seeded), ("prices", priced)] {
                assert_eq!(warm.stop, StopReason::Converged, "seed {seed}, {start}");
                assert!(warm.residual < opts.tol);
                assert!(
                    warm.iterations <= opts.max_iters / 4,
                    "seed {seed}, {start}: warm start took {} of {} iterations (cold: {})",
                    warm.iterations,
                    opts.max_iters,
                    cold.iterations
                );
                assert!(
                    warm.iterations <= cold.iterations,
                    "seed {seed}, {start}: {} warm vs {} cold iterations",
                    warm.iterations,
                    cold.iterations
                );
            }
        }
    }

    /// At the default `tol`, the objective sits within a proven bound of
    /// a long tight-tolerance solve. In the convex setting the entropy
    /// term makes `F` ρ-strongly convex in the ℓ1 norm on each task's
    /// simplex, so a residual `r_j` per task bounds the gap by
    /// `Σ_j r_j²/(2ρ) ≤ N·tol²/(2ρ)`: 4e-6 at the default `tol` for
    /// N = 8. The 1e-6-tolerance reference sits within 4e-10 of the
    /// optimum by the same bound, which is the slack allowed below it.
    #[test]
    fn default_tol_objective_is_close_to_tight_reference() {
        let params = RelaxationParams::default();
        let (n, long) = (8, 50_000);
        for seed in 0..6u64 {
            let problem = random_problem(300 + seed, 4, n);
            let opts = SolverOptions {
                max_iters: long,
                ..Default::default()
            };
            let sol = solve_relaxed(&problem, &params, &opts);
            let tight = solve_relaxed(
                &problem,
                &params,
                &SolverOptions {
                    tol: 1e-6,
                    max_iters: long,
                    ..Default::default()
                },
            );
            assert_eq!(sol.stop, StopReason::Converged, "seed {seed}");
            assert_eq!(tight.stop, StopReason::Converged, "seed {seed}");
            let bound = |tol: f64| n as f64 * tol * tol / (2.0 * params.rho);
            let gap = sol.objective - tight.objective;
            assert!(
                (-bound(1e-6)..=bound(opts.tol)).contains(&gap),
                "seed {seed}: default-tol gap {gap:e} outside [-{:e}, {:e}]",
                bound(1e-6),
                bound(opts.tol)
            );
        }
    }

    /// The answer does not depend on the start: from the uniform start
    /// (whose fitted prices are `0`), from a neighbour's optimum without
    /// prices (its fitted prices) and from the neighbour's own prices,
    /// the default-`tol` objective sits within the `N·tol²/(2ρ)` bound of
    /// `default_tol_objective_is_close_to_tight_reference` above the
    /// optimum of a tight mirror-only reference (no price trials,
    /// cluster-major, `tol` 1e-6). In the convex setting the bound is a
    /// theorem. With the paper's speedup curve `F` is not convex and the
    /// bound only holds when every solve lands in the reference's basin;
    /// on these instances all of them do (gaps ≤ 2.7e-10 measured), and
    /// their iterates agree with the reference's within `1e-4` (≤ 7.5e-6
    /// measured).
    #[test]
    fn price_starts_match_tight_reference_optimum() {
        let params = RelaxationParams::default();
        let opts = SolverOptions::default();
        let (m, n) = (4, 8);
        let bound = |tol: f64| n as f64 * tol * tol / (2.0 * params.rho);
        for curves in [false, true] {
            let instance = |seed: u64| {
                let problem = random_problem(seed, m, n);
                if curves {
                    with_paper_curves(problem)
                } else {
                    problem
                }
            };
            for seed in 0..4u64 {
                let problem = instance(600 + seed);
                let tight = armijo_reference(
                    &problem,
                    &params,
                    &SolverOptions {
                        tol: 1e-6,
                        max_iters: 50_000,
                        ..Default::default()
                    },
                    uniform_init(m, n),
                );
                let case = format!("seed {seed}, curves {curves}");
                assert_eq!(tight.stop, StopReason::Converged, "{case}");
                let neighbour = solve_relaxed(&instance(700 + seed), &params, &opts);
                let uniform = uniform_init(m, n);
                let seeded = warm_init(&neighbour.x);
                for (start, x0, prices) in [
                    ("uniform", uniform.clone(), None),
                    ("seed", seeded, None),
                    ("prices", uniform, Some(&neighbour.prices[..])),
                ] {
                    let (sol, _) = fused_trace(&problem, &params, &opts, x0, prices);
                    assert_eq!(sol.stop, StopReason::Converged, "{case} from {start}");
                    let gap = sol.objective - tight.objective;
                    let dx = max_abs_diff(&sol.x, &tight.x);
                    assert!(
                        (-bound(1e-6)..=bound(opts.tol)).contains(&gap),
                        "{case} from {start}: gap {gap:e}"
                    );
                    assert!(dx <= 1e-4, "{case} from {start}: max |Δx| = {dx:e}");
                }
            }
        }
    }

    /// The MFCP-FG check at a training round's shape (3 clusters, 8
    /// tasks with times log-uniform over [0.005, 13) hours, the paper's
    /// speedup curve on every cluster, `δ` 0.05, `S` 4): the
    /// forward-gradient estimate of `∂L/∂t̂_i` from production solves —
    /// the base solve cold, the perturbed ones warm-started from the
    /// base optimum, as MFCP-FG takes them under its solve cache —
    /// against the same estimate, with the same directions, from tight
    /// mirror-only reference solves ([`armijo_reference`] at `tol`
    /// 1e-10, perturbed solves warm-started from the reference base
    /// optimum). A solve that stopped at the cap would put its distance
    /// to the optimum, divided by `δ`, into the estimate; every perturbed
    /// production solve must stop `Converged`, and the estimates must
    /// agree within `FG_REL_TOL` relative. What is left is the stop
    /// tolerance's share: a solve within `tol` of stationary sits up to
    /// `tol/ρ` from the optimum, and the quotient divides that by `δ`
    /// (measured worst here 1.1e-2, seed 4).
    ///
    /// Cold perturbed solves (MFCP-FG without its solve cache) must
    /// converge too, but their estimate is not compared: `F` is not
    /// convex, and a cold start can settle in another local minimum
    /// than the base's — on seed 5 one of the four lands at counts
    /// (0.63, 3.81, 3.57) with `F` 1.0723 against the base basin's
    /// (1.96, 2.47, 3.57) and 1.0624, which puts a 14% error into the
    /// estimate whatever the tolerance.
    #[test]
    fn forward_gradients_match_tight_reference_at_training_shapes() {
        use crate::zeroth::{estimate_gradient, ZerothOrderOptions};
        use mfcp_parallel::ParallelConfig;
        use std::sync::atomic::{AtomicUsize, Ordering};
        const FG_REL_TOL: f64 = 0.02;
        let params = RelaxationParams::default();
        let opts = SolverOptions::default();
        let tight = SolverOptions {
            tol: 1e-10,
            max_iters: 20_000,
            ..Default::default()
        };
        let zo = ZerothOrderOptions {
            delta: 0.05,
            samples: 4,
            parallel: ParallelConfig::sequential(),
        };
        let (m, n) = (3, 8);
        let norm = |v: &[f64]| v.iter().map(|g| g * g).sum::<f64>().sqrt();
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(800 + seed);
            let truth = {
                let (lo, hi) = (0.005f64.ln(), 13.0f64.ln());
                let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(lo..hi).exp());
                let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.84..1.0));
                with_paper_curves(MatchingProblem::new(t, a, 0.8))
            };
            let cluster = seed as usize % m;
            // The predicted row: the measured one under multiplicative
            // noise, as a partly trained predictor reports it.
            let predicted: Vec<f64> = (0..n)
                .map(|j| truth.times[(cluster, j)] * rng.gen_range(0.7..1.4))
                .collect();
            let problem = truth.with_time_row(cluster, &predicted);
            let perturbed = |theta: &[f64]| {
                let row: Vec<f64> = theta.iter().map(|&v| v.max(1e-6)).collect();
                problem.with_time_row(cluster, &row)
            };
            let dl_dx = |x: &Matrix| objective::grad_x(&truth, &params, x).scale(1.0 / n as f64);
            let estimate = |base: &Matrix, solve: &(dyn Fn(&MatchingProblem) -> Matrix + Sync)| {
                estimate_gradient(
                    &predicted,
                    base,
                    &dl_dx(base),
                    |theta: &[f64]| solve(&perturbed(theta)),
                    &zo,
                    &mut StdRng::seed_from_u64(900 + seed),
                )
            };
            let ref_base = armijo_reference(&problem, &params, &tight, uniform_init(m, n)).x;
            let reference = estimate(&ref_base, &|p| {
                armijo_reference(p, &params, &tight, warm_init(&ref_base)).x
            });
            let base = solve_relaxed(&problem, &params, &opts);
            assert_eq!(base.stop, StopReason::Converged, "seed {seed}: base solve");
            for warm in [false, true] {
                let unconverged = AtomicUsize::new(0);
                let production = estimate(&base.x, &|p| {
                    let sol = if warm {
                        solve_relaxed_from(p, &params, &opts, warm_init(&base.x))
                    } else {
                        solve_relaxed(p, &params, &opts)
                    };
                    if sol.stop != StopReason::Converged {
                        unconverged.fetch_add(1, Ordering::Relaxed);
                    }
                    sol.x
                });
                assert_eq!(
                    unconverged.into_inner(),
                    0,
                    "seed {seed}, warm {warm}: every perturbed solve must converge"
                );
                if warm {
                    let diff: Vec<f64> = production
                        .iter()
                        .zip(&reference)
                        .map(|(a, b)| a - b)
                        .collect();
                    let rel = norm(&diff) / norm(&reference);
                    assert!(
                        rel <= FG_REL_TOL,
                        "seed {seed}: relative error {rel:e} \
                         (production {production:?}, reference {reference:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn stationarity_residual_of_a_hand_built_column() {
        // Two active coordinates whose gradients spread ±0.05 around
        // their mean 1.0, and one collapsed coordinate (x = 1e-8 ≤ 1e-6)
        // whose gradient sits 2.0 above the column minimum.
        let x = [0.6, 0.4 - 1e-8, 1e-8];
        let g = [1.05, 0.95, 3.0];
        let r = stationarity_residual(&x, &g);
        assert!((r - 0.05).abs() < 1e-15, "spread dominates: {r}");
        // Widen the collapsed coordinate's gap until its complementarity
        // x·(g − g_min) = 1e-8·(1e7 − 0.95) dominates the spread.
        let g = [1.05, 0.95, 1e7];
        let r = stationarity_residual(&x, &g);
        assert!(
            (r - 1e-8 * (1e7 - 0.95)).abs() < 1e-12,
            "complementarity: {r}"
        );
        // A stationary column: equal active gradients, and a collapsed
        // coordinate at the minimum gradient.
        assert_eq!(
            stationarity_residual(&[0.5, 0.5, 0.0], &[2.0, 2.0, 2.0]),
            0.0
        );
        // NaN never reads as stationary.
        assert!(stationarity_residual(&[0.5, 0.5], &[f64::NAN, 1.0]).is_nan());
    }
}
