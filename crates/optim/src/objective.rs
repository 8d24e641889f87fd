//! The continuous relaxed objective `F(X, T, A)` (paper Eq. 8–10, 17).
//!
//! For a relaxed matching `X` (columns on the probability simplex), with
//! per-cluster fractional load `n_i = xᵢᵀ1` and weighted time
//! `ℓ_i = xᵢᵀtᵢ`, the smoothed makespan is
//!
//! ```text
//! f̃(X, T) = (1/β) · log Σ_i exp(β · ζ_i(n_i) · ℓ_i)        (Eq. 8 / 17)
//! ```
//!
//! and the full training objective adds the reliability barrier and an
//! entropy regularizer:
//!
//! ```text
//! F(X, T, A) = f̃(X, T) + φ_λ(g(X, A)) + ρ · Σ_ij x_ij log x_ij
//! ```
//!
//! where `g(X, A) = (1/N) Σ_ij x_ij a_ij − γ` is the reliability slack.
//!
//! Two deliberate deviations from the paper's notation, both recorded in
//! DESIGN.md:
//!
//! 1. The paper normalizes `g` by `1/(MN)`; we use `1/N` so that `g` is
//!    the mean per-task success probability minus `γ`, matching both the
//!    paper's *evaluation* metric ("average success probability of task
//!    execution") and its threshold values (γ ≈ 0.85). With `1/(MN)` the
//!    stated thresholds would be unsatisfiable for `M > 1`.
//! 2. The entropy term (weight `ρ`) is not in the paper's equations but is
//!    the standard decision-focused-learning device for making the relaxed
//!    argmin unique, interior, and stably differentiable; with `ρ = 0` the
//!    smoothed LP's optimum sits on a face of the simplex where the KKT
//!    Jacobian is singular. Set `rho = 0.0` to recover the paper's exact
//!    objective for forward solves.

use crate::problem::MatchingProblem;
use mfcp_linalg::{vector, Matrix};

/// Smallest admissible entry when evaluating `x log x` and barrier logs.
pub(crate) const X_FLOOR: f64 = 1e-12;

/// How the reliability constraint enters the objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BarrierKind {
    /// Logarithmic interior-point barrier `−λ log g` (Eq. 9), extended
    /// linearly (C¹) below `eps` so iterates that stray infeasible get a
    /// steep-but-finite restoring gradient.
    Log {
        /// Slack below which the linear extension takes over.
        eps: f64,
    },
    /// Hard hinge penalty `λ · max(0, −g)` — the Table 1 row (2) ablation.
    HardPenalty,
    /// No reliability term (unconstrained; used by tests and TAM).
    None,
}

impl BarrierKind {
    /// The default log barrier.
    pub fn log() -> Self {
        BarrierKind::Log { eps: 1e-3 }
    }
}

/// Shape of the time-cost term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostKind {
    /// Smoothed makespan (log-sum-exp of cluster times) — the paper's
    /// objective.
    SmoothMax,
    /// Sum of cluster times — the Table 1 row (1) ablation ("Maximum
    /// Loss" replaced by a linear function).
    LinearSum,
}

/// Hyper-parameters of the relaxation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelaxationParams {
    /// Smooth-max temperature `β` (larger → closer to the true max).
    pub beta: f64,
    /// Barrier weight `λ`.
    pub lambda: f64,
    /// Entropy-regularizer weight `ρ` (see module docs).
    pub rho: f64,
    /// Reliability-term form.
    pub barrier: BarrierKind,
    /// Time-cost form.
    pub cost: CostKind,
}

impl Default for RelaxationParams {
    fn default() -> Self {
        RelaxationParams {
            beta: 5.0,
            lambda: 0.05,
            rho: 0.01,
            barrier: BarrierKind::log(),
            cost: CostKind::SmoothMax,
        }
    }
}

/// Per-cluster quantities of a relaxed matching, shared by the value,
/// gradient and Hessian computations.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Fractional load `n_i = xᵢᵀ1`.
    pub count: Vec<f64>,
    /// Weighted time `ℓ_i = xᵢᵀtᵢ`.
    pub load: Vec<f64>,
    /// Adjusted time `s_i = ζ_i(n_i)·ℓ_i`.
    pub adjusted: Vec<f64>,
    /// Softmax weights `w_i ∝ exp(β s_i)` (uniform for `CostKind::LinearSum`).
    pub weights: Vec<f64>,
}

/// Computes the per-cluster statistics of `x` under `problem`/`params`.
pub fn cluster_stats(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x: &Matrix,
) -> ClusterStats {
    let mut stats = ClusterStats::default();
    cluster_stats_into(problem, params, x, &mut stats);
    stats
}

/// Computes the per-cluster statistics of `x` into caller-owned storage.
/// Performs no heap allocation once `stats` has grown to `M` entries.
pub fn cluster_stats_into(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x: &Matrix,
    stats: &mut ClusterStats,
) {
    let m = problem.clusters();
    debug_assert_eq!(x.shape(), problem.times.shape());
    let ClusterStats {
        count,
        load,
        adjusted,
        weights,
    } = stats;
    count.clear();
    count.resize(m, 0.0);
    load.clear();
    load.resize(m, 0.0);
    for i in 0..m {
        let xi = x.row(i);
        count[i] = xi.iter().sum();
        load[i] = vector::dot(xi, problem.times.row(i));
    }
    adjusted.clear();
    adjusted.extend((0..m).map(|i| problem.speedup[i].eval(count[i]) * load[i]));
    match params.cost {
        CostKind::SmoothMax => {
            weights.clear();
            weights.extend(adjusted.iter().map(|&s| params.beta * s));
            vector::softmax_inplace(weights);
        }
        CostKind::LinearSum => {
            weights.clear();
            weights.resize(m, 1.0);
        }
    }
}

/// The smoothed time cost `f̃(X, T)` (Eq. 8/17) or its linear ablation.
pub fn smooth_cost(problem: &MatchingProblem, params: &RelaxationParams, x: &Matrix) -> f64 {
    let stats = cluster_stats(problem, params, x);
    match params.cost {
        CostKind::SmoothMax => {
            let scaled: Vec<f64> = stats.adjusted.iter().map(|&s| params.beta * s).collect();
            vector::logsumexp(&scaled) / params.beta
        }
        CostKind::LinearSum => stats.adjusted.iter().sum(),
    }
}

/// The *true* (non-smoothed) relaxed cost `max_i ζ_i(n_i)·ℓ_i`.
pub fn true_cost(problem: &MatchingProblem, x: &Matrix) -> f64 {
    let params = RelaxationParams::default();
    cluster_stats(problem, &params, x)
        .adjusted
        .into_iter()
        .fold(0.0, f64::max)
}

/// Reliability slack `g(X, A) = (1/N) Σ_ij x_ij a_ij − γ`.
pub fn reliability_slack(problem: &MatchingProblem, x: &Matrix) -> f64 {
    let n = problem.tasks();
    if n == 0 {
        return 1.0 - problem.gamma;
    }
    let mut acc = 0.0;
    for i in 0..problem.clusters() {
        acc += vector::dot(x.row(i), problem.reliability.row(i));
    }
    acc / n as f64 - problem.gamma
}

/// Barrier value `φ_λ(g)`.
pub fn barrier_value(params: &RelaxationParams, g: f64) -> f64 {
    match params.barrier {
        BarrierKind::Log { eps } => {
            if g >= eps {
                -params.lambda * g.ln()
            } else {
                // C¹ linear extension: matches value and slope at g = eps.
                -params.lambda * (eps.ln() + (g - eps) / eps)
            }
        }
        BarrierKind::HardPenalty => params.lambda * (-g).max(0.0),
        BarrierKind::None => 0.0,
    }
}

/// Barrier derivative `dφ_λ/dg`.
pub fn barrier_derivative(params: &RelaxationParams, g: f64) -> f64 {
    match params.barrier {
        BarrierKind::Log { eps } => {
            if g >= eps {
                -params.lambda / g
            } else {
                -params.lambda / eps
            }
        }
        BarrierKind::HardPenalty => {
            if g < 0.0 {
                -params.lambda
            } else {
                0.0
            }
        }
        BarrierKind::None => 0.0,
    }
}

/// Barrier curvature `d²φ_λ/dg²`: `λ/g²` on the log branch, `0` on its
/// linear extension and for the other barrier kinds.
pub fn barrier_curvature(params: &RelaxationParams, g: f64) -> f64 {
    match params.barrier {
        BarrierKind::Log { eps } if g >= eps => params.lambda / (g * g),
        _ => 0.0,
    }
}

/// Entropy regularizer `ρ Σ x log x` (`0 log 0 := 0`).
pub fn entropy_value(params: &RelaxationParams, x: &Matrix) -> f64 {
    if params.rho == 0.0 {
        return 0.0;
    }
    params.rho
        * x.as_slice()
            .iter()
            .map(|&v| {
                let v = v.max(X_FLOOR);
                v * v.ln()
            })
            .sum::<f64>()
}

/// Capacity-barrier value: `Σ_i φ_λ(slack_i)` over the per-cluster
/// normalized capacity slacks (0 when the problem has no capacity
/// constraints).
pub fn capacity_barrier_value(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x: &Matrix,
) -> f64 {
    let Some(cap) = &problem.capacity else {
        return 0.0;
    };
    (0..problem.clusters())
        .map(|i| barrier_value(params, cap.slack(x, i)))
        .sum()
}

/// Full relaxed objective `F(X, T, A)`.
pub fn value(problem: &MatchingProblem, params: &RelaxationParams, x: &Matrix) -> f64 {
    let g = reliability_slack(problem, x);
    smooth_cost(problem, params, x)
        + barrier_value(params, g)
        + capacity_barrier_value(problem, params, x)
        + entropy_value(params, x)
}

/// Gradient `∇_X F(X, T, A)` as an `M x N` matrix.
///
/// For the smooth-max cost, `∂F/∂x_ij = w_i · (ζ_i(n_i) t_ij + ζ_i'(n_i) ℓ_i)`
/// plus the barrier term `φ'(g) · a_ij / N` and the entropy term
/// `ρ (1 + log x_ij)`.
pub fn grad_x(problem: &MatchingProblem, params: &RelaxationParams, x: &Matrix) -> Matrix {
    let (m, n) = x.shape();
    let mut stats = ClusterStats::default();
    let mut grad = Matrix::zeros(m, n);
    grad_x_into(problem, params, x, &mut stats, &mut grad);
    grad
}

/// Writes `∇_X F(X, T, A)` into `out`, reusing `stats` as scratch.
/// Performs no heap allocation once `stats` and `out` have the right
/// shape, which is what makes the PGD inner loop allocation-free.
pub fn grad_x_into(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x: &Matrix,
    stats: &mut ClusterStats,
    out: &mut Matrix,
) {
    let (m, n) = x.shape();
    cluster_stats_into(problem, params, x, stats);
    let g = reliability_slack(problem, x);
    let dphi = barrier_derivative(params, g);
    if out.shape() != (m, n) {
        *out = Matrix::zeros(m, n);
    }
    for i in 0..m {
        let zeta = problem.speedup[i].eval(stats.count[i]);
        let dzeta = problem.speedup[i].derivative(stats.count[i]);
        let w = stats.weights[i];
        // Capacity barrier: ∂slack_i/∂x_ij = −u_ij / limit_i.
        let cap_dphi = problem
            .capacity
            .as_ref()
            .map(|cap| barrier_derivative(params, cap.slack(x, i)));
        for j in 0..n {
            let ds = zeta * problem.times[(i, j)] + dzeta * stats.load[i];
            let mut gij = w * ds;
            if n > 0 {
                gij += dphi * problem.reliability[(i, j)] / n as f64;
            }
            if let (Some(dphi_c), Some(cap)) = (cap_dphi, &problem.capacity) {
                gij -= dphi_c * cap.usage[(i, j)] / cap.limits[i];
            }
            if params.rho != 0.0 {
                gij += params.rho * (1.0 + x[(i, j)].max(X_FLOOR).ln());
            }
            out[(i, j)] = gij;
        }
    }
}

/// Per-cluster sums of a task-major iterate — fractional load, weighted
/// time, reliability mass and capacity use — plus its entropy sum
/// `Σ x log x`, accumulated row by row inside the solver's update sweep.
/// [`TransposedEval::value`] turns them into `F` in `O(M)`, and
/// [`TransposedEval::grad_into`] reuses them for the next gradient.
#[derive(Debug, Clone, Default)]
pub(crate) struct IterStats {
    count: Vec<f64>,
    load: Vec<f64>,
    rel: Vec<f64>,
    cap_used: Vec<f64>,
    entropy: f64,
}

impl IterStats {
    /// Zeroes the sums for an `M`-cluster problem (allocation-free once
    /// sized).
    pub fn reset(&mut self, m: usize) {
        for buf in [
            &mut self.count,
            &mut self.load,
            &mut self.rel,
            &mut self.cap_used,
        ] {
            buf.clear();
            buf.resize(m, 0.0);
        }
        self.entropy = 0.0;
    }

    /// Adds task `j`'s row `xr` (with its floored logs `lxr`) to the
    /// sums. Rows must arrive in ascending `j`: the per-cluster partial
    /// sums then run in the same order as the cluster-major [`grad_x`].
    #[inline]
    pub fn add_row(&mut self, te: &TransposedEval, j: usize, xr: &[f64], lxr: &[f64]) {
        let tr = te.tt.row(j);
        let ar = te.at.row(j);
        for i in 0..xr.len() {
            self.count[i] += xr[i];
            self.load[i] += xr[i] * tr[i];
            self.rel[i] += xr[i] * ar[i];
        }
        if let Some(ut) = &te.ut {
            let ur = ut.row(j);
            for i in 0..xr.len() {
                self.cap_used[i] += xr[i] * ur[i];
            }
        }
        let ln_floor = ln_x_floor();
        for (&v, &lv) in xr.iter().zip(lxr) {
            self.entropy += v.max(X_FLOOR) * lv.max(ln_floor);
        }
    }

    /// Whether every accumulated sum is finite: a non-finite iterate
    /// entry poisons its cluster's count.
    pub fn is_finite(&self) -> bool {
        self.count.iter().all(|c| c.is_finite())
    }
}

/// `ln(X_FLOOR)`. For a log `lx = ln(max(x, f))` with any floor
/// `f ≤ X_FLOOR`, `max(lx, ln(X_FLOOR)) == ln(max(x, X_FLOOR))` because
/// `ln` is monotone — which is what lets the solver keep one floored log
/// per entry and still reproduce [`grad_x`]'s entropy term.
fn ln_x_floor() -> f64 {
    X_FLOOR.ln()
}

/// Transposed (task-major) problem data plus scratch buffers for the PGD
/// hot loop: with tasks as rows, both the gradient step and the per-task
/// simplex projection read contiguous memory instead of striding by `N`.
///
/// Every accumulation below runs in the same floating-point order as the
/// row-major [`grad_x`] path (per-cluster partial sums over ascending
/// `j`, reduced over ascending `i`), so the produced gradients are
/// bitwise identical to it.
#[derive(Debug, Clone)]
pub(crate) struct TransposedEval {
    /// `times` transposed to `N×M`.
    pub tt: Matrix,
    /// `reliability` transposed to `N×M`.
    pub at: Matrix,
    /// Capacity usage transposed to `N×M` (when constrained).
    pub ut: Option<Matrix>,
    /// First count slot of the price layout ([`count_slots`]).
    pub count_at: Option<usize>,
    weights: Vec<f64>,
    zeta: Vec<f64>,
    dzeta: Vec<f64>,
    cap_dphi: Vec<f64>,
}

impl Default for TransposedEval {
    fn default() -> Self {
        TransposedEval {
            tt: Matrix::zeros(0, 0),
            at: Matrix::zeros(0, 0),
            ut: None,
            count_at: None,
            weights: Vec::new(),
            zeta: Vec::new(),
            dzeta: Vec::new(),
            cap_dphi: Vec::new(),
        }
    }
}

fn transpose_into(src: &Matrix, dst: &mut Matrix) {
    let (m, n) = src.shape();
    if dst.shape() != (n, m) {
        *dst = Matrix::zeros(n, m);
    }
    for i in 0..m {
        for (j, &v) in src.row(i).iter().enumerate() {
            dst[(j, i)] = v;
        }
    }
}

impl TransposedEval {
    /// (Re)builds the transposed problem data and sizes the scratch
    /// buffers; reuses existing storage when the shape is unchanged.
    pub fn prepare(&mut self, problem: &MatchingProblem) {
        let m = problem.clusters();
        transpose_into(&problem.times, &mut self.tt);
        transpose_into(&problem.reliability, &mut self.at);
        match &problem.capacity {
            Some(cap) => {
                let ut = self.ut.get_or_insert_with(|| Matrix::zeros(0, 0));
                transpose_into(&cap.usage, ut);
            }
            None => self.ut = None,
        }
        self.count_at = count_slots(problem);
        for buf in [
            &mut self.weights,
            &mut self.zeta,
            &mut self.dzeta,
            &mut self.cap_dphi,
        ] {
            buf.clear();
            buf.resize(m, 0.0);
        }
    }

    /// Reliability slack `g` from the accumulated reliability mass,
    /// reduced in cluster order like [`reliability_slack`].
    fn slack(problem: &MatchingProblem, stats: &IterStats) -> f64 {
        let n = problem.tasks();
        if n == 0 {
            return 1.0 - problem.gamma;
        }
        let mut acc = 0.0;
        for &r in &stats.rel {
            acc += r;
        }
        acc / n as f64 - problem.gamma
    }

    /// `F(X, T, A)` of the iterate whose sums are `stats`, in `O(M)`:
    /// the same terms as [`value`] (the entropy sum runs task-major, so
    /// the two agree to rounding, not bitwise).
    pub fn value(
        &mut self,
        problem: &MatchingProblem,
        params: &RelaxationParams,
        stats: &IterStats,
    ) -> f64 {
        let m = problem.clusters();
        let scaled = &mut self.weights;
        for (i, s) in scaled.iter_mut().enumerate() {
            *s = problem.speedup[i].eval(stats.count[i]) * stats.load[i];
        }
        let cost = match params.cost {
            CostKind::SmoothMax => {
                for s in scaled.iter_mut() {
                    *s *= params.beta;
                }
                vector::logsumexp(scaled) / params.beta
            }
            CostKind::LinearSum => scaled.iter().sum(),
        };
        let capacity: f64 = problem.capacity.as_ref().map_or(0.0, |cap| {
            (0..m)
                .map(|i| barrier_value(params, (cap.limits[i] - stats.cap_used[i]) / cap.limits[i]))
                .sum()
        });
        let entropy = if params.rho == 0.0 {
            0.0
        } else {
            params.rho * stats.entropy
        };
        cost + barrier_value(params, Self::slack(problem, stats)) + capacity + entropy
    }

    /// Writes `∇_X F` in task-major (`N×M`) layout into `out`, given the
    /// iterate's sums `stats` and its floored logs `lx` (task-major).
    /// Calls no transcendental per entry; allocation-free after
    /// [`Self::prepare`].
    pub fn grad_into(
        &mut self,
        problem: &MatchingProblem,
        params: &RelaxationParams,
        stats: &IterStats,
        lx: &Matrix,
        out: &mut Matrix,
    ) {
        let m = problem.clusters();
        let n = problem.tasks();
        debug_assert_eq!(lx.shape(), (n, m));
        if out.shape() != (n, m) {
            *out = Matrix::zeros(n, m);
        }
        let dphi = barrier_derivative(params, Self::slack(problem, stats));
        for i in 0..m {
            self.zeta[i] = problem.speedup[i].eval(stats.count[i]);
            self.dzeta[i] = problem.speedup[i].derivative(stats.count[i]);
        }
        match params.cost {
            CostKind::SmoothMax => {
                for i in 0..m {
                    self.weights[i] = params.beta * (self.zeta[i] * stats.load[i]);
                }
                vector::softmax_inplace(&mut self.weights);
            }
            CostKind::LinearSum => self.weights.fill(1.0),
        }
        if let Some(cap) = &problem.capacity {
            for i in 0..m {
                let slack = (cap.limits[i] - stats.cap_used[i]) / cap.limits[i];
                self.cap_dphi[i] = barrier_derivative(params, slack);
            }
        }
        let ln_floor = ln_x_floor();
        for j in 0..n {
            let tr = self.tt.row(j);
            let ar = self.at.row(j);
            let lxr = lx.row(j);
            for i in 0..m {
                let ds = self.zeta[i] * tr[i] + self.dzeta[i] * stats.load[i];
                let mut gij = self.weights[i] * ds;
                if n > 0 {
                    gij += dphi * ar[i] / n as f64;
                }
                if let (Some(ut), Some(cap)) = (&self.ut, &problem.capacity) {
                    gij -= self.cap_dphi[i] * ut[(j, i)] / cap.limits[i];
                }
                if params.rho != 0.0 {
                    gij += params.rho * (1.0 + lxr[i].max(ln_floor));
                }
                out[(j, i)] = gij;
            }
        }
    }
}

impl IterStats {
    /// `∇Φ` of these per-cluster sums in price layout (see
    /// [`price_dim`]): `∂F/∂x_ij = θ·f_ij + ρ(1 + ln x_ij)` with `θ`
    /// these prices. Load slot `i` holds `w_i·ζ_i(n_i)` and, when the
    /// layout has count slots, count slot `i` holds `w_i·ζ_i'(n_i)·ℓ_i`
    /// (the two terms of [`grad_x`]'s smooth-max part). Writes the first
    /// `price_dim` entries of `out`.
    pub fn prices_into(
        &self,
        problem: &MatchingProblem,
        params: &RelaxationParams,
        out: &mut [f64],
    ) {
        let m = problem.clusters();
        let curves = &problem.speedup;
        let count_at = count_slots(problem);
        match params.cost {
            CostKind::SmoothMax => {
                for (i, o) in out[..m].iter_mut().enumerate() {
                    *o = match count_at {
                        None => params.beta * self.load[i],
                        Some(_) => params.beta * (curves[i].eval(self.count[i]) * self.load[i]),
                    };
                }
                vector::softmax_inplace(&mut out[..m]);
            }
            CostKind::LinearSum => out[..m].fill(1.0),
        }
        if let Some(c) = count_at {
            // `out[..m]` holds the weights `w` here.
            for i in 0..m {
                out[c + i] = out[i] * curves[i].derivative(self.count[i]) * self.load[i];
                out[i] *= curves[i].eval(self.count[i]);
            }
        }
        let n = problem.tasks().max(1) as f64;
        out[m] = barrier_derivative(params, TransposedEval::slack(problem, self)) / n;
        if let Some(cap) = &problem.capacity {
            for i in 0..m {
                let slack = (cap.limits[i] - self.cap_used[i]) / cap.limits[i];
                out[m + 1 + i] = -barrier_derivative(params, slack) / cap.limits[i];
            }
        }
    }

    /// A positive semidefinite model `H_Φ` of the Hessian of `Φ` at these
    /// sums, dense `r×r` row-major in price layout, with `prices` from
    /// [`Self::prices_into`]. The smooth max contributes
    /// `β(Σ_i w_i g_i g_iᵀ − ppᵀ)`, its `β(diag w − wwᵀ)` carried through
    /// each cluster's `g_i = ∇s_i` (`ζ_i` on load slot `i`, `ζ_i'ℓ_i` on
    /// count slot `i`), where `p = Σ_i w_i g_i` are the load and count
    /// prices; on a trivial-speedup instance that is `β(diag w − wwᵀ)`
    /// over the loads. The barriers add their curvature on the
    /// reliability mass and capacity uses. The curves' own curvature
    /// `Σ_i w_i ∇²s_i` ([`Self::add_curve_hessian`]) is left out: its
    /// count–load block `[[ζ''ℓ, ζ'], [ζ', 0]]` has determinant
    /// `−ζ'² < 0`, and without it `I + H_Φ·C/ρ` keeps eigenvalues ≥ 1.
    pub fn price_hessian_into(
        &self,
        problem: &MatchingProblem,
        params: &RelaxationParams,
        prices: &[f64],
        out: &mut [f64],
    ) {
        let m = problem.clusters();
        let r = price_dim(problem);
        out[..r * r].fill(0.0);
        if params.cost == CostKind::SmoothMax {
            let count_at = count_slots(problem);
            for a in 0..m {
                for b in 0..m {
                    out[a * r + b] = -params.beta * prices[a] * prices[b];
                }
            }
            if let Some(c) = count_at {
                // The `−β·ppᵀ` blocks between load and count slots.
                for a in 0..m {
                    for b in c..c + m {
                        out[a * r + b] = -params.beta * prices[a] * prices[b];
                        out[b * r + a] = -params.beta * prices[b] * prices[a];
                    }
                }
                for a in c..c + m {
                    for b in c..c + m {
                        out[a * r + b] = -params.beta * prices[a] * prices[b];
                    }
                }
            }
            for i in 0..m {
                let Some(c) = count_at else {
                    out[i * r + i] += params.beta * prices[i];
                    continue;
                };
                let curve = problem.speedup[i];
                out[i * r + i] += params.beta * (prices[i] * curve.eval(self.count[i]));
                let k = c + i;
                let dzeta_load = curve.derivative(self.count[i]) * self.load[i];
                // w_i·ζ_i·ζ_i'ℓ_i, from either price.
                let cross = params.beta * (prices[i] * dzeta_load);
                out[i * r + k] += cross;
                out[k * r + i] += cross;
                out[k * r + k] += params.beta * (prices[k] * dzeta_load);
            }
        }
        let n = problem.tasks().max(1) as f64;
        out[m * r + m] = barrier_curvature(params, TransposedEval::slack(problem, self)) / (n * n);
        if let Some(cap) = &problem.capacity {
            for i in 0..m {
                let slack = (cap.limits[i] - self.cap_used[i]) / cap.limits[i];
                let k = m + 1 + i;
                out[k * r + k] = barrier_curvature(params, slack) / (cap.limits[i] * cap.limits[i]);
            }
        }
    }

    /// Adds the curves' own curvature `Σ_i w_i ∇²s_i`, the term
    /// [`Self::price_hessian_into`] leaves out, to `out` (`prices` from
    /// [`Self::prices_into`]): `w_i ζ_i'` on the count–load pair of
    /// cluster `i` and `w_i ζ_i'' ℓ_i` on its count. Together they form
    /// the exact Hessian of `Φ`. A no-op when the layout has no count
    /// slots.
    pub fn add_curve_hessian(&self, problem: &MatchingProblem, prices: &[f64], out: &mut [f64]) {
        let Some(c) = count_slots(problem) else {
            return;
        };
        let r = price_dim(problem);
        for (i, curve) in problem.speedup.iter().enumerate() {
            let n = self.count[i];
            // Load price `w_i·ζ_i`, and `ζ_i ≥ floor > 0`.
            let w = prices[i] / curve.eval(n);
            let k = c + i;
            let cross = w * curve.derivative(n);
            out[i * r + k] += cross;
            out[k * r + i] += cross;
            out[k * r + k] += w * curve.second_derivative(n) * self.load[i];
        }
    }
}

/// The prices `∇Φ(A·x)` of an assignment `x` (`M×N`) in [`price_dim`]
/// layout. At an optimum they are the optimum's own prices, whose
/// softmax is the optimum.
pub fn prices(problem: &MatchingProblem, params: &RelaxationParams, x: &Matrix) -> Vec<f64> {
    let (m, n) = (problem.clusters(), problem.tasks());
    let mut te = TransposedEval::default();
    te.prepare(problem);
    let mut stats = IterStats::default();
    stats.reset(m);
    // The logs feed only the entropy sum, which no price reads.
    let (mut row, logs) = (vec![0.0; m], vec![0.0; m]);
    for j in 0..n {
        for (i, v) in row.iter_mut().enumerate() {
            *v = x[(i, j)];
        }
        stats.add_row(&te, j, &row, &logs);
    }
    let mut out = vec![0.0; price_dim(problem)];
    stats.prices_into(problem, params, &mut out);
    out
}

/// Length of a problem's price vector `θ`: one price per cluster load,
/// one for the reliability mass, one per cluster capacity use when the
/// problem has capacity constraints, and one per cluster task count when
/// any cluster has a non-trivial speedup curve (after all the others). Task
/// `j`'s feature on cluster `i`, `f_ij`, carries `t_ij` in load slot
/// `i`, `a_ij` in slot `M`, `u_ij` in capacity slot `M + 1 + i`, and `1`
/// in count slot `i`.
pub fn price_dim(problem: &MatchingProblem) -> usize {
    let m = problem.clusters();
    let per_cluster = |present: bool| if present { m } else { 0 };
    m + 1 + per_cluster(problem.capacity.is_some()) + per_cluster(count_slots(problem).is_some())
}

/// Where the count slots start in [`price_dim`]'s layout, after the
/// load, reliability and capacity slots: `None` when every speedup curve
/// is trivial, so such a problem keeps the `M + 1` (plus capacity)
/// layout. A common shift of all count prices moves every logit of a
/// task by the same amount, so it leaves `x(θ)` unchanged.
pub(crate) fn count_slots(problem: &MatchingProblem) -> Option<usize> {
    let m = problem.clusters();
    let cap = if problem.capacity.is_some() { m } else { 0 };
    (!problem.speedup.iter().all(|c| c.is_trivial())).then_some(m + 1 + cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speedup::SpeedupCurve;
    use mfcp_autodiff::gradcheck;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_problem(seed: u64, m: usize, n: usize, parallel: bool) -> MatchingProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.5..3.0));
        let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.6..1.0));
        let speedup = if parallel {
            vec![SpeedupCurve::paper_parallel(); m]
        } else {
            vec![SpeedupCurve::None; m]
        };
        MatchingProblem::with_speedup(t, a, 0.7, speedup)
    }

    fn random_interior_x(seed: u64, m: usize, n: usize) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.1..1.0));
        for j in 0..n {
            let col_sum: f64 = (0..m).map(|i| x[(i, j)]).sum();
            for i in 0..m {
                x[(i, j)] /= col_sum;
            }
        }
        x
    }

    #[test]
    fn theorem1_smooth_max_sandwiches_true_max() {
        // f(X,T) <= f̃(X,T) <= f(X,T) + log(M)/β, and f̃ → f as β → ∞.
        let problem = random_problem(1, 4, 6, false);
        let x = random_interior_x(2, 4, 6);
        let f_true = true_cost(&problem, &x);
        let mut prev_gap = f64::INFINITY;
        for beta in [1.0, 5.0, 25.0, 125.0, 625.0] {
            let params = RelaxationParams {
                beta,
                barrier: BarrierKind::None,
                rho: 0.0,
                ..Default::default()
            };
            let f_smooth = smooth_cost(&problem, &params, &x);
            assert!(f_smooth >= f_true - 1e-9, "beta={beta}");
            assert!(
                f_smooth <= f_true + (4.0_f64).ln() / beta + 1e-9,
                "beta={beta}"
            );
            let gap = f_smooth - f_true;
            assert!(gap <= prev_gap + 1e-12, "gap must shrink with beta");
            prev_gap = gap;
        }
        assert!(
            prev_gap < 1e-3,
            "beta=625 should be within 1e-3 of true max"
        );
    }

    #[test]
    fn linear_cost_is_sum() {
        let problem = random_problem(3, 3, 4, false);
        let x = random_interior_x(4, 3, 4);
        let params = RelaxationParams {
            cost: CostKind::LinearSum,
            barrier: BarrierKind::None,
            rho: 0.0,
            ..Default::default()
        };
        let expected: f64 = (0..3)
            .map(|i| vector::dot(x.row(i), problem.times.row(i)))
            .sum();
        assert!((smooth_cost(&problem, &params, &x) - expected).abs() < 1e-12);
    }

    #[test]
    fn reliability_slack_matches_assignment_metric() {
        // On a 0/1 matrix, slack + gamma equals the Assignment metric.
        let problem = random_problem(5, 3, 5, false);
        let asg = crate::problem::Assignment::new(vec![0, 1, 2, 0, 1]);
        let x = asg.to_matrix(3);
        let slack = reliability_slack(&problem, &x);
        assert!((slack + problem.gamma - asg.mean_reliability(&problem)).abs() < 1e-12);
    }

    #[test]
    fn barrier_log_and_extension_are_c1() {
        let params = RelaxationParams {
            lambda: 0.5,
            barrier: BarrierKind::Log { eps: 1e-2 },
            ..Default::default()
        };
        // Continuity at eps.
        let eps = 1e-2;
        let v_hi = barrier_value(&params, eps + 1e-9);
        let v_lo = barrier_value(&params, eps - 1e-9);
        assert!((v_hi - v_lo).abs() < 1e-6);
        let d_hi = barrier_derivative(&params, eps + 1e-9);
        let d_lo = barrier_derivative(&params, eps - 1e-9);
        assert!((d_hi - d_lo).abs() < 1e-3);
        // Steeply increasing cost as slack shrinks.
        assert!(barrier_value(&params, 1e-4) > barrier_value(&params, 0.1));
    }

    #[test]
    fn hard_penalty_zero_when_feasible() {
        let params = RelaxationParams {
            lambda: 2.0,
            barrier: BarrierKind::HardPenalty,
            ..Default::default()
        };
        assert_eq!(barrier_value(&params, 0.3), 0.0);
        assert_eq!(barrier_derivative(&params, 0.3), 0.0);
        assert!((barrier_value(&params, -0.1) - 0.2).abs() < 1e-12);
        assert_eq!(barrier_derivative(&params, -0.1), -2.0);
    }

    #[test]
    fn gradient_matches_finite_difference_all_variants() {
        let configs = [
            (false, CostKind::SmoothMax, BarrierKind::log(), 0.01),
            (false, CostKind::SmoothMax, BarrierKind::HardPenalty, 0.0),
            (false, CostKind::LinearSum, BarrierKind::log(), 0.01),
            (true, CostKind::SmoothMax, BarrierKind::log(), 0.01),
            (true, CostKind::SmoothMax, BarrierKind::None, 0.0),
        ];
        for (idx, &(parallel, cost, barrier, rho)) in configs.iter().enumerate() {
            let problem = random_problem(10 + idx as u64, 3, 5, parallel);
            let x = random_interior_x(20 + idx as u64, 3, 5);
            let params = RelaxationParams {
                beta: 4.0,
                lambda: 0.1,
                rho,
                barrier,
                cost,
            };
            let analytic = grad_x(&problem, &params, &x);
            gradcheck::assert_gradients_close(
                &x,
                |xm| value(&problem, &params, xm),
                &analytic,
                1e-6,
                1e-6,
            );
        }
    }

    #[test]
    fn entropy_zero_when_rho_zero() {
        let params = RelaxationParams {
            rho: 0.0,
            ..Default::default()
        };
        let x = Matrix::filled(2, 2, 0.5);
        assert_eq!(entropy_value(&params, &x), 0.0);
    }

    #[test]
    fn entropy_minimized_at_uniform() {
        let params = RelaxationParams {
            rho: 1.0,
            ..Default::default()
        };
        let uniform = Matrix::filled(2, 1, 0.5);
        let skewed = Matrix::from_rows(&[&[0.9], &[0.1]]);
        assert!(entropy_value(&params, &uniform) < entropy_value(&params, &skewed));
    }

    #[test]
    fn grad_x_into_matches_grad_x_bitwise() {
        let problem = random_problem(31, 4, 6, true);
        let x = random_interior_x(32, 4, 6);
        let params = RelaxationParams::default();
        let expected = grad_x(&problem, &params, &x);
        let mut stats = ClusterStats::default();
        let mut out = Matrix::zeros(1, 1); // wrong shape: must be resized
        grad_x_into(&problem, &params, &x, &mut stats, &mut out);
        assert_eq!(out.as_slice(), expected.as_slice());
    }

    #[test]
    fn transposed_gradient_is_bitwise_identical() {
        use crate::problem::CapacityConstraint;
        for (seed, parallel, with_cap) in
            [(41u64, false, false), (42, true, false), (43, true, true)]
        {
            let mut problem = random_problem(seed, 3, 7, parallel);
            if with_cap {
                let mut rng = StdRng::seed_from_u64(seed + 100);
                problem.capacity = Some(CapacityConstraint {
                    usage: Matrix::from_fn(3, 7, |_, _| rng.gen_range(0.1..1.0)),
                    limits: vec![4.0, 5.0, 6.0],
                });
            }
            let mut x = random_interior_x(seed + 1, 3, 7);
            // One entry below the entropy floor exercises the floored log.
            x[(1, 2)] = 1e-200;
            let params = RelaxationParams::default();
            let expected = grad_x(&problem, &params, &x);
            let mut te = TransposedEval::default();
            te.prepare(&problem);
            let mut xt = Matrix::zeros(0, 0);
            transpose_into(&x, &mut xt);
            let lx = Matrix::from_fn(7, 3, |j, i| xt[(j, i)].max(1e-300).ln());
            let mut stats = IterStats::default();
            stats.reset(3);
            for j in 0..7 {
                stats.add_row(&te, j, xt.row(j), lx.row(j));
            }
            let mut gt = Matrix::zeros(0, 0);
            te.grad_into(&problem, &params, &stats, &lx, &mut gt);
            for i in 0..3 {
                for j in 0..7 {
                    assert_eq!(
                        gt[(j, i)].to_bits(),
                        expected[(i, j)].to_bits(),
                        "seed={seed} entry ({i},{j})"
                    );
                }
            }
            let f = te.value(&problem, &params, &stats);
            let reference = value(&problem, &params, &x);
            assert!(
                (f - reference).abs() <= 1e-14 * reference.abs().max(1.0),
                "seed={seed}: {f} vs {reference}"
            );
        }
    }

    #[test]
    fn empty_problem_slack() {
        let p = MatchingProblem::new(Matrix::zeros(2, 0), Matrix::zeros(2, 0), 0.8);
        let x = Matrix::zeros(2, 0);
        assert!((reliability_slack(&p, &x) - 0.2).abs() < 1e-12);
    }
}
