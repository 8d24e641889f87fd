//! Implicit differentiation of the relaxed matching optimum through its
//! KKT stationarity system (paper §3.3, Eq. 13–15) — the MFCP-AD path.
//!
//! At the relaxed optimum returned by Algorithm 1 the iterate is strictly
//! interior (the entropy term keeps every `x_ij > 0`), so the only active
//! constraints are the per-task simplex equalities `Σ_i x_ij = 1`.
//! Stationarity then reads
//!
//! ```text
//! ∇_X F(X*, T, A) + Dᵀ ν = 0,      D X* = 1
//! ```
//!
//! and total differentiation gives the symmetric saddle system
//!
//! ```text
//! [ H   Dᵀ ] [ dX ]     [ ∇²_XT F · dT + ∇²_XA F · dA ]
//! [ D   0  ] [ dν ]  = −[ 0                            ]
//! ```
//!
//! (the specialization of the paper's Eq. 15 to inactive box constraints:
//! with `0 < x < 1` strictly, complementary slackness forces `μ¹ = μ² = 0`
//! and those rows drop out). For training we never materialize `dX/dT`;
//! we solve the *adjoint* system once per backward pass:
//! `K [y; z] = [∂L/∂X; 0]`, then contract `∂L/∂T = −(∇²_XT F)ᵀ y` and
//! `∂L/∂A = −(∇²_XA F)ᵀ y`, both available in closed form.
//!
//! Only the convex (sequential-execution) case is supported — exactly the
//! regime where the paper applies MFCP-AD; the parallel case goes through
//! [`crate::zeroth`].

use crate::objective::{self, BarrierKind, ClusterStats, CostKind, RelaxationParams};
use crate::problem::MatchingProblem;
use mfcp_linalg::{cholesky::Cholesky, lu::Lu, vector, LinalgError, Matrix};
use std::sync::OnceLock;

/// Gradients of a scalar loss with respect to the problem's performance
/// matrices, obtained by implicit differentiation.
#[derive(Debug, Clone)]
pub struct KktGradients {
    /// `∂L/∂T`, shape `M x N`.
    pub dl_dt: Matrix,
    /// `∂L/∂A`, shape `M x N`.
    pub dl_da: Matrix,
}

/// Second derivative `φ''(g)` of the barrier.
fn barrier_second_derivative(params: &RelaxationParams, g: f64) -> f64 {
    match params.barrier {
        BarrierKind::Log { eps } => {
            if g >= eps {
                params.lambda / (g * g)
            } else {
                0.0
            }
        }
        BarrierKind::HardPenalty | BarrierKind::None => 0.0,
    }
}

/// Tikhonov damping applied to the primal diagonal of the KKT matrix.
///
/// Computed from cheap structural bounds on the largest Hessian entry —
/// never from the assembled matrix — so the dense and structured paths
/// apply bitwise-identical damping and their solutions agree to solver
/// precision.
fn structural_damping(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x: &Matrix,
    beta: f64,
    w: &[f64],
    ddphi: f64,
    cap_ddphi: &[f64],
) -> f64 {
    let (m, n) = x.shape();
    let nf = n as f64;
    let mut bound: f64 = 0.0;
    if beta != 0.0 {
        let tmax = problem.times.max_abs();
        let wmax = w.iter().copied().fold(0.0, f64::max);
        bound += beta * tmax * tmax * wmax;
    }
    if ddphi != 0.0 && n > 0 {
        let amax = problem.reliability.max_abs();
        bound += ddphi * amax * amax / (nf * nf);
    }
    if params.rho != 0.0 {
        let xmin = x
            .as_slice()
            .iter()
            .fold(f64::INFINITY, |acc, &v| acc.min(v.max(1e-7)));
        if xmin.is_finite() {
            bound += params.rho / xmin;
        }
    }
    if let Some(cap) = &problem.capacity {
        let mut cap_bound: f64 = 0.0;
        for i in 0..m {
            let dd = cap_ddphi.get(i).copied().unwrap_or(0.0);
            if dd != 0.0 {
                let umax = vector::norm_inf(cap.usage.row(i));
                cap_bound = cap_bound.max(dd * umax * umax / (cap.limits[i] * cap.limits[i]));
            }
        }
        bound += cap_bound;
    }
    // The D blocks contribute entries of exactly 1.0, hence the floor.
    1e-10 * (1.0 + bound.max(1.0))
}

/// Assembles the symmetric KKT saddle matrix `[[H, Dᵀ], [D, 0]]` at `x`,
/// where `H = ∇²_XX F` (smooth-max + barrier + entropy terms, plus mild
/// Tikhonov damping) and `D` stacks the per-task simplex equalities.
///
/// This is the *dense* reference path; [`KktWorkspace`] factors the same
/// system via structured block elimination and falls back to this
/// assembly when the structure is unusable.
pub fn assemble_kkt_matrix(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x: &Matrix,
) -> Matrix {
    let mut k = Matrix::zeros(0, 0);
    assemble_kkt_matrix_into(problem, params, x, &mut k);
    k
}

/// [`assemble_kkt_matrix`] into a caller-owned buffer, reallocating only
/// when the dimension changes.
pub(crate) fn assemble_kkt_matrix_into(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x: &Matrix,
    k: &mut Matrix,
) {
    let (m, n) = x.shape();
    let mn = m * n;
    let dim = mn + n;
    let stats = objective::cluster_stats(problem, params, x);
    let g = objective::reliability_slack(problem, x);
    let ddphi = barrier_second_derivative(params, g);
    let (beta, w): (f64, Vec<f64>) = match params.cost {
        CostKind::SmoothMax => (params.beta, stats.weights.clone()),
        CostKind::LinearSum => (0.0, vec![1.0; m]),
    };
    let t = &problem.times;
    let a = &problem.reliability;
    let nf = n as f64;
    let idx = |i: usize, j: usize| i * n + j;
    if k.shape() != (dim, dim) {
        *k = Matrix::zeros(dim, dim);
    } else {
        k.as_mut_slice().fill(0.0);
    }

    // H1 (smooth max): β t_ij t_kl (δ_ik w_i − w_i w_k)
    // H2 (barrier):    φ''(g) a_ij a_kl / N²
    // H3 (entropy):    ρ / x_ij on the diagonal
    // H4 (capacity):   per-cluster rank-1 blocks
    //                  φ''(slack_i) u_ij u_il / limit_i²
    let capacity = problem.capacity.as_ref().map(|cap| {
        let cap_ddphi: Vec<f64> = (0..m)
            .map(|i| barrier_second_derivative(params, cap.slack(x, i)))
            .collect();
        (cap, cap_ddphi)
    });
    for i in 0..m {
        for j in 0..n {
            let row = idx(i, j);
            for kk in 0..m {
                for l in 0..n {
                    let col = idx(kk, l);
                    let mut h =
                        beta * t[(i, j)] * t[(kk, l)] * w[i] * ((i == kk) as u8 as f64 - w[kk]);
                    h += ddphi * a[(i, j)] * a[(kk, l)] / (nf * nf);
                    if i == kk {
                        if let Some((cap, cap_ddphi)) = &capacity {
                            if cap_ddphi[i] != 0.0 {
                                h += cap_ddphi[i] * cap.usage[(i, j)] * cap.usage[(i, l)]
                                    / (cap.limits[i] * cap.limits[i]);
                            }
                        }
                    }
                    k[(row, col)] += h;
                }
            }
            if params.rho != 0.0 {
                // Floor the entry so a fully collapsed coordinate cannot
                // blow the diagonal up to the point of swamping every
                // other pivot of the LU factorization.
                k[(row, row)] += params.rho / x[(i, j)].max(1e-7);
            }
        }
    }
    // Mild Tikhonov damping for numerical safety on near-singular systems.
    let cap_ddphi_slice = capacity.as_ref().map(|(_, v)| v.as_slice()).unwrap_or(&[]);
    let damping = structural_damping(problem, params, x, beta, &w, ddphi, cap_ddphi_slice);
    for d in 0..mn {
        k[(d, d)] += damping;
    }
    // D blocks: equality constraint j touches x_{i j} for all i.
    for j in 0..n {
        for i in 0..m {
            k[(idx(i, j), mn + j)] = 1.0; // Dᵀ
            k[(mn + j, idx(i, j))] = 1.0; // D
        }
    }
}

/// Which factorization a [`KktWorkspace`] currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KktMode {
    /// No successful factorization yet.
    Empty,
    /// Structured block elimination (Woodbury + Schur complement).
    Structured,
    /// Dense LU of the assembled saddle matrix.
    Dense,
}

/// Applies `H⁻¹ = Σ⁻¹ − W Cap⁻¹ Wᵀ` (Woodbury, `W = Σ⁻¹U`) to `src`,
/// writing into `dst`. `sr`/`qr` are rank-sized scratch vectors.
#[allow(clippy::too_many_arguments)]
fn apply_h_inv(
    sigma_inv: &[f64],
    ut: &Matrix,
    wt: &Matrix,
    rank: usize,
    cap_lu: &Lu,
    src: &[f64],
    dst: &mut [f64],
    sr: &mut Vec<f64>,
    qr: &mut Vec<f64>,
) -> Result<(), LinalgError> {
    for (d, (&s, &v)) in dst.iter_mut().zip(sigma_inv.iter().zip(src)) {
        *d = s * v;
    }
    if rank == 0 {
        return Ok(());
    }
    sr.clear();
    for k in 0..rank {
        sr.push(vector::dot(ut.row(k), dst));
    }
    cap_lu.solve_into(sr, qr)?;
    for (k, &q) in qr.iter().enumerate().take(rank) {
        let wrow = wt.row(k);
        for (d, &wv) in dst.iter_mut().zip(wrow) {
            *d -= q * wv;
        }
    }
    Ok(())
}

/// Reusable factorization and scratch storage for the KKT saddle systems.
///
/// The Hessian of the relaxed objective is **diagonal plus rank-≤(2M+2)**
/// by construction: `H = Σ + U C Uᵀ`, where `Σ` collects the elementwise
/// entropy/damping terms and the columns of `U` are the per-cluster time
/// vectors (smooth-max curvature `β·Cov_w`), the flattened reliability
/// matrix (barrier curvature `φ''·aaᵀ/N²`), and the per-cluster capacity
/// usage vectors. [`KktWorkspace::factor`] exploits this: it applies
/// `H⁻¹` via the Woodbury identity (one rank×rank LU) and eliminates the
/// simplex rows through the Schur complement `S = D H⁻¹ Dᵀ` (N×N SPD,
/// Cholesky), dropping the solve from `O((MN)³)` to
/// `O(N³ + M³ + M²·MN)`. When the structure is unusable (no entropy term
/// so `Σ` is damping-only, a near-active log barrier whose curvature
/// coefficient `λ/g²` ill-scales the capacitance system, or a downstream
/// factorization failure) it falls back to the dense LU path
/// automatically and counts the event.
///
/// All buffers are reused across calls, so holding one workspace per
/// thread makes repeated backward passes allocation-free after warm-up.
#[derive(Debug, Clone)]
pub struct KktWorkspace {
    mode: KktMode,
    m: usize,
    n: usize,
    // Coefficients at the factored point.
    stats: ClusterStats,
    w_buf: Vec<f64>,
    cap_ddphi: Vec<f64>,
    beta: f64,
    dphi: f64,
    ddphi: f64,
    // Structured factor: H = Σ + U C Uᵀ, S = D H⁻¹ Dᵀ.
    sigma_inv: Vec<f64>,
    rank: usize,
    /// Columns of `U`, stored row-major transposed (`rank × MN`).
    ut: Matrix,
    /// `W = Σ⁻¹ U`, same layout as `ut`.
    wt: Matrix,
    /// Diagonal of `C`.
    coeff: Vec<f64>,
    /// Capacitance `C⁻¹ + Uᵀ Σ⁻¹ U` (indefinite: the −β entry), LU-solved.
    cap_mat: Matrix,
    cap_lu: Lu,
    d_diag: Vec<f64>,
    /// `G = D W` (`N × rank`).
    g_mat: Matrix,
    /// `Q = Cap⁻¹ Gᵀ` (`rank × N`).
    q_mat: Matrix,
    s_mat: Matrix,
    schur: Cholesky,
    // Dense fallback.
    k_dense: Matrix,
    dense_lu: Lu,
    // Solve scratch.
    t1: Vec<f64>,
    t2: Vec<f64>,
    sr: Vec<f64>,
    qr: Vec<f64>,
    zn: Vec<f64>,
    rhs: Vec<f64>,
    sol: Vec<f64>,
    refine_x: Vec<f64>,
    refine_r: Vec<f64>,
    // Telemetry (also mirrored to the `kkt.structured` /
    // `kkt.dense_fallback` observability counters).
    structured_factors: u64,
    dense_fallbacks: u64,
}

impl Default for KktWorkspace {
    fn default() -> Self {
        KktWorkspace {
            mode: KktMode::Empty,
            m: 0,
            n: 0,
            stats: ClusterStats::default(),
            w_buf: Vec::new(),
            cap_ddphi: Vec::new(),
            beta: 0.0,
            dphi: 0.0,
            ddphi: 0.0,
            sigma_inv: Vec::new(),
            rank: 0,
            ut: Matrix::zeros(0, 0),
            wt: Matrix::zeros(0, 0),
            coeff: Vec::new(),
            cap_mat: Matrix::zeros(0, 0),
            cap_lu: Lu::empty(),
            d_diag: Vec::new(),
            g_mat: Matrix::zeros(0, 0),
            q_mat: Matrix::zeros(0, 0),
            s_mat: Matrix::zeros(0, 0),
            schur: Cholesky::empty(),
            k_dense: Matrix::zeros(0, 0),
            dense_lu: Lu::empty(),
            t1: Vec::new(),
            t2: Vec::new(),
            sr: Vec::new(),
            qr: Vec::new(),
            zn: Vec::new(),
            rhs: Vec::new(),
            sol: Vec::new(),
            refine_x: Vec::new(),
            refine_r: Vec::new(),
            structured_factors: 0,
            dense_fallbacks: 0,
        }
    }
}

impl KktWorkspace {
    /// A fresh workspace holding no factorization.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of structured factorizations performed by this workspace.
    pub fn structured_factors(&self) -> u64 {
        self.structured_factors
    }

    /// Number of dense-LU fallbacks taken by this workspace.
    pub fn dense_fallbacks(&self) -> u64 {
        self.dense_fallbacks
    }

    /// Whether the most recent successful factorization was structured.
    pub fn last_factor_structured(&self) -> bool {
        self.mode == KktMode::Structured
    }

    /// Dense-fallback guard: the structured elimination needs an SPD
    /// diagonal `Σ` (entropy present) and a barrier curvature that does
    /// not swamp it — approaching the active log barrier, `φ'' = λ/g²`
    /// blows up and the capacitance system becomes too ill-scaled.
    fn structured_applicable(&self, params: &RelaxationParams, g: f64) -> bool {
        if params.rho <= 0.0 || params.rho.is_nan() {
            return false;
        }
        if let BarrierKind::Log { eps } = params.barrier {
            if g >= eps && g < 2.0 * eps {
                return false;
            }
        }
        true
    }

    /// Factors the KKT saddle system at `x`, preferring the structured
    /// elimination and falling back to dense LU when necessary.
    ///
    /// # Errors
    /// Returns an error only when the dense fallback itself fails (e.g. a
    /// singular system at a vertex solution with `rho = 0`).
    pub fn factor(
        &mut self,
        problem: &MatchingProblem,
        params: &RelaxationParams,
        x: &Matrix,
    ) -> Result<(), LinalgError> {
        let (m, n) = x.shape();
        debug_assert_eq!(problem.times.shape(), (m, n));
        self.m = m;
        self.n = n;
        self.mode = KktMode::Empty;
        let mn = m * n;

        objective::cluster_stats_into(problem, params, x, &mut self.stats);
        let g = objective::reliability_slack(problem, x);
        self.dphi = objective::barrier_derivative(params, g);
        self.ddphi = barrier_second_derivative(params, g);
        self.beta = match params.cost {
            CostKind::SmoothMax => params.beta,
            CostKind::LinearSum => 0.0,
        };
        self.w_buf.clear();
        match params.cost {
            CostKind::SmoothMax => self.w_buf.extend_from_slice(&self.stats.weights),
            CostKind::LinearSum => self.w_buf.resize(m, 1.0),
        }
        self.cap_ddphi.clear();
        if let Some(cap) = &problem.capacity {
            self.cap_ddphi
                .extend((0..m).map(|i| barrier_second_derivative(params, cap.slack(x, i))));
        }
        let damping = structural_damping(
            problem,
            params,
            x,
            self.beta,
            &self.w_buf,
            self.ddphi,
            &self.cap_ddphi,
        );

        if mn > 0
            && self.structured_applicable(params, g)
            && self.factor_structured(problem, params, x, damping).is_ok()
        {
            self.mode = KktMode::Structured;
            self.structured_factors += 1;
            mfcp_obs::counter("kkt.structured").inc();
            if mfcp_obs::trace::recording() {
                static STRUCTURED: OnceLock<u32> = OnceLock::new();
                let id = *STRUCTURED.get_or_init(|| mfcp_obs::trace::intern("kkt.structured"));
                mfcp_obs::trace::instant_id(id, None);
            }
            return Ok(());
        }

        self.factor_dense(problem, params, x)?;
        self.mode = KktMode::Dense;
        self.dense_fallbacks += 1;
        mfcp_obs::counter("kkt.dense_fallback").inc();
        if mfcp_obs::trace::recording() {
            static DENSE: OnceLock<u32> = OnceLock::new();
            let id = *DENSE.get_or_init(|| mfcp_obs::trace::intern("kkt.dense_fallback"));
            mfcp_obs::trace::instant_id(id, None);
        }
        Ok(())
    }

    fn factor_structured(
        &mut self,
        problem: &MatchingProblem,
        params: &RelaxationParams,
        x: &Matrix,
        damping: f64,
    ) -> Result<(), LinalgError> {
        let (m, n) = (self.m, self.n);
        let mn = m * n;
        let nf = n as f64;
        let t = &problem.times;
        let a = &problem.reliability;

        // Σ⁻¹: entropy + damping diagonal (floored like the dense path).
        self.sigma_inv.clear();
        self.sigma_inv.reserve(mn);
        for i in 0..m {
            for j in 0..n {
                let sigma = damping + params.rho / x[(i, j)].max(1e-7);
                if !(sigma.is_finite() && sigma > 0.0) {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i * n + j });
                }
                self.sigma_inv.push(1.0 / sigma);
            }
        }

        // Enumerate the low-rank columns of U (C's diagonal in `coeff`).
        let smoothmax = self.beta != 0.0;
        let barrier_col = self.ddphi != 0.0 && n > 0;
        let ncap = self.cap_ddphi.iter().filter(|&&v| v != 0.0).count();
        let rank = if smoothmax { m + 1 } else { 0 } + usize::from(barrier_col) + ncap;
        self.rank = rank;
        if self.ut.shape() != (rank, mn) {
            self.ut = Matrix::zeros(rank, mn);
            self.wt = Matrix::zeros(rank, mn);
        } else {
            self.ut.as_mut_slice().fill(0.0);
        }
        self.coeff.clear();
        let mut row = 0;
        if smoothmax {
            // Per-cluster columns e_i ⊗ t_i with coefficient β·w_i …
            for i in 0..m {
                let dst = self.ut.row_mut(row);
                dst[i * n..(i + 1) * n].copy_from_slice(t.row(i));
                self.coeff.push(self.beta * self.w_buf[i]);
                row += 1;
            }
            // … and the global column p (p_ij = w_i·t_ij) with coefficient
            // −β; together they form the PSD smooth-max covariance β·Cov_w.
            let dst = self.ut.row_mut(row);
            for i in 0..m {
                for j in 0..n {
                    dst[i * n + j] = self.w_buf[i] * t[(i, j)];
                }
            }
            self.coeff.push(-self.beta);
            row += 1;
        }
        if barrier_col {
            let dst = self.ut.row_mut(row);
            for i in 0..m {
                dst[i * n..(i + 1) * n].copy_from_slice(a.row(i));
            }
            self.coeff.push(self.ddphi / (nf * nf));
            row += 1;
        }
        if let Some(cap) = &problem.capacity {
            for i in 0..m {
                if self.cap_ddphi[i] != 0.0 {
                    let dst = self.ut.row_mut(row);
                    dst[i * n..(i + 1) * n].copy_from_slice(cap.usage.row(i));
                    self.coeff
                        .push(self.cap_ddphi[i] / (cap.limits[i] * cap.limits[i]));
                    row += 1;
                }
            }
        }
        debug_assert_eq!(row, rank);

        // W = Σ⁻¹ U.
        for k in 0..rank {
            let urow = self.ut.row(k);
            let wrow = self.wt.row_mut(k);
            for p in 0..mn {
                wrow[p] = self.sigma_inv[p] * urow[p];
            }
        }

        // Capacitance Cap = C⁻¹ + Uᵀ Σ⁻¹ U (LU: indefinite by design).
        if self.cap_mat.shape() != (rank, rank) {
            self.cap_mat = Matrix::zeros(rank, rank);
        }
        for k in 0..rank {
            for l in 0..rank {
                let mut v = vector::dot(self.ut.row(k), self.wt.row(l));
                if k == l {
                    v += 1.0 / self.coeff[k];
                }
                self.cap_mat[(k, l)] = v;
            }
        }
        if rank > 0 {
            self.cap_lu.refactor(&self.cap_mat)?;
        }

        // d_j = (D Σ⁻¹ Dᵀ)_jj — the simplex rows touch disjoint entries,
        // so this block is exactly diagonal.
        self.d_diag.clear();
        self.d_diag.resize(n, 0.0);
        for i in 0..m {
            for j in 0..n {
                self.d_diag[j] += self.sigma_inv[i * n + j];
            }
        }

        // G = D W and Q = Cap⁻¹ Gᵀ.
        if self.g_mat.shape() != (n, rank) {
            self.g_mat = Matrix::zeros(n, rank);
        } else {
            self.g_mat.as_mut_slice().fill(0.0);
        }
        for k in 0..rank {
            let wrow = self.wt.row(k);
            for i in 0..m {
                for j in 0..n {
                    self.g_mat[(j, k)] += wrow[i * n + j];
                }
            }
        }
        if self.q_mat.shape() != (rank, n) {
            self.q_mat = Matrix::zeros(rank, n);
        }
        if rank > 0 {
            for j in 0..n {
                self.cap_lu.solve_into(self.g_mat.row(j), &mut self.sr)?;
                for k in 0..rank {
                    self.q_mat[(k, j)] = self.sr[k];
                }
            }
        }

        // Schur complement S = D H⁻¹ Dᵀ = diag(d) − G Cap⁻¹ Gᵀ: SPD since
        // H is SPD, so Cholesky doubles as the fallback trigger. The
        // refactor runs the cache-blocked right-looking kernel (the N×N
        // Schur system is the cubic term of this path at Table-1 scale).
        if self.s_mat.shape() != (n, n) {
            self.s_mat = Matrix::zeros(n, n);
        }
        for j1 in 0..n {
            let grow = self.g_mat.row(j1);
            for j2 in 0..n {
                let mut v = if j1 == j2 { self.d_diag[j1] } else { 0.0 };
                for (k, &gv) in grow.iter().enumerate().take(rank) {
                    v -= gv * self.q_mat[(k, j2)];
                }
                self.s_mat[(j1, j2)] = v;
            }
        }
        self.schur.refactor(&self.s_mat)?;
        Ok(())
    }

    fn factor_dense(
        &mut self,
        problem: &MatchingProblem,
        params: &RelaxationParams,
        x: &Matrix,
    ) -> Result<(), LinalgError> {
        assemble_kkt_matrix_into(problem, params, x, &mut self.k_dense);
        self.dense_lu.refactor(&self.k_dense)
    }

    /// Solves `K [y; z] = rhs` in place (`rhs.len() == MN + N`), reusing
    /// the current factorization. Allocation-free after warm-up.
    ///
    /// Performs one step of iterative refinement in working precision:
    /// the Woodbury/Schur recipe and the dense LU round differently, and
    /// the residual-correction solve pushes both to the same accuracy
    /// limit, which is what lets the structured path agree with the
    /// dense oracle to 1e-9 even on ill-conditioned saddle systems.
    pub fn solve_in_place(&mut self, rhs: &mut [f64]) -> Result<(), LinalgError> {
        if self.mode == KktMode::Empty {
            return Err(LinalgError::Singular { pivot: 0 });
        }
        let mut x = std::mem::take(&mut self.refine_x);
        let mut r = std::mem::take(&mut self.refine_r);
        x.clear();
        x.extend_from_slice(rhs);
        let result = (|| {
            self.solve_once(&mut x)?;
            r.clear();
            r.resize(rhs.len(), 0.0);
            self.apply_k(&x, &mut r);
            for (ri, &bi) in r.iter_mut().zip(rhs.iter()) {
                *ri = bi - *ri;
            }
            self.solve_once(&mut r)?;
            for (xi, &di) in x.iter_mut().zip(r.iter()) {
                *xi += di;
            }
            Ok(())
        })();
        if result.is_ok() {
            rhs.copy_from_slice(&x);
        }
        self.refine_x = x;
        self.refine_r = r;
        result
    }

    /// Multiplies the factored saddle matrix: `out = K v`, using the
    /// structured representation (`Σ + U C Uᵀ` plus the simplex rows) or
    /// the assembled dense matrix, matching the current mode.
    fn apply_k(&mut self, v: &[f64], out: &mut [f64]) {
        let (m, n) = (self.m, self.n);
        let mn = m * n;
        match self.mode {
            KktMode::Empty => unreachable!("apply_k requires a factorization"),
            KktMode::Dense => {
                for (o, row) in out.iter_mut().zip((0..mn + n).map(|p| self.k_dense.row(p))) {
                    *o = vector::dot(row, v);
                }
            }
            KktMode::Structured => {
                let (y, z) = v.split_at(mn);
                let (oy, oz) = out.split_at_mut(mn);
                // oy = Σ y (Σ is stored inverted) + U C Uᵀ y + Dᵀ z.
                for (o, (&si, &yv)) in oy.iter_mut().zip(self.sigma_inv.iter().zip(y)) {
                    *o = yv / si;
                }
                self.sr.clear();
                for k in 0..self.rank {
                    self.sr.push(self.coeff[k] * vector::dot(self.ut.row(k), y));
                }
                for k in 0..self.rank {
                    let urow = self.ut.row(k);
                    let cv = self.sr[k];
                    for (o, &uv) in oy.iter_mut().zip(urow) {
                        *o += cv * uv;
                    }
                }
                oz.fill(0.0);
                for i in 0..m {
                    for j in 0..n {
                        oy[i * n + j] += z[j];
                        oz[j] += y[i * n + j];
                    }
                }
            }
        }
    }

    /// One pass of the factored solve recipe, without refinement.
    fn solve_once(&mut self, rhs: &mut [f64]) -> Result<(), LinalgError> {
        let (m, n) = (self.m, self.n);
        let mn = m * n;
        match self.mode {
            KktMode::Empty => Err(LinalgError::Singular { pivot: 0 }),
            KktMode::Dense => {
                self.dense_lu.solve_into(rhs, &mut self.sol)?;
                rhs.copy_from_slice(&self.sol);
                Ok(())
            }
            KktMode::Structured => {
                assert_eq!(rhs.len(), mn + n, "kkt rhs length");
                let (b, c) = rhs.split_at_mut(mn);
                // t1 = H⁻¹ b
                self.t1.clear();
                self.t1.resize(mn, 0.0);
                apply_h_inv(
                    &self.sigma_inv,
                    &self.ut,
                    &self.wt,
                    self.rank,
                    &self.cap_lu,
                    b,
                    &mut self.t1,
                    &mut self.sr,
                    &mut self.qr,
                )?;
                // z = S⁻¹ (D t1 − c)
                self.zn.clear();
                self.zn.extend(c.iter().take(n).map(|&v| -v));
                for i in 0..m {
                    for j in 0..n {
                        self.zn[j] += self.t1[i * n + j];
                    }
                }
                self.schur.solve_in_place(&mut self.zn)?;
                // y = H⁻¹ (b − Dᵀ z)
                self.t2.clear();
                self.t2.resize(mn, 0.0);
                for i in 0..m {
                    for j in 0..n {
                        self.t2[i * n + j] = b[i * n + j] - self.zn[j];
                    }
                }
                apply_h_inv(
                    &self.sigma_inv,
                    &self.ut,
                    &self.wt,
                    self.rank,
                    &self.cap_lu,
                    &self.t2,
                    &mut self.t1,
                    &mut self.sr,
                    &mut self.qr,
                )?;
                b.copy_from_slice(&self.t1);
                c.copy_from_slice(&self.zn);
                Ok(())
            }
        }
    }
}

/// Contracts the adjoint solution `y` (flattened `M·N`) with the
/// closed-form cross Hessians:
///
/// ```text
/// ∂²F/∂x_ij ∂t_kl = w_i δ_ik δ_jl + β t_ij w_i (δ_ik − w_k) x_kl
/// (∇²_XT F)ᵀ y [kl] = w_k y_kl + β w_k x_kl (r_k − r̄)
/// ∂²F/∂x_ij ∂a_kl = φ''(g) (x_kl/N)(a_ij/N) + φ'(g) δ_ik δ_jl / N
/// (∇²_XA F)ᵀ y [kl] = φ'' x_kl q / N² + φ' y_kl / N
/// ```
///
/// with `r_i = Σ_j t_ij y_ij`, `r̄ = Σ_i w_i r_i`, `q = Σ_ij y_ij a_ij`.
fn contract_cross_hessians(
    problem: &MatchingProblem,
    x_star: &Matrix,
    y: &[f64],
    beta: f64,
    dphi: f64,
    ddphi: f64,
    w: &[f64],
) -> KktGradients {
    let (m, n) = x_star.shape();
    let nf = n as f64;
    let t = &problem.times;
    let a = &problem.reliability;
    let idx = |i: usize, j: usize| i * n + j;

    let mut r = vec![0.0; m];
    let mut q = 0.0;
    for i in 0..m {
        for j in 0..n {
            r[i] += t[(i, j)] * y[idx(i, j)];
            q += a[(i, j)] * y[idx(i, j)];
        }
    }
    let rbar: f64 = (0..m).map(|i| w[i] * r[i]).sum();

    let mut dl_dt = Matrix::zeros(m, n);
    let mut dl_da = Matrix::zeros(m, n);
    for kcl in 0..m {
        for l in 0..n {
            let yv = y[idx(kcl, l)];
            let vt = w[kcl] * yv + beta * w[kcl] * x_star[(kcl, l)] * (r[kcl] - rbar);
            dl_dt[(kcl, l)] = -vt;
            let va = ddphi * x_star[(kcl, l)] * q / (nf * nf) + dphi * yv / nf;
            dl_da[(kcl, l)] = -va;
        }
    }
    KktGradients { dl_dt, dl_da }
}

/// Computes `∂L/∂T` and `∂L/∂A` at the relaxed optimum `x_star` given the
/// upstream gradient `dl_dx = ∂L/∂X*`.
///
/// Convenience wrapper over [`implicit_gradients_with`] with a throwaway
/// workspace; hot paths should hold a [`KktWorkspace`] and call the
/// `_with` variant to reuse factorization storage.
///
/// # Errors
/// Returns an error when the KKT matrix is singular (e.g. `rho = 0` with a
/// vertex solution).
///
/// # Panics
/// Panics if any speedup curve is non-trivial (non-convex case — use the
/// zeroth-order path). Both cost kinds are supported ([`CostKind::LinearSum`]
/// is the β → 0 limit of the smooth-max formulas).
pub fn implicit_gradients(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x_star: &Matrix,
    dl_dx: &Matrix,
) -> Result<KktGradients, LinalgError> {
    let mut ws = KktWorkspace::new();
    implicit_gradients_with(problem, params, x_star, dl_dx, &mut ws)
}

/// [`implicit_gradients`] reusing a caller-owned [`KktWorkspace`]: one
/// structured (or dense-fallback) factorization, one adjoint solve, and
/// the closed-form contraction — no saddle matrix materialized on the
/// structured path.
///
/// # Errors
/// Returns an error when the KKT system cannot be factored or solved.
///
/// # Panics
/// Same convexity restriction as [`implicit_gradients`].
pub fn implicit_gradients_with(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x_star: &Matrix,
    dl_dx: &Matrix,
    ws: &mut KktWorkspace,
) -> Result<KktGradients, LinalgError> {
    assert!(
        problem.speedup.iter().all(|c| c.is_trivial()),
        "MFCP-AD requires the convex (sequential) setting; use zeroth-order gradients for parallel execution"
    );
    let (m, n) = x_star.shape();
    assert_eq!((m, n), problem.times.shape());
    assert_eq!(dl_dx.shape(), (m, n));
    let mn = m * n;
    if mn == 0 {
        return Ok(KktGradients {
            dl_dt: Matrix::zeros(m, n),
            dl_da: Matrix::zeros(m, n),
        });
    }

    ws.factor(problem, params, x_star)?;

    // ---- adjoint solve K [y; z] = [dl_dx; 0] --------------------------
    let mut rhs = std::mem::take(&mut ws.rhs);
    rhs.clear();
    rhs.resize(mn + n, 0.0);
    rhs[..mn].copy_from_slice(dl_dx.as_slice());
    let result = match ws.solve_in_place(&mut rhs) {
        Ok(()) => Ok(contract_cross_hessians(
            problem,
            x_star,
            &rhs[..mn],
            ws.beta,
            ws.dphi,
            ws.ddphi,
            &ws.w_buf,
        )),
        Err(e) => Err(e),
    };
    ws.rhs = rhs;
    result
}

/// Dense-LU reference implementation of [`implicit_gradients`]: assembles
/// the full `(MN+N)×(MN+N)` saddle matrix and solves it directly,
/// bypassing the structured elimination entirely. Kept public as the
/// oracle for the structured-vs-dense differential test suite and for the
/// perfgate comparison; production code should use the workspace path.
///
/// # Errors
/// Returns an error when the dense KKT matrix is singular.
///
/// # Panics
/// Same convexity restriction as [`implicit_gradients`].
pub fn implicit_gradients_dense(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x_star: &Matrix,
    dl_dx: &Matrix,
) -> Result<KktGradients, LinalgError> {
    assert!(
        problem.speedup.iter().all(|c| c.is_trivial()),
        "MFCP-AD requires the convex (sequential) setting; use zeroth-order gradients for parallel execution"
    );
    let (m, n) = x_star.shape();
    assert_eq!((m, n), problem.times.shape());
    assert_eq!(dl_dx.shape(), (m, n));
    let mn = m * n;
    if mn == 0 {
        return Ok(KktGradients {
            dl_dt: Matrix::zeros(m, n),
            dl_da: Matrix::zeros(m, n),
        });
    }

    let stats = objective::cluster_stats(problem, params, x_star);
    let g = objective::reliability_slack(problem, x_star);
    let dphi = objective::barrier_derivative(params, g);
    let ddphi = barrier_second_derivative(params, g);
    // The linear-sum ablation is the β → 0 limit with uniform weights:
    // the cost Hessian vanishes and the cross term reduces to the
    // identity (∂²F/∂x_ij∂t_kl = δ_ik δ_jl).
    let (beta, w): (f64, Vec<f64>) = match params.cost {
        CostKind::SmoothMax => (params.beta, stats.weights.clone()),
        CostKind::LinearSum => (0.0, vec![1.0; m]),
    };
    let k = assemble_kkt_matrix(problem, params, x_star);
    let mut rhs = vec![0.0; mn + n];
    rhs[..mn].copy_from_slice(dl_dx.as_slice());
    let lu = Lu::factor(&k)?;
    let mut y_full = lu.solve(&rhs)?;
    // One refinement step, mirroring the workspace path, so the oracle
    // reaches the same accuracy limit it is compared against.
    let residual: Vec<f64> = (0..mn + n)
        .map(|p| rhs[p] - mfcp_linalg::vector::dot(k.row(p), &y_full))
        .collect();
    let correction = lu.solve(&residual)?;
    for (y, d) in y_full.iter_mut().zip(&correction) {
        *y += d;
    }
    Ok(contract_cross_hessians(
        problem,
        x_star,
        &y_full[..mn],
        beta,
        dphi,
        ddphi,
        &w,
    ))
}

/// Full Jacobians of the relaxed optimum with respect to the prediction
/// matrices, as dense `(M·N) x (M·N)` matrices in row-major `(i·N + j)`
/// flattening: `dx_dt[(p, q)] = ∂X*_p / ∂T_q`.
#[derive(Debug, Clone)]
pub struct SolutionJacobians {
    /// `∂X*/∂T`.
    pub dx_dt: Matrix,
    /// `∂X*/∂A`.
    pub dx_da: Matrix,
}

/// Materializes `∂X*/∂T` and `∂X*/∂A` at the relaxed optimum — the
/// interpretability view of the matching layer: column `(k, l)` says how
/// every assignment probability moves when the prediction for task `l` on
/// cluster `k` changes. One LU factorization, `2·M·N` solves.
///
/// Training never needs this (it uses the adjoint VJP in
/// [`implicit_gradients`]); use it for per-round sensitivity reports and
/// diagnostics. Same convexity restriction as the rest of this module.
pub fn solution_jacobians(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x_star: &Matrix,
) -> Result<SolutionJacobians, LinalgError> {
    let mut ws = KktWorkspace::new();
    solution_jacobians_with(problem, params, x_star, &mut ws)
}

/// [`solution_jacobians`] reusing a caller-owned [`KktWorkspace`]: the
/// factorization is built once and all `2·M·N` sensitivity solves reuse
/// it (structured elimination when applicable, dense LU otherwise).
///
/// # Errors
/// Returns an error when the KKT system cannot be factored or solved.
///
/// # Panics
/// Same convexity restriction as [`solution_jacobians`].
pub fn solution_jacobians_with(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x_star: &Matrix,
    ws: &mut KktWorkspace,
) -> Result<SolutionJacobians, LinalgError> {
    assert!(
        problem.speedup.iter().all(|c| c.is_trivial()),
        "solution Jacobians require the convex (sequential) setting"
    );
    let (m, n) = x_star.shape();
    let mn = m * n;
    if mn == 0 {
        return Ok(SolutionJacobians {
            dx_dt: Matrix::zeros(0, 0),
            dx_da: Matrix::zeros(0, 0),
        });
    }
    ws.factor(problem, params, x_star)?;
    let (beta, dphi, ddphi) = (ws.beta, ws.dphi, ws.ddphi);
    let w = ws.w_buf.clone();
    let t = &problem.times;
    let a = &problem.reliability;
    let nf = n as f64;
    let idx = |i: usize, j: usize| i * n + j;

    let mut dx_dt = Matrix::zeros(mn, mn);
    let mut dx_da = Matrix::zeros(mn, mn);
    let mut rhs = std::mem::take(&mut ws.rhs);
    rhs.clear();
    rhs.resize(mn + n, 0.0);
    let result = (|| -> Result<(), LinalgError> {
        for kcl in 0..m {
            for l in 0..n {
                let col = idx(kcl, l);
                // ---- dX/dT column: rhs = −∇²_XT F e_(k,l) -----------------
                // ∂²F/∂x_ij∂t_kl = w_i δ_ik δ_jl + β t_ij w_i (δ_ik − w_k) x_kl
                for slot in rhs.iter_mut() {
                    *slot = 0.0;
                }
                for i in 0..m {
                    for j in 0..n {
                        let mut v = 0.0;
                        if i == kcl && j == l {
                            v += w[i];
                        }
                        v += beta
                            * t[(i, j)]
                            * w[i]
                            * ((i == kcl) as u8 as f64 - w[kcl])
                            * x_star[(kcl, l)];
                        rhs[idx(i, j)] = -v;
                    }
                }
                ws.solve_in_place(&mut rhs)?;
                for p in 0..mn {
                    dx_dt[(p, col)] = rhs[p];
                }
                // ---- dX/dA column ------------------------------------------
                // ∂²F/∂x_ij∂a_kl = φ''(g)(x_kl/N)(a_ij/N) + φ'(g) δ_ik δ_jl/N
                for slot in rhs.iter_mut() {
                    *slot = 0.0;
                }
                for i in 0..m {
                    for j in 0..n {
                        let mut v = ddphi * x_star[(kcl, l)] * a[(i, j)] / (nf * nf);
                        if i == kcl && j == l {
                            v += dphi / nf;
                        }
                        rhs[idx(i, j)] = -v;
                    }
                }
                ws.solve_in_place(&mut rhs)?;
                for p in 0..mn {
                    dx_da[(p, col)] = rhs[p];
                }
            }
        }
        Ok(())
    })();
    ws.rhs = rhs;
    result?;
    Ok(SolutionJacobians { dx_dt, dx_da })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve_relaxed, SolverOptions};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tight_opts() -> SolverOptions {
        SolverOptions {
            max_iters: 20_000,
            lr: 0.5,
            tol: 1e-14,
            ..Default::default()
        }
    }

    fn random_setup(seed: u64, m: usize, n: usize) -> (MatchingProblem, RelaxationParams, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.5..2.5));
        let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.75..1.0));
        let problem = MatchingProblem::new(t, a, 0.7);
        let params = RelaxationParams {
            beta: 3.0,
            lambda: 0.05,
            rho: 0.05,
            ..Default::default()
        };
        let c = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
        (problem, params, c)
    }

    /// L(T, A) = <c, X*(T, A)>: the canonical linear probe for testing
    /// Jacobians of an argmin.
    fn probe_loss(problem: &MatchingProblem, params: &RelaxationParams, c: &Matrix) -> f64 {
        let sol = solve_relaxed(problem, params, &tight_opts());
        // Elementwise contraction <c, X*> without going through the
        // shape-checked hadamard Result (shapes are equal by construction).
        c.as_slice()
            .iter()
            .zip(sol.x.as_slice())
            .map(|(ci, xi)| ci * xi)
            .sum()
    }

    #[test]
    fn dt_matches_finite_differences() {
        let (problem, params, c) = random_setup(1, 3, 4);
        let sol = solve_relaxed(&problem, &params, &tight_opts());
        let grads = implicit_gradients(&problem, &params, &sol.x, &c).unwrap();

        let h = 1e-5;
        for &(i, j) in &[(0usize, 0usize), (1, 2), (2, 3)] {
            let mut tp = problem.clone();
            tp.times[(i, j)] += h;
            let mut tm = problem.clone();
            tm.times[(i, j)] -= h;
            let numeric = (probe_loss(&tp, &params, &c) - probe_loss(&tm, &params, &c)) / (2.0 * h);
            let analytic = grads.dl_dt[(i, j)];
            assert!(
                (analytic - numeric).abs() < 2e-3 * (1.0 + numeric.abs()),
                "dT[{i},{j}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn da_matches_finite_differences() {
        // Make the barrier bind: gamma close to the achievable mean.
        let mut rng = StdRng::seed_from_u64(2);
        let t = Matrix::from_fn(3, 4, |_, _| rng.gen_range(0.5..2.5));
        let a = Matrix::from_fn(3, 4, |_, _| rng.gen_range(0.75..0.95));
        let problem = MatchingProblem::new(t, a, 0.82);
        let params = RelaxationParams {
            beta: 3.0,
            lambda: 0.1,
            rho: 0.05,
            ..Default::default()
        };
        let c = Matrix::from_fn(3, 4, |_, _| rng.gen_range(-1.0..1.0));
        let sol = solve_relaxed(&problem, &params, &tight_opts());
        let g = objective::reliability_slack(&problem, &sol.x);
        assert!(g > 0.0, "barrier must be active-side feasible");
        let grads = implicit_gradients(&problem, &params, &sol.x, &c).unwrap();

        let h = 1e-5;
        for &(i, j) in &[(0usize, 1usize), (1, 0), (2, 2)] {
            let mut pp = problem.clone();
            pp.reliability[(i, j)] += h;
            let mut pm = problem.clone();
            pm.reliability[(i, j)] -= h;
            let numeric = (probe_loss(&pp, &params, &c) - probe_loss(&pm, &params, &c)) / (2.0 * h);
            let analytic = grads.dl_da[(i, j)];
            assert!(
                (analytic - numeric).abs() < 2e-3 * (1.0 + numeric.abs()),
                "dA[{i},{j}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn reliability_gradient_nonzero_through_barrier() {
        // The whole point of the interior-point reformulation: ∂X*/∂A must
        // not vanish when the constraint is strictly satisfied.
        let (problem, params, c) = random_setup(3, 3, 5);
        let sol = solve_relaxed(&problem, &params, &tight_opts());
        let grads = implicit_gradients(&problem, &params, &sol.x, &c).unwrap();
        assert!(
            grads.dl_da.max_abs() > 1e-8,
            "log barrier should give meaningful reliability gradients"
        );
    }

    #[test]
    fn hard_penalty_gradient_vanishes_when_feasible() {
        // The ablation's failure mode (paper Table 1 row 2): with a hinge
        // penalty and a satisfied constraint, ∂X*/∂A ≡ 0.
        let (problem, mut params, c) = random_setup(4, 3, 5);
        params.barrier = BarrierKind::HardPenalty;
        let sol = solve_relaxed(&problem, &params, &tight_opts());
        assert!(objective::reliability_slack(&problem, &sol.x) > 0.0);
        let grads = implicit_gradients(&problem, &params, &sol.x, &c).unwrap();
        assert!(grads.dl_da.max_abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "convex")]
    fn rejects_parallel_setting() {
        let (mut problem, params, c) = random_setup(5, 2, 3);
        problem.speedup = vec![crate::speedup::SpeedupCurve::paper_parallel(); 2];
        let x = crate::solver::uniform_init(2, 3);
        let _ = implicit_gradients(&problem, &params, &x, &c);
    }

    #[test]
    fn linear_cost_gradients_match_finite_differences() {
        let (problem, mut params, c) = random_setup(8, 3, 4);
        params.cost = CostKind::LinearSum;
        let sol = solve_relaxed(&problem, &params, &tight_opts());
        let grads = implicit_gradients(&problem, &params, &sol.x, &c).unwrap();
        let h = 1e-5;
        for &(i, j) in &[(0usize, 0usize), (2, 3)] {
            let mut tp = problem.clone();
            tp.times[(i, j)] += h;
            let mut tm = problem.clone();
            tm.times[(i, j)] -= h;
            let numeric = (probe_loss(&tp, &params, &c) - probe_loss(&tm, &params, &c)) / (2.0 * h);
            let analytic = grads.dl_dt[(i, j)];
            assert!(
                (analytic - numeric).abs() < 2e-3 * (1.0 + numeric.abs()),
                "dT[{i},{j}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn jacobian_consistent_with_adjoint_vjp() {
        // For any upstream gradient c: implicit_gradients(c) must equal
        // the contraction of c with the materialized Jacobians.
        let (problem, params, c) = random_setup(6, 3, 4);
        let sol = solve_relaxed(&problem, &params, &tight_opts());
        let grads = implicit_gradients(&problem, &params, &sol.x, &c).unwrap();
        let jac = solution_jacobians(&problem, &params, &sol.x).unwrap();
        let (m, n) = (3, 4);
        let mn = m * n;
        let cvec: Vec<f64> = (0..mn).map(|p| c[(p / n, p % n)]).collect();
        for kcl in 0..m {
            for l in 0..n {
                let col = kcl * n + l;
                let via_jac_t: f64 = (0..mn).map(|p| cvec[p] * jac.dx_dt[(p, col)]).sum();
                let via_jac_a: f64 = (0..mn).map(|p| cvec[p] * jac.dx_da[(p, col)]).sum();
                assert!(
                    (via_jac_t - grads.dl_dt[(kcl, l)]).abs() < 1e-8,
                    "dT[{kcl},{l}]: {via_jac_t} vs {}",
                    grads.dl_dt[(kcl, l)]
                );
                assert!(
                    (via_jac_a - grads.dl_da[(kcl, l)]).abs() < 1e-8,
                    "dA[{kcl},{l}]: {via_jac_a} vs {}",
                    grads.dl_da[(kcl, l)]
                );
            }
        }
    }

    #[test]
    fn jacobian_columns_sum_to_zero_within_tasks() {
        // Perturbing any prediction moves mass within each task's simplex
        // column, so ∂(Σ_i x_ij)/∂θ = 0 for every task j.
        let (problem, params, _) = random_setup(7, 3, 4);
        let sol = solve_relaxed(&problem, &params, &tight_opts());
        let jac = solution_jacobians(&problem, &params, &sol.x).unwrap();
        let (m, n) = (3, 4);
        for col in 0..m * n {
            for j in 0..n {
                let mass_change: f64 = (0..m).map(|i| jac.dx_dt[(i * n + j, col)]).sum();
                assert!(
                    mass_change.abs() < 1e-8,
                    "column {col}, task {j}: mass change {mass_change}"
                );
            }
        }
    }

    #[test]
    fn empty_problem_returns_zeros() {
        let problem = MatchingProblem::new(Matrix::zeros(2, 0), Matrix::zeros(2, 0), 0.5);
        let params = RelaxationParams::default();
        let x = Matrix::zeros(2, 0);
        let g = implicit_gradients(&problem, &params, &x, &Matrix::zeros(2, 0)).unwrap();
        assert_eq!(g.dl_dt.shape(), (2, 0));
    }
}
