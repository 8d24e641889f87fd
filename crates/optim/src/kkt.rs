//! Implicit differentiation of the relaxed matching optimum (paper §3.3,
//! Eq. 13–15) — the MFCP-AD path — in the solver's price coordinates.
//!
//! The paper differentiates the stationarity system of the relaxed
//! problem, the `(MN+N)` saddle system
//!
//! ```text
//! [ H   Dᵀ ] [ dX ]     [ ∇²_XT F · dT + ∇²_XA F · dA ]
//! [ D   0  ] [ dν ]  = −[ 0                            ]
//! ```
//!
//! with `H = ∇²_XX F` and `D` the per-task simplex rows. Apart from the
//! entropy, `F` depends on `X` only through the per-cluster sums `A·x`
//! (see [`crate::solver`], "Price trials"), so `H = F_fᵀ·H_Φ·F_f + ρ/x`
//! is diagonal plus rank `r` ([`price_dim`] prices), and at an optimum
//! `x* = x(θ*)` solves the price fixed point `G(θ) = θ − ∇Φ(A·x(θ)) = 0`.
//! Eliminating the simplex rows and the diagonal leaves the Schur
//! complement of the saddle system on the prices:
//!
//! ```text
//! ∂G/∂θ = J = I + H_Φ·C/ρ,      C = Σ_j Cov_{x_j}(f_j)
//! ```
//!
//! the same `r×r` matrix a price trial of the solver factors. For a
//! loss with upstream gradient `g = ∂L/∂X*`, the adjoint is one
//! transposed solve `Jᵀ·λ = b` with `b = Σ_j Σ_i x_ij (g_ij − ḡ_j) f_ij / ρ`
//! (`ḡ_j = Σ_i x_ij g_ij`), then `u = H_Φ·λ`, and one `O(MN·r)` sweep:
//!
//! ```text
//! e_kl     = (g_kl − ḡ_l) − u·(f_kl − μ_l)          μ_l = Σ_i x_il f_il
//! ∂L/∂t_kl = −x_kl·(u_k + θ_k·e_kl/ρ)
//! ∂L/∂a_kl = −x_kl·(u_M + θ_M·e_kl/ρ)
//! ```
//!
//! with `θ = ∇Φ(A·x*)` the optimum's prices. Evaluated at the same `x*`
//! this equals the saddle system's adjoint exactly; the two differ only
//! by the saddle path's Tikhonov damping and its `1e-7` floor under `x`
//! (DESIGN.md, "Differentiate in price space", gives the measured gap).
//!
//! Only the convex (sequential-execution) case is supported — exactly
//! the regime where the paper applies MFCP-AD; the parallel case goes
//! through [`crate::zeroth`]. The adjoint needs the entropy term: with
//! `ρ ≤ 0` the optimum sits on a face of the simplex where `J` is
//! undefined, and every entry point returns [`LinalgError::Singular`].

use crate::objective::{price_dim, IterStats, RelaxationParams, TransposedEval};
use crate::problem::MatchingProblem;
use crate::solver::{covariance_into, solve_dense_in_place};
use mfcp_linalg::{LinalgError, Matrix};

/// Gradients of a scalar loss with respect to the problem's performance
/// matrices, obtained by implicit differentiation.
#[derive(Debug, Clone)]
pub struct KktGradients {
    /// `∂L/∂T`, shape `M x N`.
    pub dl_dt: Matrix,
    /// `∂L/∂A`, shape `M x N`.
    pub dl_da: Matrix,
}

/// Reusable storage for the price-space adjoint: the transposed problem
/// data, the optimum's per-cluster sums, its prices `θ`, the Hessian
/// model `H_Φ`, the feature covariance `C` and the `r×r` system, plus
/// two counters. Holding one workspace per thread makes repeated
/// backward passes allocation-free after warm-up.
#[derive(Debug, Clone)]
pub struct KktWorkspace {
    teval: TransposedEval,
    stats: IterStats,
    /// The optimum, task-major (`N×M`).
    xt: Matrix,
    /// Zero logs for [`IterStats::add_row`] (the entropy sum is unused).
    logs: Vec<f64>,
    theta: Vec<f64>,
    hess: Vec<f64>,
    cov: Vec<f64>,
    sys: Vec<f64>,
    mu: Vec<f64>,
    rhs: Vec<f64>,
    u: Vec<f64>,
    // Telemetry (also mirrored to the `kkt.structured` /
    // `kkt.dense_fallback` observability counters).
    structured_factors: u64,
    dense_fallbacks: u64,
}

impl Default for KktWorkspace {
    fn default() -> Self {
        KktWorkspace {
            teval: TransposedEval::default(),
            stats: IterStats::default(),
            xt: Matrix::zeros(0, 0),
            logs: Vec::new(),
            theta: Vec::new(),
            hess: Vec::new(),
            cov: Vec::new(),
            sys: Vec::new(),
            mu: Vec::new(),
            rhs: Vec::new(),
            u: Vec::new(),
            structured_factors: 0,
            dense_fallbacks: 0,
        }
    }
}

impl KktWorkspace {
    /// A fresh workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of adjoint (or forward) `r×r` solves this workspace
    /// completed.
    pub fn structured_factors(&self) -> u64 {
        self.structured_factors
    }

    /// Number of calls this workspace refused with a typed error
    /// (`ρ ≤ 0`, or a singular or non-finite price system).
    pub fn dense_fallbacks(&self) -> u64 {
        self.dense_fallbacks
    }

    /// Counts one finished call by its outcome.
    fn count<T>(&mut self, result: &Result<T, LinalgError>) {
        if result.is_ok() {
            self.structured_factors += 1;
            mfcp_obs::counter("kkt.structured").inc();
        } else {
            self.dense_fallbacks += 1;
            mfcp_obs::counter("kkt.dense_fallback").inc();
        }
    }

    /// Builds the price system at `x` (`M×N`): its task-major copy, its
    /// prices `θ = ∇Φ(A·x)`, `H_Φ` and `C`.
    fn factor(
        &mut self,
        problem: &MatchingProblem,
        params: &RelaxationParams,
        x: &Matrix,
    ) -> Result<(), LinalgError> {
        // A NaN weight is refused too.
        if params.rho.is_nan() || params.rho <= 0.0 {
            return Err(LinalgError::Singular { pivot: 0 });
        }
        let (m, n) = x.shape();
        let r = price_dim(problem);
        self.teval.prepare(problem);
        if self.xt.shape() != (n, m) {
            self.xt = Matrix::zeros(n, m);
        }
        for i in 0..m {
            for (j, &v) in x.row(i).iter().enumerate() {
                self.xt[(j, i)] = v;
            }
        }
        self.logs.clear();
        self.logs.resize(m, 0.0);
        self.stats.reset(m);
        for j in 0..n {
            self.stats
                .add_row(&self.teval, j, self.xt.row(j), &self.logs);
        }
        for buf in [&mut self.theta, &mut self.mu, &mut self.rhs, &mut self.u] {
            buf.clear();
            buf.resize(r, 0.0);
        }
        for buf in [&mut self.hess, &mut self.cov, &mut self.sys] {
            buf.clear();
            buf.resize(r * r, 0.0);
        }
        self.stats.prices_into(problem, params, &mut self.theta);
        self.stats
            .price_hessian_into(problem, params, &self.theta, &mut self.hess);
        covariance_into(&self.teval, &self.xt, &mut self.mu, &mut self.cov);
        Ok(())
    }

    /// Writes `J = I + H_Φ·C/ρ` (or its transpose `I + C·H_Φ/ρ`) into
    /// `sys`.
    fn system(&mut self, rho: f64, transposed: bool) {
        let r = self.theta.len();
        let (left, right) = if transposed {
            (&self.cov, &self.hess)
        } else {
            (&self.hess, &self.cov)
        };
        for a in 0..r {
            for b in 0..r {
                let mut v = 0.0;
                for k in 0..r {
                    v += left[a * r + k] * right[k * r + b];
                }
                self.sys[a * r + b] = v / rho + if a == b { 1.0 } else { 0.0 };
            }
        }
    }

    /// `v·f_ij` for task `j` on cluster `i` (features in [`price_dim`]
    /// layout; a trivial-speedup problem has no count slots).
    fn feature_dot(&self, v: &[f64], j: usize, i: usize) -> f64 {
        let m = self.xt.cols();
        let mut s = v[i] * self.teval.tt[(j, i)] + v[m] * self.teval.at[(j, i)];
        if let Some(ut) = &self.teval.ut {
            s += v[m + 1 + i] * ut[(j, i)];
        }
        s
    }

    /// Adds `c·f_ij` to `out`.
    fn add_feature(&self, out: &mut [f64], c: f64, j: usize, i: usize) {
        let m = self.xt.cols();
        out[i] += c * self.teval.tt[(j, i)];
        out[m] += c * self.teval.at[(j, i)];
        if let Some(ut) = &self.teval.ut {
            out[m + 1 + i] += c * ut[(j, i)];
        }
    }

    /// The reverse sweep (module docs) at the factored point.
    fn adjoint(&mut self, rho: f64, dl_dx: &Matrix) -> Result<KktGradients, LinalgError> {
        let (n, m) = self.xt.shape();
        let r = self.theta.len();
        let mut b = std::mem::take(&mut self.rhs);
        b.fill(0.0);
        for j in 0..n {
            let xr = self.xt.row(j);
            let gbar: f64 = (0..m).map(|i| xr[i] * dl_dx[(i, j)]).sum();
            for i in 0..m {
                let c = xr[i] * (dl_dx[(i, j)] - gbar) / rho;
                self.add_feature(&mut b, c, j, i);
            }
        }
        self.system(rho, true);
        let solved = solve_dense_in_place(&mut self.sys, &mut b);
        self.rhs = b;
        if !solved {
            return Err(LinalgError::Singular { pivot: r });
        }
        for a in 0..r {
            self.u[a] = (0..r).map(|k| self.hess[a * r + k] * self.rhs[k]).sum();
        }
        let mut dl_dt = Matrix::zeros(m, n);
        let mut dl_da = Matrix::zeros(m, n);
        for l in 0..n {
            let xr = self.xt.row(l);
            let gbar: f64 = (0..m).map(|i| xr[i] * dl_dx[(i, l)]).sum();
            let ubar: f64 = (0..m)
                .map(|i| xr[i] * self.feature_dot(&self.u, l, i))
                .sum();
            for k in 0..m {
                let x = xr[k];
                let e = (dl_dx[(k, l)] - gbar) - (self.feature_dot(&self.u, l, k) - ubar);
                dl_dt[(k, l)] = -x * (self.u[k] + self.theta[k] * e / rho);
                dl_da[(k, l)] = -x * (self.u[m] + self.theta[m] * e / rho);
            }
        }
        Ok(KktGradients { dl_dt, dl_da })
    }
}

/// Asserts the convex setting and matching shapes; `true` when the
/// problem is empty.
fn check_inputs(problem: &MatchingProblem, x_star: &Matrix) -> bool {
    assert!(
        problem.speedup.iter().all(|c| c.is_trivial()),
        "MFCP-AD requires the convex (sequential) setting; use zeroth-order gradients for parallel execution"
    );
    assert_eq!(x_star.shape(), problem.times.shape());
    x_star.rows() * x_star.cols() == 0
}

/// Computes `∂L/∂T` and `∂L/∂A` at the relaxed optimum `x_star` given the
/// upstream gradient `dl_dx = ∂L/∂X*`.
///
/// Convenience wrapper over [`implicit_gradients_with`] with a throwaway
/// workspace; hot paths should hold a [`KktWorkspace`] and call the
/// `_with` variant to reuse its storage.
///
/// # Errors
/// [`LinalgError::Singular`] when `ρ ≤ 0` (no entropy term, so no
/// interior optimum to differentiate) or the price system is singular
/// or not finite.
///
/// # Panics
/// Panics if any speedup curve is non-trivial (non-convex case — use the
/// zeroth-order path). Both cost kinds are supported
/// ([`crate::CostKind::LinearSum`] has unit load prices and no cost
/// curvature).
pub fn implicit_gradients(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x_star: &Matrix,
    dl_dx: &Matrix,
) -> Result<KktGradients, LinalgError> {
    let mut ws = KktWorkspace::new();
    implicit_gradients_with(problem, params, x_star, dl_dx, &mut ws)
}

/// [`implicit_gradients`] reusing a caller-owned [`KktWorkspace`]: the
/// price system at `x_star`, one transposed `r×r` solve and one sweep
/// over the assignment.
///
/// # Errors
/// Same as [`implicit_gradients`].
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
    let (m, n) = x_star.shape();
    assert_eq!(dl_dx.shape(), (m, n));
    if check_inputs(problem, x_star) {
        return Ok(KktGradients {
            dl_dt: Matrix::zeros(m, n),
            dl_da: Matrix::zeros(m, n),
        });
    }
    let result = ws
        .factor(problem, params, x_star)
        .and_then(|()| ws.adjoint(params.rho, dl_dx));
    ws.count(&result);
    result
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
/// cluster `k` changes.
///
/// Training never needs this (it uses the adjoint VJP in
/// [`implicit_gradients`]); use it for per-round sensitivity reports and
/// diagnostics. Same convexity restriction and errors as the rest of
/// this module.
pub fn solution_jacobians(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x_star: &Matrix,
) -> Result<SolutionJacobians, LinalgError> {
    let mut ws = KktWorkspace::new();
    solution_jacobians_with(problem, params, x_star, &mut ws)
}

/// [`solution_jacobians`] reusing a caller-owned [`KktWorkspace`], in
/// forward mode over the same price system: `Z = J⁻¹·H_Φ` once (`r`
/// solves), then per perturbed feature `δ = e_s` of task `l` on cluster
/// `k` (`s = k` for `T`, `s = M` for `A`)
///
/// ```text
/// dθ    = Z·x_kl·(e_s − (f_kl − μ_l)·θ_s/ρ)
/// dx_ij = −x_ij·(f_ij − μ_j)·dθ/ρ − [j = l]·x_ij·(δ_ik − x_kl)·θ_s/ρ
/// ```
///
/// # Errors
/// Same as [`implicit_gradients`].
///
/// # Panics
/// Same convexity restriction as [`solution_jacobians`].
pub fn solution_jacobians_with(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x_star: &Matrix,
    ws: &mut KktWorkspace,
) -> Result<SolutionJacobians, LinalgError> {
    if check_inputs(problem, x_star) {
        return Ok(SolutionJacobians {
            dx_dt: Matrix::zeros(0, 0),
            dx_da: Matrix::zeros(0, 0),
        });
    }
    let result = ws
        .factor(problem, params, x_star)
        .and_then(|()| forward(ws, params.rho));
    ws.count(&result);
    result
}

/// The forward sweep of [`solution_jacobians_with`] at the factored
/// point.
fn forward(ws: &mut KktWorkspace, rho: f64) -> Result<SolutionJacobians, LinalgError> {
    let (n, m) = ws.xt.shape();
    let r = ws.theta.len();
    let mn = m * n;
    // Z = J⁻¹·H_Φ, column by column (row-major `z[a * r + c]`).
    ws.system(rho, false);
    let j_mat = ws.sys.clone();
    let mut z = vec![0.0; r * r];
    let mut col = vec![0.0; r];
    for c in 0..r {
        ws.sys.copy_from_slice(&j_mat);
        for (a, v) in col.iter_mut().enumerate() {
            *v = ws.hess[a * r + c];
        }
        if !solve_dense_in_place(&mut ws.sys, &mut col) {
            return Err(LinalgError::Singular { pivot: r });
        }
        for a in 0..r {
            z[a * r + c] = col[a];
        }
    }
    // Per-task feature means μ_j.
    let mut mus = vec![0.0; n * r];
    for j in 0..n {
        for i in 0..m {
            let x = ws.xt[(j, i)];
            ws.add_feature(&mut mus[j * r..(j + 1) * r], x, j, i);
        }
    }
    let mut dx_dt = Matrix::zeros(mn, mn);
    let mut dx_da = Matrix::zeros(mn, mn);
    let (mut ds, mut dtheta) = (vec![0.0; r], vec![0.0; r]);
    for (s_of, out) in [(None, &mut dx_dt), (Some(m), &mut dx_da)] {
        for k in 0..m {
            let s = s_of.unwrap_or(k);
            let scale = ws.theta[s] / rho;
            for l in 0..n {
                let x_kl = ws.xt[(l, k)];
                // ds = x_kl·(e_s − (f_kl − μ_l)·θ_s/ρ).
                ds.copy_from_slice(&mus[l * r..(l + 1) * r]);
                for v in ds.iter_mut() {
                    *v *= x_kl * scale;
                }
                ws.add_feature(&mut ds, -x_kl * scale, l, k);
                ds[s] += x_kl;
                for a in 0..r {
                    dtheta[a] = (0..r).map(|c| z[a * r + c] * ds[c]).sum();
                }
                let q = k * n + l;
                for j in 0..n {
                    let mu_d: f64 = (0..r).map(|a| mus[j * r + a] * dtheta[a]).sum();
                    for i in 0..m {
                        let x = ws.xt[(j, i)];
                        let mut d = -x * (ws.feature_dot(&dtheta, j, i) - mu_d) / rho;
                        if j == l {
                            let delta = if i == k { 1.0 } else { 0.0 };
                            d -= x * (delta - x_kl) * scale;
                        }
                        out[(i * n + j, q)] = d;
                    }
                }
            }
        }
    }
    Ok(SolutionJacobians { dx_dt, dx_da })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{self, BarrierKind, CostKind};
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
    fn refuses_without_entropy_and_counts_it() {
        let (problem, mut params, c) = random_setup(9, 3, 4);
        let x = crate::solver::uniform_init(3, 4);
        let mut ws = KktWorkspace::new();
        for rho in [0.0, -0.1, f64::NAN] {
            params.rho = rho;
            assert_eq!(
                implicit_gradients_with(&problem, &params, &x, &c, &mut ws).unwrap_err(),
                LinalgError::Singular { pivot: 0 }
            );
        }
        assert!(solution_jacobians_with(&problem, &params, &x, &mut ws).is_err());
        assert_eq!((ws.structured_factors(), ws.dense_fallbacks()), (0, 4));
        params.rho = 0.05;
        implicit_gradients_with(&problem, &params, &x, &c, &mut ws).unwrap();
        assert_eq!((ws.structured_factors(), ws.dense_fallbacks()), (1, 4));
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
