//! Differential suite: the price-space adjoint against the dense saddle
//! oracle and against finite differences.
//!
//! [`kkt::implicit_gradients`] differentiates the relaxed optimum
//! through the `r×r` price system (DESIGN.md, "Differentiate in price
//! space"). The oracle here is the paper's Eq. 14–15 taken literally:
//! the full `(MN+N)×(MN+N)` saddle system `[[H, Dᵀ], [D, 0]]`, assembled
//! densely and solved by LU with partial pivoting plus one refinement
//! step. At the same point the two are the same linear map, so at
//! training shapes (M 3–5, N 8, with and without capacity), under every
//! barrier kind and both cost kinds, they must agree
//!
//! * to [`EXACT_TOL`] against the undamped oracle, with the entropy
//!   curvature `ρ/x` floored only at `x = 1e-12` (it has to be floored
//!   somewhere: training optima carry entries below `1e-90`, and the
//!   remaining gap shrinks in proportion to the floor);
//! * to [`SADDLE_TOL`] against the saddle system as MFCP-AD solved it
//!   before the price-space adjoint: `ρ/x` floored at `x = 1e-7` and a
//!   Tikhonov damping of `1e-10·(1+bound)` on the primal diagonal. The
//!   bound holds `ρ/1e-7 = 1e5` at a training optimum, so the damping
//!   (`~1e-5`) dominates this gap; it bounds how far the training
//!   gradients moved.
//!
//! Central differences of a tightly converged solution map check the
//! adjoint itself to [`FD_TOL`].

#[path = "support/lu.rs"]
mod lu;

use mfcp_linalg::{LinalgError, Matrix};
use mfcp_optim::kkt::{self, KktGradients, KktWorkspace};
use mfcp_optim::objective::{self, BarrierKind, CostKind, RelaxationParams};
use mfcp_optim::problem::CapacityConstraint;
use mfcp_optim::solver::{solve_relaxed, SolverOptions};
use mfcp_optim::MatchingProblem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Adjoint vs the undamped oracle, relative to `max(1, |entry|)`
/// (measured worst: 5.4e-10).
const EXACT_TOL: f64 = 5e-9;
/// Adjoint vs the damped, `1e-7`-floored oracle, relative to
/// `max(1, |entry|)` (measured worst: 7.0e-4).
const SADDLE_TOL: f64 = 2e-3;
/// Adjoint vs central differences with step `1e-5`, relative to
/// `max(1, |entry|)` (measured worst: 5.5e-6).
const FD_TOL: f64 = 1e-4;

/// How the oracle regularizes the saddle system: the floor under `x` in
/// the entropy curvature `ρ/x`, and the factor `c` of the damping
/// `c·(1+bound)` on its primal diagonal.
#[derive(Debug, Clone, Copy)]
struct Oracle {
    floor: f64,
    damping: f64,
}

/// The undamped oracle.
const EXACT: Oracle = Oracle {
    floor: 1e-12,
    damping: 0.0,
};
/// The saddle system as MFCP-AD solved it before the price-space adjoint.
const SADDLE: Oracle = Oracle {
    floor: 1e-7,
    damping: 1e-10,
};

/// The saddle matrix `[[H + δI, Dᵀ], [D, 0]]` at `x` and the smooth-max
/// weights and barrier slopes the cross Hessians need.
struct Saddle {
    k: Matrix,
    beta: f64,
    w: Vec<f64>,
    dphi: f64,
    ddphi: f64,
}

fn assemble_saddle(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x: &Matrix,
    oracle: Oracle,
) -> Saddle {
    let (m, n) = x.shape();
    let (mn, nf) = (m * n, n as f64);
    let stats = objective::cluster_stats(problem, params, x);
    let g = objective::reliability_slack(problem, x);
    let dphi = objective::barrier_derivative(params, g);
    let ddphi = objective::barrier_curvature(params, g);
    // The linear-sum ablation is the β → 0 limit with unit weights.
    let (beta, w) = match params.cost {
        CostKind::SmoothMax => (params.beta, stats.weights.clone()),
        CostKind::LinearSum => (0.0, vec![1.0; m]),
    };
    let (t, a) = (&problem.times, &problem.reliability);
    let cap_ddphi: Vec<f64> = match &problem.capacity {
        Some(cap) => (0..m)
            .map(|i| objective::barrier_curvature(params, cap.slack(x, i)))
            .collect(),
        None => vec![0.0; m],
    };
    let mut k = Matrix::zeros(mn + n, mn + n);
    for i in 0..m {
        for j in 0..n {
            for kk in 0..m {
                for l in 0..n {
                    let same = if i == kk { 1.0 } else { 0.0 };
                    let mut h = beta * t[(i, j)] * t[(kk, l)] * w[i] * (same - w[kk]);
                    h += ddphi * a[(i, j)] * a[(kk, l)] / (nf * nf);
                    if let (Some(cap), true) = (&problem.capacity, i == kk) {
                        h += cap_ddphi[i] * cap.usage[(i, j)] * cap.usage[(i, l)]
                            / (cap.limits[i] * cap.limits[i]);
                    }
                    k[(i * n + j, kk * n + l)] += h;
                }
            }
            k[(i * n + j, i * n + j)] += params.rho / x[(i, j)].max(oracle.floor);
        }
    }
    // Damping from structural bounds on the largest Hessian entry.
    let mut bound = beta * t.max_abs() * t.max_abs() * w.iter().copied().fold(0.0, f64::max);
    bound += ddphi * a.max_abs() * a.max_abs() / (nf * nf);
    let xmin = x
        .as_slice()
        .iter()
        .fold(f64::INFINITY, |acc, &v| acc.min(v.max(oracle.floor)));
    bound += params.rho / xmin;
    if let Some(cap) = &problem.capacity {
        bound += (0..m)
            .map(|i| {
                let umax = mfcp_linalg::vector::norm_inf(cap.usage.row(i));
                cap_ddphi[i] * umax * umax / (cap.limits[i] * cap.limits[i])
            })
            .fold(0.0, f64::max);
    }
    let damping = oracle.damping * (1.0 + bound.max(1.0));
    for d in 0..mn {
        k[(d, d)] += damping;
    }
    for j in 0..n {
        for i in 0..m {
            k[(i * n + j, mn + j)] = 1.0;
            k[(mn + j, i * n + j)] = 1.0;
        }
    }
    Saddle {
        k,
        beta,
        w,
        dphi,
        ddphi,
    }
}

/// The dense saddle-system adjoint (Eq. 14–15): solve
/// `K [y; z] = [∂L/∂X; 0]`, then `∂L/∂T = −(∇²_XT F)ᵀ y` and
/// `∂L/∂A = −(∇²_XA F)ᵀ y` in closed form.
fn dense_oracle(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    x: &Matrix,
    dl_dx: &Matrix,
    oracle: Oracle,
) -> KktGradients {
    let (m, n) = x.shape();
    let mn = m * n;
    let s = assemble_saddle(problem, params, x, oracle);
    let mut rhs = vec![0.0; mn + n];
    rhs[..mn].copy_from_slice(dl_dx.as_slice());
    let mut y = lu::lu_solve(&s.k, &rhs).expect("interior saddle system is regular");
    let ky = s.k.matvec(&y).unwrap();
    let residual: Vec<f64> = rhs.iter().zip(&ky).map(|(b, v)| b - v).collect();
    let correction = lu::lu_solve(&s.k, &residual).expect("same matrix");
    for (yi, d) in y.iter_mut().zip(&correction) {
        *yi += d;
    }
    let (t, a) = (&problem.times, &problem.reliability);
    let nf = n as f64;
    let r: Vec<f64> = (0..m)
        .map(|i| (0..n).map(|j| t[(i, j)] * y[i * n + j]).sum())
        .collect();
    let q: f64 = (0..mn).map(|p| a[(p / n, p % n)] * y[p]).sum();
    let rbar: f64 = (0..m).map(|i| s.w[i] * r[i]).sum();
    let dl_dt = Matrix::from_fn(m, n, |k, l| {
        -(s.w[k] * y[k * n + l] + s.beta * s.w[k] * x[(k, l)] * (r[k] - rbar))
    });
    let dl_da = Matrix::from_fn(m, n, |k, l| {
        -(s.ddphi * x[(k, l)] * q / (nf * nf) + s.dphi * y[k * n + l] / nf)
    });
    KktGradients { dl_dt, dl_da }
}

fn training_problem(rng: &mut StdRng, m: usize, n: usize, capacity: bool) -> MatchingProblem {
    let times = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.5..3.0));
    let rel = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.8..0.999));
    let mut problem = MatchingProblem::new(times, rel, rng.gen_range(0.3..0.85));
    if capacity {
        let usage = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.05..0.5));
        let limits = (0..m).map(|_| rng.gen_range(1.5..4.0)).collect();
        problem = problem.with_capacity(CapacityConstraint::new(usage, limits));
    }
    problem
}

const BARRIERS: [BarrierKind; 3] = [
    BarrierKind::Log { eps: 1e-3 },
    BarrierKind::HardPenalty,
    BarrierKind::None,
];
const COSTS: [CostKind; 2] = [CostKind::SmoothMax, CostKind::LinearSum];

/// Largest `|a − b| / max(1, |a|, |b|)` over both gradients.
fn gap(got: &KktGradients, want: &KktGradients) -> f64 {
    let pairs = [(&got.dl_dt, &want.dl_dt), (&got.dl_da, &want.dl_da)];
    pairs
        .iter()
        .flat_map(|(g, w)| g.as_slice().iter().zip(w.as_slice()))
        .map(|(a, b)| (a - b).abs() / 1.0_f64.max(a.abs()).max(b.abs()))
        .fold(0.0, f64::max)
}

#[test]
fn adjoint_matches_dense_saddle_oracle_at_training_optima() {
    let mut worst = [0.0_f64; 2];
    let mut ws = KktWorkspace::new();
    let mut cases = 0;
    for seed in 0..4u64 {
        for m in 3..=5 {
            for capacity in [false, true] {
                for barrier in BARRIERS {
                    for cost in COSTS {
                        let mut rng = StdRng::seed_from_u64(seed * 100 + m as u64);
                        let problem = training_problem(&mut rng, m, 8, capacity);
                        let params = RelaxationParams {
                            barrier,
                            cost,
                            ..Default::default()
                        };
                        let sol = solve_relaxed(&problem, &params, &SolverOptions::default());
                        let dl_dx = Matrix::from_fn(m, 8, |_, _| rng.gen_range(-1.0..1.0));
                        let got = kkt::implicit_gradients_with(
                            &problem, &params, &sol.x, &dl_dx, &mut ws,
                        )
                        .expect("an interior optimum differentiates");
                        for (w, (oracle, tol)) in worst
                            .iter_mut()
                            .zip([(EXACT, EXACT_TOL), (SADDLE, SADDLE_TOL)])
                        {
                            let want = dense_oracle(&problem, &params, &sol.x, &dl_dx, oracle);
                            let e = gap(&got, &want);
                            assert!(
                                e <= tol,
                                "seed {seed} m {m} cap {capacity} {barrier:?} {cost:?} \
                                 {oracle:?}: gap {e:e}"
                            );
                            *w = w.max(e);
                        }
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(ws.structured_factors(), cases);
    assert_eq!(ws.dense_fallbacks(), 0);
    eprintln!(
        "{cases} training optima: worst gap {:e} (undamped oracle), {:e} (damped)",
        worst[0], worst[1]
    );
}

/// `<c, X*(T, A)>` at a tightly converged solve.
fn probe(problem: &MatchingProblem, params: &RelaxationParams, c: &Matrix) -> f64 {
    let tight = SolverOptions {
        max_iters: 20_000,
        tol: 1e-13,
        ..Default::default()
    };
    let x = solve_relaxed(problem, params, &tight).x;
    c.as_slice()
        .iter()
        .zip(x.as_slice())
        .map(|(a, b)| a * b)
        .sum()
}

#[test]
fn adjoint_matches_central_differences_of_the_solution_map() {
    let h = 1e-5;
    let mut worst: f64 = 0.0;
    for (case, (m, capacity, barrier)) in [
        (3, false, BARRIERS[0]),
        (4, true, BARRIERS[0]),
        (5, false, BARRIERS[1]),
        (4, false, BARRIERS[2]),
    ]
    .into_iter()
    .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(40 + case as u64);
        let problem = training_problem(&mut rng, m, 8, capacity);
        // A larger entropy weight keeps every entry of the optimum well
        // above the solver's resolution, so the differences see the map.
        let params = RelaxationParams {
            rho: 0.05,
            barrier,
            ..Default::default()
        };
        let c = Matrix::from_fn(m, 8, |_, _| rng.gen_range(-1.0..1.0));
        let tight = SolverOptions {
            max_iters: 20_000,
            tol: 1e-13,
            ..Default::default()
        };
        let x = solve_relaxed(&problem, &params, &tight).x;
        let grads = kkt::implicit_gradients(&problem, &params, &x, &c).unwrap();
        for (k, l) in [(0, 0), (1, 3), (m - 1, 7)] {
            for (which, analytic) in [("T", grads.dl_dt[(k, l)]), ("A", grads.dl_da[(k, l)])] {
                let shifted = |d: f64| {
                    let mut p = problem.clone();
                    match which {
                        "T" => p.times[(k, l)] += d,
                        _ => p.reliability[(k, l)] += d,
                    }
                    probe(&p, &params, &c)
                };
                let numeric = (shifted(h) - shifted(-h)) / (2.0 * h);
                let e = (analytic - numeric).abs() / 1.0_f64.max(numeric.abs());
                assert!(
                    e <= FD_TOL,
                    "case {case} d{which}[{k},{l}]: adjoint {analytic} vs central {numeric}"
                );
                worst = worst.max(e);
            }
        }
    }
    eprintln!("worst adjoint-vs-central-difference gap {worst:e}");
}

#[test]
fn zero_entropy_weight_is_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(7);
    let problem = training_problem(&mut rng, 3, 8, false);
    let params = RelaxationParams {
        rho: 0.0,
        ..Default::default()
    };
    let x = mfcp_optim::solver::uniform_init(3, 8);
    let c = Matrix::filled(3, 8, 1.0);
    let mut ws = KktWorkspace::new();
    let err = kkt::implicit_gradients_with(&problem, &params, &x, &c, &mut ws).unwrap_err();
    assert_eq!(err, LinalgError::Singular { pivot: 0 });
    assert!(kkt::solution_jacobians_with(&problem, &params, &x, &mut ws).is_err());
    assert_eq!((ws.structured_factors(), ws.dense_fallbacks()), (0, 2));
}
