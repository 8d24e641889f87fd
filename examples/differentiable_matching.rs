//! The differentiable-optimization machinery in isolation: solve a
//! relaxed matching, differentiate the optimum through its KKT system,
//! and verify the implicit gradients against both zeroth-order estimates
//! and finite differences — the two gradient engines behind MFCP-AD and
//! MFCP-FG.
//!
//! Run with: `cargo run --release --example differentiable_matching`
#![allow(clippy::needless_range_loop)]

use mfcp::optim::kkt::implicit_gradients;
use mfcp::optim::solver::{solve_relaxed, SolverOptions};
use mfcp::optim::zeroth::{estimate_gradient, ZerothOrderOptions};
use mfcp::optim::{MatchingProblem, RelaxationParams};
use mfcp_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let (m, n) = (3, 4);
    let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.5..2.5));
    let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.75..1.0));
    let problem = MatchingProblem::new(t, a, 0.8);
    let params = RelaxationParams::default();
    let tight = SolverOptions {
        max_iters: 20_000,
        tol: 1e-14,
        ..Default::default()
    };

    // Solve the relaxed matching (Algorithm 1 / mirror descent).
    let sol = solve_relaxed(&problem, &params, &tight);
    println!(
        "relaxed solve: {} iterations, objective {:.4}, converged={}",
        sol.iterations,
        sol.objective,
        sol.converged()
    );

    // A linear probe loss L = <c, X*> and its gradient w.r.t. T.
    let c = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
    let kkt = implicit_gradients(&problem, &params, &sol.x, &c).expect("KKT solvable");

    // Zeroth-order estimate of the same gradient for cluster row 0.
    let theta: Vec<f64> = problem.times.row(0).to_vec();
    let zo = ZerothOrderOptions {
        delta: 0.02,
        samples: 512,
        ..Default::default()
    };
    let solve = |th: &[f64]| {
        let p = problem.with_time_row(0, th);
        solve_relaxed(&p, &params, &tight).x
    };
    let fg = estimate_gradient(&theta, &sol.x, &c, solve, &zo, &mut rng);

    // Finite differences as ground truth.
    println!(
        "\ndL/dt_0j:   {:>12} {:>12} {:>12}",
        "KKT (AD)", "zeroth (FG)", "finite diff"
    );
    let h = 1e-5;
    for j in 0..n {
        let mut tp = problem.clone();
        tp.times[(0, j)] += h;
        let mut tm = problem.clone();
        tm.times[(0, j)] -= h;
        let probe = |p: &MatchingProblem| {
            let s = solve_relaxed(p, &params, &tight);
            c.hadamard(&s.x).unwrap().sum()
        };
        let fd = (probe(&tp) - probe(&tm)) / (2.0 * h);
        println!(
            "  j={j}:      {:>12.5} {:>12.5} {:>12.5}",
            kkt.dl_dt[(0, j)],
            fg[j],
            fd
        );
    }
    println!(
        "\nKKT gradients match finite differences to ~5 digits; the zeroth-order\n\
         estimate tracks them up to the Theorem-3 bias/variance (shrink Δ and\n\
         grow S to tighten it). The matching layer is differentiable both ways."
    );
}
