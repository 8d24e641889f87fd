//! Criterion benchmarks for the two gradient paths through the matching
//! layer: implicit differentiation (MFCP-AD, one `r×r` price-system
//! adjoint plus an `O(MN·r)` sweep) vs zeroth-order forward gradients
//! (MFCP-FG, `S` re-solves per estimate) — the compute side of the
//! Theorem 3 trade-off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mfcp_linalg::Matrix;
use mfcp_optim::kkt::{implicit_gradients_with, KktWorkspace};
use mfcp_optim::solver::{solve_relaxed, SolverOptions};
use mfcp_optim::zeroth::{estimate_gradient, ZerothOrderOptions};
use mfcp_optim::{MatchingProblem, RelaxationParams};
use mfcp_parallel::ParallelConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn setup(m: usize, n: usize) -> (MatchingProblem, RelaxationParams, Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(7);
    let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.5..3.0));
    let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.7..1.0));
    let problem = MatchingProblem::new(t, a, 0.78);
    let params = RelaxationParams::default();
    let sol = solve_relaxed(&problem, &params, &SolverOptions::default());
    let dl_dx = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
    (problem, params, sol.x, dl_dx)
}

fn bench_adjoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("price_adjoint_gradients");
    for &(m, n) in &[(3usize, 5usize), (3, 15), (3, 25), (5, 20)] {
        let (problem, params, x, dl_dx) = setup(m, n);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("M{m}xN{n}")),
            &(problem, params, x, dl_dx),
            |b, (p, prm, x, g)| {
                let mut ws = KktWorkspace::new();
                b.iter(|| black_box(implicit_gradients_with(p, prm, x, g, &mut ws).unwrap()))
            },
        );
    }
    group.finish();
}

fn bench_zeroth_order_samples(c: &mut Criterion) {
    let mut group = c.benchmark_group("zeroth_order_by_samples");
    let (problem, params, x, dl_dx) = setup(3, 5);
    let theta: Vec<f64> = problem.times.row(0).to_vec();
    for &s in &[2usize, 8, 32] {
        let opts = ZerothOrderOptions {
            delta: 0.05,
            samples: s,
            parallel: ParallelConfig::default(),
        };
        group.bench_with_input(BenchmarkId::from_parameter(s), &opts, |b, o| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(3);
                let solve = |th: &[f64]| {
                    let p = problem.with_time_row(0, th);
                    solve_relaxed(&p, &params, &SolverOptions::default()).x
                };
                black_box(estimate_gradient(&theta, &x, &dl_dx, solve, o, &mut rng))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_adjoint, bench_zeroth_order_samples
}
criterion_main!(benches);
