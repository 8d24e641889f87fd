//! Criterion benchmarks for the substrate crates: blocked/parallel
//! matmul and MLP forward/backward.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mfcp_autodiff::Graph;
use mfcp_linalg::{MatmulOptions, Matrix};
use mfcp_nn::{Activation, Mlp};
use mfcp_parallel::ParallelConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
    Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = StdRng::seed_from_u64(1);
    for &n in &[64usize, 128, 256] {
        let a = random_matrix(&mut rng, n, n);
        let b = random_matrix(&mut rng, n, n);
        group.bench_with_input(BenchmarkId::new("serial", n), &(&a, &b), |bch, (a, b)| {
            let opts = MatmulOptions {
                parallel: ParallelConfig::sequential(),
                ..Default::default()
            };
            bch.iter(|| black_box(a.matmul_with(b, &opts).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("parallel", n), &(&a, &b), |bch, (a, b)| {
            let opts = MatmulOptions {
                parallel_row_cutoff: 1,
                ..Default::default()
            };
            bch.iter(|| black_box(a.matmul_with(b, &opts).unwrap()))
        });
    }
    group.finish();
}

fn bench_mlp(c: &mut Criterion) {
    let mut group = c.benchmark_group("mlp_forward_backward");
    let mut rng = StdRng::seed_from_u64(3);
    let mlp = Mlp::new(
        &[18, 32, 32, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    for &batch in &[5usize, 32, 128] {
        let x = random_matrix(&mut rng, batch, 18);
        group.bench_with_input(BenchmarkId::new("forward", batch), &x, |b, x| {
            b.iter(|| black_box(mlp.predict(x)))
        });
        group.bench_with_input(BenchmarkId::new("forward_backward", batch), &x, |b, x| {
            b.iter(|| {
                let mut g = Graph::new();
                let xi = g.input(x.clone());
                let pass = mlp.forward(&mut g, xi);
                let s = g.sum(pass.output);
                g.backward(s);
                black_box(mlp.grads(&g, &pass))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_mlp
}
criterion_main!(benches);
