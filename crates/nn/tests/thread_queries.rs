//! Small products never ask the OS for a thread count.
//!
//! `mfcp_parallel::default_threads` reads the affinity mask and the cgroup
//! CPU quota on every call, which costs more than a whole small-MLP forward
//! pass. `Matrix::matmul` only asks when the product is tall enough to
//! fork, so the predictor and dual-head shapes the serving and training
//! paths use must leave the `parallel.thread_queries` counter untouched.
//! This file is its own test binary, so only the tests here move the
//! counter, and they take turns.

use std::sync::Mutex;

use mfcp_autodiff::Graph;
use mfcp_linalg::Matrix;
use mfcp_nn::{Activation, Adam, Loss, Mlp, MlpWorkspace, Optimizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` and returns how many thread-count queries it made.
fn thread_queries_during(f: impl FnOnce()) -> u64 {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    mfcp_obs::set_enabled(true);
    let counter = mfcp_obs::counter("parallel.thread_queries");
    let before = counter.get();
    f();
    counter.get() - before
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

#[test]
fn predict_on_a_small_batch_makes_no_query() {
    let mut rng = StdRng::seed_from_u64(1);
    // A cluster predictor (12 features, one hidden layer of 16) and a
    // five-cluster dual head (2·5 + 8 features → 32 → 6).
    let predictor = Mlp::new(
        &[12, 16, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    let dual_head = Mlp::new(
        &[18, 32, 6],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    let tasks = random_matrix(&mut rng, 5, 12);
    let instance = random_matrix(&mut rng, 5, 18);
    let queries = thread_queries_during(|| {
        predictor.predict(&tasks);
        dual_head.predict(&instance);
    });
    assert_eq!(queries, 0);
}

#[test]
fn training_step_at_batch_32_makes_no_query() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut mlp = Mlp::new(
        &[12, 16, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    let mut adam = Adam::new(1e-3);
    let x = random_matrix(&mut rng, 32, 12);
    let y = random_matrix(&mut rng, 32, 1);
    let queries = thread_queries_during(|| {
        let mut g = Graph::new();
        let xi = g.input(x);
        let yi = g.input(y);
        let pass = mlp.forward(&mut g, xi);
        let loss = Loss::Mse.build(&mut g, pass.output, yi);
        g.backward_with_seed(loss, Matrix::from_vec(1, 1, vec![1.0]));
        let grads = mlp.grads(&g, &pass);
        adam.step(&mut mlp.params_mut(), &grads);
    });
    assert_eq!(queries, 0);
}

#[test]
fn tape_free_steps_make_no_query() {
    // The fused kernel never calls `Matrix::matmul`, so no batch size
    // asks for a thread count, not even one past matmul's row cutoff.
    let mut rng = StdRng::seed_from_u64(4);
    let mut mlp = Mlp::new(
        &[12, 16, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    let mut adam = Adam::new(1e-3);
    let mut ws = MlpWorkspace::new();
    let x = random_matrix(&mut rng, 96, 12);
    let y = random_matrix(&mut rng, 96, 1);
    let queries = thread_queries_during(|| {
        for rows in [32, 96] {
            ws.batch_mut(rows, 12)
                .copy_from_slice(&x.as_slice()[..rows * 12]);
            mlp.forward_train(&mut ws);
            mlp.backward_loss(&mut ws, Loss::Mse, &y.as_slice()[..rows]);
            mlp.step_adam(&mut adam, ws.grads());
            mlp.forward_train(&mut ws);
            mlp.backward_seed(&mut ws, &y.as_slice()[..rows]);
            mlp.step_adam(&mut adam, ws.grads());
        }
    });
    assert_eq!(queries, 0);
}

#[test]
fn matmul_at_the_row_cutoff_makes_one_query() {
    let mut rng = StdRng::seed_from_u64(3);
    let a = random_matrix(&mut rng, 64, 12);
    let b = random_matrix(&mut rng, 12, 16);
    let queries = thread_queries_during(|| {
        a.matmul(&b).unwrap();
    });
    assert_eq!(queries, 1);
}
