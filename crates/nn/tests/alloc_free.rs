//! Proves a tape-free training step allocates nothing once its workspace
//! and the optimizer's moments have been sized.
//!
//! A counting global allocator measures one step after a warm-up step of
//! the same shape, for each way the step is driven: a supervised loss, an
//! upstream seed, and [`DualHead::fit_step`]. The warm-up's batch is the
//! largest one, so a later smaller (ragged) batch must also allocate
//! nothing.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide; running it next to unrelated
//! tests would make the counts racy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mfcp_linalg::Matrix;
use mfcp_nn::{Activation, Adam, DualHead, Loss, Mlp, MlpWorkspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAlloc;

thread_local! {
    // Per thread, so the test harness's own allocations on other
    // threads never land in a measured window.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

fn random(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<f64> {
    (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// The cluster predictor's shape: two ReLU layers and a sigmoid head.
fn predictor(rng: &mut StdRng) -> Mlp {
    Mlp::new(&[12, 32, 32, 1], Activation::Relu, Activation::Sigmoid, rng)
}

#[test]
fn supervised_step_allocates_nothing_after_warm_up() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut mlp = predictor(&mut rng);
    let mut adam = Adam::new(1e-2);
    let mut ws = MlpWorkspace::new();
    let mut step = |rows: usize, x: &[f64], y: &[f64]| {
        ws.batch_mut(rows, 12).copy_from_slice(x);
        mlp.forward_train(&mut ws);
        mlp.backward_loss(&mut ws, Loss::Huber { delta: 1.0 }, y);
        mlp.step_adam(&mut adam, ws.grads());
    };
    let (x, y) = (random(&mut rng, 32, 12), random(&mut rng, 32, 1));
    // The warm-up sizes the workspace and the moments (and shows the
    // counter counts).
    assert!(allocations_during(|| step(32, &x, &y)) > 0);
    assert_eq!(allocations_during(|| step(32, &x, &y)), 0);
    // A ragged tail fits in the warm-up's buffers.
    assert_eq!(allocations_during(|| step(13, &x[..13 * 12], &y[..13])), 0);
}

#[test]
fn seeded_step_allocates_nothing_after_warm_up() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut mlp = predictor(&mut rng);
    let mut adam = Adam::new(1e-2);
    let mut ws = MlpWorkspace::new();
    let (x, seed) = (random(&mut rng, 20, 12), random(&mut rng, 20, 1));
    let mut step = || {
        ws.batch_mut(20, 12).copy_from_slice(&x);
        mlp.forward_train(&mut ws);
        mlp.backward_seed(&mut ws, &seed);
        mlp.step_adam(&mut adam, ws.grads());
    };
    assert!(allocations_during(&mut step) > 0);
    assert_eq!(allocations_during(step), 0);
}

#[test]
fn dual_head_step_allocates_nothing_after_warm_up() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut head = DualHead::new(18, 6, &[32], 1e-3, 4);
    let x = Matrix::from_vec(24, 18, random(&mut rng, 24, 18));
    let y = Matrix::from_vec(24, 6, random(&mut rng, 24, 6));
    assert!(allocations_during(|| assert!(head.fit_step(&x, &y).is_some())) > 0);
    let mut loss = None;
    assert_eq!(allocations_during(|| loss = head.fit_step(&x, &y)), 0);
    assert!(loss.is_some());
}
