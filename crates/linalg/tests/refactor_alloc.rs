//! Proves same-shape `refactor` calls reuse their storage: after the
//! first factorization sizes the buffers, re-factoring another matrix of
//! the same shape performs zero heap allocations (QR).
//!
//! The measurement compares K and 3K same-shape refactors of rotating
//! inputs — the fixed warm-up cost (initial buffer sizing) is identical
//! in both runs, so the extra 2K refactors must add exactly zero
//! allocations.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide; running it next to unrelated
//! tests would make the counts racy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mfcp_linalg::qr::Qr;
use mfcp_linalg::Matrix;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 24;

/// Deterministic full-rank matrices (diagonally dominant, slightly
/// asymmetric) that vary with `round` so each refactor does real work on
/// fresh values.
fn general(round: usize) -> Matrix {
    let mut a = Matrix::from_fn(N, N, |i, j| {
        (((i * 31 + j * 17 + round * 7) % 13) as f64 * 0.05).sin() * 0.1
    });
    // Symmetrize and dominate the diagonal.
    for i in 0..N {
        for j in 0..i {
            let s = 0.5 * (a[(i, j)] + a[(j, i)]);
            a[(i, j)] = s;
            a[(j, i)] = s;
        }
        a[(i, i)] = 2.0 + (round % 5) as f64 * 0.1;
    }
    a[(0, N - 1)] += 0.7;
    a
}

fn qr_allocations(refactors: usize, f: &mut Qr) -> u64 {
    let mats: Vec<Matrix> = (0..4).map(general).collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for round in 0..refactors {
        f.refactor(&mats[round % mats.len()]).unwrap();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    after - before
}

#[test]
fn same_shape_refactors_allocate_nothing_after_warmup() {
    // QR refactor reuse.
    let mut qr = Qr::empty();
    qr_allocations(2, &mut qr);
    qr_allocations(2, &mut qr);
    let short = qr_allocations(8, &mut qr);
    let long = qr_allocations(24, &mut qr);
    assert_eq!(
        long, short,
        "qr: 16 extra same-shape refactors must allocate nothing \
         (short: {short}, long: {long})"
    );
    assert_eq!(short, 0, "qr: warmed-up refactor must be allocation-free");
}
