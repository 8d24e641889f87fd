//! Proves the PGD inner loop performs zero heap allocations per
//! iteration — and per rejected Armijo trial — after warm-up.
//!
//! A counting global allocator measures two solves of the same instance
//! that differ only in iteration count (tol = 0 pins the count exactly).
//! Workspace warm-up — sizing `PgdWorkspace`, the iterate, the final
//! solution — costs the same number of allocations in both runs, so the
//! 300 extra iterations of the longer run must add exactly zero. A first
//! mirror-descent step far too long for the instance makes the longer
//! run backtrack more often than the shorter one
//! (`optim.solve.backtracks`), so those extra trials are covered too.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide; running it next to unrelated
//! tests would make the counts racy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mfcp_linalg::Matrix;
use mfcp_optim::solver::{solve_relaxed_from, uniform_init, SolverOptions};
use mfcp_optim::{MatchingProblem, ProjectionKind, RelaxationParams};

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

fn test_problem() -> MatchingProblem {
    let m = 4;
    let n = 9;
    // Deterministic, non-uniform data so the solver does real work.
    let times = Matrix::from_fn(m, n, |i, j| 0.5 + ((i * 7 + j * 3) % 11) as f64 * 0.2);
    let rel = Matrix::from_fn(m, n, |i, j| 0.85 + ((i * 5 + j) % 7) as f64 * 0.02);
    MatchingProblem::new(times, rel, 0.8)
}

/// Allocations consumed by one full solve at `max_iters` with first
/// step `lr` (tol = 0 so the loop never exits early and the iteration
/// count is exact).
fn allocations_for(max_iters: usize, projection: ProjectionKind, lr: f64) -> u64 {
    let problem = test_problem();
    let params = RelaxationParams::default();
    let opts = SolverOptions {
        max_iters,
        tol: 0.0,
        projection,
        lr,
    };
    let x0 = uniform_init(problem.clusters(), problem.tasks());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let sol = solve_relaxed_from(&problem, &params, &opts, x0);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        sol.iterations, max_iters,
        "tol = 0 must run every iteration"
    );
    assert!(sol.objective.is_finite());
    after - before
}

/// Rejected Armijo trials recorded so far.
fn backtracks() -> u64 {
    mfcp_obs::counter("optim.solve.backtracks").get()
}

#[test]
fn pgd_iterations_allocate_nothing_after_warmup() {
    let default_lr = SolverOptions::default().lr;
    for (projection, lr) in [
        (ProjectionKind::MirrorDescent, default_lr),
        (ProjectionKind::MirrorDescent, 50.0),
        (ProjectionKind::SoftmaxPaper, default_lr),
        (ProjectionKind::Euclidean, default_lr),
    ] {
        // Warm up process-wide lazy state (observability registry,
        // allocator internals) so it cannot skew the measured runs.
        allocations_for(10, projection, lr);
        let before = backtracks();
        let short = allocations_for(100, projection, lr);
        let short_backtracks = backtracks() - before;
        let before = backtracks();
        let long = allocations_for(400, projection, lr);
        let long_backtracks = backtracks() - before;
        assert_eq!(
            long, short,
            "{projection:?} lr {lr}: 300 extra PGD iterations must allocate nothing \
             (short solve: {short} allocations, long solve: {long})"
        );
        if projection == ProjectionKind::MirrorDescent && lr > default_lr {
            assert!(
                long_backtracks > short_backtracks && short_backtracks > 0,
                "the long first step must keep the line search busy \
                 ({short_backtracks} vs {long_backtracks} rejected trials)"
            );
        }
    }
}
