//! Proves the PGD inner loop performs zero heap allocations per
//! iteration — per rejected Armijo trial, per price trial and per mirror
//! fallback — after warm-up, and that a solve of a shape its thread has
//! solved before allocates only its returned solution.
//!
//! A counting global allocator measures two solves of the same instance
//! that differ only in iteration count (tol = 0 pins the count exactly).
//! Workspace warm-up — sizing `PgdWorkspace`, the iterate, the final
//! solution and its prices — costs the same number of allocations in
//! both runs, so the extra iterations of the longer run must add exactly
//! zero. On the mirror-only instance (`ρ = 0`, which takes no price
//! trials) a first step far too long makes the longer run backtrack
//! more often than the shorter one (`optim.solve.backtracks`); on the
//! price instances, with and without speedup curves, the longer run
//! takes more price trials and more mirror fallbacks
//! (`optim.solve.price_steps`, `optim.solve.mirror_fallbacks`), so
//! those trials are covered too. The tests share the counters, so they
//! hold a lock while measuring.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide; running it next to unrelated
//! tests would make the counts racy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use mfcp_linalg::Matrix;
use mfcp_optim::solver::{solve_relaxed_from, uniform_init, SolverOptions};
use mfcp_optim::{MatchingProblem, ProjectionKind, RelaxationParams, SpeedupCurve};
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

/// The trial counters are process-wide; the tests take this lock so
/// they never read each other's trials.
static SERIAL: Mutex<()> = Mutex::new(());

/// Deterministic, non-uniform data with the paper's speedup curve, so
/// the solver does real work. The fixed-step projections never take
/// price trials; mirror descent takes none at `ρ = 0` ([`params_for`]),
/// so every iteration is a mirror trial.
fn test_problem() -> MatchingProblem {
    let m = 4;
    let n = 9;
    let times = Matrix::from_fn(m, n, |i, j| 0.5 + ((i * 7 + j * 3) % 11) as f64 * 0.2);
    let rel = Matrix::from_fn(m, n, |i, j| 0.85 + ((i * 5 + j) % 7) as f64 * 0.02);
    let mut problem = MatchingProblem::new(times, rel, 0.8);
    problem.speedup = vec![SpeedupCurve::paper_parallel(); m];
    problem
}

/// The relaxation `test_problem` is solved under: no entropy term for
/// mirror descent, which keeps it off the price path.
fn params_for(projection: ProjectionKind) -> RelaxationParams {
    match projection {
        ProjectionKind::MirrorDescent => RelaxationParams {
            rho: 0.0,
            ..Default::default()
        },
        _ => RelaxationParams::default(),
    }
}

/// Instances whose solves take price trials and, part way, mirror
/// fallbacks (the random 3×6 instance of the solver's reference tests),
/// with trivial speedups and with the paper's speedup curve, whose
/// solves carry count prices.
fn price_problems() -> [MatchingProblem; 2] {
    let mut rng = StdRng::seed_from_u64(21);
    let t = Matrix::from_fn(3, 6, |_, _| rng.gen_range(0.5..3.0));
    let a = Matrix::from_fn(3, 6, |_, _| rng.gen_range(0.7..1.0));
    let trivial = MatchingProblem::new(t, a, 0.75);
    let mut curved = trivial.clone();
    curved.speedup = vec![SpeedupCurve::paper_parallel(); 3];
    [trivial, curved]
}

/// Allocations consumed by one full solve of `problem` at `max_iters`
/// with first step `lr` (tol = 0 so the loop never exits early and the
/// iteration count is exact).
fn allocations_for(
    problem: &MatchingProblem,
    params: &RelaxationParams,
    max_iters: usize,
    projection: ProjectionKind,
    lr: f64,
) -> u64 {
    let opts = SolverOptions {
        max_iters,
        tol: 0.0,
        projection,
        lr,
    };
    let x0 = uniform_init(problem.clusters(), problem.tasks());
    let before = allocations();
    let sol = solve_relaxed_from(problem, params, &opts, x0);
    let after = allocations();
    assert_eq!(
        sol.iterations, max_iters,
        "tol = 0 must run every iteration"
    );
    assert!(sol.objective.is_finite());
    after - before
}

/// Rejected trials, accepted price trials and mirror fallbacks recorded
/// so far.
fn trials() -> [u64; 3] {
    [
        "optim.solve.backtracks",
        "optim.solve.price_steps",
        "optim.solve.mirror_fallbacks",
    ]
    .map(|name| mfcp_obs::counter(name).get())
}

/// Runs `solve` and returns its trial tallies.
fn tally(solve: impl FnOnce() -> u64) -> (u64, [u64; 3]) {
    let before = trials();
    let allocations = solve();
    let after = trials();
    (allocations, [0, 1, 2].map(|k| after[k] - before[k]))
}

#[test]
fn pgd_iterations_allocate_nothing_after_warmup() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let default_lr = SolverOptions::default().lr;
    for (projection, lr) in [
        (ProjectionKind::MirrorDescent, default_lr),
        (ProjectionKind::MirrorDescent, 50.0),
        (ProjectionKind::SoftmaxPaper, default_lr),
        (ProjectionKind::Euclidean, default_lr),
    ] {
        let problem = test_problem();
        let params = params_for(projection);
        // Warm up process-wide lazy state (observability registry,
        // allocator internals) so it cannot skew the measured runs.
        allocations_for(&problem, &params, 10, projection, lr);
        let (short, [short_backtracks, ..]) =
            tally(|| allocations_for(&problem, &params, 100, projection, lr));
        let (long, [long_backtracks, ..]) =
            tally(|| allocations_for(&problem, &params, 400, projection, lr));
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

#[test]
fn price_trials_and_mirror_fallbacks_allocate_nothing_after_warmup() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let params = RelaxationParams::default();
    let lr = SolverOptions::default().lr;
    let kind = ProjectionKind::MirrorDescent;
    for (k, problem) in price_problems().iter().enumerate() {
        allocations_for(problem, &params, 10, kind, lr);
        let (short, short_trials) = tally(|| allocations_for(problem, &params, 2, kind, lr));
        let (long, long_trials) = tally(|| allocations_for(problem, &params, 40, kind, lr));
        assert_eq!(
            long, short,
            "problem {k}: 38 extra iterations must allocate nothing \
             (short solve: {short} allocations, long solve: {long})"
        );
        let [_, short_price, short_mirror] = short_trials;
        let [long_backtracks, long_price, long_mirror] = long_trials;
        assert!(
            long_price > short_price && long_mirror > short_mirror && long_backtracks > 0,
            "problem {k}: the extra iterations must take price trials, rejected trials \
             and mirror fallbacks (short {short_trials:?}, long {long_trials:?})"
        );
    }
}

/// `solve_relaxed_from` keeps its loop buffers in a per-thread
/// workspace: once the thread has solved a shape, a second solve of that
/// shape allocates only the returned solution's `duals` and `prices`.
#[test]
fn repeat_solve_on_a_thread_allocates_only_its_solution() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let params = RelaxationParams::default();
    let opts = SolverOptions::default();
    for (k, problem) in price_problems().iter().enumerate() {
        let solve = || {
            let x0 = uniform_init(problem.clusters(), problem.tasks());
            let before = allocations();
            let sol = solve_relaxed_from(problem, &params, &opts, x0);
            let after = allocations();
            assert!(!sol.prices.is_empty() && !sol.duals.is_empty());
            after - before
        };
        let first = solve();
        let second = solve();
        assert_eq!(
            second, 2,
            "problem {k}: a repeat solve must allocate only its duals and prices \
             (first solve: {first} allocations, second: {second})"
        );
    }
}
