//! Warm-start helpers shared by the solver ladder and training.
//!
//! Training re-solves a nearly identical matching problem for every
//! sample, every round, and every zeroth-order perturbation. Matching
//! solvers warm-started from a previous optimum (Dinitz et al. 2021,
//! "Faster Matchings via Learned Duals") converge in a fraction of the
//! iterations because the iterate starts inside the basin of the new
//! optimum instead of at maximum entropy. Training's per-task
//! `SolveCache` (`mfcp_core::train`) seeds its round solves through
//! [`warm_init`] and counts its lookups in [`CacheStats`]; a caller of
//! [`crate::RobustSolver::solve`] hands a previous solve's prices in
//! directly ([`crate::recovery::SolveCtx`]), gated by
//! [`prices_admissible`].

use mfcp_linalg::Matrix;

/// Interior blend weight used by [`warm_init`].
///
/// Kept tiny on purpose: the blend is itself a perturbation the solver
/// must then contract below its stationarity tolerance, so a large blend
/// caps the warm-start savings no matter how good the seed is (a 1e-3
/// blend forces ~7 decades of geometric decay at tol 1e-10). 1e-9 is
/// enough to keep every coordinate strictly positive — multiplicative
/// mirror-descent updates recover a wrongly-collapsed coordinate from
/// `1e-9/m` in a few dozen iterations — while a near-exact seed still
/// stops almost immediately.
const INTERIOR_BLEND: f64 = 1e-9;

/// Lifetime lookup statistics of a warm-start store (training's
/// per-task `SolveCache`). They mirror the process-wide `cache.hit` /
/// `cache.miss` / `cache.stale` counters but are local to the store, so
/// tests can assert on them without coordinating over the global
/// registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a valid warm start.
    pub hits: u64,
    /// Lookups with no entry.
    pub misses: u64,
    /// Entries evicted as stale or poisoned.
    pub stale: u64,
}

/// Whether `prices` can seed an `m`-cluster solve: none at all, or
/// finite values within [`crate::learned::DUAL_ABS_BOUND`] (prices are
/// gradient components of the same scale as duals) in one of the
/// [`crate::objective::price_dim`] layouts (`m + 1`, plus `m` for
/// capacity constraints and `m` for speedup curves' count prices).
pub fn prices_admissible(prices: &[f64], m: usize) -> bool {
    prices.is_empty()
        || ([m + 1, 2 * m + 1, 3 * m + 1].contains(&prices.len())
            && prices
                .iter()
                .all(|v| v.abs() <= crate::learned::DUAL_ABS_BOUND))
}

/// Blends a previous optimum toward the uniform interior point.
///
/// Mirror-descent updates are multiplicative, so an exact zero in the
/// starting point stays zero forever; blending
/// `(1 − τ)·x + τ·uniform` with `τ =` [`INTERIOR_BLEND`] keeps every
/// coordinate strictly positive (and the columns exactly stochastic)
/// while staying within `O(τ)` of the previous optimum.
pub fn warm_init(x: &Matrix) -> Matrix {
    let (m, n) = x.shape();
    let u = 1.0 / m.max(1) as f64;
    Matrix::from_fn(m, n, |i, j| {
        (1.0 - INTERIOR_BLEND) * x[(i, j)] + INTERIOR_BLEND * u
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::is_column_stochastic;

    #[test]
    fn warm_init_is_interior_and_close() {
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let w = warm_init(&x);
        assert!(w.as_slice().iter().all(|&v| v > 0.0));
        assert!(is_column_stochastic(&w, 1e-12));
        for (a, b) in x.as_slice().iter().zip(w.as_slice()) {
            assert!((a - b).abs() < 2e-3);
        }
    }

    #[test]
    fn prices_admissible_gates_scale_finiteness_and_layout() {
        // A well-formed set in each 2-cluster layout, and none at all.
        assert!(prices_admissible(&[], 2));
        assert!(prices_admissible(&[0.5, 0.5, -0.1], 2));
        assert!(prices_admissible(&[0.0; 5], 2));
        assert!(prices_admissible(&[0.0; 7], 2));
        // A non-finite or out-of-scale value, or a length that fits no
        // 2-cluster layout.
        assert!(!prices_admissible(&[0.5, f64::NAN, -0.1], 2));
        assert!(!prices_admissible(&[0.5, f64::INFINITY, -0.1], 2));
        assert!(!prices_admissible(&[0.5, 1e6, -0.1], 2));
        assert!(!prices_admissible(&[0.5, 0.5], 2));
    }
}
