//! A minimal LU solve with partial pivoting, for reference checks only.
//!
//! The production crates solve nothing larger than the `r×r` price
//! system, in the solver's own eliminator; the tests that pin that
//! eliminator and the price-space adjoint keep this independent one.

use mfcp_linalg::Matrix;

/// Solves `a·x = b` by LU with partial pivoting. Returns `None` when the
/// shapes disagree or a pivot is at or below `1e-12·max(1, max|a|)`.
pub fn lu_solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    if a.shape() != (n, n) {
        return None;
    }
    let mut lu = a.clone();
    let mut x = b.to_vec();
    let tiny = 1e-12 * a.max_abs().max(1.0);
    for k in 0..n {
        let p = (k..n).max_by(|&i, &j| lu[(i, k)].abs().total_cmp(&lu[(j, k)].abs()))?;
        if lu[(p, k)].abs() <= tiny || !lu[(p, k)].is_finite() {
            return None;
        }
        if p != k {
            for c in 0..n {
                let v = lu[(k, c)];
                lu[(k, c)] = lu[(p, c)];
                lu[(p, c)] = v;
            }
            x.swap(k, p);
        }
        for i in k + 1..n {
            let l = lu[(i, k)] / lu[(k, k)];
            for c in k + 1..n {
                lu[(i, c)] -= l * lu[(k, c)];
            }
            x[i] -= l * x[k];
        }
    }
    for k in (0..n).rev() {
        let s: f64 = (k + 1..n).map(|c| lu[(k, c)] * x[c]).sum();
        x[k] = (x[k] - s) / lu[(k, k)];
    }
    x.iter().all(|v| v.is_finite()).then_some(x)
}
