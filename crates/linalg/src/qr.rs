//! Householder QR factorization and least-squares solves.
//!
//! Used by the `fig2` bench for its closed-form least-squares fit.

use crate::{LinalgError, Matrix, Result};

/// A QR factorization `A = Q R` of an `m x n` matrix with `m >= n`,
/// computed with Householder reflections.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Householder vectors stored below the diagonal; R on and above it.
    qr: Matrix,
    /// Scalar factors of the Householder reflectors.
    tau: Vec<f64>,
}

impl Default for Qr {
    fn default() -> Self {
        Qr::empty()
    }
}

impl Qr {
    /// An empty (0×0) factorization intended as reusable storage for
    /// [`Qr::refactor`]. Solving with it fails with a shape mismatch
    /// until a refactor succeeds.
    pub fn empty() -> Qr {
        Qr {
            qr: Matrix::zeros(0, 0),
            tau: Vec::new(),
        }
    }

    /// Factors an `m x n` matrix with `m >= n`.
    pub fn factor(a: &Matrix) -> Result<Qr> {
        let mut f = Qr::empty();
        f.refactor(a)?;
        Ok(f)
    }

    /// Re-factors `a` into this factorization's storage, reallocating only
    /// when the shape changes.
    ///
    /// On any error the factorization is reset to the empty (0×0) state:
    /// a partially-written factor must never stay solvable-looking.
    ///
    /// Reflectors are computed and applied one column at a time; the
    /// steady-state refactor of a same-shape matrix allocates nothing.
    pub fn refactor(&mut self, a: &Matrix) -> Result<()> {
        let (m, n) = self.load(a)?;
        let qr = &mut self.qr;
        let tau = &mut self.tau;
        for k in 0..n {
            // Compute the Householder reflector for column k.
            let mut norm = 0.0;
            for i in k..m {
                norm += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm.sqrt();
            if norm == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // Normalize so v[k] = 1 implicitly; store v[k+1..] scaled by 1/v0.
            for i in (k + 1)..m {
                let v = qr[(i, k)] / v0;
                qr[(i, k)] = v;
            }
            tau[k] = -v0 / alpha; // standard LAPACK-style tau = 2 / (vᵀv)
            qr[(k, k)] = alpha;
            // Apply the reflector to the remaining columns.
            for c in (k + 1)..n {
                let mut dot = qr[(k, c)];
                for i in (k + 1)..m {
                    dot += qr[(i, k)] * qr[(i, c)];
                }
                let t = tau[k] * dot;
                qr[(k, c)] -= t;
                for i in (k + 1)..m {
                    let v = qr[(i, k)];
                    qr[(i, c)] -= t * v;
                }
            }
        }
        Ok(())
    }

    /// Copies `a` into the factor storage (reallocating only on a shape
    /// change) and zeroes `tau`.
    fn load(&mut self, a: &Matrix) -> Result<(usize, usize)> {
        let (m, n) = a.shape();
        if m < n {
            self.reset();
            return Err(LinalgError::ShapeMismatch {
                op: "qr (requires rows >= cols)",
                lhs: (m, n),
                rhs: (n, n),
            });
        }
        if self.qr.shape() == (m, n) {
            self.qr.as_mut_slice().copy_from_slice(a.as_slice());
        } else {
            self.qr = a.clone();
        }
        self.tau.clear();
        self.tau.resize(n, 0.0);
        Ok((m, n))
    }

    /// Resets to the empty (0×0) state; solves fail until the next
    /// successful refactor.
    fn reset(&mut self) {
        self.qr = Matrix::zeros(0, 0);
        self.tau.clear();
    }

    /// Applies `Qᵀ` to a vector of length `m`.
    fn apply_qt(&self, b: &mut [f64]) {
        let (m, n) = self.qr.shape();
        for k in 0..n {
            if self.tau[k] == 0.0 {
                continue;
            }
            let mut dot = b[k];
            for i in (k + 1)..m {
                dot += self.qr[(i, k)] * b[i];
            }
            let t = self.tau[k] * dot;
            b[k] -= t;
            for i in (k + 1)..m {
                b[i] -= t * self.qr[(i, k)];
            }
        }
    }

    /// Solves the least-squares problem `min_x ||A x - b||_2`.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(LinalgError::ShapeMismatch {
                op: "qr_solve",
                lhs: (m, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        // Back substitution on the top n x n triangle of R.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.qr[(i, j)] * x[j];
            }
            let r = self.qr[(i, i)];
            if r.abs() < 1e-12 {
                return Err(LinalgError::Singular { pivot: i });
            }
            x[i] = acc / r;
        }
        Ok(x)
    }

    /// The upper-triangular factor `R` (top `n x n` block).
    pub fn r(&self) -> Matrix {
        let n = self.qr.cols();
        Matrix::from_fn(n, n, |r, c| if c >= r { self.qr[(r, c)] } else { 0.0 })
    }
}

/// Convenience: least-squares solve `min_x ||A x - b||`.
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Qr::factor(a)?.solve_least_squares(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exact_square_solve() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = [5.0, 10.0];
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn overdetermined_recovers_plane() {
        // Fit y = 2 + 3 t exactly (noise-free overdetermined system).
        let ts: Vec<f64> = (0..20).map(|i| i as f64 / 5.0).collect();
        let a = Matrix::from_fn(20, 2, |r, c| if c == 0 { 1.0 } else { ts[r] });
        let b: Vec<f64> = ts.iter().map(|&t| 2.0 + 3.0 * t).collect();
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn normal_equations_hold() {
        // At the least-squares optimum, Aᵀ(Ax - b) = 0.
        let mut rng = StdRng::seed_from_u64(5);
        let a = Matrix::from_fn(15, 4, |_, _| rng.gen_range(-1.0..1.0));
        let b: Vec<f64> = (0..15).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let resid: Vec<f64> = ax.iter().zip(&b).map(|(axi, bi)| axi - bi).collect();
        let grad = a.transpose().matvec(&resid).unwrap();
        assert!(vector::norm_inf(&grad) < 1e-9);
    }

    #[test]
    fn r_is_upper_triangular_and_consistent() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = Matrix::from_fn(8, 5, |_, _| rng.gen_range(-1.0..1.0));
        let qr = Qr::factor(&a).unwrap();
        let r = qr.r();
        for i in 0..5 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
        // RᵀR equals AᵀA (Q is orthogonal).
        let ata = a.transpose().matmul(&a).unwrap();
        let rtr = r.transpose().matmul(&r).unwrap();
        for (x, y) in rtr.as_slice().iter().zip(ata.as_slice()) {
            assert!((x - y).abs() < 1e-10, "{x} vs {y}");
        }
    }

    #[test]
    fn underdetermined_rejected() {
        assert!(Qr::factor(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn refactor_reuses_storage_and_matches_factor() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut f = Qr::empty();
        // Repeats a shape (buffer reuse) and changes it (regrowth).
        for (m, n) in [(6, 3), (6, 3), (9, 4), (4, 2)] {
            let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
            f.refactor(&a).unwrap();
            let fresh = Qr::factor(&a).unwrap();
            let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
            assert_eq!(
                f.solve_least_squares(&b).unwrap(),
                fresh.solve_least_squares(&b).unwrap()
            );
        }
    }

    #[test]
    fn failed_refactor_resets_to_empty() {
        // A failed refactor must not leave the previous factor
        // solvable-looking.
        let mut rng = StdRng::seed_from_u64(9);
        let good = Matrix::from_fn(5, 3, |_, _| rng.gen_range(-1.0..1.0));
        let mut f = Qr::empty();
        f.refactor(&good).unwrap();
        let err = f.refactor(&Matrix::zeros(2, 3)).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
        let res = f.solve_least_squares(&[1.0; 5]);
        assert!(
            matches!(res, Err(LinalgError::ShapeMismatch { .. })),
            "solve after failed refactor must error, got {res:?}"
        );
        // Recovery path.
        f.refactor(&good).unwrap();
        assert!(f
            .solve_least_squares(&[1.0; 5])
            .unwrap()
            .iter()
            .all(|v| v.is_finite()));
    }

    #[test]
    fn zero_columns_are_rank_deficient() {
        // Zero columns hit the tau = 0 (identity reflector) path; the
        // rank deficiency is caught at solve time.
        let mut rng = StdRng::seed_from_u64(43);
        let mut a = Matrix::from_fn(20, 11, |_, _| rng.gen_range(-1.0..1.0));
        for r in 0..20 {
            a[(r, 2)] = 0.0;
            a[(r, 7)] = 0.0;
        }
        let qr = Qr::factor(&a).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0; 20]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rank_deficient_detected() {
        // Two identical columns.
        let a = Matrix::from_fn(4, 2, |r, _| r as f64 + 1.0);
        let qr = Qr::factor(&a).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0, 2.0, 3.0, 4.0]),
            Err(LinalgError::Singular { .. })
        ));
    }
}
