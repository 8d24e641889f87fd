//! Cholesky factorization for symmetric positive-definite systems.
//!
//! Used for the Gauss–Newton style preconditioning experiments, for
//! covariance sampling in the workload generator (correlated task features),
//! and as the Schur-complement solver inside the structured KKT gradient
//! path. The factorization kernel is cache-blocked and right-looking: the
//! panel solve and trailing update are fused into one pass per row whose
//! inner loops are contiguous block-length dot products, so the compiler
//! can vectorize them (same tiling idiom as `matmul_with` in `ops`).

use crate::{simd, LinalgError, Matrix, Result};

/// Default panel width of the blocked kernel. 64 columns of f64 is 512
/// bytes per row stripe — the same tile footprint `MatmulOptions` uses.
pub const DEFAULT_BLOCK: usize = 64;

/// Dot product with four independent accumulators, used by the *solve*
/// path (`solve_in_place` forward substitution).
///
/// A single-accumulator `f64` reduction cannot be vectorized (floating-point
/// addition is not associative, and we forbid fast-math); fixing the
/// association into four lanes lets LLVM keep the loop in SIMD registers
/// while staying bit-reproducible run to run. The *factorization* kernel
/// routes its dots through [`crate::simd`] instead, which adds FMA on top
/// of the same four-lane association.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        acc[0] += xa[0] * xb[0];
        acc[1] += xa[1] * xb[1];
        acc[2] += xa[2] * xb[2];
        acc[3] += xa[3] * xb[3];
    }
    let mut tail = 0.0;
    for (xa, xb) in ca.remainder().iter().zip(cb.remainder()) {
        tail += xa * xb;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Cache-blocked right-looking factorization of the lower triangle held in
/// `data` (row-major, `n × n`). Three stages per `bw`-wide panel:
///
/// 1. factor the diagonal block with contiguous panel-length dots;
/// 2. panel-solve every row below against the diagonal block;
/// 3. pack the finished panel transposed into `scratch`, then apply the
///    trailing syrk-like update as matmul-style contiguous axpys — the
///    innermost loop writes a streaming output row with no reduction, the
///    same shape `matmul_with` uses.
///
/// All three stages run on the [`crate::simd`] primitives (runtime
/// AVX2/FMA dispatch with a bitwise-matching `mul_add` scalar arm), so the
/// factor does not depend on which arm executed it — only throughput does.
fn blocked_kernel(data: &mut [f64], scratch: &mut Vec<f64>, n: usize, block: usize) -> Result<()> {
    if scratch.len() < block * n {
        scratch.resize(block * n, 0.0);
    }
    let kern = simd::active_kernel();
    simd::record_dispatch(kern);
    let mut jb = 0;
    while jb < n {
        let je = (jb + block).min(n);
        let bw = je - jb;
        // Stage 1: diagonal block. Entries in columns jb..je already carry
        // the trailing updates from every previous panel, so only
        // intra-block contributions remain.
        for i in jb..je {
            let (head, tail) = data.split_at_mut(i * n);
            let row_i = &mut tail[..n];
            for j in jb..i {
                let row_j = &head[j * n..j * n + n];
                let s = row_i[j] - kern.dot(&row_i[jb..j], &row_j[jb..j]);
                row_i[j] = s / row_j[j];
            }
            let d = row_i[i] - kern.dot(&row_i[jb..i], &row_i[jb..i]);
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: i });
            }
            row_i[i] = d.sqrt();
        }
        // Stage 2: panel solve for every row below the block.
        for r in je..n {
            let (head, tail) = data.split_at_mut(r * n);
            let row_r = &mut tail[..n];
            for j in jb..je {
                let row_j = &head[j * n..j * n + n];
                let s = row_r[j] - kern.dot(&row_r[jb..j], &row_j[jb..j]);
                row_r[j] = s / row_j[j];
            }
        }
        // Stage 3: trailing update `L22 -= P Pᵀ` with the panel packed
        // transposed (`t[kk][c] = L[je+c][jb+kk]`) so both the multiplier
        // row and the output row stream contiguously. Target rows are
        // register-blocked four at a time: one pass over `t` feeds four
        // output rows, quartering the packed-panel traffic. Per output
        // element the accumulation order over `kk` is identical in the
        // quad and remainder paths, so the result does not depend on
        // where the quad boundary falls.
        let tcols = n - je;
        if tcols > 0 {
            let t = &mut scratch[..bw * tcols];
            for (c, row_c) in data[je * n..].chunks(n).enumerate() {
                for (kk, tk) in row_c[jb..je].iter().enumerate() {
                    t[kk * tcols + c] = *tk;
                }
            }
            let mut r = je;
            while r + 4 <= n {
                let chunk = &mut data[r * n..(r + 4) * n];
                let (r0w, rest) = chunk.split_at_mut(n);
                let (r1w, rest) = rest.split_at_mut(n);
                let (r2w, r3w) = rest.split_at_mut(n);
                let (p0, o0) = split_panel(r0w, jb, je);
                let (p1, o1) = split_panel(r1w, jb, je);
                let (p2, o2) = split_panel(r2w, jb, je);
                let (p3, o3) = split_panel(r3w, jb, je);
                // Columns je..r are common to all four rows; the last
                // four columns form the ragged triangle tail.
                let common = r - je;
                let oc0 = &mut o0[..common + 1];
                let oc1 = &mut o1[..common + 2];
                let oc2 = &mut o2[..common + 3];
                let oc3 = &mut o3[..common + 4];
                for kk in 0..bw {
                    let (a0, a1, a2, a3) = (p0[kk], p1[kk], p2[kk], p3[kk]);
                    let brow = &t[kk * tcols..kk * tcols + common + 4];
                    let (bc, bt) = brow.split_at(common);
                    kern.fnma4(
                        bc,
                        [a0, a1, a2, a3],
                        &mut oc0[..common],
                        &mut oc1[..common],
                        &mut oc2[..common],
                        &mut oc3[..common],
                    );
                    // Ragged triangle tail: row je+i additionally owns
                    // columns r..=r+i (t indices common..=common+i). Same
                    // fused arithmetic as the common path.
                    oc0[common] = (-a0).mul_add(bt[0], oc0[common]);
                    oc1[common] = (-a1).mul_add(bt[0], oc1[common]);
                    oc1[common + 1] = (-a1).mul_add(bt[1], oc1[common + 1]);
                    oc2[common] = (-a2).mul_add(bt[0], oc2[common]);
                    oc2[common + 1] = (-a2).mul_add(bt[1], oc2[common + 1]);
                    oc2[common + 2] = (-a2).mul_add(bt[2], oc2[common + 2]);
                    oc3[common] = (-a3).mul_add(bt[0], oc3[common]);
                    oc3[common + 1] = (-a3).mul_add(bt[1], oc3[common + 1]);
                    oc3[common + 2] = (-a3).mul_add(bt[2], oc3[common + 2]);
                    oc3[common + 3] = (-a3).mul_add(bt[3], oc3[common + 3]);
                }
                r += 4;
            }
            while r < n {
                let row_r = &mut data[r * n..(r + 1) * n];
                let (left, right) = row_r.split_at_mut(je);
                let panel_r = &left[jb..je];
                let len = r - je + 1;
                let out = &mut right[..len];
                for (kk, &a) in panel_r.iter().enumerate() {
                    let b_row = &t[kk * tcols..kk * tcols + len];
                    kern.axpy(-a, b_row, out);
                }
                r += 1;
            }
        }
        jb = je;
    }
    Ok(())
}

/// Splits a factor row into its read-only panel (columns `jb..je`) and the
/// mutable trailing section (columns `je..`).
fn split_panel(row: &mut [f64], jb: usize, je: usize) -> (&[f64], &mut [f64]) {
    let (left, right) = row.split_at_mut(je);
    (&left[jb..je], right)
}

/// A lower-triangular Cholesky factor `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// Packed transpose of the current panel, `bw × (n - je)`: the trailing
    /// update streams it row-contiguously (matmul-style axpy, no per-element
    /// reductions). Sized once per shape, reused across refactors.
    scratch: Vec<f64>,
}

impl Default for Cholesky {
    fn default() -> Self {
        Cholesky::empty()
    }
}

impl Cholesky {
    /// An empty (0×0) factorization intended as reusable storage for
    /// [`Cholesky::refactor`]. Solving with it fails with a shape
    /// mismatch until a refactor succeeds.
    pub fn empty() -> Cholesky {
        Cholesky {
            l: Matrix::zeros(0, 0),
            scratch: Vec::new(),
        }
    }

    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is the caller's responsibility.
    pub fn factor(a: &Matrix) -> Result<Cholesky> {
        let mut f = Cholesky::empty();
        f.refactor(a)?;
        Ok(f)
    }

    /// Re-factors `a` into this factorization's storage, reallocating only
    /// when the dimension changes.
    ///
    /// On any error the factorization is reset to the empty (0×0) state, so
    /// subsequent solves fail with a shape mismatch instead of silently
    /// dividing by a stale or zero pivot.
    pub fn refactor(&mut self, a: &Matrix) -> Result<()> {
        self.refactor_with_block(a, DEFAULT_BLOCK)
    }

    /// [`Cholesky::refactor`] with an explicit panel width (benchmarks and
    /// block-boundary tests; `refactor` uses [`DEFAULT_BLOCK`]).
    pub fn refactor_with_block(&mut self, a: &Matrix, block: usize) -> Result<()> {
        let n = self.load_lower_triangle(a)?;
        let block = block.max(1);
        if let Err(e) = blocked_kernel(self.l.as_mut_slice(), &mut self.scratch, n, block) {
            self.l = Matrix::zeros(0, 0);
            return Err(e);
        }
        Ok(())
    }

    /// The scalar i-j-k reference kernel (pre-blocking), kept for the
    /// `chol_blocked` perfgate head-to-head and differential tests.
    ///
    /// Same contract as [`Cholesky::refactor`], including the
    /// reset-to-empty-on-error behaviour.
    pub fn refactor_scalar(&mut self, a: &Matrix) -> Result<()> {
        let n = self.load_lower_triangle(a)?;
        let l = &mut self.l;
        for i in 0..n {
            for j in 0..=i {
                let mut sum = l[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        self.l = Matrix::zeros(0, 0);
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(())
    }

    /// Copies the lower triangle of `a` into the factor storage (zeroing
    /// the strict upper triangle), reallocating only on a dimension change.
    fn load_lower_triangle(&mut self, a: &Matrix) -> Result<usize> {
        if a.rows() != a.cols() {
            self.l = Matrix::zeros(0, 0);
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if self.l.shape() != (n, n) {
            self.l = Matrix::zeros(n, n);
        }
        for i in 0..n {
            let src = a.row(i);
            let dst = self.l.row_mut(i);
            dst[..=i].copy_from_slice(&src[..=i]);
            dst[i + 1..].fill(0.0);
        }
        Ok(n)
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` via forward/back substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut y = b.to_vec();
        self.solve_in_place(&mut y)?;
        Ok(y)
    }

    /// Solves `A x = b` in place, overwriting `b` with the solution.
    /// Performs no heap allocation.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // L y = b
        for i in 0..n {
            let row_i = self.l.row(i);
            let acc = b[i] - dot(&row_i[..i], &b[..i]);
            b[i] = acc / row_i[i];
        }
        // Lᵀ x = y
        for i in (0..n).rev() {
            let mut acc = b[i];
            for j in (i + 1)..n {
                acc -= self.l[(j, i)] * b[j];
            }
            b[i] = acc / self.l[(i, i)];
        }
        Ok(())
    }

    /// Log-determinant of `A` (sum of `2 log L_ii`), handy for Gaussian
    /// likelihoods.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| 2.0 * self.l[(i, i)].ln()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_spd(rng: &mut StdRng, n: usize) -> Matrix {
        let b = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut a = b.matmul(&b.transpose()).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64; // guarantee positive definiteness
        }
        a
    }

    #[test]
    fn factor_reconstructs() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_spd(&mut rng, 8);
        let ch = Cholesky::factor(&a).unwrap();
        let llt = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(llt.approx_eq(&a, 1e-9));
    }

    #[test]
    fn solve_matches_lu() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_spd(&mut rng, 10);
        let b: Vec<f64> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x_ch = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let x_lu = crate::lu::solve(&a, &b).unwrap();
        for (c, l) in x_ch.iter().zip(&x_lu) {
            assert!((c - l).abs() < 1e-8);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        assert!(Cholesky::factor(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn log_det_matches_lu_det() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_spd(&mut rng, 6);
        let ch = Cholesky::factor(&a).unwrap();
        let det = crate::lu::Lu::factor(&a).unwrap().det();
        assert!((ch.log_det() - det.ln()).abs() < 1e-8);
    }

    #[test]
    fn identity_solve_is_identity() {
        let ch = Cholesky::factor(&Matrix::identity(4)).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ch.solve(&b).unwrap(), b.to_vec());
    }

    #[test]
    fn refactor_reuses_storage_and_matches_factor() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut f = Cholesky::empty();
        // Repeats a dimension (buffer reuse, must clear stale entries)
        // and changes it (regrowth).
        for n in [5, 5, 8, 3] {
            let a = random_spd(&mut rng, n);
            f.refactor(&a).unwrap();
            let fresh = Cholesky::factor(&a).unwrap();
            assert_eq!(f.l().as_slice(), fresh.l().as_slice());
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut x = b.clone();
            f.solve_in_place(&mut x).unwrap();
            assert_eq!(x, fresh.solve(&b).unwrap());
        }
    }

    #[test]
    fn blocked_matches_scalar_across_block_boundaries() {
        // Sizes straddling the panel width: n=1, block-1, block, block+1,
        // a non-multiple, and a multi-block odd size.
        let mut rng = StdRng::seed_from_u64(8);
        for block in [1usize, 2, 4, 8] {
            for n in [
                1usize,
                block.saturating_sub(1).max(1),
                block,
                block + 1,
                3 * block + 2,
            ] {
                let a = random_spd(&mut rng, n);
                let mut blocked = Cholesky::empty();
                blocked.refactor_with_block(&a, block).unwrap();
                let mut scalar = Cholesky::empty();
                scalar.refactor_scalar(&a).unwrap();
                assert!(
                    blocked.l().max_abs_diff(scalar.l()).unwrap() < 1e-10 * n as f64,
                    "block={block} n={n}"
                );
            }
        }
    }

    #[test]
    fn blocked_default_reconstructs_large() {
        // Larger than one default panel, not a multiple of it.
        let mut rng = StdRng::seed_from_u64(9);
        let n = DEFAULT_BLOCK + 37;
        let a = random_spd(&mut rng, n);
        let ch = Cholesky::factor(&a).unwrap();
        let llt = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(llt.approx_eq(&a, 1e-7));
    }

    #[test]
    fn failed_refactor_resets_to_empty() {
        // Regression: a failed refactor used to leave a partially-written
        // factor with dim() == n, so solve divided by zero pivots and
        // silently returned inf/NaN.
        let mut rng = StdRng::seed_from_u64(10);
        let good = random_spd(&mut rng, 6);
        let indefinite = Matrix::from_fn(6, 6, |i, j| if i == j { -1.0 } else { 0.5 });
        for scalar in [false, true] {
            let mut f = Cholesky::empty();
            f.refactor(&good).unwrap();
            let err = if scalar {
                f.refactor_scalar(&indefinite).unwrap_err()
            } else {
                f.refactor(&indefinite).unwrap_err()
            };
            assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
            assert_eq!(f.dim(), 0, "failed refactor must reset the factor");
            let b = vec![1.0; 6];
            let res = f.solve(&b);
            assert!(
                matches!(res, Err(LinalgError::ShapeMismatch { .. })),
                "solve after failed refactor must error, got {res:?}"
            );
            // Recovery: the next successful refactor restores full service.
            f.refactor(&good).unwrap();
            let x = f.solve(&b).unwrap();
            assert!(x.iter().all(|v| v.is_finite()));
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_blocked_matches_scalar(n in 1usize..20, block in 1usize..8, seed in 0u64..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_spd(&mut rng, n);
            let mut blocked = Cholesky::empty();
            blocked.refactor_with_block(&a, block).unwrap();
            let mut scalar = Cholesky::empty();
            scalar.refactor_scalar(&a).unwrap();
            proptest::prop_assert!(blocked.l().max_abs_diff(scalar.l()).unwrap() < 1e-9);
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let xb = blocked.solve(&b).unwrap();
            let xs = scalar.solve(&b).unwrap();
            for (u, v) in xb.iter().zip(&xs) {
                proptest::prop_assert!((u - v).abs() < 1e-8);
            }
        }
    }
}
