//! Matrix arithmetic: operator overloads and the blocked, parallel matmul.

use crate::{LinalgError, Matrix, Result};
use mfcp_parallel::{par_chunks_mut, ParallelConfig};
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Default cache-block edge and parallel row cutoff of [`MatmulOptions`].
const DEFAULT_TILE: usize = 64;

/// Tuning options for [`Matrix::matmul_with`].
///
/// `Default` builds [`ParallelConfig::default`], which asks the OS for the
/// calling thread's CPU count; [`Matrix::matmul`] skips that query for
/// products below the row cutoff, which never fork.
#[derive(Debug, Clone, Copy)]
pub struct MatmulOptions {
    /// Cache-block edge length (rows/cols per tile of the k-loop).
    pub block: usize,
    /// Parallelism configuration; row panels are distributed over threads.
    pub parallel: ParallelConfig,
    /// Matrices with fewer output rows than this run single-threaded.
    pub parallel_row_cutoff: usize,
}

impl Default for MatmulOptions {
    fn default() -> Self {
        MatmulOptions {
            block: DEFAULT_TILE,
            parallel: ParallelConfig::default(),
            parallel_row_cutoff: DEFAULT_TILE,
        }
    }
}

impl Matrix {
    /// Matrix product `self * rhs` with default options.
    ///
    /// Products with fewer than the default row cutoff (64) output rows run
    /// on the calling thread without querying the OS for a thread count;
    /// larger ones use [`ParallelConfig::default`]. Every output row is
    /// computed by the same kernel whatever the panel split, so the result
    /// is bitwise independent of the thread count.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        let parallel = if self.rows() < DEFAULT_TILE {
            ParallelConfig::sequential()
        } else {
            ParallelConfig::default()
        };
        self.matmul_with(
            rhs,
            &MatmulOptions {
                block: DEFAULT_TILE,
                parallel,
                parallel_row_cutoff: DEFAULT_TILE,
            },
        )
    }

    /// Matrix product with explicit blocking/parallelism options.
    ///
    /// Uses an i-k-j loop order over cache blocks so the innermost loop
    /// streams contiguous rows of both the output and `rhs`. Row panels of
    /// the output are processed in parallel when the problem is large
    /// enough to amortize thread-fork overhead.
    pub fn matmul_with(&self, rhs: &Matrix, opts: &MatmulOptions) -> Result<Matrix> {
        if self.cols() != rhs.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k, n) = (self.rows(), self.cols(), rhs.cols());
        let mut out = Matrix::zeros(m, n);
        if m == 0 || n == 0 || k == 0 {
            return Ok(out);
        }
        let block = opts.block.max(8);
        let lhs_data = self.as_slice();
        let rhs_data = rhs.as_slice();

        let kernel = |row0: usize, panel: &mut [f64]| {
            let panel_rows = panel.len() / n;
            for kb in (0..k).step_by(block) {
                let kend = (kb + block).min(k);
                for (pr, out_row) in panel.chunks_mut(n).enumerate() {
                    let i = row0 + pr;
                    let a_row = &lhs_data[i * k..(i + 1) * k];
                    for kk in kb..kend {
                        let a = a_row[kk];
                        if a == 0.0 {
                            continue;
                        }
                        let b_row = &rhs_data[kk * n..(kk + 1) * n];
                        for (o, &b) in out_row.iter_mut().zip(b_row) {
                            *o += a * b;
                        }
                    }
                }
            }
            let _ = panel_rows;
        };

        if m < opts.parallel_row_cutoff || opts.parallel.threads <= 1 {
            kernel(0, out.as_mut_slice());
        } else {
            let rows_per_panel = m.div_ceil(opts.parallel.threads).max(1);
            par_chunks_mut(
                &opts.parallel,
                out.as_mut_slice(),
                rows_per_panel * n,
                |flat_base, panel| kernel(flat_base / n, panel),
            );
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols() != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows())
            .map(|r| crate::vector::dot(self.row(r), v))
            .collect())
    }

    /// Scales every entry by `s`, returning a new matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| s * x)
    }

    /// Entrywise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_map(other, |a, b| a * b)
    }

    /// `self + s * other` (AXPY), fallible on shape mismatch.
    pub fn axpy(&self, s: f64, other: &Matrix) -> Result<Matrix> {
        self.zip_map(other, |a, b| a + s * b)
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a + b).expect("matrix add shape")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a - b).expect("matrix sub shape")
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.map(|x| -x)
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs).expect("matmul shape")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix add-assign shape");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub-assign shape");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a -= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    fn random_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_matrix(&mut rng, 17, 17);
        let i = Matrix::identity(17);
        assert!(a.matmul(&i).unwrap().approx_eq(&a, 1e-12));
        assert!(i.matmul(&a).unwrap().approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_blocked_matches_naive() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(m, k, n) in &[(1, 1, 1), (5, 7, 3), (33, 65, 19), (128, 70, 90)] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let expected = naive_matmul(&a, &b);
            for block in [8, 16, 64] {
                let opts = MatmulOptions {
                    block,
                    ..Default::default()
                };
                let got = a.matmul_with(&b, &opts).unwrap();
                assert!(
                    got.approx_eq(&expected, 1e-10),
                    "mismatch at {m}x{k}x{n} block {block}"
                );
            }
        }
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_matrix(&mut rng, 200, 120);
        let b = random_matrix(&mut rng, 120, 150);
        let serial = a
            .matmul_with(
                &b,
                &MatmulOptions {
                    parallel: ParallelConfig::sequential(),
                    ..Default::default()
                },
            )
            .unwrap();
        let parallel = a
            .matmul_with(
                &b,
                &MatmulOptions {
                    parallel: ParallelConfig::with_threads(4),
                    parallel_row_cutoff: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(serial.approx_eq(&parallel, 1e-12));
    }

    #[test]
    fn matmul_is_bitwise_equal_to_explicit_threads_around_the_cutoff() {
        let mut rng = StdRng::seed_from_u64(5);
        for m in [63, 64, 65] {
            let a = random_matrix(&mut rng, m, 37);
            let b = random_matrix(&mut rng, 37, 29);
            let threaded = a
                .matmul_with(
                    &b,
                    &MatmulOptions {
                        parallel: ParallelConfig::with_threads(4),
                        ..Default::default()
                    },
                )
                .unwrap();
            let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.matmul(&b).unwrap()), bits(&threaded), "m = {m}");
        }
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = random_matrix(&mut rng, 6, 4);
        let v: Vec<f64> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let got = a.matvec(&v).unwrap();
        let expected = a.matmul(&Matrix::column(&v)).unwrap();
        for (g, e) in got.iter().zip(expected.as_slice()) {
            assert!((g - e).abs() < 1e-12);
        }
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn operator_overloads() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn hadamard_and_axpy() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[3.0, 10.0]);
        assert_eq!(a.axpy(2.0, &b).unwrap().as_slice(), &[7.0, 12.0]);
    }

    proptest::proptest! {
        #[test]
        fn prop_matmul_associative_shapes(
            m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1000
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let got = a.matmul(&b).unwrap();
            let expected = naive_matmul(&a, &b);
            proptest::prop_assert!(got.approx_eq(&expected, 1e-10));
        }

        #[test]
        fn prop_matmul_non_block_multiple_shapes(
            extra in 0usize..3, block_idx in 0usize..3, seed in 0u64..300
        ) {
            // Shapes straddling the tile boundary: the effective block is
            // max(block, 8), so sizes of block-1, block, block+1 plus
            // tall/skinny and width-1 strips all hit partial tiles.
            let block = [8usize, 16, 64][block_idx];
            let mut rng = StdRng::seed_from_u64(seed);
            let shapes = [
                (1, block + extra, 1),                    // degenerate strip
                (block - 1, block, block + 1),            // straddle on every axis
                (2 * block + 1, 3, block - 1),            // tall/skinny
                (3, 2 * block + 1, 2),                    // wide k, narrow out
            ];
            for &(m, k, n) in &shapes {
                let a = random_matrix(&mut rng, m, k);
                let b = random_matrix(&mut rng, k, n);
                let opts = MatmulOptions { block, ..Default::default() };
                let got = a.matmul_with(&b, &opts).unwrap();
                let expected = naive_matmul(&a, &b);
                proptest::prop_assert!(
                    got.approx_eq(&expected, 1e-10),
                    "mismatch at {}x{}x{} block {}", m, k, n, block
                );
            }
        }

        #[test]
        fn prop_transpose_of_product(
            m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..1000
        ) {
            // (AB)^T == B^T A^T
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let lhs = a.matmul(&b).unwrap().transpose();
            let rhs = b.transpose().matmul(&a.transpose()).unwrap();
            proptest::prop_assert!(lhs.approx_eq(&rhs, 1e-10));
        }
    }
}
