//! Runtime-dispatched SIMD kernels for the blocked factorizations.
//!
//! The blocked Cholesky/LU kernels shape their inner loops around three
//! primitives — a split-accumulator dot product, an axpy-style panel
//! update, and the four-row syrk-shaped trailing update. This module pins
//! those primitives to AVX2/FMA intrinsics on `x86_64` (selected once per
//! process via `is_x86_feature_detected!`) with a **bitwise-matching**
//! scalar fallback: the scalar arm uses `f64::mul_add`, which IEEE 754
//! defines as the exactly-rounded fused multiply-add — the same operation
//! `vfmadd231pd` performs per lane — and both arms fix the identical
//! four-lane association `(l0 + l1) + (l2 + l3) + tail`. A result
//! computed on the AVX2 arm is therefore bit-identical to the scalar arm,
//! which is what lets the differential suites compare the two dispatch
//! arms directly.
//!
//! Dispatch policy (see DESIGN.md "SIMD kernels"):
//!
//! * the `strict-determinism` feature pins the scalar arm unconditionally,
//!   so every bitwise differential suite runs on one arithmetic path;
//! * `MFCP_SIMD=scalar` in the environment disables the intrinsic arm at
//!   startup (the CI force-disabled leg);
//! * [`force_scalar`] toggles the scalar arm at runtime (benchmarks use it
//!   to measure the dispatch delta head-to-head);
//! * otherwise the AVX2 arm is used whenever the CPU reports both `avx2`
//!   and `fma`.
//!
//! Every blocked-kernel invocation records which arm it resolved to on the
//! `linalg.simd.avx2` / `linalg.simd.scalar` observability counters.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Which arithmetic arm the dispatcher resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdKernel {
    /// `f64::mul_add` scalar loops (bitwise-identical to the AVX2 arm).
    Scalar,
    /// AVX2/FMA intrinsics (`x86_64` only).
    Avx2,
}

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Detection result, computed once per process: the environment override
/// is read a single time so dispatch cannot change mid-run (within-process
/// determinism of repeated factorizations does not depend on when the
/// caller first touched this module).
fn detected() -> SimdKernel {
    static DETECTED: OnceLock<SimdKernel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if std::env::var_os("MFCP_SIMD").is_some_and(|v| v == "scalar") {
            return SimdKernel::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return SimdKernel::Avx2;
            }
        }
        SimdKernel::Scalar
    })
}

/// Resolves the active kernel under the current dispatch policy.
pub fn active_kernel() -> SimdKernel {
    if cfg!(feature = "strict-determinism") || FORCE_SCALAR.load(Ordering::Relaxed) {
        SimdKernel::Scalar
    } else {
        detected()
    }
}

/// Forces the scalar arm at runtime (`true`) or restores auto-detection
/// (`false`). Benchmarks use this to time both arms in one process; the
/// two arms produce bit-identical results, so flipping it mid-run cannot
/// change any computed value — only throughput.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Records one kernel dispatch on the observability counters
/// (`linalg.simd.avx2` / `linalg.simd.scalar`). Called once per blocked
/// refactor, not per primitive, so the counters track factorization volume
/// per arm.
pub fn record_dispatch(kernel: SimdKernel) {
    match kernel {
        SimdKernel::Avx2 => mfcp_obs::counter("linalg.simd.avx2").inc(),
        SimdKernel::Scalar => mfcp_obs::counter("linalg.simd.scalar").inc(),
    }
}

impl SimdKernel {
    /// Split-accumulator dot product: four independent FMA lanes combined
    /// as `(l0 + l1) + (l2 + l3)`, then a sequential FMA tail. Both arms
    /// produce bit-identical results.
    #[inline]
    #[allow(unsafe_code)]
    pub fn dot(self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            SimdKernel::Scalar => dot_scalar(a, b),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2` is only ever produced by `detected()` after
            // `is_x86_feature_detected!` confirmed avx2+fma support.
            SimdKernel::Avx2 => unsafe { dot_avx2(a, b) },
            #[cfg(not(target_arch = "x86_64"))]
            SimdKernel::Avx2 => dot_scalar(a, b),
        }
    }

    /// Panel update `y[i] ← y[i] + alpha·x[i]`, one FMA per element.
    /// Element-wise independent, so both arms are trivially bit-identical.
    #[inline]
    #[allow(unsafe_code)]
    pub fn axpy(self, alpha: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), y.len());
        match self {
            SimdKernel::Scalar => axpy_scalar(alpha, x, y),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: see `dot`.
            SimdKernel::Avx2 => unsafe { axpy_avx2(alpha, x, y) },
            #[cfg(not(target_arch = "x86_64"))]
            SimdKernel::Avx2 => axpy_scalar(alpha, x, y),
        }
    }

    /// GEMM-shaped 4×8 register tile: for step `k = 0..kl` (ascending),
    /// `o_r[j] ← fma(−lpack[4k+r], upanel[k·ustride + j], o_r[j])` for
    /// the four output rows `r` and eight columns `j`. The AVX2 arm keeps
    /// all eight accumulators in registers across the `k` loop (the
    /// blocked LU trailing update's hot kernel); per element both arms
    /// run the identical ascending-`k` fused chain, so they are
    /// bit-identical.
    #[inline]
    #[allow(unsafe_code)]
    // Four separate `&mut` output rows: the rows come from disjoint
    // `split_at_mut` regions of one matrix, so they cannot be a single
    // slice-of-slices without allocation in the hot loop.
    #[allow(clippy::too_many_arguments)]
    pub fn fnma_tile8(
        self,
        kl: usize,
        lpack: &[f64],
        upanel: &[f64],
        ustride: usize,
        o0: &mut [f64],
        o1: &mut [f64],
        o2: &mut [f64],
        o3: &mut [f64],
    ) {
        assert!(lpack.len() >= 4 * kl);
        assert!(kl == 0 || upanel.len() >= (kl - 1) * ustride + 8);
        assert!(o0.len() >= 8 && o1.len() >= 8 && o2.len() >= 8 && o3.len() >= 8);
        match self {
            SimdKernel::Scalar => fnma_tile8_scalar(kl, lpack, upanel, ustride, o0, o1, o2, o3),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: see `dot`; slice bounds asserted above.
            SimdKernel::Avx2 => unsafe {
                fnma_tile8_avx2(kl, lpack, upanel, ustride, o0, o1, o2, o3)
            },
            #[cfg(not(target_arch = "x86_64"))]
            SimdKernel::Avx2 => fnma_tile8_scalar(kl, lpack, upanel, ustride, o0, o1, o2, o3),
        }
    }

    /// Four-row trailing update `out_r[i] ← out_r[i] − a_r·b[i]` for four
    /// output rows sharing one multiplier row `b` (the syrk-shaped kernel
    /// of the blocked Cholesky). All four outputs must match `b` in
    /// length. `fnma(a,x,y) ≡ fma(−a,x,y)` exactly (negation is a sign
    /// flip), so both arms are bit-identical.
    #[inline]
    #[allow(unsafe_code)]
    pub fn fnma4(
        self,
        b: &[f64],
        a: [f64; 4],
        o0: &mut [f64],
        o1: &mut [f64],
        o2: &mut [f64],
        o3: &mut [f64],
    ) {
        debug_assert!(
            o0.len() == b.len()
                && o1.len() == b.len()
                && o2.len() == b.len()
                && o3.len() == b.len()
        );
        match self {
            SimdKernel::Scalar => fnma4_scalar(b, a, o0, o1, o2, o3),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: see `dot`.
            SimdKernel::Avx2 => unsafe { fnma4_avx2(b, a, o0, o1, o2, o3) },
            #[cfg(not(target_arch = "x86_64"))]
            SimdKernel::Avx2 => fnma4_scalar(b, a, o0, o1, o2, o3),
        }
    }
}

fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        lanes[0] = xa[0].mul_add(xb[0], lanes[0]);
        lanes[1] = xa[1].mul_add(xb[1], lanes[1]);
        lanes[2] = xa[2].mul_add(xb[2], lanes[2]);
        lanes[3] = xa[3].mul_add(xb[3], lanes[3]);
    }
    let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (xa, xb) in ca.remainder().iter().zip(cb.remainder()) {
        s = xa.mul_add(*xb, s);
    }
    s
}

fn axpy_scalar(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = alpha.mul_add(xi, *yi);
    }
}

#[allow(clippy::too_many_arguments)]
fn fnma_tile8_scalar(
    kl: usize,
    lpack: &[f64],
    upanel: &[f64],
    ustride: usize,
    o0: &mut [f64],
    o1: &mut [f64],
    o2: &mut [f64],
    o3: &mut [f64],
) {
    let mut acc0: [f64; 8] = o0[..8].try_into().unwrap();
    let mut acc1: [f64; 8] = o1[..8].try_into().unwrap();
    let mut acc2: [f64; 8] = o2[..8].try_into().unwrap();
    let mut acc3: [f64; 8] = o3[..8].try_into().unwrap();
    for k in 0..kl {
        let u = &upanel[k * ustride..k * ustride + 8];
        let l = &lpack[4 * k..4 * k + 4];
        for t in 0..8 {
            acc0[t] = (-l[0]).mul_add(u[t], acc0[t]);
            acc1[t] = (-l[1]).mul_add(u[t], acc1[t]);
            acc2[t] = (-l[2]).mul_add(u[t], acc2[t]);
            acc3[t] = (-l[3]).mul_add(u[t], acc3[t]);
        }
    }
    o0[..8].copy_from_slice(&acc0);
    o1[..8].copy_from_slice(&acc1);
    o2[..8].copy_from_slice(&acc2);
    o3[..8].copy_from_slice(&acc3);
}

fn fnma4_scalar(
    b: &[f64],
    a: [f64; 4],
    o0: &mut [f64],
    o1: &mut [f64],
    o2: &mut [f64],
    o3: &mut [f64],
) {
    let [a0, a1, a2, a3] = a;
    for (i, &bv) in b.iter().enumerate() {
        o0[i] = (-a0).mul_add(bv, o0[i]);
        o1[i] = (-a1).mul_add(bv, o1[i]);
        o2[i] = (-a2).mul_add(bv, o2[i]);
        o3[i] = (-a3).mul_add(bv, o3[i]);
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must have verified avx2+fma CPU support.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            let va = _mm256_loadu_pd(a.as_ptr().add(i));
            let vb = _mm256_loadu_pd(b.as_ptr().add(i));
            acc = _mm256_fmadd_pd(va, vb, acc);
            i += 4;
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        while i < n {
            s = a[i].mul_add(b[i], s);
            i += 1;
        }
        s
    }

    /// # Safety
    /// Caller must have verified avx2+fma CPU support.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn axpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let va = _mm256_set1_pd(alpha);
        let mut i = 0;
        while i + 4 <= n {
            let vx = _mm256_loadu_pd(x.as_ptr().add(i));
            let vy = _mm256_loadu_pd(y.as_ptr().add(i));
            _mm256_storeu_pd(y.as_mut_ptr().add(i), _mm256_fmadd_pd(va, vx, vy));
            i += 4;
        }
        while i < n {
            y[i] = alpha.mul_add(x[i], y[i]);
            i += 1;
        }
    }

    /// # Safety
    /// Caller must have verified avx2+fma CPU support; slice bounds
    /// (`lpack ≥ 4·kl`, `upanel ≥ (kl−1)·ustride + 8`, outputs ≥ 8) are
    /// asserted by the safe caller.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn fnma_tile8_avx2(
        kl: usize,
        lpack: &[f64],
        upanel: &[f64],
        ustride: usize,
        o0: &mut [f64],
        o1: &mut [f64],
        o2: &mut [f64],
        o3: &mut [f64],
    ) {
        let mut a00 = _mm256_loadu_pd(o0.as_ptr());
        let mut a01 = _mm256_loadu_pd(o0.as_ptr().add(4));
        let mut a10 = _mm256_loadu_pd(o1.as_ptr());
        let mut a11 = _mm256_loadu_pd(o1.as_ptr().add(4));
        let mut a20 = _mm256_loadu_pd(o2.as_ptr());
        let mut a21 = _mm256_loadu_pd(o2.as_ptr().add(4));
        let mut a30 = _mm256_loadu_pd(o3.as_ptr());
        let mut a31 = _mm256_loadu_pd(o3.as_ptr().add(4));
        for k in 0..kl {
            let up = upanel.as_ptr().add(k * ustride);
            let u0 = _mm256_loadu_pd(up);
            let u1 = _mm256_loadu_pd(up.add(4));
            let lp = lpack.as_ptr().add(4 * k);
            let l0 = _mm256_set1_pd(*lp);
            a00 = _mm256_fnmadd_pd(l0, u0, a00);
            a01 = _mm256_fnmadd_pd(l0, u1, a01);
            let l1 = _mm256_set1_pd(*lp.add(1));
            a10 = _mm256_fnmadd_pd(l1, u0, a10);
            a11 = _mm256_fnmadd_pd(l1, u1, a11);
            let l2 = _mm256_set1_pd(*lp.add(2));
            a20 = _mm256_fnmadd_pd(l2, u0, a20);
            a21 = _mm256_fnmadd_pd(l2, u1, a21);
            let l3 = _mm256_set1_pd(*lp.add(3));
            a30 = _mm256_fnmadd_pd(l3, u0, a30);
            a31 = _mm256_fnmadd_pd(l3, u1, a31);
        }
        _mm256_storeu_pd(o0.as_mut_ptr(), a00);
        _mm256_storeu_pd(o0.as_mut_ptr().add(4), a01);
        _mm256_storeu_pd(o1.as_mut_ptr(), a10);
        _mm256_storeu_pd(o1.as_mut_ptr().add(4), a11);
        _mm256_storeu_pd(o2.as_mut_ptr(), a20);
        _mm256_storeu_pd(o2.as_mut_ptr().add(4), a21);
        _mm256_storeu_pd(o3.as_mut_ptr(), a30);
        _mm256_storeu_pd(o3.as_mut_ptr().add(4), a31);
    }

    /// # Safety
    /// Caller must have verified avx2+fma CPU support; all four output
    /// slices must be at least `b.len()` long (checked by the safe caller).
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::missing_safety_doc)]
    pub(super) unsafe fn fnma4_avx2(
        b: &[f64],
        a: [f64; 4],
        o0: &mut [f64],
        o1: &mut [f64],
        o2: &mut [f64],
        o3: &mut [f64],
    ) {
        let n = b.len();
        let va0 = _mm256_set1_pd(a[0]);
        let va1 = _mm256_set1_pd(a[1]);
        let va2 = _mm256_set1_pd(a[2]);
        let va3 = _mm256_set1_pd(a[3]);
        let mut i = 0;
        while i + 4 <= n {
            let vb = _mm256_loadu_pd(b.as_ptr().add(i));
            let v0 = _mm256_loadu_pd(o0.as_ptr().add(i));
            _mm256_storeu_pd(o0.as_mut_ptr().add(i), _mm256_fnmadd_pd(va0, vb, v0));
            let v1 = _mm256_loadu_pd(o1.as_ptr().add(i));
            _mm256_storeu_pd(o1.as_mut_ptr().add(i), _mm256_fnmadd_pd(va1, vb, v1));
            let v2 = _mm256_loadu_pd(o2.as_ptr().add(i));
            _mm256_storeu_pd(o2.as_mut_ptr().add(i), _mm256_fnmadd_pd(va2, vb, v2));
            let v3 = _mm256_loadu_pd(o3.as_ptr().add(i));
            _mm256_storeu_pd(o3.as_mut_ptr().add(i), _mm256_fnmadd_pd(va3, vb, v3));
            i += 4;
        }
        while i < n {
            let bv = b[i];
            o0[i] = (-a[0]).mul_add(bv, o0[i]);
            o1[i] = (-a[1]).mul_add(bv, o1[i]);
            o2[i] = (-a[2]).mul_add(bv, o2[i]);
            o3[i] = (-a[3]).mul_add(bv, o3[i]);
            i += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{axpy_avx2, dot_avx2, fnma4_avx2, fnma_tile8_avx2};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn vecs(rng: &mut StdRng, n: usize) -> (Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        (a, b)
    }

    /// On a machine where the AVX2 arm is available, every primitive must
    /// match the scalar arm bit for bit — that equality is what the
    /// dispatch policy's determinism story rests on.
    #[test]
    fn arms_are_bitwise_identical() {
        if detected() != SimdKernel::Avx2 {
            return; // nothing to compare on this host
        }
        let mut rng = StdRng::seed_from_u64(42);
        for n in [0usize, 1, 3, 4, 5, 8, 17, 64, 100, 257] {
            let (a, b) = vecs(&mut rng, n);
            let ds = SimdKernel::Scalar.dot(&a, &b);
            let dv = SimdKernel::Avx2.dot(&a, &b);
            assert_eq!(ds.to_bits(), dv.to_bits(), "dot n={n}");

            let alpha = rng.gen_range(-3.0..3.0);
            let mut ys = b.clone();
            let mut yv = b.clone();
            SimdKernel::Scalar.axpy(alpha, &a, &mut ys);
            SimdKernel::Avx2.axpy(alpha, &a, &mut yv);
            assert_eq!(ys, yv, "axpy n={n}");

            let coeffs = [
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ];
            let mut rows_s: Vec<Vec<f64>> = (0..4).map(|_| vecs(&mut rng, n).0).collect();
            let mut rows_v = rows_s.clone();
            {
                let (s0, rest) = rows_s.split_at_mut(1);
                let (s1, rest) = rest.split_at_mut(1);
                let (s2, s3) = rest.split_at_mut(1);
                SimdKernel::Scalar
                    .fnma4(&a, coeffs, &mut s0[0], &mut s1[0], &mut s2[0], &mut s3[0]);
            }
            {
                let (v0, rest) = rows_v.split_at_mut(1);
                let (v1, rest) = rest.split_at_mut(1);
                let (v2, v3) = rest.split_at_mut(1);
                SimdKernel::Avx2.fnma4(&a, coeffs, &mut v0[0], &mut v1[0], &mut v2[0], &mut v3[0]);
            }
            assert_eq!(rows_s, rows_v, "fnma4 n={n}");
        }
    }

    #[test]
    fn force_scalar_pins_dispatch() {
        force_scalar(true);
        assert_eq!(active_kernel(), SimdKernel::Scalar);
        force_scalar(false);
        // Under strict-determinism the scalar arm is pinned regardless.
        if cfg!(feature = "strict-determinism") {
            assert_eq!(active_kernel(), SimdKernel::Scalar);
        }
    }

    #[test]
    fn dot_matches_plain_sum_tolerance() {
        let mut rng = StdRng::seed_from_u64(7);
        let (a, b) = vecs(&mut rng, 103);
        let reference: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let got = active_kernel().dot(&a, &b);
        assert!((got - reference).abs() < 1e-10 * (1.0 + reference.abs()));
    }
}
