//! BLAS-1 style vector kernels with deterministic reductions.
//!
//! GMRES spends its orthogonalization phase in dot products and AXPYs
//! (Algorithm 1, lines 5–8 of the paper). Two requirements shape this
//! module:
//!
//! 1. **Determinism.** A fault-injection campaign replays the same solve
//!    thousands of times with a single value perturbed; any run-to-run
//!    nondeterminism in the *fault-free* arithmetic would pollute the
//!    comparison. Every reduction here goes through the workspace's one
//!    deterministic primitive, [`sdc_parallel::det_map_sum`]: a
//!    fixed-block pairwise tree whose shape depends only on the input
//!    length — never on thread count — so serial and parallel execution
//!    produce bitwise-identical results. This module contributes only
//!    the sequential *leaf kernels* (which the compiler vectorizes).
//! 2. **Accuracy.** Pairwise summation has an error bound of
//!    `O(log n · eps)` versus `O(n · eps)` for recursive summation, which
//!    keeps the orthogonality loss of Modified Gram-Schmidt close to the
//!    theoretical bound and the detector free of arithmetic-noise false
//!    positives.

use rayon::prelude::*;
use sdc_parallel::{det_map_sum, PAIRWISE_BASE, PAR_MIN};

/// Pairwise sum of a slice with a fixed-shape reduction tree.
#[inline]
pub fn pairwise_sum(xs: &[f64]) -> f64 {
    sdc_parallel::pairwise_sum(xs)
}

/// Dot product `xᵀy` with the canonical deterministic reduction:
/// [`sdc_parallel::BLOCK`]-sized blocks, each reduced with a pairwise
/// tree, the partials combined with another pairwise tree. Large inputs
/// evaluate their blocks over the thread pool; the shape — hence the
/// bits — is identical at every thread count.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    det_map_sum(x.len(), &|r| dot_rec(&x[r.clone()], &y[r]))
}

fn dot_rec(x: &[f64], y: &[f64]) -> f64 {
    if x.len() <= PAIRWISE_BASE {
        let mut acc = 0.0;
        for (a, b) in x.iter().zip(y.iter()) {
            acc += a * b;
        }
        acc
    } else {
        // Nodes whose leaves all sit at one depth run lane-parallel with
        // the identical per-leaf op sequence and combine shape, so the
        // reduction stays bitwise-pinned to this tree (see `crate::simd`).
        if let Some(v) = crate::simd::dot_subtree(x, y) {
            return v;
        }
        let mid = x.len() / 2;
        dot_rec(&x[..mid], &y[..mid]) + dot_rec(&x[mid..], &y[mid..])
    }
}

/// Parallel dot product — an alias for [`dot`], which already runs its
/// blocks concurrently when the input is large enough to pay for it.
/// Kept for call sites that want to document intent.
#[inline]
pub fn par_dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "par_dot: length mismatch");
    dot(x, y)
}

/// `y ← a·x + y`. Bitwise identical across the scalar and SIMD bodies:
/// both compute `y[i] + a * x[i]` with separate multiply and add.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if crate::simd::axpy4(a, x, y).is_some() {
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// Parallel `y ← a·x + y`; element-wise, hence trivially deterministic.
pub fn par_axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "par_axpy: length mismatch");
    if x.len() < PAR_MIN {
        return axpy(a, x, y);
    }
    y.par_chunks_mut(sdc_parallel::BLOCK)
        .zip(x.par_chunks(sdc_parallel::BLOCK))
        .for_each(|(cy, cx)| axpy(a, cx, cy));
}

/// `x ← a·x`. Bitwise identical across the scalar and SIMD bodies.
#[inline]
pub fn scal(a: f64, x: &mut [f64]) {
    if crate::simd::scal4(a, x).is_some() {
        return;
    }
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// `y ← x`.
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

/// `z ← x - y`.
#[inline]
pub fn sub(x: &[f64], y: &[f64], z: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), z.len());
    for i in 0..x.len() {
        z[i] = x[i] - y[i];
    }
}

/// Euclidean norm with overflow/underflow-safe two-pass scaling and a
/// deterministic pairwise accumulation.
pub fn nrm2(x: &[f64]) -> f64 {
    let maxabs = x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    if maxabs == 0.0 {
        return 0.0;
    }
    if !maxabs.is_finite() {
        return f64::INFINITY;
    }
    // Scale so the largest element is 1; the sum of squares then cannot
    // overflow for any realistic length.
    let inv = 1.0 / maxabs;
    let ss = det_map_sum(x.len(), &|r| sum_sq_scaled(&x[r], inv));
    maxabs * ss.sqrt()
}

fn sum_sq_scaled(x: &[f64], inv: f64) -> f64 {
    if x.len() <= PAIRWISE_BASE {
        let mut acc = 0.0;
        for &v in x {
            let s = v * inv;
            acc += s * s;
        }
        acc
    } else {
        let mid = x.len() / 2;
        sum_sq_scaled(&x[..mid], inv) + sum_sq_scaled(&x[mid..], inv)
    }
}

/// Infinity norm `max |x_i|`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
}

/// One norm `Σ |x_i|`.
#[inline]
pub fn norm1(x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &v in x {
        acc += v.abs();
    }
    acc
}

/// Normalizes `x` in place and returns its original 2-norm. If the norm is
/// zero (or not finite) the vector is left untouched and the norm returned
/// as-is, letting the caller decide how to handle breakdown.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = nrm2(x);
    if n > 0.0 && n.is_finite() {
        scal(1.0 / n, x);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.37).sin() + 0.01 * i as f64).collect()
    }

    #[test]
    fn dot_matches_naive_small() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, -5.0, 6.0];
        assert_eq!(dot(&x, &y), 4.0 - 10.0 + 18.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn par_dot_bitwise_matches_serial() {
        for n in [0, 1, 63, 64, 65, 1000, 8192, 8193, 70_000] {
            let x = seq(n);
            let y: Vec<f64> = x.iter().map(|v| v * 1.3 - 0.2).collect();
            let s = dot(&x, &y);
            let p = par_dot(&x, &y);
            assert_eq!(s.to_bits(), p.to_bits(), "n={n}");
        }
    }

    #[test]
    fn dot_bitwise_independent_of_thread_count() {
        let _guard = sdc_parallel::test_serial_guard();
        let n = 200_000; // well past PAR_MIN: the pool path runs
        let x = seq(n);
        let y: Vec<f64> = x.iter().map(|v| v * 0.9 + 0.1).collect();
        let mut bits = Vec::new();
        for t in [1, 2, 8] {
            sdc_parallel::set_threads(t);
            bits.push(dot(&x, &y).to_bits());
        }
        sdc_parallel::set_threads(0);
        assert!(bits.windows(2).all(|w| w[0] == w[1]), "{bits:x?}");
    }

    #[test]
    fn nrm2_bitwise_independent_of_thread_count() {
        let _guard = sdc_parallel::test_serial_guard();
        let x = seq(150_000);
        let mut bits = Vec::new();
        for t in [1, 2, 8] {
            sdc_parallel::set_threads(t);
            bits.push(nrm2(&x).to_bits());
        }
        sdc_parallel::set_threads(0);
        assert!(bits.windows(2).all(|w| w[0] == w[1]), "{bits:x?}");
    }

    #[test]
    fn par_axpy_matches_serial() {
        let n = 70_000;
        let x = seq(n);
        let mut y1 = seq(n);
        let mut y2 = y1.clone();
        axpy(0.75, &x, &mut y1);
        par_axpy(0.75, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn kernels_bitwise_invariant_across_simd_modes() {
        use crate::simd::{set_mode, SimdMode};
        let _guard = crate::simd::test_mode_guard();
        for n in [0, 1, 63, 255, 256, 257, 8192, 70_000] {
            let x = seq(n);
            let y0: Vec<f64> = x.iter().map(|v| v * 1.3 - 0.2).collect();
            set_mode(SimdMode::Scalar).unwrap();
            let d_scalar = dot(&x, &y0);
            let mut ax_scalar = y0.clone();
            axpy(0.3, &x, &mut ax_scalar);
            let mut sc_scalar = x.clone();
            scal(-1.7, &mut sc_scalar);
            if set_mode(SimdMode::Avx2).is_err() {
                return; // no AVX2 on this host; nothing to compare.
            }
            assert_eq!(d_scalar.to_bits(), dot(&x, &y0).to_bits(), "dot n={n}");
            let mut ax_simd = y0.clone();
            axpy(0.3, &x, &mut ax_simd);
            let mut sc_simd = x.clone();
            scal(-1.7, &mut sc_simd);
            for i in 0..n {
                assert_eq!(ax_scalar[i].to_bits(), ax_simd[i].to_bits(), "axpy n={n} i={i}");
                assert_eq!(sc_scalar[i].to_bits(), sc_simd[i].to_bits(), "scal n={n} i={i}");
            }
        }
    }

    #[test]
    fn nrm2_is_scale_safe() {
        // Would overflow with naive sum of squares.
        let x = [1e200, 1e200];
        let n = nrm2(&x);
        assert!((n - 2f64.sqrt() * 1e200).abs() / n < 1e-15);
        // Would underflow to zero with naive sum of squares.
        let y = [1e-200, 1e-200];
        let n = nrm2(&y);
        assert!((n - 2f64.sqrt() * 1e-200).abs() / n < 1e-15);
    }

    #[test]
    fn nrm2_zero_vector() {
        assert_eq!(nrm2(&[0.0; 10]), 0.0);
        assert_eq!(nrm2(&[]), 0.0);
    }

    #[test]
    fn nrm2_propagates_inf() {
        assert!(nrm2(&[1.0, f64::INFINITY]).is_infinite());
        // NaN input: maxabs treats NaN as skipped by max; nrm2 of [NaN] is
        // then driven by the scaled sum, which is NaN (not finite) — accept
        // any non-finite result.
        assert!(!nrm2(&[f64::NAN, 1.0]).is_finite() || nrm2(&[f64::NAN, 1.0]).is_nan());
    }

    #[test]
    fn normalize_unit_length() {
        let mut x = seq(257);
        let n0 = nrm2(&x);
        let returned = normalize(&mut x);
        assert_eq!(returned, n0);
        assert!((nrm2(&x) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut x = vec![0.0; 5];
        let n = normalize(&mut x);
        assert_eq!(n, 0.0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pairwise_sum_accuracy_vs_naive() {
        // Classic pathological case: many small values after a large one.
        let mut xs = vec![1.0_f64];
        xs.extend(std::iter::repeat(1e-16).take(100_000));
        let pw = pairwise_sum(&xs);
        let expected = 1.0 + 1e-16 * 100_000.0;
        assert!((pw - expected).abs() < 1e-12, "pairwise sum lost too much");
    }

    #[test]
    fn sub_and_axpy_and_scal() {
        let x = [1.0, 2.0];
        let y = [0.5, 1.0];
        let mut z = [0.0; 2];
        sub(&x, &y, &mut z);
        assert_eq!(z, [0.5, 1.0]);
        let mut w = [1.0, 1.0];
        axpy(2.0, &x, &mut w);
        assert_eq!(w, [3.0, 5.0]);
        scal(0.5, &mut w);
        assert_eq!(w, [1.5, 2.5]);
    }

    #[test]
    fn norm1_and_norm_inf() {
        let x = [3.0, -4.0, 1.0];
        assert_eq!(norm1(&x), 8.0);
        assert_eq!(norm_inf(&x), 4.0);
    }
}
