//! AVX2 implementations of the dispatched kernels (`affine`,
//! `grad_epoch`, `loss_sum`). Every multiply-add is a strict `vmulpd` +
//! `vaddpd` (two roundings), so each body is bit-identical to the scalar
//! path.
//!
//! Safety model: every intrinsic body is an `unsafe fn` gated on
//! `#[target_feature(enable = "avx2")]`. The safe wrappers placed in the
//! [`AVX2`] vtable are only reachable through `kernels::candidates()` /
//! `kernels::select()`, which hand it out strictly after
//! `is_x86_feature_detected!` confirms the feature, so the target-feature
//! precondition holds for every call. Masked loads (`vmaskmovpd`)
//! architecturally do not fault on masked-out lanes, so tail reads never
//! touch memory past the slice.

use super::{Dispatch, Kernels};

mod avx2 {
    use crate::kernels::{hsum4, scalar};
    use core::arch::x86_64::*;

    /// `acc + a*b` on all four lanes: multiply, round, add, round — the
    /// scalar path's two roundings.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn muladd(acc: __m256d, a: __m256d, b: __m256d) -> __m256d {
        _mm256_add_pd(acc, _mm256_mul_pd(a, b))
    }

    /// All-ones mask on lanes `< rem`, zero on the rest.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tail_mask(rem: usize) -> __m256i {
        let lane = |j: usize| -> i64 {
            if j < rem {
                -1
            } else {
                0
            }
        };
        _mm256_setr_epi64x(lane(0), lane(1), lane(2), lane(3))
    }

    /// Loads 4 lanes from `ptr`, zero-filling lanes `>= rem` with a
    /// non-faulting masked load when fewer than 4 remain.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_chunk(ptr: *const f64, rem: usize) -> __m256d {
        if rem >= 4 {
            _mm256_loadu_pd(ptr)
        } else {
            _mm256_maskload_pd(ptr, tail_mask(rem))
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn spill(v: __m256d) -> [f64; 4] {
        let mut out = [0.0f64; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), v);
        out
    }

    /// 4x4 transpose: rows in, columns out.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose4(
        a: __m256d,
        b: __m256d,
        c: __m256d,
        d: __m256d,
    ) -> (__m256d, __m256d, __m256d, __m256d) {
        let t0 = _mm256_unpacklo_pd(a, b); // a0 b0 a2 b2
        let t1 = _mm256_unpackhi_pd(a, b); // a1 b1 a3 b3
        let t2 = _mm256_unpacklo_pd(c, d); // c0 d0 c2 d2
        let t3 = _mm256_unpackhi_pd(c, d); // c1 d1 c3 d3
        (
            _mm256_permute2f128_pd::<0x20>(t0, t2), // lane-0 column
            _mm256_permute2f128_pd::<0x20>(t1, t3), // lane-1 column
            _mm256_permute2f128_pd::<0x31>(t0, t2), // lane-2 column
            _mm256_permute2f128_pd::<0x31>(t1, t3), // lane-3 column
        )
    }

    /// Predictions for the full 4-row block starting at `r0`: per-row
    /// lane-product accumulation over coefficient chunks, then a
    /// transpose-sum that reproduces `hsum4` per row, plus the
    /// intercept.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn block_preds(
        x_ptr: *const f64,
        c_ptr: *const f64,
        order: usize,
        r0: usize,
        b0: __m256d,
    ) -> __m256d {
        let mut acc = [_mm256_setzero_pd(); 4];
        let mut k = 0;
        while k < order {
            let rem = order - k;
            let cv = load_chunk(c_ptr.add(k), rem);
            for (j, acc_row) in acc.iter_mut().enumerate() {
                let xv = load_chunk(x_ptr.add((r0 + j) * order + k), rem);
                *acc_row = muladd(*acc_row, cv, xv);
            }
            k += 4;
        }
        let (c0, c1, c2, c3) = transpose4(acc[0], acc[1], acc[2], acc[3]);
        // Per lane: (l0 + l2) + (l1 + l3) — exactly `hsum4`.
        let dot = _mm256_add_pd(_mm256_add_pd(c0, c2), _mm256_add_pd(c1, c3));
        _mm256_add_pd(b0, dot)
    }

    pub(in crate::kernels) fn affine(intercept: f64, coeffs: &[f64], inputs: &[f64]) -> f64 {
        // SAFETY: vtable constructed only after AVX2 detection.
        unsafe { affine_impl(intercept, coeffs, inputs) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn affine_impl(intercept: f64, coeffs: &[f64], inputs: &[f64]) -> f64 {
        let order = coeffs.len();
        let mut acc = _mm256_setzero_pd();
        let mut k = 0;
        while k < order {
            let rem = order - k;
            let cv = load_chunk(coeffs.as_ptr().add(k), rem);
            let xv = load_chunk(inputs.as_ptr().add(k), rem);
            acc = muladd(acc, cv, xv);
            k += 4;
        }
        intercept + hsum4(spill(acc))
    }

    pub(in crate::kernels) fn grad_epoch(
        inputs: &[f64],
        targets: &[f64],
        intercept: f64,
        coeffs: &[f64],
        grads: &mut [f64],
        lanes: &mut [f64],
    ) {
        // SAFETY: vtable constructed only after AVX2 detection.
        unsafe { grad_epoch_impl(inputs, targets, intercept, coeffs, grads, lanes) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn grad_epoch_impl(
        inputs: &[f64],
        targets: &[f64],
        intercept: f64,
        coeffs: &[f64],
        grads: &mut [f64],
        lanes: &mut [f64],
    ) {
        let order = coeffs.len();
        let blocks = targets.len() / 4;
        lanes.fill(0.0);
        let b0 = _mm256_set1_pd(intercept);
        let two = _mm256_set1_pd(2.0);
        let mut g0 = _mm256_setzero_pd();
        let x_ptr = inputs.as_ptr();
        let c_ptr = coeffs.as_ptr();
        let t_ptr = targets.as_ptr();
        let lanes_ptr = lanes.as_mut_ptr();
        for m in 0..blocks {
            let r0 = m * 4;
            let preds = block_preds(x_ptr, c_ptr, order, r0, b0);
            let res = _mm256_sub_pd(preds, _mm256_loadu_pd(t_ptr.add(r0)));
            let r2 = _mm256_mul_pd(two, res);
            g0 = _mm256_add_pd(g0, r2);
            // Column-transpose the block's predictors so gradient
            // component k accumulates r2·x[:, k] vectorially.
            let mut k = 0;
            while k < order {
                let rem = order - k;
                let x0 = load_chunk(x_ptr.add(r0 * order + k), rem);
                let x1 = load_chunk(x_ptr.add((r0 + 1) * order + k), rem);
                let x2 = load_chunk(x_ptr.add((r0 + 2) * order + k), rem);
                let x3 = load_chunk(x_ptr.add((r0 + 3) * order + k), rem);
                let cols = transpose4(x0, x1, x2, x3);
                let cols = [cols.0, cols.1, cols.2, cols.3];
                for (j, col) in cols.iter().enumerate().take(rem.min(4)) {
                    let idx = 4 * (1 + k + j);
                    let cur = _mm256_loadu_pd(lanes_ptr.add(idx).cast_const());
                    _mm256_storeu_pd(lanes_ptr.add(idx), muladd(cur, r2, *col));
                }
                k += 4;
            }
        }
        // Spill the register-held intercept-gradient lanes
        // (lanes[0..4] still hold the zeros from the fill), then let
        // the scalar helpers finish the tail rows and the combine —
        // literally the same code the scalar kernel runs.
        _mm256_storeu_pd(lanes_ptr, g0);
        scalar::grad_rows(inputs, targets, intercept, coeffs, lanes, blocks * 4);
        scalar::grad_finish(grads, lanes);
    }

    pub(in crate::kernels) fn loss_sum(
        inputs: &[f64],
        targets: &[f64],
        intercept: f64,
        coeffs: &[f64],
    ) -> f64 {
        // SAFETY: vtable constructed only after AVX2 detection.
        unsafe { loss_sum_impl(inputs, targets, intercept, coeffs) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn loss_sum_impl(
        inputs: &[f64],
        targets: &[f64],
        intercept: f64,
        coeffs: &[f64],
    ) -> f64 {
        let order = coeffs.len();
        let blocks = targets.len() / 4;
        let b0 = _mm256_set1_pd(intercept);
        let mut acc = _mm256_setzero_pd();
        let x_ptr = inputs.as_ptr();
        let c_ptr = coeffs.as_ptr();
        let t_ptr = targets.as_ptr();
        for m in 0..blocks {
            let r0 = m * 4;
            let preds = block_preds(x_ptr, c_ptr, order, r0, b0);
            let res = _mm256_sub_pd(preds, _mm256_loadu_pd(t_ptr.add(r0)));
            acc = muladd(acc, res, res);
        }
        let mut lanes = spill(acc);
        scalar::loss_rows(inputs, targets, intercept, coeffs, &mut lanes, blocks * 4);
        hsum4(lanes)
    }
}

/// The AVX2 vtable (bit-identical to scalar). Handed out by
/// `kernels::candidates()` only after `is_x86_feature_detected!("avx2")`.
pub(super) static AVX2: Kernels = Kernels {
    dispatch: Dispatch::Avx2,
    affine: avx2::affine,
    grad_epoch: avx2::grad_epoch,
    loss_sum: avx2::loss_sum,
};

#[cfg(test)]
mod tests {
    use super::super::scalar;
    use super::AVX2;

    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.61).cos() * 2.5 + (i % 7) as f64 * 0.125)
            .collect()
    }

    #[test]
    fn avx2_matches_scalar_bitwise_when_available() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("avx2 not available; skipping");
            return;
        }
        for order in 1..=6 {
            for rows in 0..=9 {
                let inputs = series(rows * order);
                let targets = series(rows);
                let coeffs = series(order);
                let intercept = 0.375;

                if rows > 0 {
                    let row = &inputs[..order];
                    assert_eq!(
                        scalar::affine(intercept, &coeffs, row).to_bits(),
                        AVX2.affine(intercept, &coeffs, row).to_bits()
                    );
                }

                let mut g_scalar = vec![0.0; order + 1];
                let mut g_simd = vec![0.0; order + 1];
                let mut lanes = vec![0.0; 4 * (order + 1)];
                scalar::grad_epoch(
                    &inputs,
                    &targets,
                    intercept,
                    &coeffs,
                    &mut g_scalar,
                    &mut lanes,
                );
                AVX2.grad_epoch(
                    &inputs,
                    &targets,
                    intercept,
                    &coeffs,
                    &mut g_simd,
                    &mut lanes,
                );
                assert_eq!(
                    g_scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    g_simd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "order {order}, rows {rows}"
                );
                assert_eq!(
                    scalar::loss_sum(&inputs, &targets, intercept, &coeffs).to_bits(),
                    AVX2.loss_sum(&inputs, &targets, intercept, &coeffs)
                        .to_bits()
                );
            }
        }
    }
}
