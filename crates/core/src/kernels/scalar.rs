//! The scalar reference kernels: the normative definition of every
//! reduction, written on the canonical 4-accumulator tree (see the module
//! docs). The SIMD paths must reproduce these bit for bit; the
//! row-dimension tail helpers here are shared by the SIMD implementations
//! so both paths literally run the same code on leftover rows.

use super::hsum4;

/// `vmaxpd` semantics: returns `b` when `a` is NaN, `b` is NaN, or the
/// operands compare equal (including `+0.0` vs `-0.0`). `if a > b` lowers
/// to exactly `maxsd a, b` on x86.
#[inline]
fn vmax(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// The canonical lane-max combine: `vmax(vmax(l0, l2), vmax(l1, l3))`.
#[inline]
fn hmax4(lanes: [f64; 4]) -> f64 {
    vmax(vmax(lanes[0], lanes[2]), vmax(lanes[1], lanes[3]))
}

/// Finishes a max-reduction: folds the remainder elements into lanes
/// `0..rem.len()` and combines.
#[inline]
fn max_finish(mut lanes: [f64; 4], rem: &[f64]) -> f64 {
    for (lane, &v) in lanes.iter_mut().zip(rem) {
        *lane = vmax(*lane, v);
    }
    hmax4(lanes)
}

pub(super) fn transform(values: &mut [f64], mean: f64, std_dev: f64) {
    for v in values {
        *v = (*v - mean) / std_dev;
    }
}

pub(super) fn sum_squares(values: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut chunks = values.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane += v * v;
        }
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        // Zero-pad the tail to a full lane group, padding multiplies
        // included, as the dot product below does.
        let mut pad = [0.0f64; 4];
        pad[..rem.len()].copy_from_slice(rem);
        for (lane, &v) in lanes.iter_mut().zip(&pad) {
            *lane += v * v;
        }
    }
    hsum4(lanes)
}

/// Dot product on the canonical tree with a zero-padded tail.
#[inline]
pub(super) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f64; 4];
    let mut k = 0;
    while k + 4 <= a.len() {
        for j in 0..4 {
            lanes[j] += a[k + j] * b[k + j];
        }
        k += 4;
    }
    if k < a.len() {
        let mut pa = [0.0f64; 4];
        let mut pb = [0.0f64; 4];
        pa[..a.len() - k].copy_from_slice(&a[k..]);
        pb[..b.len() - k].copy_from_slice(&b[k..]);
        for j in 0..4 {
            lanes[j] += pa[j] * pb[j];
        }
    }
    hsum4(lanes)
}

pub(super) fn affine(intercept: f64, coeffs: &[f64], inputs: &[f64]) -> f64 {
    intercept + dot(coeffs, inputs)
}

/// Accumulates rows `row_base..targets.len()` into the lane scratch
/// (`lanes[4k + (row & 3)]` holds gradient component `k`'s lane). This is
/// the row tail the SIMD paths run after spilling their vector
/// accumulators, and — with `row_base = 0` — the whole scalar kernel.
pub(super) fn grad_rows(
    inputs: &[f64],
    targets: &[f64],
    intercept: f64,
    coeffs: &[f64],
    lanes: &mut [f64],
    row_base: usize,
) {
    let order = coeffs.len();
    for (r, &target) in targets.iter().enumerate().skip(row_base) {
        let x = &inputs[r * order..(r + 1) * order];
        let residual = affine(intercept, coeffs, x) - target;
        let r2 = 2.0 * residual;
        let lane = r & 3;
        lanes[lane] += r2;
        for (k, &xk) in x.iter().enumerate() {
            lanes[4 * (k + 1) + lane] += r2 * xk;
        }
    }
}

/// Combines the lane scratch into the gradient vector.
#[inline]
pub(super) fn grad_finish(grads: &mut [f64], lanes: &[f64]) {
    for (k, grad) in grads.iter_mut().enumerate() {
        *grad = hsum4(lanes[4 * k..4 * k + 4].try_into().expect("lane group"));
    }
}

pub(super) fn grad_epoch(
    inputs: &[f64],
    targets: &[f64],
    intercept: f64,
    coeffs: &[f64],
    grads: &mut [f64],
    lanes: &mut [f64],
) {
    lanes.fill(0.0);
    grad_rows(inputs, targets, intercept, coeffs, lanes, 0);
    grad_finish(grads, lanes);
}

/// Residual² for rows `row_base..`, accumulated into lane `row & 3` —
/// the loss analogue of [`grad_rows`].
pub(super) fn loss_rows(
    inputs: &[f64],
    targets: &[f64],
    intercept: f64,
    coeffs: &[f64],
    lanes: &mut [f64; 4],
    row_base: usize,
) {
    let order = coeffs.len();
    for (r, &target) in targets.iter().enumerate().skip(row_base) {
        let x = &inputs[r * order..(r + 1) * order];
        let d = affine(intercept, coeffs, x) - target;
        lanes[r & 3] += d * d;
    }
}

pub(super) fn loss_sum(inputs: &[f64], targets: &[f64], intercept: f64, coeffs: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    loss_rows(inputs, targets, intercept, coeffs, &mut lanes, 0);
    hsum4(lanes)
}

pub(super) fn max_seeded(seed: f64, values: &[f64]) -> f64 {
    let mut lanes = [seed; 4];
    let mut chunks = values.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = vmax(*lane, v);
        }
    }
    max_finish(lanes, chunks.remainder())
}
