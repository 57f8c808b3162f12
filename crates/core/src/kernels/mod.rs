//! Explicit-width SIMD kernels for the three hot loops where SIMD wins,
//! over a scalar reference that is **bit-identical by construction**.
//!
//! [`MiniBatch`](crate::collect::MiniBatch) and
//! [`SampleHistory`](crate::collect::SampleHistory) keep contiguous
//! stride-`order` SoA columns precisely so these loops are
//! vectorization-shaped. The kernels are
//!
//! * [`Kernels::affine`] — the affine predict (`b0 + Σ bi·xi`,
//!   `ArModel::predict_unchecked`),
//! * [`Kernels::grad_epoch`] — one gradient-descent accumulation pass over
//!   a whole columnar mini-batch,
//! * [`Kernels::loss_sum`] — the post-update residual² reduction,
//!
//! which dispatch to `core::arch::x86_64` AVX2 bodies when the CPU has
//! them, plus three that always run the scalar reference, because an AVX2
//! body measured no faster at the shapes the workloads use:
//!
//! * [`Kernels::transform`] — the bulk z-score transform
//!   (`OnlineScaler::transform_in_place`),
//! * [`Kernels::sum_squares`] — the trainer's input-energy and
//!   gradient-norm reductions,
//! * [`Kernels::max_seeded`] — the windowed peak re-scan in the slot store.
//!
//! # The 4-accumulator reduction convention
//!
//! Floating-point addition is not associative, so a vectorized reduction
//! only reproduces a scalar one if both commit to the **same** reduction
//! tree. Every reduction in this module — scalar and SIMD alike — uses one
//! canonical shape:
//!
//! * element `i` of a reduction accumulates into lane `i & 3`,
//! * the four lanes combine as `(l0 + l2) + (l1 + l3)` ([`hsum4`] — exactly
//!   the `extractf128` + `unpackhi` + `add` sequence the AVX2 horizontal
//!   sum performs),
//! * max-reductions combine lanes as `vmax(vmax(l0, l2), vmax(l1, l3))`
//!   where `vmax(a, b) = if a > b { a } else { b }` — the precise semantics
//!   of the x86 `vmaxpd` instruction (returns the second operand for NaN
//!   inputs and for `±0.0` ties),
//! * flat dot/sum-of-squares tails are zero-padded to a full lane group,
//!   with the padding multiply-adds (`+= 0.0 * 0.0`) performed by the
//!   scalar path too (safe: a lane accumulator can never be `-0.0`, so
//!   adding `+0.0` is exact),
//! * row-dimension reductions (gradients, loss) process tail rows with a
//!   shared scalar per-row helper into lane `row & 3`; the SIMD path spills
//!   its vector accumulators and runs the *same* helper.
//!
//! Every SIMD floating-point operation corresponds 1:1 to a scalar one
//! (a multiply then an add, never a fused multiply-add), so every dispatch
//! is bitwise identical to the scalar reference — proven by
//! `tests/kernel_identity.rs` and by the goldens in
//! `tests/golden_columnar.rs` holding for every dispatch.
//!
//! # Dispatch
//!
//! Dispatch is resolved **once**, never per row: [`select`] probes the CPU
//! with `is_x86_feature_detected!` on first use and caches a `&'static`
//! [`Kernels`] vtable of plain function pointers. The trainer stores the
//! vtable per instance; the serializable `ArModel` calls [`select`] at the
//! call site, which after the first probe is a single atomic load. Hosts
//! without AVX2 (and every non-x86 target) run the scalar reference.
//! `INSITU_KERNELS=scalar` in the environment (read once) or the
//! `force-scalar` cargo feature pin the scalar path — that changes timing
//! only, never results.

// The AVX2 submodule is the one place the crate meets `core::arch`; the
// crate-wide `#![deny(unsafe_code)]` stays in force everywhere else, and
// the only unsafe surface here is intrinsic calls + raw-slice pointer
// arithmetic proven in-bounds by the loop structure.
mod scalar;

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
#[allow(unsafe_code)]
mod x86;

use std::sync::OnceLock;

/// Which instruction set a [`Kernels`] vtable drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Dispatch {
    /// The canonical 4-accumulator scalar path (always available).
    Scalar,
    /// AVX2 256-bit lanes, strict mul-then-add (bit-identical to scalar).
    Avx2,
}

impl Dispatch {
    /// Stable lowercase name, recorded in `BENCH_*.json` artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::Scalar => "scalar",
            Dispatch::Avx2 => "avx2",
        }
    }
}

/// The gradient-epoch entry point's signature: `(inputs, targets,
/// intercept, coeffs, grads, lanes)` — see [`Kernels::grad_epoch`].
type GradEpochFn = fn(&[f64], &[f64], f64, &[f64], &mut [f64], &mut [f64]);

/// A resolved kernel set: one function pointer per dispatched hot loop,
/// chosen once at startup so the per-row loops never branch on CPU
/// features.
///
/// Obtain one from [`select`] (best available) or [`scalar`] (reference);
/// both return `&'static` so holders copy a single pointer.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    dispatch: Dispatch,
    affine: fn(f64, &[f64], &[f64]) -> f64,
    grad_epoch: GradEpochFn,
    loss_sum: fn(&[f64], &[f64], f64, &[f64]) -> f64,
}

impl Kernels {
    /// The instruction set this vtable dispatches to.
    pub fn dispatch(&self) -> Dispatch {
        self.dispatch
    }

    /// The dispatch name (`"scalar"`, `"avx2"`, ...).
    pub fn name(&self) -> &'static str {
        self.dispatch.name()
    }

    /// In-place z-score transform: `v = (v - mean) / std_dev` for every
    /// element. Always the scalar reference (see the module docs).
    #[inline]
    pub fn transform(&self, values: &mut [f64], mean: f64, std_dev: f64) {
        scalar::transform(values, mean, std_dev);
    }

    /// `Σ v[i]²` over the canonical 4-lane tree (lane `i & 3`, zero-padded
    /// tail, [`hsum4`] combine). Always the scalar reference.
    #[inline]
    pub fn sum_squares(&self, values: &[f64]) -> f64 {
        scalar::sum_squares(values)
    }

    /// The affine predict `intercept + Σ coeffs[i]·inputs[i]`, dot product
    /// on the canonical tree.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` and `inputs` differ in length.
    #[inline]
    pub fn affine(&self, intercept: f64, coeffs: &[f64], inputs: &[f64]) -> f64 {
        assert_eq!(
            coeffs.len(),
            inputs.len(),
            "affine kernel: coefficient/input arity mismatch"
        );
        (self.affine)(intercept, coeffs, inputs)
    }

    /// One gradient accumulation pass over a columnar batch: for every row
    /// `r` with predictors `x = inputs[r·order .. (r+1)·order]`,
    ///
    /// ```text
    /// residual = (intercept + Σ coeffs·x) - targets[r]
    /// grads[0]   += 2·residual
    /// grads[1+k] += 2·residual · x[k]
    /// ```
    ///
    /// with every reduction over rows on the canonical lane tree
    /// (lane `r & 3`). `grads` is **overwritten** (not accumulated into);
    /// `lanes` is caller-owned scratch of exactly `4 · grads.len()`
    /// elements, kept outside so steady-state training allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the slice arities are inconsistent with
    /// `order = coeffs.len()`.
    #[inline]
    pub fn grad_epoch(
        &self,
        inputs: &[f64],
        targets: &[f64],
        intercept: f64,
        coeffs: &[f64],
        grads: &mut [f64],
        lanes: &mut [f64],
    ) {
        assert_eq!(
            inputs.len(),
            targets.len() * coeffs.len(),
            "grad kernel: predictor stride mismatch"
        );
        assert_eq!(
            grads.len(),
            coeffs.len() + 1,
            "grad kernel: gradient arity mismatch"
        );
        assert_eq!(
            lanes.len(),
            4 * grads.len(),
            "grad kernel: lane scratch must be 4 x gradient arity"
        );
        (self.grad_epoch)(inputs, targets, intercept, coeffs, grads, lanes);
    }

    /// `Σ residual²` over a columnar batch (same row convention as
    /// [`Kernels::grad_epoch`]); the caller divides by the row count.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != targets.len() * coeffs.len()`.
    #[inline]
    pub fn loss_sum(&self, inputs: &[f64], targets: &[f64], intercept: f64, coeffs: &[f64]) -> f64 {
        assert_eq!(
            inputs.len(),
            targets.len() * coeffs.len(),
            "loss kernel: predictor stride mismatch"
        );
        (self.loss_sum)(inputs, targets, intercept, coeffs)
    }

    /// Max-reduction of `values` seeded with `seed` in every lane — the
    /// windowed peak re-scan. Uses `vmaxpd` semantics (`if a > b { a }
    /// else { b }`), so for the store's non-NaN samples the result equals
    /// `values.iter().fold(seed, f64::max)` bit for bit. Always the scalar
    /// reference.
    #[inline]
    pub fn max_seeded(&self, seed: f64, values: &[f64]) -> f64 {
        scalar::max_seeded(seed, values)
    }
}

/// The canonical lane combine: `(l0 + l2) + (l1 + l3)`, the exact shape of
/// the AVX2 horizontal sum (`extractf128` then `unpackhi` then `add`).
/// Exposed so reference implementations (e.g. `bench::rowref`) can commit
/// to the same tree.
#[inline]
pub fn hsum4(lanes: [f64; 4]) -> f64 {
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}

static SCALAR: Kernels = Kernels {
    dispatch: Dispatch::Scalar,
    affine: scalar::affine,
    grad_epoch: scalar::grad_epoch,
    loss_sum: scalar::loss_sum,
};

/// The scalar reference kernels — always available, and the normative
/// definition every SIMD path must reproduce bit for bit.
pub fn scalar() -> &'static Kernels {
    &SCALAR
}

/// Every kernel set the host can run, scalar first, most capable last.
/// Ignores `INSITU_KERNELS`; used by the identity tests and micro-benches
/// to exercise all paths regardless of the pinned dispatch.
pub fn candidates() -> Vec<&'static Kernels> {
    #[allow(unused_mut)]
    let mut sets = vec![scalar()];
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            sets.push(&x86::AVX2);
        }
    }
    sets
}

static SELECTED: OnceLock<&'static Kernels> = OnceLock::new();

/// The kernel set the process runs on: the most capable [`candidates`]
/// entry, unless `INSITU_KERNELS=scalar` is set in the environment (read
/// once, on first call) or the crate was built with `force-scalar`.
/// Detection runs once; afterwards this is an atomic load.
pub fn select() -> &'static Kernels {
    SELECTED.get_or_init(|| {
        if matches!(
            std::env::var("INSITU_KERNELS").as_deref(),
            Ok("scalar" | "Scalar" | "SCALAR")
        ) {
            return scalar();
        }
        *candidates().last().expect("scalar is always a candidate")
    })
}

/// The name of the active dispatch (`select().name()`), for benchmark
/// artifacts and logs.
pub fn active() -> &'static str {
    select().name()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() * 3.0 + (i % 5) as f64)
            .collect()
    }

    #[test]
    fn scalar_transform_matches_elementwise_definition() {
        let mut values = series(11);
        let expect: Vec<f64> = values.iter().map(|v| (v - 1.5) / 2.0).collect();
        scalar().transform(&mut values, 1.5, 2.0);
        for (got, want) in values.iter().zip(&expect) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn scalar_sum_squares_uses_the_canonical_tree() {
        for n in 0..=9 {
            let values = series(n);
            let mut lanes = [0.0f64; 4];
            for (i, &v) in values.iter().enumerate() {
                lanes[i & 3] += v * v;
            }
            assert_eq!(
                scalar().sum_squares(&values).to_bits(),
                hsum4(lanes).to_bits(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn scalar_affine_matches_lane_dot() {
        for order in 1..=8 {
            let coeffs = series(order);
            let inputs: Vec<f64> = series(order).iter().map(|v| v + 0.25).collect();
            let mut lanes = [0.0f64; 4];
            for (i, (c, x)) in coeffs.iter().zip(&inputs).enumerate() {
                lanes[i & 3] += c * x;
            }
            assert_eq!(
                scalar().affine(0.5, &coeffs, &inputs).to_bits(),
                (0.5 + hsum4(lanes)).to_bits(),
                "order = {order}"
            );
        }
    }

    #[test]
    fn scalar_grad_epoch_matches_per_row_accumulation() {
        let order = 3;
        let rows = 7;
        let inputs = series(rows * order);
        let targets = series(rows);
        let coeffs = [0.8, -0.2, 0.05];
        let intercept = 0.1;
        let mut grads = vec![0.0; order + 1];
        let mut lanes = vec![0.0; 4 * (order + 1)];
        scalar().grad_epoch(
            &inputs, &targets, intercept, &coeffs, &mut grads, &mut lanes,
        );

        let mut want_lanes = vec![[0.0f64; 4]; order + 1];
        for r in 0..rows {
            let x = &inputs[r * order..(r + 1) * order];
            let pred = scalar().affine(intercept, &coeffs, x);
            let r2 = 2.0 * (pred - targets[r]);
            want_lanes[0][r & 3] += r2;
            for k in 0..order {
                want_lanes[1 + k][r & 3] += r2 * x[k];
            }
        }
        for (k, want) in want_lanes.iter().enumerate() {
            assert_eq!(grads[k].to_bits(), hsum4(*want).to_bits(), "grad {k}");
        }
    }

    #[test]
    fn scalar_loss_sum_matches_per_row_accumulation() {
        let order = 2;
        let rows = 6;
        let inputs = series(rows * order);
        let targets = series(rows);
        let coeffs = [0.9, -0.1];
        let got = scalar().loss_sum(&inputs, &targets, 0.2, &coeffs);
        let mut lanes = [0.0f64; 4];
        for r in 0..rows {
            let x = &inputs[r * order..(r + 1) * order];
            let d = scalar().affine(0.2, &coeffs, x) - targets[r];
            lanes[r & 3] += d * d;
        }
        assert_eq!(got.to_bits(), hsum4(lanes).to_bits());
    }

    #[test]
    fn scalar_max_seeded_matches_fold_for_ordinary_values() {
        for n in 0..=9 {
            let values = series(n);
            let want = values.iter().copied().fold(-2.5, f64::max);
            assert_eq!(scalar().max_seeded(-2.5, &values).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn max_seeded_keeps_the_seed_over_an_empty_scan() {
        assert_eq!(scalar().max_seeded(3.25, &[]).to_bits(), 3.25f64.to_bits());
        assert_eq!(
            scalar().max_seeded(f64::NEG_INFINITY, &[]).to_bits(),
            f64::NEG_INFINITY.to_bits()
        );
    }

    #[test]
    fn selection_is_stable_and_named() {
        let first = select();
        let second = select();
        assert!(std::ptr::eq(first, second));
        assert_eq!(first.name(), active());
        assert!(["scalar", "avx2"].contains(&active()));
    }

    #[test]
    fn candidates_start_scalar_and_end_with_the_most_capable() {
        let sets = candidates();
        assert_eq!(sets[0].dispatch(), Dispatch::Scalar);
        assert!(!sets.is_empty());
    }
}
