//! Shared scalar-vs-dispatched kernel measurement.
//!
//! One fixed shape per dispatched kernel, timed once against the canonical
//! scalar reference and once against the host's best dispatch
//! ([`insitu::kernels::select`]). `bench_columnar` records these rows into
//! the committed `BENCH_columnar.json` (keyed `"kernel_speedup"`,
//! deliberately not a substring hit for the pipeline `"speedup":` scans),
//! and `perf_smoke` re-measures the same shapes to enforce the committed
//! geomean at its floor.
//!
//! Because scalar and SIMD are bit-identical, every measurement first
//! asserts the two paths agree on its actual inputs — a timing row for
//! diverging arithmetic would be meaningless.

use insitu::kernels::{self, Kernels};

use crate::median_ns;

/// One scalar-vs-dispatched timing row.
#[derive(Debug)]
pub struct KernelCase {
    /// Stable row name, recorded in the artifact.
    pub name: &'static str,
    /// Per-op nanoseconds through the canonical scalar kernels.
    pub scalar_ns: f64,
    /// Per-op nanoseconds through [`insitu::kernels::select`].
    pub dispatched_ns: f64,
}

impl KernelCase {
    /// Scalar time over dispatched time (>1 means the dispatch wins).
    pub fn speedup(&self) -> f64 {
        self.scalar_ns / self.dispatched_ns
    }
}

/// Deterministic xorshift64* fill in roughly [-1, 1).
fn fill(seed: u64, buf: &mut [f64]) {
    let mut x = seed | 1;
    for v in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *v = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    }
}

/// Times `op` through both kernel sets, amortizing `reps` calls per timer
/// read so sub-microsecond kernels are measured above clock resolution.
fn time_pair(
    name: &'static str,
    runs: usize,
    reps: usize,
    mut op: impl FnMut(&'static Kernels),
) -> KernelCase {
    let scalar_ns = median_ns(runs, || {
        for _ in 0..reps {
            op(kernels::scalar());
        }
    }) / reps as f64;
    let dispatched_ns = median_ns(runs, || {
        for _ in 0..reps {
            op(kernels::select());
        }
    }) / reps as f64;
    KernelCase {
        name,
        scalar_ns,
        dispatched_ns,
    }
}

/// Asserts the dispatched kernel reproduces scalar bit for bit on this
/// input.
fn assert_agree(scalar: f64, dispatched: f64, what: &str) {
    assert_eq!(
        scalar.to_bits(),
        dispatched.to_bits(),
        "{what}: dispatched kernel diverged from scalar ({scalar:e} vs {dispatched:e})"
    );
}

/// The kernel rows recorded in `BENCH_columnar.json`: gradient epoch, loss
/// reduction, and the order-3 affine predict (the extraction path's
/// shape).
pub fn measure_training_kernels(runs: usize) -> Vec<KernelCase> {
    let rows = 256;
    let order = 3;
    let mut inputs = vec![0.0; rows * order];
    let mut targets = vec![0.0; rows];
    let mut coeffs = vec![0.0; order];
    fill(2, &mut inputs);
    fill(3, &mut targets);
    fill(4, &mut coeffs);
    let intercept = 0.125;

    assert_agree(
        kernels::scalar().loss_sum(&inputs, &targets, intercept, &coeffs),
        kernels::select().loss_sum(&inputs, &targets, intercept, &coeffs),
        "loss_sum",
    );
    assert_agree(
        kernels::scalar().affine(intercept, &coeffs, &inputs[..order]),
        kernels::select().affine(intercept, &coeffs, &inputs[..order]),
        "affine",
    );

    let mut cases = Vec::new();
    let mut grads = vec![0.0; order + 1];
    let mut lanes = vec![0.0; 4 * (order + 1)];
    cases.push(time_pair("grad_epoch_rows256_order3", runs, 64, |k| {
        k.grad_epoch(
            &inputs, &targets, intercept, &coeffs, &mut grads, &mut lanes,
        );
    }));
    cases.push(time_pair("loss_sum_rows256_order3", runs, 64, |k| {
        std::hint::black_box(k.loss_sum(&inputs, &targets, intercept, &coeffs));
    }));
    cases.push(time_pair("affine_order3", runs, 4096, |k| {
        std::hint::black_box(k.affine(intercept, &coeffs, &inputs[..order]));
    }));
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_carry_positive_times_and_stable_names() {
        let cases = measure_training_kernels(3);
        let names: Vec<&str> = cases.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            [
                "grad_epoch_rows256_order3",
                "loss_sum_rows256_order3",
                "affine_order3",
            ]
        );
        for c in &cases {
            assert!(c.scalar_ns > 0.0 && c.dispatched_ns > 0.0, "{}", c.name);
            assert!(c.speedup().is_finite());
        }
    }
}
