//! Property test: every kernel dispatch reproduces the scalar reference.
//!
//! The `insitu::kernels` contract is that the SIMD paths change the
//! instruction mix, never the arithmetic: AVX2 follows the same
//! four-accumulator reduction tree as the scalar code, so its results are
//! **bitwise identical** — including signed zeros, subnormals, and
//! catastrophic-cancellation mixes.
//!
//! This test sweeps every candidate vtable on this host over PRNG batches
//! seasoned with hostile values, at every row count around the 4-lane
//! boundaries (0..=8 covers empty, sub-lane, exact-lane, and
//! lane-plus-tail shapes) plus larger sizes, and at AR orders 1..=8.

use insitu::kernels::{self, Dispatch, Kernels};

/// Deterministic xorshift64* so failures reproduce exactly.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Roughly uniform in [-1, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Values chosen to break naive SIMD ports: signed zeros,
/// subnormals (flush-to-zero bugs), and magnitudes that overflow or vanish
/// when squared or reassociated carelessly.
const HOSTILE: [f64; 12] = [
    0.0, -0.0, 5e-324, -5e-324, 1e-308, -1e-308, 1e300, -1e300, 1e-300, -1e-300, 17.25, -0.5,
];

/// Mostly PRNG noise with hostile values sprinkled at random positions.
fn fill(rng: &mut XorShift, buf: &mut [f64]) {
    for v in buf.iter_mut() {
        *v = rng.next_f64() * 3.0;
    }
    if buf.is_empty() {
        return;
    }
    let plants = buf.len() / 3 + 1;
    for _ in 0..plants {
        let at = rng.next_u64() as usize % buf.len();
        let which = rng.next_u64() as usize % HOSTILE.len();
        buf[at] = HOSTILE[which];
    }
}

fn assert_matches(reference: f64, candidate: f64, k: &Kernels, what: &str) {
    assert_eq!(
        reference.to_bits(),
        candidate.to_bits(),
        "{what}: {} is not bit-identical to scalar (scalar {reference:e}, got {candidate:e})",
        k.name()
    );
}

fn non_scalar_candidates() -> Vec<&'static Kernels> {
    kernels::candidates()
        .into_iter()
        .filter(|k| k.dispatch() != Dispatch::Scalar)
        .collect()
}

#[test]
fn affine_predict_is_identical_at_every_order() {
    let mut rng = XorShift::new(0xCAFE);
    for k in non_scalar_candidates() {
        for order in 1..=8 {
            for round in 0..16 {
                let mut coeffs = vec![0.0; order];
                let mut inputs = vec![0.0; order];
                fill(&mut rng, &mut coeffs);
                fill(&mut rng, &mut inputs);
                let intercept = rng.next_f64();
                let want = kernels::scalar().affine(intercept, &coeffs, &inputs);
                let got = k.affine(intercept, &coeffs, &inputs);
                assert_matches(want, got, k, &format!("affine order {order} round {round}"));
            }
        }
    }
}

#[test]
fn grad_epoch_and_loss_are_identical_over_batches() {
    let mut rng = XorShift::new(0xD00D);
    for k in non_scalar_candidates() {
        for order in 1..=8 {
            for rows in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 33, 128] {
                let mut inputs = vec![0.0; rows * order];
                let mut targets = vec![0.0; rows];
                let mut coeffs = vec![0.0; order];
                fill(&mut rng, &mut inputs);
                fill(&mut rng, &mut targets);
                fill(&mut rng, &mut coeffs);
                let intercept = rng.next_f64();

                let mut want_grads = vec![0.0; order + 1];
                let mut got_grads = vec![0.0; order + 1];
                let mut lanes = vec![0.0; 4 * (order + 1)];
                kernels::scalar().grad_epoch(
                    &inputs,
                    &targets,
                    intercept,
                    &coeffs,
                    &mut want_grads,
                    &mut lanes,
                );
                k.grad_epoch(
                    &inputs,
                    &targets,
                    intercept,
                    &coeffs,
                    &mut got_grads,
                    &mut lanes,
                );
                for (i, (w, g)) in want_grads.iter().zip(&got_grads).enumerate() {
                    assert_matches(
                        *w,
                        *g,
                        k,
                        &format!("grad order {order} rows {rows} component {i}"),
                    );
                }

                let want = kernels::scalar().loss_sum(&inputs, &targets, intercept, &coeffs);
                let got = k.loss_sum(&inputs, &targets, intercept, &coeffs);
                assert_matches(want, got, k, &format!("loss order {order} rows {rows}"));
            }
        }
    }
}

/// End-to-end check of the one call site that re-reduces history data:
/// under windowed retention, overwriting the visible peak with a smaller
/// same-iteration value forces the store to re-scan the survivors with the
/// `max_seeded` kernel, seeded by the evicted peak. Whatever dispatch is
/// active, the result must equal a naive scan of everything ever recorded
/// (with the overwrite applied).
#[test]
fn windowed_peak_rescan_is_dispatch_independent() {
    use insitu::collect::{Retention, SampleHistory};
    use insitu::IterParam;

    let mut rng = XorShift::new(0x5EED);
    for round in 0..32u64 {
        let mut history = SampleHistory::with_retention(IterParam::single(1), Retention::Window(4));
        let mut log: Vec<f64> = Vec::new();
        // Push well past the window so early samples — including a planted
        // spike in some rounds — are evicted into the incremental peak.
        for it in 0..12u64 {
            let v = rng.next_f64() * 10.0 + if it == round % 14 { 1e6 } else { 0.0 };
            history.record_step(it, &[v]);
            log.push(v);
        }
        // Make the newest sample the visible peak, then overwrite it at the
        // same iteration with something smaller: the cold re-scan path.
        history.record_step(12, &[1e7]);
        log.push(1e7);
        let replacement = rng.next_f64();
        history.record_step(12, &[replacement]);
        *log.last_mut().unwrap() = replacement;

        let want = log.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        assert_eq!(
            history.peak_profile(),
            &[(1, want)],
            "round {round}: windowed peak diverged after overwrite re-scan"
        );
    }
}
