//! Randomized property tests for the engine snapshot format.
//!
//! Two properties, each over a deterministic xorshift case set (same
//! style as `property_invariants.rs` — no proptest dependency):
//!
//! 1. **Continuation**: for random analysis shapes (lag, batch capacity,
//!    model order, retention, inline/background execution) and a
//!    random checkpoint boundary, snapshot + restore + continue is
//!    bit-identical to never having stopped.
//! 2. **Fail-closed**: random damage to a valid snapshot — truncation,
//!    bit flips, version bumps, trailing garbage, a record of the retired
//!    sharded store — is rejected with a typed error and leaves the target
//!    engine untouched and usable.

use insitu::collect::Retention;
use insitu::engine::{Engine, EngineConfig, RegionId};
use insitu::extract::FeatureKind;
use insitu::model::{ConvergenceCriteria, OptimizerKind, TrainerConfig};
use insitu::region::AnalysisSpec;
use insitu::{Error, IterParam};
use parsim::{ParallelConfig, ThreadPool};

/// xorshift64* — deterministic, dependency-free case generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }

    fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }
}

/// One randomly drawn analysis shape.
#[derive(Clone)]
struct Case {
    lag: u64,
    batch_capacity: usize,
    order: usize,
    window: Option<usize>,
    /// Background training (inline otherwise).
    background: bool,
    split: u64,
    total: u64,
}

impl Case {
    fn draw(rng: &mut Rng) -> Self {
        let total = rng.range_u64(120, 260);
        Self {
            lag: rng.range_u64(3, 12),
            batch_capacity: rng.range_usize(8, 32),
            order: rng.range_usize(2, 5),
            window: match rng.range_usize(0, 3) {
                0 => None,
                _ => Some(rng.range_usize(32, 96)),
            },
            background: rng.range_usize(0, 2) == 1,
            split: rng.range_u64(20, total - 20),
            total,
        }
    }

    fn config(&self) -> EngineConfig {
        if self.background {
            EngineConfig::background(ThreadPool::new(ParallelConfig::new(1, 2).unwrap()))
        } else {
            EngineConfig::inline()
        }
    }

    /// Background cases train heavy batches (tens of microseconds each),
    /// so the engine keeps handing them to the worker instead of training
    /// them in place, and the snapshot drains race real in-flight jobs.
    fn epochs_per_batch(&self) -> usize {
        if self.background {
            256
        } else {
            4
        }
    }

    fn fresh_engine(&self) -> (Engine<Pulse>, RegionId) {
        let mut engine = Engine::with_config(self.config());
        let region = engine.add_region("pulse").unwrap();
        engine
            .add_analysis(
                region,
                AnalysisSpec::builder()
                    .name("velocity")
                    .provider(|d: &Pulse, loc: usize| d.values.get(loc).copied().unwrap_or(0.0))
                    .spatial(IterParam::new(1, 12, 1).unwrap())
                    .temporal(IterParam::new(0, self.total, 1).unwrap())
                    .feature(FeatureKind::Breakpoint { threshold: 0.05 })
                    .lag(self.lag)
                    .batch_capacity(self.batch_capacity)
                    .retention(match self.window {
                        Some(w) => Retention::Window(w),
                        None => Retention::Full,
                    })
                    .trainer(TrainerConfig {
                        order: self.order,
                        optimizer: OptimizerKind::Sgd { learning_rate: 0.1 },
                        epochs_per_batch: self.epochs_per_batch(),
                        convergence: ConvergenceCriteria {
                            loss_threshold: 1e-2,
                            patience: 3,
                            max_batches: 60,
                        },
                    })
                    .build()
                    .unwrap(),
            )
            .unwrap();
        (engine, region)
    }
}

/// A toy domain: an outward-travelling decaying pulse.
struct Pulse {
    values: Vec<f64>,
}

impl Pulse {
    fn new() -> Self {
        Self {
            values: vec![0.0; 40],
        }
    }

    fn advance(&mut self, iteration: u64) {
        let front = iteration as f64 * 0.2;
        for (loc, v) in self.values.iter_mut().enumerate() {
            let x = loc as f64;
            *v = 10.0 / (1.0 + x) * (-((x - front) * (x - front)) / 8.0).exp();
        }
    }
}

/// FNV-1a 64, the snapshot container's section checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rewrites the store tag byte of the `velocity` analysis record and
/// re-checksums its region section, so the container itself stays valid.
fn with_store_tag(blob: &[u8], tag: u8) -> Vec<u8> {
    const HEADER: usize = 16; // magic, version, section count
    let record: Vec<u8> = [&8u64.to_le_bytes()[..], b"velocity"].concat();
    let mut out = blob.to_vec();
    let mut at = HEADER;
    while at < out.len() {
        let id = u16::from_le_bytes(out[at..at + 2].try_into().unwrap());
        let len = u64::from_le_bytes(out[at + 2..at + 10].try_into().unwrap()) as usize;
        let payload = at + 18..at + 18 + len;
        if id == 2 {
            // The analysis record follows the region status, whose feature
            // list may repeat the name: the last match is the record.
            let name = out[payload.clone()]
                .windows(record.len())
                .rposition(|w| w == record)
                .expect("the region section holds the analysis record");
            out[payload.start + name + record.len()] = tag;
            let checksum = fnv1a64(&out[payload.clone()]);
            out[at + 10..at + 18].copy_from_slice(&checksum.to_le_bytes());
        }
        at = payload.end;
    }
    out
}

fn drive(engine: &mut Engine<Pulse>, range: std::ops::Range<u64>) {
    let mut domain = Pulse::new();
    for it in range {
        let step = engine.step(it);
        domain.advance(it);
        step.complete(&domain);
    }
}

#[test]
fn snapshots_continue_bit_identically_across_random_shapes() {
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed + 1);
        let case = Case::draw(&mut rng);

        let (mut reference, ref_region) = case.fresh_engine();
        drive(&mut reference, 0..case.total);
        reference.drain();

        let (mut before, _) = case.fresh_engine();
        drive(&mut before, 0..case.split);
        let blob = before.snapshot();
        drop(before);

        let (mut after, region) = case.fresh_engine();
        after
            .restore(&blob)
            .unwrap_or_else(|e| panic!("seed {seed}: restore failed on a pristine snapshot: {e}"));
        drive(&mut after, case.split..case.total);
        after.drain();

        let expected = reference.status(ref_region).unwrap();
        let got = after.status(region).unwrap();
        assert_eq!(
            got, expected,
            "seed {seed}: restored run diverged (split {} of {}, background {})",
            case.split, case.total, case.background
        );
        assert!(
            got.batches_trained > 0,
            "seed {seed}: the case never trained — property vacuous"
        );
    }
}

#[test]
fn damaged_snapshots_fail_closed_with_typed_errors() {
    let mut rng = Rng::new(0xD1CE);
    let case = Case::draw(&mut rng);
    let (mut source, _) = case.fresh_engine();
    drive(&mut source, 0..case.split);
    let blob = source.snapshot();

    let (mut target, region) = case.fresh_engine();
    drive(&mut target, 0..40);
    let untouched = target.status(region).unwrap().clone();

    let reject = |bytes: &[u8], what: &str, target: &mut Engine<Pulse>| {
        let err = target
            .restore(bytes)
            .expect_err(&format!("{what}: damaged snapshot restored"));
        assert!(
            matches!(
                err,
                Error::SnapshotCorrupt { .. }
                    | Error::SnapshotVersion { .. }
                    | Error::SnapshotMismatch { .. }
            ),
            "{what}: untyped error {err}"
        );
        assert_eq!(
            target.status(region).unwrap(),
            &untouched,
            "{what}: failed restore mutated the engine"
        );
    };

    // Truncation at 64 random offsets (always strictly shorter).
    for _ in 0..64 {
        let cut = rng.range_usize(0, blob.len());
        reject(&blob[..cut], "truncation", &mut target);
    }
    // 64 random single-bit flips anywhere in the file.
    for _ in 0..64 {
        let mut mutated = blob.clone();
        let at = rng.range_usize(0, mutated.len());
        mutated[at] ^= 1 << rng.range_usize(0, 8);
        reject(&mutated, "bit flip", &mut target);
    }
    // A future version is refused with the version error specifically.
    let mut future = blob.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    match target.restore(&future) {
        Err(Error::SnapshotVersion { found, .. }) => assert_eq!(found, 99),
        other => panic!("version bump: expected SnapshotVersion, got {other:?}"),
    }
    // Trailing garbage is corruption, not ignored padding.
    let mut padded = blob.clone();
    padded.extend_from_slice(&[0xAB; 7]);
    reject(&padded, "trailing garbage", &mut target);
    // Degenerate inputs.
    reject(&[], "empty file", &mut target);
    reject(b"ISNPSHT\0", "magic only", &mut target);
    // Store tag 0 is the only backend; tag 1, the retired sharded store,
    // is a configuration mismatch rather than corruption.
    assert_eq!(with_store_tag(&blob, 0), blob, "the store tag is 0");
    match target.restore(&with_store_tag(&blob, 1)) {
        Err(Error::SnapshotMismatch { .. }) => {}
        other => panic!("sharded store tag: expected SnapshotMismatch, got {other:?}"),
    }
    assert_eq!(target.status(region).unwrap(), &untouched);

    // After surviving all of that, the engine still works: the pristine
    // blob restores and the run completes.
    target.restore(&blob).expect("pristine blob restores");
    drive(&mut target, case.split..case.total);
    target.drain();
    assert!(target.status(region).unwrap().samples_collected > 0);
}
