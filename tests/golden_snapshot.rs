//! The committed snapshot fixture must keep restoring.
//!
//! `tests/golden/snapshot.bin` was captured by
//! `examples/snapshot_capture.rs`: the fixed pulse scenario checkpointed
//! at step 150, in snapshot format version 2. This test is the compatibility contract for the snapshot
//! format — every future revision of the engine must still accept the
//! committed container, resurrect the session it describes, and finish
//! the run bit-identically to never having stopped. If this test fails,
//! the snapshot format or the training arithmetic changed: either fix
//! the regression or (for a deliberate format revision) bump the
//! container version, regenerate the fixture, and say so in the PR.

use insitu::engine::{Engine, EngineConfig, RegionId};
use insitu::extract::FeatureKind;
use insitu::model::{ConvergenceCriteria, OptimizerKind, TrainerConfig};
use insitu::region::AnalysisSpec;
use insitu::IterParam;

/// Checkpoint boundary the fixture was captured at. Must match
/// `examples/snapshot_capture.rs`.
const SPLIT: u64 = 150;
const TOTAL: u64 = 301;

/// A toy domain: an outward-travelling decaying pulse. Must match
/// `examples/snapshot_capture.rs` exactly.
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

fn fixture_engine() -> (Engine<Pulse>, RegionId) {
    let mut engine = Engine::with_config(EngineConfig::inline());
    let region = engine.add_region("pulse").unwrap();
    engine
        .add_analysis(
            region,
            AnalysisSpec::builder()
                .name("velocity")
                .provider(|d: &Pulse, loc: usize| d.values.get(loc).copied().unwrap_or(0.0))
                .spatial(IterParam::new(1, 12, 1).unwrap())
                .temporal(IterParam::new(0, 300, 1).unwrap())
                .feature(FeatureKind::Breakpoint { threshold: 0.05 })
                .lag(5)
                .batch_capacity(16)
                .trainer(TrainerConfig {
                    order: 3,
                    optimizer: OptimizerKind::Sgd { learning_rate: 0.1 },
                    epochs_per_batch: 4,
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

fn drive(engine: &mut Engine<Pulse>, range: std::ops::Range<u64>) {
    let mut domain = Pulse::new();
    for it in range {
        let step = engine.step(it);
        domain.advance(it);
        step.complete(&domain);
    }
}

#[test]
fn committed_snapshot_fixture_still_restores_and_continues() {
    let blob = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/snapshot.bin"
    ))
    .expect("committed fixture tests/golden/snapshot.bin is readable");

    let (mut restored, region) = fixture_engine();
    restored
        .restore(&blob)
        .expect("the committed fixture must keep restoring");
    drive(&mut restored, SPLIT..TOTAL);
    restored.drain();

    let (mut reference, ref_region) = fixture_engine();
    drive(&mut reference, 0..TOTAL);
    reference.drain();

    let got = restored.status(region).unwrap();
    let expected = reference.status(ref_region).unwrap();
    assert_eq!(got, expected, "restored fixture diverged from a full run");
    assert!(got.batches_trained > 0);
    assert!(!got.features.is_empty());
}

/// The capture is deterministic: re-snapshotting the same scenario at
/// the same boundary reproduces the committed bytes exactly. This is the
/// in-test half of CI's `golden-drift` regeneration check.
#[test]
fn fixture_capture_is_byte_stable() {
    let committed = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/snapshot.bin"
    ))
    .expect("committed fixture tests/golden/snapshot.bin is readable");

    let (mut engine, _) = fixture_engine();
    drive(&mut engine, 0..SPLIT);
    assert_eq!(
        engine.snapshot(),
        committed,
        "the snapshot encoding drifted from the committed fixture — \
         if intentional, regenerate via `cargo run --example snapshot_capture`"
    );
}
