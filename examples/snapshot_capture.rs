//! Regenerates the golden snapshot fixture committed at
//! `tests/golden/snapshot.bin`.
//!
//! Runs the fixed pulse scenario of `tests/golden_snapshot.rs` to its
//! checkpoint boundary and writes the engine's snapshot container — format
//! version 2 — to the committed file. The snapshot encoding is fully deterministic (fixed
//! section order, little-endian, `f64::to_bits`), so CI's `golden-drift`
//! job regenerates the fixture and `git diff --exit-code`s it against
//! the checked-in copy: any change to the byte format shows up as a
//! diff, and `golden_snapshot.rs` separately proves that whatever is
//! committed still restores and continues bit-identically.
//!
//! If a future change intentionally revises the snapshot format, bump
//! the container version, rerun this example, commit the regenerated
//! fixture, and say so in the PR.

use insitu::engine::{Engine, EngineConfig};
use insitu::extract::FeatureKind;
use insitu::model::{ConvergenceCriteria, OptimizerKind, TrainerConfig};
use insitu::region::AnalysisSpec;
use insitu::IterParam;

/// Path of the committed fixture, relative to the workspace root (where
/// `cargo run --example snapshot_capture` executes).
const GOLDEN_PATH: &str = "tests/golden/snapshot.bin";

/// Checkpoint boundary: the scenario snapshots after this many steps.
const SPLIT: u64 = 150;

/// A toy domain: an outward-travelling decaying pulse. Must match
/// `tests/golden_snapshot.rs` exactly.
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

fn fixture_engine() -> Engine<Pulse> {
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
    engine
}

fn main() {
    let mut engine = fixture_engine();
    let mut domain = Pulse::new();
    for it in 0..SPLIT {
        let step = engine.step(it);
        domain.advance(it);
        step.complete(&domain);
    }
    let blob = engine.snapshot();
    std::fs::write(GOLDEN_PATH, &blob).expect("write golden snapshot fixture");
    println!(
        "wrote {GOLDEN_PATH}: {} bytes, format version {} (scenario: pulse, split at step \
         {SPLIT})",
        blob.len(),
        insitu::snapshot::VERSION
    );
}
