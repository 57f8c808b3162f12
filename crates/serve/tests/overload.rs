//! Shed → recover under an artificially slow pipeline, with bit-identical
//! features once the load subsides.
//!
//! The engine's overload control must (a) shed deterministically while the
//! per-step cost EWMA exceeds the budget, (b) stop shedding once the load
//! disappears and the EWMA decays back under the limit, and (c) — under
//! [`ShedPolicy::DeferExtraction`] — never change the bits the analysis
//! ultimately serves. The expensive pipeline is driven by `serve::fault`'s
//! stall hook from inside the analysis *provider*, so the injected latency
//! lands inside the engine's own Sample stage clock (a lane-level stall
//! would be invisible to the budget).
//!
//! This is an integration test (own process) because the fault plan is
//! process-global: the serve crate's chaos tests arm and disarm plans of
//! their own, and sharing a process would race.

use std::time::Duration;

use insitu::engine::{Engine, EngineConfig};
use insitu::extract::FeatureKind;
use insitu::model::{ConvergenceCriteria, OptimizerKind, TrainerConfig};
use insitu::region::AnalysisSpec;
use insitu::telemetry::{Stage, StepBudget};
use insitu::IterParam;
use serve::fault::{arm, disarm, FaultPlan};

struct Pulse {
    values: Vec<f64>,
}

impl Pulse {
    fn new() -> Self {
        Self {
            values: vec![0.0; 20],
        }
    }

    fn advance(&mut self, iteration: u64) {
        let front = iteration as f64 * 0.15;
        for (loc, v) in self.values.iter_mut().enumerate() {
            let x = loc as f64;
            *v = 10.0 / (1.0 + x) * (-((x - front) * (x - front)) / 12.0).exp();
        }
    }
}

/// The provider pays `serve::fault`'s armed stall per location query, so
/// an armed plan makes every *sample* stage expensive — visible to the
/// budget's stage clocks — and a disarmed plan costs nothing.
fn stalling_spec(name: &str) -> AnalysisSpec<Pulse> {
    AnalysisSpec::builder()
        .name(name)
        .provider(|d: &Pulse, loc: usize| {
            serve::fault::stall();
            d.values.get(loc).copied().unwrap_or(0.0)
        })
        .spatial(IterParam::new(1, 12, 1).unwrap())
        .temporal(IterParam::new(0, 10_000, 1).unwrap())
        .feature(FeatureKind::Breakpoint { threshold: 0.05 })
        .lag(5)
        .batch_capacity(16)
        .trainer(TrainerConfig {
            order: 3,
            optimizer: OptimizerKind::Sgd { learning_rate: 0.1 },
            epochs_per_batch: 4,
            convergence: ConvergenceCriteria {
                loss_threshold: 0.0,
                patience: usize::MAX,
                max_batches: 0,
            },
        })
        .build()
        .unwrap()
}

const CALM_BEFORE: u64 = 40;
const STALLED: u64 = 60;
const CALM_AFTER: u64 = 200;
const TOTAL: u64 = CALM_BEFORE + STALLED + CALM_AFTER;

#[test]
fn sheds_under_load_recovers_and_serves_identical_bits() {
    // Reference: the same scenario with no budget and no stall.
    let mut reference: Engine<Pulse> = Engine::new();
    let reference_region = reference.add_region("pulse").unwrap();
    reference
        .add_analysis(reference_region, stalling_spec("velocity"))
        .unwrap();
    let mut domain = Pulse::new();
    for it in 0..TOTAL {
        let step = reference.step(it);
        domain.advance(it);
        step.complete(&domain);
    }
    reference.drain();
    reference.extract_now(reference_region).unwrap();

    // Budgeted engine: 1.5 ms per step. The unstalled pipeline costs a few
    // µs; the armed 500 µs-per-location stall pushes one sample stage to
    // ~6 ms (12 locations), far over budget. The budget sits far above the
    // unstalled cost so that host noise cannot trip the calm phases: with
    // α = 1/8 a single hiccup must last about 12 ms to push the EWMA past
    // 1.5 ms.
    let config = EngineConfig {
        budget: Some(StepBudget::new(Duration::from_micros(1_500))),
        ..EngineConfig::default()
    };
    let mut engine = Engine::with_config(config);
    let region = engine.add_region("pulse").unwrap();
    let analysis = engine
        .add_analysis(region, stalling_spec("velocity"))
        .unwrap();
    let mut domain = Pulse::new();

    // Phase 1 — calm: nothing sheds.
    for it in 0..CALM_BEFORE {
        let step = engine.step(it);
        domain.advance(it);
        let report = step.complete(&domain);
        assert!(!report.shed(), "calm steps must not shed (iteration {it})");
    }
    assert_eq!(engine.shed_steps(), 0);

    // Phase 2 — overload: every provider query sleeps 500 µs.
    arm(FaultPlan {
        stall: Some(Duration::from_micros(500)),
        ..FaultPlan::default()
    });
    let mut sheds_during_load = 0u64;
    for it in CALM_BEFORE..CALM_BEFORE + STALLED {
        let step = engine.step(it);
        domain.advance(it);
        if step.complete(&domain).shed() {
            sheds_during_load += 1;
        }
    }
    disarm();
    assert!(
        sheds_during_load > STALLED / 2,
        "the 1.5 ms budget must shed most ~6 ms steps, shed {sheds_during_load}/{STALLED}"
    );

    // Phase 3 — recovery: the EWMA (α = 1/8) decays ~6 ms → 1.5 ms in
    // about 11 unstalled steps; after a generous settling prefix no
    // further step may shed.
    let mut last_shed_iteration = None;
    for it in CALM_BEFORE + STALLED..TOTAL {
        let step = engine.step(it);
        domain.advance(it);
        if step.complete(&domain).shed() {
            last_shed_iteration = Some(it);
        }
    }
    let settled = CALM_BEFORE + STALLED + 50;
    assert!(
        last_shed_iteration.is_some_and(|it| it < settled),
        "sheds must stop once the EWMA decays: last shed at {last_shed_iteration:?}, \
         settling deadline {settled}"
    );
    let sheds_total = engine.shed_steps();
    assert_eq!(
        engine.telemetry(analysis).unwrap().sheds(),
        sheds_total,
        "shed telemetry events must match the engine counter"
    );
    assert!(
        engine
            .telemetry(analysis)
            .unwrap()
            .histogram(Stage::Shed)
            .count()
            > 0
    );

    // The deferred extractions flush on drain; after recovery the features
    // are bit-identical to the never-budgeted, never-stalled reference.
    engine.drain();
    engine.extract_now(region).unwrap();
    let budgeted = engine.status(region).unwrap();
    let unbudgeted = reference.status(reference_region).unwrap();
    assert_eq!(
        budgeted.samples_collected, unbudgeted.samples_collected,
        "DeferExtraction must not change what is collected"
    );
    assert_eq!(budgeted.batches_trained, unbudgeted.batches_trained);
    assert_eq!(budgeted.last_loss, unbudgeted.last_loss);
    assert_eq!(
        budgeted.features, unbudgeted.features,
        "post-recovery features must be bit-identical"
    );
    assert!(!budgeted.features.is_empty());
}
