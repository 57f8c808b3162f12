//! Acceptance test for the engine API: the same LULESH-style workload
//! driven through an `Engine` with inline training and an `Engine` with
//! background training must extract the same feature values — with the
//! background run bit-identical after a final `engine.drain()`.

use insitu_repro::prelude::*;

const EDGE_ELEMS: usize = 14;
const TEMPORAL_END: u64 = 10_000;

fn lulesh_spec() -> AnalysisSpec<LuleshSim> {
    AnalysisSpec::builder()
        .name("velocity")
        .provider(|s: &LuleshSim, loc: usize| s.velocity_at(loc))
        .spatial(IterParam::new(1, 8, 1).unwrap())
        .temporal(IterParam::new(1, TEMPORAL_END, 1).unwrap())
        .feature(FeatureKind::Breakpoint { threshold: 0.05 })
        .lag(5)
        .build()
        .unwrap()
}

/// Extracted features as `(name, scalar)` rows for exact comparison.
fn feature_rows(status: &RegionStatus) -> Vec<(String, f64)> {
    status
        .features
        .iter()
        .map(|(name, value)| (name.clone(), value.scalar()))
        .collect()
}

fn run_engine(config: EngineConfig) -> (Engine<LuleshSim>, RegionId, RegionStatus) {
    let mut sim = LuleshSim::new(LuleshConfig::with_edge_elems(EDGE_ELEMS));
    let mut engine: Engine<LuleshSim> = Engine::with_config(config);
    let region = engine.add_region("lulesh").unwrap();
    engine.add_analysis(region, lulesh_spec()).unwrap();
    sim.run_with(|s, it| {
        let step = engine.step(it);
        step.complete(s);
        true
    });
    engine.drain();
    engine.extract_now(region).unwrap();
    let status = engine.status(region).unwrap().clone();
    (engine, region, status)
}

#[test]
fn all_three_api_layers_extract_identical_features() {
    let (inline_engine, inline_region, inline) = run_engine(EngineConfig::inline());
    let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
    let (bg_engine, bg_region, background) = run_engine(EngineConfig::background(pool));

    // Both training modes saw the same samples and produced features.
    assert!(inline.samples_collected > 0);
    assert_eq!(inline.samples_collected, background.samples_collected);
    assert!(
        !feature_rows(&inline).is_empty(),
        "inline extracted nothing"
    );

    // Background training consumed the same batches in the same order, so
    // after drain() the results are bit-identical to inline.
    assert_eq!(feature_rows(&inline), feature_rows(&background));
    assert_eq!(inline.batches_trained, background.batches_trained);
    assert_eq!(inline.last_loss, background.last_loss);
    let ia = inline_engine.analysis_id(inline_region, 0).unwrap();
    let ib = bg_engine.analysis_id(bg_region, 0).unwrap();
    assert_eq!(
        inline_engine.trainer(ia).unwrap().model().coefficients(),
        bg_engine.trainer(ib).unwrap().model().coefficients(),
        "fitted AR coefficients must be bit-identical"
    );
}

#[test]
fn background_engine_does_not_perturb_the_physics() {
    let mut plain = LuleshSim::new(LuleshConfig::with_edge_elems(EDGE_ELEMS));
    plain.run_to_completion();

    let mut instrumented = LuleshSim::new(LuleshConfig::with_edge_elems(EDGE_ELEMS));
    let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
    let mut engine: Engine<LuleshSim> = Engine::with_config(EngineConfig::background(pool));
    let region = engine.add_region("physics").unwrap();
    engine.add_analysis(region, lulesh_spec()).unwrap();
    instrumented.run_with(|s, it| {
        engine.step(it).complete(s);
        true
    });
    engine.drain();

    assert_eq!(plain.iteration(), instrumented.iteration());
    for loc in 0..EDGE_ELEMS {
        let a = plain.state().velocity_at(loc);
        let b = instrumented.state().velocity_at(loc);
        assert!(
            (a - b).abs() < 1e-12,
            "velocity at {loc} differs: {a} vs {b}"
        );
    }
}

#[test]
fn engine_early_termination_matches_region_early_termination() {
    let spec = AnalysisSpec::builder()
        .name("velocity")
        .provider(|s: &LuleshSim, loc: usize| s.velocity_at(loc))
        .spatial(IterParam::new(1, 8, 1).unwrap())
        .temporal(IterParam::new(1, 400, 1).unwrap())
        .feature(FeatureKind::Breakpoint { threshold: 0.1 })
        .lag(5)
        .exit(ExitAction::TerminateSimulation)
        .build()
        .unwrap();

    let mut full = LuleshSim::new(LuleshConfig::with_edge_elems(EDGE_ELEMS));
    let full_iterations = full.run_to_completion().iterations;

    let mut sim = LuleshSim::new(LuleshConfig::with_edge_elems(EDGE_ELEMS));
    let mut engine: Engine<LuleshSim> = Engine::new();
    let r = engine.add_region("early").unwrap();
    engine.add_analysis(r, spec).unwrap();
    let summary = sim.run_with(|s, it| !engine.step(it).complete(s).should_terminate());

    // The engine-wide stop is the region's own request.
    let status = engine.status(r).unwrap();
    assert!(status.converged);
    assert!(status.should_terminate);
    assert!(summary.terminated_early);
    assert!(summary.iterations < full_iterations);
}

/// The per-batch loss sequence, intercept + coefficients, named features
/// and the sample and batch counts of a drained engine, as exact bits.
type Fingerprint = (Vec<u64>, Vec<u64>, Vec<(String, u64)>, usize, usize);

/// Runs a 400-iteration LULESH scenario; `drain_period` forces a mid-run
/// `drain()` every that many iterations and a `poll()` after every step.
/// Returns the fingerprint and how many of those polls found a job in
/// flight.
///
/// The trainer is heavy (96-row batches, 256 epochs, about 0.1 ms per
/// batch optimised and more in debug builds), so background mode keeps
/// handing batches to the worker instead of training them in place, and
/// the drains and polls race real in-flight jobs. At least one poll always
/// does: the first batch goes to the worker unconditionally (no hand-off
/// has been measured yet), and the poll right after the step that launched
/// it runs while that batch is still training.
fn run_with_drains(config: EngineConfig, drain_period: Option<u64>) -> (Fingerprint, usize) {
    const ITERATIONS: u64 = 400;
    let spec = AnalysisSpec::builder()
        .name("velocity")
        .provider(|s: &LuleshSim, loc: usize| s.velocity_at(loc))
        .spatial(IterParam::new(1, 12, 1).unwrap())
        .temporal(IterParam::new(1, ITERATIONS, 1).unwrap())
        .feature(FeatureKind::Breakpoint { threshold: 0.05 })
        .lag(5)
        .batch_capacity(96)
        .trainer(TrainerConfig {
            epochs_per_batch: 256,
            ..TrainerConfig::default()
        })
        .build()
        .unwrap();
    let mut sim = LuleshSim::new(LuleshConfig::with_edge_elems(EDGE_ELEMS));
    let mut engine: Engine<LuleshSim> = Engine::with_config(config);
    let region = engine.add_region("drains").unwrap();
    let analysis = engine.add_analysis(region, spec).unwrap();
    let mut raced = 0;
    sim.run_with(|s, it| {
        engine.step(it).complete(s);
        if let Some(period) = drain_period {
            raced += engine.poll().in_flight;
            if it > 0 && it.is_multiple_of(period) {
                engine.drain();
            }
        }
        it < ITERATIONS
    });
    engine.drain();
    engine.extract_now(region).unwrap();

    let status = engine.status(region).unwrap();
    let trainer = engine
        .trainer(analysis)
        .expect("trainer resident after drain");
    let mut model = vec![trainer.model().intercept().to_bits()];
    model.extend(trainer.model().coefficients().iter().map(|c| c.to_bits()));
    let fingerprint = (
        trainer.loss_history().iter().map(|l| l.to_bits()).collect(),
        model,
        status
            .features
            .iter()
            .map(|(name, value)| (name.clone(), value.scalar().to_bits()))
            .collect(),
        status.samples_collected,
        status.batches_trained,
    );
    (fingerprint, raced)
}

/// Mid-run drains join background training at arbitrary points between
/// steps, and polls reclaim jobs in between; neither may change a bit of
/// the outcome relative to inline training.
#[test]
fn drain_racing_background_steps_is_bit_identical() {
    let (expected, _) = run_with_drains(EngineConfig::inline(), None);
    assert!(!expected.0.is_empty(), "scenario must train batches");
    assert!(!expected.2.is_empty(), "scenario must extract a feature");
    for drain_period in [37u64, 113] {
        let pool = ThreadPool::new(ParallelConfig::new(2, 2).unwrap());
        // Start the pool's job workers before the engine's first hand-off.
        // Otherwise that hand-off also measures thread start-up, which can
        // exceed the batch's train time and make every later batch train
        // in place, leaving nothing in flight to race.
        pool.spawn_job(|| ()).join();
        let (got, raced) = run_with_drains(EngineConfig::background(pool), Some(drain_period));
        assert_eq!(
            expected, got,
            "drain every {drain_period} steps changed the outcome"
        );
        assert!(raced > 0, "no poll found a training job in flight");
    }
}
