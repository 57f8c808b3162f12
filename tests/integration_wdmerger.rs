//! Integration tests spanning the `insitu` library and the wdmerger proxy:
//! the delay-time pipeline of the paper's second case study.

use insitu::collect::PredictorLayout;
use insitu::extract::DelayTimeExtractor;
use insitu::region::FeatureValue;
use insitu_repro::prelude::*;

fn engine_for(config: &WdMergerConfig) -> (Engine<WdMergerSim>, RegionId) {
    let mut engine: Engine<WdMergerSim> = Engine::new();
    let region = engine.add_region("wdmerger").unwrap();
    for variable in DiagnosticVariable::all() {
        let spec = AnalysisSpec::builder()
            .name(variable.name())
            .provider(move |sim: &WdMergerSim, loc: usize| sim.diagnostic_at(loc))
            .spatial(IterParam::single(variable.location() as u64))
            .temporal(IterParam::new(1, config.steps, 1).unwrap())
            .layout(PredictorLayout::Temporal)
            .feature(FeatureKind::DelayTime)
            .lag(1)
            .batch_capacity(8)
            .build()
            .unwrap();
        engine.add_analysis(region, spec).unwrap();
    }
    (engine, region)
}

#[test]
fn delay_time_features_cluster_around_the_ignition_time() {
    let config = WdMergerConfig::with_resolution(12);
    let mut sim = WdMergerSim::new(config);
    let (mut engine, region) = engine_for(&config);
    sim.run_with(|s, step| {
        engine.step(step).complete(s);
        true
    });
    engine.extract_now(region).unwrap();

    let truth = sim.diagnostics().ground_truth_delay_time().unwrap();
    let mut extracted = 0;
    for variable in DiagnosticVariable::all() {
        if let Some(feature) = engine.status(region).unwrap().feature(variable.name()) {
            let delay = feature.scalar();
            assert!(
                (delay - truth).abs() <= 8.0,
                "{}: delay {delay} too far from ignition {truth}",
                variable.name()
            );
            extracted += 1;
        }
    }
    assert!(
        extracted >= 3,
        "expected most variables to yield a delay time"
    );
}

#[test]
fn instrumented_wd_run_preserves_the_physics() {
    let config = WdMergerConfig::with_resolution(12);
    let mut plain = WdMergerSim::new(config);
    plain.run_to_completion();

    let mut instrumented = WdMergerSim::new(config);
    let (mut engine, _) = engine_for(&config);
    instrumented.run_with(|s, step| {
        engine.step(step).complete(s);
        true
    });

    let a = plain.diagnostics();
    let b = instrumented.diagnostics();
    assert_eq!(a.steps(), b.steps());
    assert_eq!(
        a.ground_truth_delay_time(),
        b.ground_truth_delay_time(),
        "analysis must not perturb the detonation time"
    );
    for variable in DiagnosticVariable::all() {
        let last_a = a.latest(variable).unwrap();
        let last_b = b.latest(variable).unwrap();
        assert!((last_a - last_b).abs() < 1e-12);
    }
}

#[test]
fn four_analyses_collect_independent_series() {
    let config = WdMergerConfig::with_resolution(12).with_steps(40);
    let mut sim = WdMergerSim::new(config);
    let (mut engine, region) = engine_for(&config);
    sim.run_with(|s, step| {
        engine.step(step).complete(s);
        true
    });
    for index in 0..4 {
        let analysis = engine.analysis_id(region, index).unwrap();
        let history = engine.history(analysis).unwrap();
        assert_eq!(history.iter_locations().count(), 1);
        let location = history.iter_locations().next().unwrap();
        assert_eq!(
            history.series_len(location),
            40,
            "one sample per analysed step"
        );
        assert_eq!(history.values_of(location).unwrap().len(), 40);
        assert_eq!(history.iterations_of(location).unwrap().len(), 40);
    }
    // Mass and temperature series must differ (they are different variables).
    let mass = engine
        .history(engine.analysis_id(region, 2).unwrap())
        .unwrap();
    let temp = engine
        .history(engine.analysis_id(region, 0).unwrap())
        .unwrap();
    let mass_last = mass
        .latest_of(mass.iter_locations().next().unwrap())
        .unwrap();
    let temp_last = temp
        .latest_of(temp.iter_locations().next().unwrap())
        .unwrap();
    assert_ne!(mass_last, temp_last);
}

#[test]
fn early_termination_after_detonation_saves_steps() {
    let config = WdMergerConfig::with_resolution(12);
    let mut sim = WdMergerSim::new(config);
    let mut engine: Engine<WdMergerSim> = Engine::new();
    let region = engine.add_region("early").unwrap();
    let spec = AnalysisSpec::builder()
        .name("temperature")
        .provider(|s: &WdMergerSim, loc: usize| s.diagnostic_at(loc))
        .spatial(IterParam::single(0))
        .temporal(IterParam::new(1, config.steps / 2, 1).unwrap())
        .layout(PredictorLayout::Temporal)
        .feature(FeatureKind::DelayTime)
        .lag(1)
        .batch_capacity(8)
        .exit(ExitAction::TerminateSimulation)
        .build()
        .unwrap();
    engine.add_analysis(region, spec).unwrap();
    let summary = sim.run_with(|s, step| {
        let report = engine.step(step).complete(s);
        !(report.should_terminate() && s.detonated())
    });
    assert!(summary.detonated);
    assert!(summary.steps < config.steps);
}

/// The delay-time feature's bits, or `None` when none was extracted.
fn delay_bits(feature: Option<&FeatureValue>) -> Option<[u64; 4]> {
    feature.map(|feature| {
        let FeatureValue::DelayTime(d) = feature else {
            panic!("a delay-time analysis extracted {feature:?}");
        };
        [
            d.delay_time.to_bits(),
            d.index as u64,
            d.value.to_bits(),
            d.gradient_drop.to_bits(),
        ]
    })
}

/// Checks every analysis' status feature against a fresh extraction over
/// its history: an analysis whose trainer has converged extracts on every
/// step, so its feature must be exactly that fresh pass; any other keeps
/// the feature it had.
fn assert_features_match_fresh_passes(
    engine: &Engine<WdMergerSim>,
    region: RegionId,
    previous: &mut [Option<[u64; 4]>],
    what: &str,
) -> usize {
    let mut extracted = 0;
    for (index, variable) in DiagnosticVariable::all().into_iter().enumerate() {
        let analysis = engine.analysis_id(region, index).unwrap();
        let feature = delay_bits(engine.status(region).unwrap().feature(variable.name()));
        if engine.trainer(analysis).unwrap().is_converged() {
            let history = engine.history(analysis).unwrap();
            let location = history.representative().unwrap();
            let fresh = DelayTimeExtractor::new()
                .extract_sampled(
                    history.iterations_of(location).unwrap(),
                    history.values_of(location).unwrap(),
                )
                .expect("a converged wdmerger series yields a delay time");
            assert_eq!(
                feature,
                delay_bits(Some(&FeatureValue::DelayTime(fresh))),
                "{what}: {} differs from a fresh pass",
                variable.name()
            );
            extracted += 1;
        } else {
            assert_eq!(feature, previous[index], "{what}: {}", variable.name());
        }
        previous[index] = feature;
    }
    extracted
}

#[test]
fn carried_delay_time_passes_match_fresh_passes_every_step() {
    let config = WdMergerConfig::with_resolution(12);
    let mut sim = WdMergerSim::new(config);
    let (mut engine, region) = engine_for(&config);
    let mut restored: Option<Engine<WdMergerSim>> = None;
    let mut saved = (Vec::new(), [None; 4]);
    let (mut previous, mut previous_restored) = ([None; 4], [None; 4]);
    let mut extracted = 0;
    sim.run_with(|s, step| {
        engine.step(step).complete(s);
        let what = format!("step {step}");
        extracted += assert_features_match_fresh_passes(&engine, region, &mut previous, &what);
        if let Some(restored) = &mut restored {
            restored.step(step).complete(s);
            let what = format!("restored, step {step}");
            assert_features_match_fresh_passes(restored, region, &mut previous_restored, &what);
            if step < 3 * config.steps / 4 {
                assert_eq!(previous_restored, previous, "{what}: restored run diverged");
            } else if step == 3 * config.steps / 4 {
                // Rewind the running copy to the mid-run snapshot: its
                // histories shrink, and the later steps append after a gap.
                restored.restore(&saved.0).unwrap();
                previous_restored = saved.1;
            }
        } else if step == config.steps / 2 {
            // Restore mid-run into a fresh engine; it continues alongside.
            saved = (engine.snapshot(), previous);
            let (mut fresh, _) = engine_for(&config);
            fresh.restore(&saved.0).unwrap();
            previous_restored = previous;
            restored = Some(fresh);
        }
        true
    });
    assert!(restored.is_some(), "the run must reach the restore point");
    assert!(
        extracted > config.steps as usize,
        "the analyses must extract on most steps, extracted {extracted} times"
    );
}
