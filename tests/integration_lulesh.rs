//! Integration tests spanning the `insitu` library and the LULESH proxy:
//! the full material-deformation pipeline of the paper's first case study.

use insitu_repro::prelude::*;

fn small_size() -> usize {
    14
}

fn full_run(size: usize) -> LuleshSim {
    let mut sim = LuleshSim::new(LuleshConfig::with_edge_elems(size));
    sim.run_to_completion();
    sim
}

#[test]
fn instrumented_run_matches_plain_run_physics() {
    // Attaching the analysis must not change the simulated physics at all.
    let size = small_size();
    let plain = full_run(size);

    let mut instrumented = LuleshSim::new(LuleshConfig::with_edge_elems(size));
    let mut engine: Engine<LuleshSim> = Engine::new();
    let region = engine.add_region("check").unwrap();
    let spec = AnalysisSpec::builder()
        .name("velocity")
        .provider(|s: &LuleshSim, loc: usize| s.velocity_at(loc))
        .spatial(IterParam::new(1, 8, 1).unwrap())
        .temporal(IterParam::new(1, 10_000, 1).unwrap())
        .feature(FeatureKind::Breakpoint { threshold: 0.05 })
        .lag(5)
        .build()
        .unwrap();
    engine.add_analysis(region, spec).unwrap();
    instrumented.run_with(|s, it| {
        engine.step(it).complete(s);
        true
    });

    assert_eq!(plain.iteration(), instrumented.iteration());
    for loc in 0..size {
        let a = plain.state().velocity_at(loc);
        let b = instrumented.state().velocity_at(loc);
        assert!(
            (a - b).abs() < 1e-12,
            "velocity at {loc} differs: {a} vs {b}"
        );
    }
}

#[test]
fn region_collects_exactly_the_configured_samples() {
    let size = small_size();
    let mut sim = LuleshSim::new(LuleshConfig::with_edge_elems(size));
    let mut engine: Engine<LuleshSim> = Engine::new();
    let region = engine.add_region("count").unwrap();
    let spatial = IterParam::new(1, 6, 1).unwrap();
    let temporal = IterParam::new(10, 60, 5).unwrap();
    let spec = AnalysisSpec::builder()
        .name("velocity")
        .provider(|s: &LuleshSim, loc: usize| s.velocity_at(loc))
        .spatial(spatial)
        .temporal(temporal)
        .feature(FeatureKind::Outliers { threshold: 1.0 })
        .build()
        .unwrap();
    let analysis = engine.add_analysis(region, spec).unwrap();
    sim.run_with(|s, it| {
        engine.step(it).complete(s);
        it < 100
    });
    // Every sampled iteration contributes one sample per sampled location.
    assert_eq!(
        engine.status(region).unwrap().samples_collected,
        spatial.len() * temporal.len()
    );
    let history = engine.history(analysis).unwrap();
    assert_eq!(history.iter_locations().count(), spatial.len());
}

#[test]
fn breakpoint_feature_agrees_with_ground_truth_for_coarse_thresholds() {
    let size = small_size();
    let full = full_run(size);
    let truth = full.diagnostics().breakpoint_radius(0.20);

    let mut sim = LuleshSim::new(LuleshConfig::with_edge_elems(size));
    let mut engine: Engine<LuleshSim> = Engine::new();
    let region = engine.add_region("bp").unwrap();
    let spec = AnalysisSpec::builder()
        .name("velocity")
        .provider(|s: &LuleshSim, loc: usize| s.velocity_at(loc))
        .spatial(IterParam::new(1, (size - 2) as u64, 1).unwrap())
        .temporal(IterParam::new(1, 10_000, 1).unwrap())
        .feature(FeatureKind::Breakpoint { threshold: 0.20 })
        .lag(5)
        .build()
        .unwrap();
    engine.add_analysis(region, spec).unwrap();
    sim.run_with(|s, it| {
        engine.step(it).complete(s);
        true
    });
    engine.extract_now(region).unwrap();
    let extracted = engine
        .status(region)
        .unwrap()
        .feature("velocity")
        .map(|f| f.scalar())
        .expect("breakpoint feature extracted");
    assert!(
        (extracted - truth as f64).abs() <= 2.0,
        "extracted {extracted} vs ground truth {truth}"
    );
}

#[test]
fn early_termination_executes_fewer_iterations_than_full_run() {
    let size = small_size();
    let full = full_run(size);
    let full_iterations = full.iteration();

    let mut sim = LuleshSim::new(LuleshConfig::with_edge_elems(size));
    let mut engine: Engine<LuleshSim> = Engine::new();
    let region = engine.add_region("early").unwrap();
    let spec = AnalysisSpec::builder()
        .name("velocity")
        .provider(|s: &LuleshSim, loc: usize| s.velocity_at(loc))
        .spatial(IterParam::new(1, 8, 1).unwrap())
        .temporal(IterParam::new(1, (full_iterations as f64 * 0.4) as u64, 1).unwrap())
        .feature(FeatureKind::Breakpoint { threshold: 0.1 })
        .lag(5)
        .exit(ExitAction::TerminateSimulation)
        .build()
        .unwrap();
    engine.add_analysis(region, spec).unwrap();
    let summary = sim.run_with(|s, it| !engine.step(it).complete(s).should_terminate());
    assert!(summary.terminated_early);
    assert!(summary.iterations < full_iterations);
    // The paper's Table IV regime: early termination lands well below the
    // full iteration budget (≈ 40 % collection window plus convergence).
    assert!(summary.iterations as f64 <= full_iterations as f64 * 0.6);
}
