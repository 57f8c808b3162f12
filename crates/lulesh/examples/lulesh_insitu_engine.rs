//! In-situ engine integration for the LULESH proxy: velocity curve fitting
//! with background training and break-point extraction — the
//! engine-native version of the paper's Fig. 2 integration.
//!
//! [`EngineConfig::background`] moves gradient descent onto a pool worker
//! only when a batch costs more to train than to hand off. A LULESH batch
//! trains in a few microseconds, less than one worker hand-off, so after
//! the first (measured) hand-off this run trains in place on the solver
//! thread. Results are bit-identical to inline training once the engine is
//! drained.
//!
//! Run with `cargo run --release -p lulesh --example lulesh_insitu_engine`.

use insitu::collect::Retention;
use insitu::engine::{Engine, EngineConfig};
use insitu::extract::FeatureKind;
use insitu::region::{AnalysisSpec, ExitAction};
use insitu::IterParam;
use lulesh::{LuleshConfig, LuleshSim};
use parsim::{ParallelConfig, ThreadPool};

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    let size = 30;
    let mut sim = LuleshSim::new(LuleshConfig::with_edge_elems(size));

    // Training may run on a worker thread; the engine decides per batch.
    let pool = ThreadPool::new(ParallelConfig::new(1, 2)?);
    let mut config = EngineConfig::background(pool);
    // Arm the stage clocks so the run ends with a per-stage latency
    // breakdown of what the analysis cost the solver thread.
    config.telemetry.enabled = Some(true);
    let mut engine: Engine<LuleshSim> = Engine::with_config(config);
    let region = engine.add_region("sedov_blast")?;
    let analysis = engine.add_analysis(
        region,
        AnalysisSpec::builder()
            .name("velocity")
            .provider(|s: &LuleshSim, loc: usize| s.velocity_at(loc))
            // The radial profile along the x edge.
            .spatial(IterParam::new(1, (size - 1) as u64, 1)?)
            .temporal(IterParam::new(1, 1500, 1)?)
            .feature(FeatureKind::Breakpoint { threshold: 0.05 })
            .lag(5)
            // The break-point comes from the incrementally-maintained peak
            // profile, which survives eviction — so the analysis can run in bounded memory no
            // matter how long the solve goes. Only the last 64 samples per
            // location stay resident for the AR model's lagged reads.
            .retention(Retention::Window(64))
            .exit(ExitAction::TerminateSimulation)
            .build()?,
    )?;

    let summary =
        sim.run_with(|s, iteration| !engine.step(iteration).complete(s).should_terminate());
    engine.drain();
    engine.extract_now(region)?;

    let status = engine.status(region).expect("region is live");
    println!(
        "ran {} iterations (terminated early: {}), {} samples, {} batches trained",
        summary.iterations,
        summary.terminated_early,
        status.samples_collected,
        status.batches_trained
    );
    match status.feature("velocity") {
        Some(feature) => println!("extracted break-point radius = {:.0}", feature.scalar()),
        None => println!("no break-point extracted within the budget"),
    }

    // What the analysis cost the solver thread, stage by stage.
    let recorder = engine.telemetry(analysis).expect("telemetry is armed");
    println!("\nsolver-thread cost per stage (velocity analysis):");
    print_stage_table(recorder);
    Ok(())
}

/// Renders a per-stage latency table from an analysis' armed recorder.
fn print_stage_table(recorder: &insitu::telemetry::Recorder) {
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "events", "mean us", "p50 us", "p99 us", "max us"
    );
    for &stage in insitu::telemetry::Stage::ALL.iter() {
        let histogram = recorder.histogram(stage);
        if histogram.count() == 0 {
            continue;
        }
        println!(
            "{:<10} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            stage.name(),
            histogram.count(),
            histogram.mean_ns() / 1e3,
            histogram.quantile_ns(0.5) as f64 / 1e3,
            histogram.quantile_ns(0.99) as f64 / 1e3,
            histogram.max_ns() as f64 / 1e3,
        );
    }
}
