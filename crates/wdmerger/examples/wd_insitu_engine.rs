//! In-situ engine integration for the wdmerger proxy: all four global
//! diagnostics analysed in one region, delay-time extraction per variable —
//! the engine-native version of the paper's second case study.
//!
//! Each diagnostic samples a single channel and trains a small batch, so
//! the engine runs [inline](EngineConfig::inline): every batch trains on
//! the simulation thread the step it fills.
//!
//! Run with `cargo run --release -p wdmerger --example wd_insitu_engine`.

use insitu::collect::{PredictorLayout, Retention};
use insitu::engine::{Engine, EngineConfig};
use insitu::extract::FeatureKind;
use insitu::region::AnalysisSpec;
use insitu::IterParam;
use wdmerger::{DiagnosticVariable, WdMergerConfig, WdMergerSim};

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    let config = WdMergerConfig::with_resolution(16);
    let mut sim = WdMergerSim::new(config);

    let mut engine_config = EngineConfig::inline();
    // Arm the stage clocks so the run ends with a per-diagnostic latency
    // breakdown of what each analysis cost the simulation loop.
    engine_config.telemetry.enabled = Some(true);
    let mut engine: Engine<WdMergerSim> = Engine::with_config(engine_config);
    let region = engine.add_region("wd_merger")?;
    let mut analyses = Vec::new();
    for variable in DiagnosticVariable::all() {
        analyses.push(
            engine.add_analysis(
                region,
                AnalysisSpec::builder()
                    .name(variable.name())
                    .provider(move |s: &WdMergerSim, loc: usize| s.diagnostic_at(loc))
                    .spatial(IterParam::single(variable.location() as u64))
                    .temporal(IterParam::new(1, config.steps, 1)?)
                    .layout(PredictorLayout::Temporal)
                    .feature(FeatureKind::DelayTime)
                    .lag(1)
                    .batch_capacity(8)
                    // Delay-time extraction ranks inflections over the whole
                    // diagnostic series, so this case study keeps every sample
                    // (the default, spelled out for contrast with the windowed
                    // LULESH example).
                    .retention(Retention::Full)
                    .build()?,
            )?,
        );
    }

    sim.run_with(|s, step| {
        engine.step(step).complete(s);
        true
    });
    engine.extract_now(region)?;

    let truth = sim.diagnostics().ground_truth_delay_time();
    println!(
        "ground-truth delay time: {}",
        truth.map_or("n/a".to_string(), |t| format!("{t:.1}"))
    );
    let status = engine.status(region).expect("region is live");
    for variable in DiagnosticVariable::all() {
        match status.feature(variable.name()) {
            Some(feature) => {
                println!(
                    "{:>18}: delay time {:.1}",
                    variable.name(),
                    feature.scalar()
                );
            }
            None => println!("{:>18}: no delay time extracted", variable.name()),
        }
    }

    // What each diagnostic's analysis cost the simulation loop, stage by
    // stage (single-channel analyses, so per-stage counts match the step
    // counts exactly).
    for (variable, &analysis) in DiagnosticVariable::all().iter().zip(&analyses) {
        let recorder = engine.telemetry(analysis).expect("telemetry is armed");
        println!("\nper-stage cost, {} analysis:", variable.name());
        print_stage_table(recorder);
    }
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
