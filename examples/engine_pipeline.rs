//! The engine-centric API end-to-end: one engine, two regions with their
//! own analyses, batch sampling through `SliceProvider`, and background
//! training (`TrainingMode::Background`: a batch leaves the simulation thread
//! only when it costs more to train than to hand off) with non-blocking
//! progress polling — the pipeline the paper's `td_*` API grows into.
//!
//! Run with `cargo run --release --example engine_pipeline`.

use insitu_repro::prelude::*;

/// A toy "simulation": an outward-travelling, decaying pulse. The velocity
/// field is a plain `Vec<f64>`, so the batch [`SliceProvider`] can gather
/// samples without one dynamic dispatch per location.
struct ToyDomain {
    velocity: Vec<f64>,
}

impl ToyDomain {
    fn advance(&mut self, iteration: u64) {
        let front = iteration as f64 * 0.2;
        for (loc, v) in self.velocity.iter_mut().enumerate() {
            let x = loc as f64;
            *v = 8.0 / (1.0 + x) * (-((x - front) * (x - front)) / 6.0).exp();
        }
    }
}

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    // One engine owns every region and analysis; training runs on a parsim
    // worker so the "simulation thread" only pays for sampling + assembly.
    let pool = ThreadPool::new(ParallelConfig::new(1, 2)?);
    let mut engine: Engine<ToyDomain> = Engine::with_config(EngineConfig::background(pool));

    // Region 1: dense sampling near the origin, break-point extraction.
    let near = engine.add_region("near_field")?;
    engine.add_analysis(
        near,
        AnalysisSpec::builder()
            .name("velocity")
            .provider(|d: &ToyDomain, loc: usize| d.velocity.get(loc).copied().unwrap_or(0.0))
            .spatial(IterParam::new(1, 12, 1)?)
            .temporal(IterParam::new(0, 400, 1)?)
            .feature(FeatureKind::Breakpoint { threshold: 0.05 })
            .lag(5)
            .build()?,
    )?;

    // Region 2: sparse far-field watch with an outlier query.
    let far = engine.add_region("far_field")?;
    engine.add_analysis(
        far,
        AnalysisSpec::builder()
            .name("tail")
            .provider(|d: &ToyDomain, loc: usize| d.velocity.get(loc).copied().unwrap_or(0.0))
            .spatial(IterParam::new(16, 28, 2)?)
            .temporal(IterParam::new(0, 400, 5)?)
            .feature(FeatureKind::Outliers { threshold: 2.0 })
            .build()?,
    )?;

    let mut domain = ToyDomain {
        velocity: vec![0.0; 32],
    };
    for iteration in 0..400u64 {
        // RAII scope replaces td_region_begin/td_region_end.
        let step = engine.step(iteration);
        domain.advance(iteration); // the "main computation"
        let report = step.complete(&domain);
        if iteration % 100 == 0 {
            let progress = engine.poll(); // non-blocking
            println!(
                "iter {iteration:>3}: near samples {:>5}, training jobs in flight {}",
                report.region(near).map_or(0, |s| s.samples_collected),
                progress.in_flight,
            );
        }
        if report.should_terminate() {
            break;
        }
    }

    // Block until the background trainer has finished its batch in flight —
    // from here on results are bit-identical to an inline run.
    engine.drain();
    engine.extract_now(near)?;
    engine.extract_now(far)?;

    for (name, region) in [("near_field", near), ("far_field", far)] {
        let status = engine.status(region).expect("region is live");
        print!(
            "{name}: {} samples, {} batches trained",
            status.samples_collected, status.batches_trained
        );
        match status.features.first() {
            Some((feature, value)) => println!(", {feature} = {:.2}", value.scalar()),
            None => println!(", no feature extracted"),
        }
    }
    Ok(())
}
