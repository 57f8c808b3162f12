//! Quickstart: attach the real-time auto-regression analysis to a toy
//! iterative simulation in ~30 lines, following the shape of the paper's
//! Fig. 2 integration. Each engine call is annotated with the `td_*` call of
//! the paper's C API that it stands for.
//!
//! Run with `cargo run --release --example quickstart`.

use insitu_repro::prelude::*;

/// A toy "simulation": an outward-travelling, decaying pulse sampled at 32
/// locations. Any iterative code with a per-iteration state works the same
/// way.
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
    // 1. Initialize the region and the sampling characteristics.
    let mut engine: Engine<ToyDomain> = Engine::new();
    let region = engine.add_region("quickstart")?; // td_region_init
    let locations = IterParam::new(1, 12, 1)?; // td_iter_param_init
    let iterations = IterParam::new(0, 400, 1)?; // td_iter_param_init

    // 2. Describe the analysis: which variable (the td_var_provider), where,
    //    how to model it and which feature to extract.
    let spec = AnalysisSpec::builder()
        .name("velocity")
        .provider(|d: &ToyDomain, loc: usize| d.velocity.get(loc).copied().unwrap_or(0.0))
        .spatial(locations)
        .temporal(iterations)
        .method(AnalysisMethod::CurveFitting)
        .feature(FeatureKind::Breakpoint { threshold: 0.05 })
        .lag(5)
        .exit(ExitAction::TerminateSimulation)
        .build()?;
    let analysis = engine.add_analysis(region, spec)?; // td_region_add_analysis

    // 3. Wrap the main computation in one engine step.
    let mut domain = ToyDomain {
        velocity: vec![0.0; 32],
    };
    let mut executed = 0;
    for iteration in 0..400u64 {
        let step = engine.step(iteration); // td_region_begin
        domain.advance(iteration); // the "main computation"
        let report = step.complete(&domain); // td_region_end
        executed = iteration + 1;
        if report.should_terminate() {
            println!("early termination requested at iteration {iteration}");
            break;
        }
    }

    // 4. Inspect what the analysis learned.
    engine.extract_now(region)?;
    let status = engine.status(region).expect("region exists");
    println!("iterations executed : {executed}");
    println!("samples collected   : {}", status.samples_collected);
    println!("mini-batches trained: {}", status.batches_trained);
    if let Some((name, feature)) = status.features.first() {
        println!("extracted feature   : {name} = {:.2}", feature.scalar());
    }
    let trainer = engine.trainer(analysis).expect("inline trainer");
    if !trainer.model().is_trained() {
        return Err("the model was never trained".into());
    }
    Ok(())
}
