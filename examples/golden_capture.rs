//! Regenerates the golden pipeline dump committed at
//! `tests/golden/columnar.txt` (and the constants embedded in
//! `tests/golden_columnar.rs`).
//!
//! Runs the LULESH and wdmerger proxies through the in-situ engine with the
//! exact scenarios of the golden regression test and dumps every per-batch
//! loss, the fitted model parameters, and the extracted features as
//! `f64::to_bits` hex literals — to stdout *and* to the committed file, so
//! CI's `golden-drift` job can regenerate the dump and `git diff
//! --exit-code` it against the checked-in copy. The reference values were
//! captured from the row-oriented (pre-columnar) pipeline; every later
//! data-path refactor (columnar batches, slot-indexed store, sharded
//! collection) must reproduce them bit for bit.
//!
//! If a future change intentionally alters the training arithmetic, rerun
//! this example, commit the regenerated file, paste the new constants into
//! the test, and say so in the PR.

use std::fmt::Write as _;

use insitu::collect::PredictorLayout;
use insitu_repro::prelude::*;

/// Path of the committed dump, relative to the workspace root (where
/// `cargo run --example golden_capture` executes).
const GOLDEN_PATH: &str = "tests/golden/columnar.txt";

fn dump<D: ?Sized>(out: &mut String, label: &str, engine: &Engine<D>, region: RegionId) {
    writeln!(out, "// --- {label} ---").unwrap();
    let status = engine.status(region).expect("region exists");
    writeln!(out, "samples_collected: {}", status.samples_collected).unwrap();
    writeln!(out, "batches_trained: {}", status.batches_trained).unwrap();
    for index in 0..engine.analysis_count(region).expect("region exists") {
        let analysis = engine.analysis_id(region, index).expect("analysis exists");
        let trainer = engine.trainer(analysis).expect("trainer resident");
        let losses: Vec<String> = trainer
            .loss_history()
            .iter()
            .map(|l| format!("0x{:016x}", l.to_bits()))
            .collect();
        writeln!(out, "analysis {index} losses: [{}]", losses.join(", ")).unwrap();
        let model = trainer.model();
        writeln!(
            out,
            "analysis {index} intercept: 0x{:016x}",
            model.intercept().to_bits()
        )
        .unwrap();
        let coeffs: Vec<String> = model
            .coefficients()
            .iter()
            .map(|c| format!("0x{:016x}", c.to_bits()))
            .collect();
        writeln!(
            out,
            "analysis {index} coefficients: [{}]",
            coeffs.join(", ")
        )
        .unwrap();
    }
    for (name, feature) in &status.features {
        writeln!(
            out,
            "feature {name}: scalar bits 0x{:016x}",
            feature.scalar().to_bits()
        )
        .unwrap();
    }
}

fn lulesh_scenario(out: &mut String) {
    let size = 14;
    let mut sim = LuleshSim::new(LuleshConfig::with_edge_elems(size));
    let mut engine: Engine<LuleshSim> = Engine::new();
    let region = engine.add_region("golden-lulesh").unwrap();
    let spec = AnalysisSpec::builder()
        .name("velocity")
        .provider(|s: &LuleshSim, loc: usize| s.velocity_at(loc))
        .spatial(IterParam::new(1, 8, 1).unwrap())
        .temporal(IterParam::new(1, 200, 1).unwrap())
        .feature(FeatureKind::Breakpoint { threshold: 0.05 })
        .lag(5)
        .batch_capacity(16)
        .build()
        .unwrap();
    engine.add_analysis(region, spec).unwrap();
    sim.run_with(|s, it| {
        engine.step(it).complete(s);
        it < 250
    });
    engine.extract_now(region).unwrap();
    dump(out, "lulesh", &engine, region);
}

fn wdmerger_scenario(out: &mut String) {
    let config = WdMergerConfig::with_resolution(12);
    let mut sim = WdMergerSim::new(config);
    let mut engine: Engine<WdMergerSim> = Engine::new();
    let region = engine.add_region("golden-wd").unwrap();
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
    sim.run_with(|s, step| {
        engine.step(step).complete(s);
        true
    });
    engine.extract_now(region).unwrap();
    dump(out, "wdmerger", &engine, region);
}

fn main() {
    let mut out = String::new();
    lulesh_scenario(&mut out);
    wdmerger_scenario(&mut out);
    print!("{out}");
    std::fs::write(GOLDEN_PATH, &out).expect("write the committed golden dump");
    eprintln!("wrote {GOLDEN_PATH}");
}
