//! Golden bit-identity regression for the columnar mini-batch pipeline.
//!
//! The constants below were captured by running
//! `cargo run --release --example golden_capture` after the
//! `insitu::kernels` refactor moved every training reduction onto the
//! canonical four-accumulator lane tree (they previously tracked the
//! row-oriented, sequential-reduction pipeline). The pipeline must
//! reproduce every per-batch loss, the fitted model parameters, and the
//! extracted features **bit for bit** on both proxy case studies — under
//! *every* kernel dispatch (scalar, AVX2, `INSITU_KERNELS=scalar`),
//! proving the SIMD kernels changed the instruction mix and nothing else.
//!
//! If a future change intentionally alters the training arithmetic,
//! regenerate the constants with the same example and say so in the PR.

use insitu::collect::PredictorLayout;
use insitu_repro::prelude::*;

// --- LULESH (spatio-temporal layout, breakpoint feature) -------------------

const LULESH_SAMPLES: usize = 1600;
const LULESH_BATCHES: usize = 48;
const LULESH_LOSS_BITS: [u64; 48] = [
    0x3fe822bd091fb234,
    0x3fedf1a6329c1226,
    0x3fe9e2bc7241ce13,
    0x3fe705c912765a4f,
    0x3fe52a38d7db4377,
    0x3fe3ba4a10c15ddd,
    0x3fe284d222e3adb1,
    0x3fe18014048f5b2e,
    0x3fe0b18714f1bcb0,
    0x3fe02e160435eb5a,
    0x3fdfa6245dd8987e,
    0x3fded34c3bfe62d3,
    0x3fddafb5e158eab3,
    0x3fdc4a8e4fecea78,
    0x3fda70b16fc991a3,
    0x3fd9285f4637a1ab,
    0x3fd95817f91bf017,
    0x3fda1fa27633f37a,
    0x3fdaebdb64a7505d,
    0x3fda69b6477f62ed,
    0x3fd8de10bbb15a55,
    0x3fd5d6be2e39921b,
    0x3fd20836c2667ec5,
    0x3fce097b8821eb86,
    0x3fc9f119027416fd,
    0x3fc797a44b74913a,
    0x3fc4f66ed9036182,
    0x3fc186069536a37e,
    0x3fbd6d4c25de83b6,
    0x3fb9a16d56c41bf6,
    0x3fb69c9344a3444b,
    0x3fb2ac481bb71a6d,
    0x3faab131b8f4e43d,
    0x3fa1baad2e52ab3a,
    0x3f9a8949b7fa4736,
    0x3f972c5daf431972,
    0x3f927a8657de4b06,
    0x3f8509a8f8b5803b,
    0x3f702b194ede6432,
    0x3f6b59779987288a,
    0x3f7c71b3bd1d4ed2,
    0x3f81fdb51dd4bbaf,
    0x3f7b621d2621af5a,
    0x3f70322afefb660c,
    0x3f70414f5fa2a6a3,
    0x3f7a602c50a1b892,
    0x3f80593049007a17,
    0x3f7b6c1a29de7b9e,
];
const LULESH_INTERCEPT_BITS: u64 = 0x3fed2ba3f504bd2e;
const LULESH_COEFF_BITS: [u64; 3] = [0x3ff89e00f1cf1eda, 0x3fcee47eb6c579f1, 0x3fc53098ab20d9ce];
/// Breakpoint radius 8.0.
const LULESH_FEATURE_BITS: u64 = 0x4020000000000000;

// --- wdmerger (temporal layout, delay-time features, four analyses) --------

const WD_SAMPLES: usize = 440;
const WD_BATCHES: usize = 52;
const WD_LOSS_BITS: [[u64; 13]; 4] = [
    [
        0x0000000000000000,
        0x0000000000000000,
        0x3fe8d25ab5c1e189,
        0x3fc2701b33b95092,
        0x3f809e35e695e3e8,
        0x3f701ef828f178ae,
        0x3f5db5b0c782c1aa,
        0x3f45eb411a2a1f66,
        0x3f29c02ced01a4d0,
        0x3f02edf8a6220b8d,
        0x3ed46f4458e9a74e,
        0x3ef714ff70de7c1c,
        0x3f0c4f28b0a59f52,
    ],
    [
        0x3fc0bfc06350b0dc,
        0x3f9440095db5f226,
        0x3f72c538f405cc67,
        0x3f754c78efbeaacc,
        0x3f2dbc162e5ba454,
        0x3f5267b996a5ffcc,
        0x3f541482ab7fc3ae,
        0x3f5017b8bae4700c,
        0x3f46f8f5f81847ae,
        0x3f3f2443ae1e8108,
        0x3f34a802543aa9ae,
        0x3f2b4793dd9af489,
        0x3f22215b26269c2c,
    ],
    [
        0x0000000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x3fe0404459bc54fa,
        0x3f777cd87b3e92ac,
        0x3f60f08494e80802,
        0x3f5ad51e1d165900,
        0x3f4ef8711e6f9498,
        0x3f40c9ef9f53e79d,
        0x3f323214de968dda,
        0x3f2441eff200b1ce,
        0x3f1791d1c47749e7,
        0x3f0d0569876da440,
    ],
    [
        0x0000000000000000,
        0x0000000000000000,
        0x3fe8d252c4cec27a,
        0x3fd25594c12ba9b4,
        0x3f992a5c906d2d89,
        0x3f82ff6fb66c4f5e,
        0x3f724056e52ea8de,
        0x3f6029e64094a534,
        0x3f4c19c07b5704de,
        0x3f383cd0d92e3e4b,
        0x3f24bb3307b28e4a,
        0x3f117c9b40496186,
        0x3efccc52733a6971,
    ],
];
const WD_INTERCEPT_BITS: [u64; 4] = [
    0x3f2d8e9d8195fe44,
    0x3fa77a635b111a10,
    0xbf8931ee008fc83c,
    0x3f8f4396e5b57acd,
];
const WD_COEFF_BITS: [[u64; 3]; 4] = [
    [0x3fec0a488abba474, 0x3f8842dfe78803c9, 0x3f8d24d788047c2d],
    [0x3fef6751ea9f47e3, 0x3f638b783819ebf4, 0x3f97599a3687525a],
    [0x3feeb1e82f37a808, 0xbf964be7ca4f1096, 0x3f64463d1a5c6d72],
    [0x3febfb7966b8d516, 0x3f9335c643b5c5b7, 0x3fa061c219ffa0fa],
];
/// Delay times per variable: temperature 29, a.momentum 32, mass 30,
/// energy 30 (in simulation time units).
const WD_FEATURE_BITS: [(&str, u64); 4] = [
    ("temperature", 0x403d000000000000),
    ("a.momentum", 0x4040000000000000),
    ("mass", 0x403e000000000000),
    ("energy", 0x403e000000000000),
];

/// Exact bit comparison against a golden constant.
fn assert_golden(actual: f64, expected_bits: u64, what: &str) {
    assert_eq!(
        actual.to_bits(),
        expected_bits,
        "{what} is not bit-identical (got {actual:e}, expected {:e})",
        f64::from_bits(expected_bits)
    );
}

fn assert_loss_bits(trainer: &insitu::model::IncrementalTrainer, expected: &[u64], label: &str) {
    let actual = trainer.loss_history();
    assert_eq!(
        actual.len(),
        expected.len(),
        "{label}: batch count drifted from the golden pipeline"
    );
    for (i, (loss, bits)) in actual.iter().zip(expected).enumerate() {
        assert_golden(*loss, *bits, &format!("{label}: loss of batch {i}"));
    }
}

fn assert_model_bits(
    trainer: &insitu::model::IncrementalTrainer,
    intercept: u64,
    coefficients: &[u64],
    label: &str,
) {
    let model = trainer.model();
    assert_golden(model.intercept(), intercept, &format!("{label}: intercept"));
    assert_eq!(model.coefficients().len(), coefficients.len());
    for (i, (c, bits)) in model.coefficients().iter().zip(coefficients).enumerate() {
        assert_golden(*c, *bits, &format!("{label}: coefficient {i}"));
    }
}

#[test]
fn lulesh_pipeline_is_bit_identical_to_the_row_oriented_path() {
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
    let analysis = engine.add_analysis(region, spec).unwrap();
    sim.run_with(|s, it| {
        engine.step(it).complete(s);
        it < 250
    });
    engine.extract_now(region).unwrap();

    let status = engine.status(region).unwrap();
    assert_eq!(status.samples_collected, LULESH_SAMPLES);
    assert_eq!(status.batches_trained, LULESH_BATCHES);
    let trainer = engine.trainer(analysis).unwrap();
    assert_loss_bits(trainer, &LULESH_LOSS_BITS, "lulesh velocity");
    assert_model_bits(
        trainer,
        LULESH_INTERCEPT_BITS,
        &LULESH_COEFF_BITS,
        "lulesh velocity",
    );
    let feature = status.feature("velocity").expect("breakpoint extracted");
    assert_eq!(
        feature.scalar().to_bits(),
        LULESH_FEATURE_BITS,
        "breakpoint radius drifted"
    );
}

#[test]
fn wdmerger_pipeline_is_bit_identical_to_the_row_oriented_path() {
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

    let status = engine.status(region).unwrap();
    assert_eq!(status.samples_collected, WD_SAMPLES);
    assert_eq!(status.batches_trained, WD_BATCHES);
    for (index, ((losses, intercept), coefficients)) in WD_LOSS_BITS
        .iter()
        .zip(&WD_INTERCEPT_BITS)
        .zip(&WD_COEFF_BITS)
        .enumerate()
    {
        let label = format!("wdmerger analysis {index}");
        let analysis = engine.analysis_id(region, index).unwrap();
        let trainer = engine.trainer(analysis).unwrap();
        assert_loss_bits(trainer, losses, &label);
        assert_model_bits(trainer, *intercept, coefficients, &label);
    }
    for (name, bits) in WD_FEATURE_BITS {
        let feature = status
            .feature(name)
            .unwrap_or_else(|| panic!("{name}: delay time extracted"));
        assert_eq!(feature.scalar().to_bits(), bits, "{name}: delay drifted");
    }
}
