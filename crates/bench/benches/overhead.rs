//! Criterion bench: per-iteration cost of the full in-situ hook
//! (`Engine::step` + `StepScope::complete`) against the bare simulation step
//! it wraps — the microscopic version of the paper's overhead tables.

use criterion::{criterion_group, criterion_main, Criterion};
use insitu::prelude::*;
use lulesh::{LuleshConfig, LuleshSim};

fn engine_for(sim_size: usize) -> Engine<LuleshSim> {
    let spec = AnalysisSpec::builder()
        .name("velocity")
        .provider(|sim: &LuleshSim, loc: usize| sim.velocity_at(loc))
        .spatial(IterParam::new(1, 10, 1).unwrap())
        .temporal(IterParam::new(0, 1_000_000, 1).unwrap())
        .feature(FeatureKind::Breakpoint { threshold: 0.05 })
        .lag(5)
        .build()
        .unwrap();
    let mut engine = Engine::new();
    let region = engine.add_region(format!("lulesh-{sim_size}")).unwrap();
    engine.add_analysis(region, spec).unwrap();
    engine
}

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("insitu_overhead");
    group.sample_size(10);
    let size = 30;

    group.bench_function("bare_step", |b| {
        let mut sim = LuleshSim::new(LuleshConfig::with_edge_elems(size));
        for _ in 0..5 {
            sim.step();
        }
        b.iter(|| sim.step());
    });

    group.bench_function("instrumented_step", |b| {
        let mut sim = LuleshSim::new(LuleshConfig::with_edge_elems(size));
        let mut engine = engine_for(size);
        for _ in 0..5 {
            sim.step();
        }
        b.iter(|| {
            let iteration = sim.iteration();
            let step = engine.step(iteration);
            sim.step();
            step.complete(&sim)
        });
    });

    group.bench_function("hook_only", |b| {
        let mut sim = LuleshSim::new(LuleshConfig::with_edge_elems(size));
        let mut engine = engine_for(size);
        for _ in 0..50 {
            sim.step();
        }
        let mut iteration = 0u64;
        b.iter(|| {
            let report = engine.step(iteration).complete(&sim);
            iteration += 1;
            report
        });
    });

    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
