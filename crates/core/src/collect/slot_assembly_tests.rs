//! Slot-addressed assembly against a location-keyed reference.
//!
//! The reference below is the assembler's original row logic: every value
//! is looked up by `(location, iteration)` through
//! [`SampleHistory::value_at`], stepping between sampled locations and
//! iterations with [`IterParam`] arithmetic. The collector's
//! slot-addressed rows, its forecasting predictors and the public
//! location-keyed wrappers must all match it bit for bit.

use super::{BatchAssembler, Collector, MiniBatch, PredictorLayout, Retention, SampleHistory};
use crate::params::IterParam;
use crate::snapshot::{Dec, Enc};

const ORDER: usize = 3;
const LAG: u64 = 4;
const LAYOUTS: [PredictorLayout; 3] = [
    PredictorLayout::SpatioTemporal,
    PredictorLayout::Temporal,
    PredictorLayout::Spatial,
];

fn spatial() -> IterParam {
    IterParam::new(2, 16, 2).unwrap()
}

fn temporal() -> IterParam {
    IterParam::new(0, 1_000, 2).unwrap()
}

/// A deterministic value per `(iteration, location)`, with repeats.
fn value(iteration: u64, location: usize) -> f64 {
    let mixed = iteration
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(location as u64 * 0xC2B2_AE3D);
    ((mixed >> 40) % 97) as f64 * 0.25 - 12.0
}

/// The location-keyed predictor logic the slot-addressed routine replaced.
fn reference_predictors(
    layout: PredictorLayout,
    history: &SampleHistory,
    location: usize,
    iteration: u64,
    out: &mut [f64],
) -> Option<()> {
    let (spatial, temporal) = (spatial(), temporal());
    match layout {
        PredictorLayout::SpatioTemporal => {
            let lagged = iteration.checked_sub(LAG)?;
            if lagged < temporal.begin() {
                return None;
            }
            let lagged = temporal.begin()
                + ((lagged - temporal.begin()) / temporal.step()) * temporal.step();
            let loc_index = spatial.index_of(location as u64)?;
            for (i, slot) in out.iter_mut().enumerate() {
                let prev_loc = spatial.nth(loc_index.checked_sub(i + 1)?)? as usize;
                *slot = history.value_at(prev_loc, lagged)?;
            }
        }
        PredictorLayout::Temporal => {
            let it_index = temporal.index_of(iteration)?;
            let lag_steps = (LAG / temporal.step()).max(1) as usize;
            for (i, slot) in out.iter_mut().enumerate() {
                let prev_it = temporal.nth(it_index.checked_sub((i + 1) * lag_steps)?)?;
                *slot = history.value_at(location, prev_it)?;
            }
        }
        PredictorLayout::Spatial => {
            let loc_index = spatial.index_of(location as u64)?;
            for (i, slot) in out.iter_mut().enumerate() {
                let prev_loc = spatial.nth(loc_index.checked_sub(i + 1)?)? as usize;
                *slot = history.value_at(prev_loc, iteration)?;
            }
        }
    }
    Some(())
}

/// Every row the reference forms for `iteration`, as exact bits.
fn reference_rows(
    layout: PredictorLayout,
    history: &SampleHistory,
    iteration: u64,
) -> (Vec<u64>, Vec<u64>) {
    let (mut inputs, mut targets) = (Vec::new(), Vec::new());
    for loc in spatial().iter() {
        let Some(target) = history.value_at(loc as usize, iteration) else {
            continue;
        };
        let mut row = [0.0; ORDER];
        if reference_predictors(layout, history, loc as usize, iteration, &mut row).is_some() {
            inputs.extend(row.iter().map(|v| v.to_bits()));
            targets.push(target.to_bits());
        }
    }
    (inputs, targets)
}

fn bits(batch: &MiniBatch) -> (Vec<u64>, Vec<u64>) {
    (
        batch.inputs().iter().map(|v| v.to_bits()).collect(),
        batch.targets().iter().map(|v| v.to_bits()).collect(),
    )
}

/// A capacity-1 collector: every `assemble` that forms a row returns all of
/// that iteration's rows in one (over-filled) batch.
fn collector(layout: PredictorLayout, retention: Retention) -> Collector {
    Collector::with_retention(spatial(), temporal(), ORDER, LAG, layout, 1, retention)
}

fn assembler(layout: PredictorLayout) -> BatchAssembler {
    BatchAssembler::new(ORDER, LAG, layout, spatial(), temporal())
}

/// Samples and assembles one iteration, then checks the rows, the
/// collector's forecasting predictors and both public wrappers against the
/// reference.
fn step_and_check(c: &mut Collector, layout: PredictorLayout, iteration: u64, what: &str) {
    let provider = |it: &u64, loc: usize| value(*it, loc);
    c.sample(iteration, &iteration, &provider);
    let history = c.history().clone();
    let expected = reference_rows(layout, &history, iteration);
    let got = c.assemble(iteration);
    let got_bits = got.as_ref().map_or((Vec::new(), Vec::new()), bits);
    assert_eq!(got_bits, expected, "{what}: {layout:?} rows at {iteration}");
    if let Some(batch) = got {
        c.recycle(batch);
    }

    let mut wrapped = MiniBatch::new(ORDER, 1);
    assembler(layout).append_rows_for_iteration(&history, iteration, &mut wrapped);
    assert_eq!(
        bits(&wrapped),
        expected,
        "{what}: wrapper rows at {iteration}"
    );

    // Forecasting reads, at the newest iteration and a few older ones, for
    // every sampled location plus one outside the spatial range.
    let (mut want, mut slot_path, mut wrapper) = ([0.0; ORDER], [0.0; ORDER], [0.0; ORDER]);
    for it in [
        iteration,
        iteration.saturating_sub(2),
        iteration.saturating_sub(7),
    ] {
        for loc in spatial().iter().map(|l| l as usize).chain([1, 17]) {
            let reference = reference_predictors(layout, &history, loc, it, &mut want);
            let via_slots = c.write_predictors_for(loc, it, &mut slot_path);
            let via_wrapper =
                assembler(layout).write_predictors_for(&history, loc, it, &mut wrapper);
            assert_eq!(
                via_slots, reference,
                "{what}: slot predictors ({loc}, {it})"
            );
            assert_eq!(via_wrapper, reference, "{what}: predictors ({loc}, {it})");
            if reference.is_some() {
                let want = want.map(f64::to_bits);
                assert_eq!(slot_path.map(f64::to_bits), want, "{what}: ({loc}, {it})");
                assert_eq!(wrapper.map(f64::to_bits), want, "{what}: ({loc}, {it})");
            }
        }
    }
}

fn run(schedule: &[u64], what: &str) {
    for layout in LAYOUTS {
        for retention in [Retention::Full, Retention::Window(4)] {
            let mut c = collector(layout, retention);
            for &it in schedule {
                step_and_check(&mut c, layout, it, what);
            }
        }
    }
}

/// `ShedPolicy::CoarsenSampling`'s rule: while overloaded, collect only on
/// iterations that are multiples of the stride (at least 2).
fn coarsened(iterations: impl Iterator<Item = u64>, stride: u32) -> Vec<u64> {
    let overloaded = |it: u64| (it / 40) % 2 == 1;
    iterations
        .filter(|&it| !overloaded(it) || it.is_multiple_of(u64::from(stride.max(2))))
        .collect()
}

#[test]
fn regular_cadence_matches_the_location_keyed_reference() {
    let schedule: Vec<u64> = temporal().iter().take(60).collect();
    run(&schedule, "regular");
}

#[test]
fn coarsened_cadence_matches_the_location_keyed_reference() {
    // Alternating calm and overloaded stretches: the series turns
    // irregular at the first gap, and regular stretches follow irregular
    // ones.
    for stride in [3, 4] {
        let schedule = coarsened(temporal().iter().take(120), stride);
        run(&schedule, "coarsened");
    }
}

#[test]
fn coarsening_engine_cadence_matches_the_location_keyed_reference() {
    use crate::engine::{Engine, EngineConfig};
    use crate::extract::FeatureKind;
    use crate::region::AnalysisSpec;
    use crate::telemetry::{ShedPolicy, StepBudget};
    use std::time::Duration;

    // A 1 ns budget keeps the engine overloaded from its second step on, so
    // it collects only on multiples of the stride: the cadence a shedding
    // engine records, replayed here through a bare collector.
    let mut config = EngineConfig::inline();
    config.budget = Some(StepBudget {
        limit: Duration::from_nanos(1),
        policy: ShedPolicy::CoarsenSampling { stride: 3 },
    });
    let mut engine: Engine<u64> = Engine::with_config(config);
    let region = engine.add_region("coarse").unwrap();
    let spec = AnalysisSpec::builder()
        .name("v")
        .provider(|it: &u64, loc: usize| value(*it, loc))
        .spatial(spatial())
        .temporal(temporal())
        .feature(FeatureKind::Breakpoint { threshold: 0.05 })
        .lag(LAG)
        .build()
        .unwrap();
    let id = engine.add_analysis(region, spec).unwrap();
    for it in 0..120u64 {
        engine.step(it).complete(&it);
    }
    assert!(engine.shed_steps() > 0, "the engine must have shed");
    let schedule = engine
        .history(id)
        .unwrap()
        .iterations_of(2)
        .unwrap()
        .to_vec();
    assert!(schedule.len() < temporal().iter().take_while(|&it| it < 120).count());
    run(&schedule, "engine-coarsened");
}

#[test]
fn out_of_order_record_matches_the_location_keyed_reference() {
    // Re-sampling an older iteration breaks the per-location ordering: the
    // series turns irregular and every read falls back to `value_at`.
    let mut schedule: Vec<u64> = (0..=40).step_by(2).collect();
    schedule.extend([34, 42, 44, 30, 46]);
    schedule.extend((48..=80).step_by(2));
    run(&schedule, "out-of-order");
}

#[test]
fn restored_collector_continues_like_the_reference() {
    let before: Vec<u64> = temporal().iter().take(25).collect();
    let after: Vec<u64> = temporal().iter().skip(25).take(25).collect();
    for layout in LAYOUTS {
        for retention in [Retention::Full, Retention::Window(4)] {
            let mut original = collector(layout, retention);
            for &it in &before {
                step_and_check(&mut original, layout, it, "before restore");
            }
            let mut enc = Enc::default();
            original.snapshot_encode(&mut enc);
            let mut restored = collector(layout, retention);
            let state = restored
                .snapshot_decode(&mut Dec::new(&enc.buf))
                .expect("a collector's own snapshot decodes");
            restored.snapshot_apply(state);
            for &it in &after {
                step_and_check(&mut original, layout, it, "original");
                step_and_check(&mut restored, layout, it, "restored");
            }
            assert_eq!(original.history(), restored.history());
        }
    }
}
