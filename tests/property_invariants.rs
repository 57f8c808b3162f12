//! Randomized property tests on the core data structures and invariants of
//! the analysis library and its substrates.
//!
//! The seed code expressed these with `proptest`; the workspace builds with
//! no network access, so the same properties are exercised here with a small
//! deterministic xorshift PRNG (fixed seeds, 64 cases per property — every
//! run checks the identical case set).

use insitu::collect::{
    BatchAssembler, BatchPool, MiniBatch, PredictorLayout, Retention, Sample, SampleHistory,
};
use insitu::model::{metrics, IncrementalTrainer, OnlineScaler, TrainerConfig};
use insitu::tracking::{find_local_extrema, moving_average, PeakDetector};
use insitu::IterParam;
use simkit::decomposition::BlockDecomposition;
use simkit::index::Extents;
use simkit::stats;

const CASES: u64 = 64;

/// xorshift64* — deterministic, dependency-free case generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    /// Uniform integer in `[lo, hi)`.
    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }

    fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    fn vec_f64(&mut self, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
        let len = self.range_usize(min_len, max_len);
        (0..len).map(|_| self.range_f64(lo, hi)).collect()
    }
}

// ---- IterParam -------------------------------------------------------------

#[test]
fn iter_param_len_matches_enumeration() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x1001 + case);
        let begin = rng.range_u64(0, 500);
        let span = rng.range_u64(0, 500);
        let step = rng.range_u64(1, 50);
        let param = IterParam::new(begin, begin + span, step).unwrap();
        let enumerated: Vec<u64> = param.iter().collect();
        assert_eq!(enumerated.len(), param.len());
        for value in &enumerated {
            assert!(param.contains(*value));
        }
        // index_of and nth are inverse on every enumerated value.
        for (idx, value) in enumerated.iter().enumerate() {
            assert_eq!(param.index_of(*value), Some(idx));
            assert_eq!(param.nth(idx), Some(*value));
        }
    }
}

#[test]
fn iter_param_truncation_never_grows() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x2002 + case);
        let begin = rng.range_u64(0, 100);
        let span = rng.range_u64(0, 400);
        let step = rng.range_u64(1, 20);
        let frac = rng.range_f64(0.0, 1.5);
        let param = IterParam::new(begin, begin + span, step).unwrap();
        let truncated = param.truncate_fraction(frac);
        assert!(truncated.len() <= param.len());
        assert!(!truncated.is_empty());
        assert_eq!(truncated.begin(), param.begin());
    }
}

// ---- online scaler ---------------------------------------------------------

#[test]
fn scaler_round_trips_and_matches_batch_moments() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x3003 + case);
        let values = rng.vec_f64(-1e6, 1e6, 2, 200);
        let mut scaler = OnlineScaler::new();
        scaler.update_all(&values);
        // Round trip.
        for v in &values {
            let z = scaler.transform(*v);
            assert!((scaler.inverse(z) - v).abs() < 1e-6 * (1.0 + v.abs()));
        }
        // Matches batch statistics.
        assert!((scaler.mean() - stats::mean(&values)).abs() < 1e-6 * (1.0 + scaler.mean().abs()));
    }
}

// ---- sample history --------------------------------------------------------

#[test]
fn history_preserves_every_recorded_sample() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x4004 + case);
        let count = rng.range_usize(1, 200);
        let samples: Vec<(u64, usize, f64)> = (0..count)
            .map(|_| {
                (
                    rng.range_u64(0, 200),
                    rng.range_usize(0, 16),
                    rng.range_f64(-1e3, 1e3),
                )
            })
            .collect();
        let mut history = SampleHistory::new();
        let mut expected: std::collections::BTreeMap<(usize, u64), f64> = Default::default();
        // Record in iteration order per location, as a simulation would.
        let mut ordered = samples;
        ordered.sort_by_key(|(it, loc, _)| (*loc, *it));
        for (iteration, location, value) in ordered {
            history.record(Sample::new(iteration, location, value));
            expected.insert((location, iteration), value);
        }
        for ((location, iteration), value) in &expected {
            assert_eq!(history.value_at(*location, *iteration), Some(*value));
        }
        assert_eq!(history.len(), expected.len());
    }
}

/// Records the same random regular-cadence samples (with occasional
/// duplicate-iteration overwrites) into a [`Retention::Full`] and a
/// [`Retention::Window`] history and returns them plus the window size.
fn paired_histories(rng: &mut Rng) -> (SampleHistory, SampleHistory, usize) {
    let window = rng.range_usize(2, 24);
    let mut full = SampleHistory::new();
    let mut windowed = SampleHistory::with_retention(Retention::Window(window));
    let locations = rng.range_usize(1, 6);
    let steps = rng.range_u64(1, 60);
    let stride = rng.range_u64(1, 5);
    for it in 0..steps {
        let iteration = it * stride;
        for loc in 0..locations {
            let value = rng.range_f64(-100.0, 100.0);
            full.record(Sample::new(iteration, loc, value));
            windowed.record(Sample::new(iteration, loc, value));
            // Occasionally overwrite the just-recorded sample — both stores
            // must apply the same tie-overwrite semantics, including the
            // rescan when the overwrite lowers the running peak.
            if rng.range_usize(0, 5) == 0 {
                let replacement = rng.range_f64(-100.0, 100.0);
                full.record(Sample::new(iteration, loc, replacement));
                windowed.record(Sample::new(iteration, loc, replacement));
            }
        }
    }
    (full, windowed, window)
}

#[test]
fn windowed_history_agrees_with_full_wherever_the_window_covers() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x4104 + case);
        let (full, windowed, window) = paired_histories(&mut rng);
        assert_eq!(full.len(), windowed.len(), "len counts evicted samples");
        // The incremental reductions cover evicted samples, so they agree
        // unconditionally — whole profile, every location.
        assert_eq!(full.peak_profile(), windowed.peak_profile());
        for loc in full.iter_locations() {
            assert_eq!(full.latest_of(loc), windowed.latest_of(loc));
            assert_eq!(full.last_iteration_of(loc), windowed.last_iteration_of(loc));
            assert_eq!(full.recorded_of(loc), windowed.recorded_of(loc));
            // The windowed series is exactly the tail of the full one…
            let full_values = full.values_of(loc).unwrap();
            let kept = windowed.series_len(loc);
            assert!(kept <= window.max(1));
            assert_eq!(
                windowed.values_of(loc).unwrap(),
                &full_values[full_values.len() - kept..]
            );
            assert_eq!(
                windowed.iterations_of(loc).unwrap(),
                &full.iterations_of(loc).unwrap()[full_values.len() - kept..]
            );
            // …and every point lookup the window covers matches Full,
            // including the borrowed recent-tail view.
            for &iteration in windowed.iterations_of(loc).unwrap() {
                assert_eq!(
                    windowed.value_at(loc, iteration),
                    full.value_at(loc, iteration)
                );
            }
            for count in 1..=kept {
                assert_eq!(
                    windowed.recent_values_of(loc, count),
                    full.recent_values_of(loc, count)
                );
            }
        }
    }
}

#[test]
fn windowed_assembler_rows_match_full_when_the_window_covers_them() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x4204 + case);
        let order = rng.range_usize(1, 4);
        let step = rng.range_u64(1, 4);
        let lag_steps = rng.range_u64(1, 3);
        let lag = lag_steps * step;
        let locations = rng.range_u64(4, 10);
        let steps = rng.range_u64(10, 40);
        let spatial = IterParam::new(1, locations, 1).unwrap();
        let temporal = IterParam::new(0, steps * step, step).unwrap();
        let layout = match rng.range_usize(0, 3) {
            0 => PredictorLayout::SpatioTemporal,
            1 => PredictorLayout::Temporal,
            _ => PredictorLayout::Spatial,
        };
        let assembler = BatchAssembler::new(order, lag, layout, spatial, temporal);
        // The deepest lagged read is order·lag_steps sampled iterations back
        // (Temporal layout); a window that covers it plus the target must
        // reproduce every row the full store produces.
        let window = order * lag_steps as usize + 1 + rng.range_usize(0, 4);
        let mut full = SampleHistory::new();
        let mut windowed = SampleHistory::with_retention(Retention::Window(window));
        let mut out_full = vec![0.0; order];
        let mut out_windowed = vec![0.0; order];
        for it in temporal.iter() {
            for loc in spatial.iter() {
                let value = rng.range_f64(-10.0, 10.0);
                full.record(Sample::new(it, loc as usize, value));
                windowed.record(Sample::new(it, loc as usize, value));
            }
            // Assemble this iteration's rows from both stores.
            for loc in spatial.iter() {
                let a = assembler.write_predictors_for(&full, loc as usize, it, &mut out_full);
                let b =
                    assembler.write_predictors_for(&windowed, loc as usize, it, &mut out_windowed);
                assert_eq!(
                    a.is_some(),
                    b.is_some(),
                    "row availability diverged (layout {layout:?}, order \
                     {order}, lag {lag}, window {window}, loc {loc}, it {it})"
                );
                if a.is_some() {
                    assert_eq!(out_full, out_windowed, "predictor values diverged");
                }
            }
        }
    }
}

#[test]
fn window_eviction_exactly_at_the_ar_lagged_reach_boundary() {
    use insitu::collect::Collector;
    // The collector widens a requested window to `order·lag_steps + 1`
    // samples — the AR model's lagged reach plus the target. This pins the
    // boundary exactly: a window *at* the reach is kept as-is, evicts on
    // every append past it, and still assembles every row the full store
    // assembles; a window one below the reach is widened up to it.
    for case in 0..CASES {
        let mut rng = Rng::new(0x5207 + case);
        let order = rng.range_usize(1, 5);
        let step = rng.range_u64(1, 4);
        let lag = rng.range_u64(1, 3 * step + 1);
        let lag_steps = lag.div_ceil(step).max(1) as usize;
        let boundary = order * lag_steps + 1;
        let locations = rng.range_u64(4, 10);
        let steps = rng.range_u64((boundary + 4) as u64, (boundary + 40) as u64);
        let spatial = IterParam::new(1, locations, 1).unwrap();
        let temporal = IterParam::new(0, steps * step, step).unwrap();
        let layout = PredictorLayout::Temporal; // the deepest-reaching layout
        let mut full =
            Collector::with_retention(spatial, temporal, order, lag, layout, 4, Retention::Full);
        let mut at_boundary = Collector::with_retention(
            spatial,
            temporal,
            order,
            lag,
            layout,
            4,
            Retention::Window(boundary),
        );
        let mut below_boundary = Collector::with_retention(
            spatial,
            temporal,
            order,
            lag,
            layout,
            4,
            Retention::Window(boundary.saturating_sub(1).max(1)),
        );
        let mut wave: Vec<f64> = vec![0.0; locations as usize + 2];
        for it in temporal.iter() {
            for (loc, v) in wave.iter_mut().enumerate() {
                *v = (loc as f64 + 1.0) * (it as f64 * 0.01).sin();
            }
            let a = full.observe(it, &wave, &insitu::provider::SliceProvider);
            let b = at_boundary.observe(it, &wave, &insitu::provider::SliceProvider);
            let c = below_boundary.observe(it, &wave, &insitu::provider::SliceProvider);
            assert_eq!(
                a, b,
                "boundary window diverged from full (order {order}, lag \
                 {lag}, step {step}, boundary {boundary}, it {it})"
            );
            assert_eq!(a, c, "sub-boundary window must widen to the boundary");
        }
        // Exactly `boundary` samples survive per location — eviction fired
        // on every append past the reach, never sooner.
        for loc in spatial.iter() {
            let loc = loc as usize;
            assert_eq!(at_boundary.history().series_len(loc), boundary);
            assert_eq!(
                below_boundary.history().series_len(loc),
                boundary,
                "a window below the reach is widened exactly to it"
            );
            assert_eq!(
                full.history().series_len(loc),
                temporal.len(),
                "the full store keeps everything"
            );
            assert_eq!(
                at_boundary.history().recorded_of(loc),
                temporal.len(),
                "eviction must not lose the logical count"
            );
        }
        assert_eq!(
            full.history().peak_profile(),
            at_boundary.history().peak_profile()
        );
    }
}

// ---- mini batch ------------------------------------------------------------

#[test]
fn minibatch_fills_and_clears_exactly() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5005 + case);
        let capacity = rng.range_usize(1, 32);
        let extra = rng.range_usize(0, 32);
        let mut batch = MiniBatch::new(1, capacity);
        let total = capacity + extra;
        let mut cleared = 0;
        for i in 0..total {
            batch.push(&[i as f64], i as f64).unwrap();
            assert_eq!(batch.inputs().len(), batch.len() * batch.order());
            if batch.is_full() {
                cleared += batch.len();
                batch.clear();
                assert!(batch.is_empty());
            }
        }
        assert_eq!(cleared + batch.len(), total);
        assert!(batch.len() < capacity);
    }
}

#[test]
fn minibatch_pool_never_grows_past_its_working_set() {
    // However many acquire/release cycles run, a pool serving one
    // filling batch plus one in-flight batch allocates at most two
    // buffers and recycles forever after.
    for case in 0..CASES {
        let mut rng = Rng::new(0x5105 + case);
        let capacity = rng.range_usize(1, 32);
        let mut pool = BatchPool::new(2, capacity);
        let mut filling = pool.acquire();
        for _ in 0..50 {
            for i in 0..capacity {
                filling.push(&[i as f64, 1.0], 0.5).unwrap();
            }
            let full = std::mem::replace(&mut filling, pool.acquire());
            pool.release(full);
        }
        assert!(pool.buffers_created() <= 2, "pool must recycle buffers");
        assert!(pool.recycle_hits() >= 49);
    }
}

// ---- metrics ---------------------------------------------------------------

#[test]
fn error_rate_is_zero_iff_perfect_and_scale_invariant() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x6006 + case);
        let values = rng.vec_f64(0.1, 1e3, 4, 100);
        let scale = rng.range_f64(0.001, 1e3);
        assert!(metrics::error_rate_percent(&values, &values) < 1e-9);
        let scaled: Vec<f64> = values.iter().map(|v| v * scale).collect();
        let shifted: Vec<f64> = values.iter().map(|v| v * 1.07).collect();
        let shifted_scaled: Vec<f64> = scaled.iter().map(|v| v * 1.07).collect();
        let a = metrics::error_rate_percent(&shifted, &values);
        let b = metrics::error_rate_percent(&shifted_scaled, &scaled);
        assert!(
            (a - b).abs() < 1e-6,
            "scale invariance violated: {a} vs {b}"
        );
        // A uniform +7% deviation reports at most 7% error (values that fall
        // below the near-zero floor contribute less, never more).
        assert!(a > 0.0 && a <= 7.0 + 1e-6);
    }
}

#[test]
fn accuracy_is_bounded() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x7007 + case);
        let predicted = rng.vec_f64(-1e3, 1e3, 1, 50);
        let actual = rng.vec_f64(-1e3, 1e3, 1, 50);
        let n = predicted.len().min(actual.len());
        let acc = metrics::accuracy_percent(&predicted[..n], &actual[..n]);
        assert!((0.0..=100.0).contains(&acc));
    }
}

// ---- tracking --------------------------------------------------------------

#[test]
fn streaming_and_batch_peak_detection_agree() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x8008 + case);
        let values = rng.vec_f64(-100.0, 100.0, 4, 200);
        let batch = find_local_extrema(&values);
        let mut detector = PeakDetector::new();
        let mut streamed = Vec::new();
        for &v in &values {
            if let Some(p) = detector.push(v) {
                streamed.push(p);
            }
        }
        assert_eq!(batch.len(), streamed.len());
        for (a, b) in batch.iter().zip(&streamed) {
            assert_eq!(a.kind, b.kind);
            assert!((a.value - b.value).abs() < 1e-12);
        }
    }
}

#[test]
fn moving_average_preserves_length_and_bounds() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x9009 + case);
        let values = rng.vec_f64(-1e3, 1e3, 1, 200);
        let half = rng.range_usize(0, 10);
        let smooth = moving_average(&values, half);
        assert_eq!(smooth.len(), values.len());
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for v in smooth {
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }
}

// ---- trainer ---------------------------------------------------------------

#[test]
fn trainer_loss_is_finite_on_arbitrary_bounded_batches() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xa00a + case);
        let targets = rng.vec_f64(-1e4, 1e4, 8, 64);
        let mut trainer = IncrementalTrainer::new(TrainerConfig::default()).unwrap();
        let mut batch = MiniBatch::new(3, 16);
        for w in targets.windows(4) {
            batch.push(&[w[2], w[1], w[0]], w[3]).unwrap();
            if batch.is_full() {
                let loss = trainer.train_batch(&batch).unwrap();
                assert!(loss.is_finite());
                assert!(loss >= 0.0);
                batch.clear();
            }
        }
        if !batch.is_empty() {
            let loss = trainer.train_batch(&batch).unwrap();
            assert!(loss.is_finite());
            assert!(loss >= 0.0);
        }
        // Coefficients stay finite thanks to gradient clipping.
        for c in trainer.model().coefficients() {
            assert!(c.is_finite());
        }
    }
}

// ---- decomposition ---------------------------------------------------------

#[test]
fn decomposition_partitions_all_elements() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xb00b + case);
        let edge = rng.range_usize(2, 12);
        let ranks = rng.range_usize(1, 9);
        let extents = Extents::cubic(edge);
        if ranks > extents.len() {
            continue;
        }
        let dec = BlockDecomposition::new(extents, ranks).unwrap();
        let mut counts = vec![0usize; ranks];
        for e in 0..extents.len() {
            counts[dec.owner_of(e).unwrap()] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), extents.len());
        assert!(counts.iter().all(|&c| c > 0));
    }
}

// ---- simkit stats ----------------------------------------------------------

#[test]
fn normalization_outputs_stay_in_unit_interval() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xc00c + case);
        let values = rng.vec_f64(-1e6, 1e6, 1, 100);
        for v in stats::min_max_normalize(&values) {
            assert!((0.0..=1.0).contains(&v));
        }
        let z = stats::z_score_normalize(&values);
        assert_eq!(z.len(), values.len());
    }
}
