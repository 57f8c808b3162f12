//! Map-based reference sample store for the history-layout benchmarks.
//!
//! A faithful recreation of `SampleHistory` as it existed **before** the
//! struct-of-arrays refactors: one `BTreeMap<usize, Vec<(u64, f64)>>` of
//! interleaved `(iteration, value)` rows, a tree lookup per recorded
//! sample, per-extraction rescans of whole series (`peak_per_location`)
//! and freshly allocated profile vectors. The stored values are identical
//! to the library's step-major store — verified bitwise by this module's
//! tests, on extracted features *and* on the training losses of a pipeline
//! assembled from each store — so the `map` vs `slot` benchmarks (`slot`
//! names the library store, whatever its layout) measure exactly the
//! storage layout difference, nothing else.
//!
//! Kept out of the library's public story on purpose: this exists only so
//! `src/bin/bench_history.rs` can quantify what the refactor bought
//! (recorded in `BENCH_history.json`), exactly as [`rowref`](crate::rowref)
//! does for the mini-batch layout.

use std::collections::BTreeMap;

use insitu::collect::{BatchAssembler, BatchPool, PredictorLayout, SampleHistory};
use insitu::extract::BreakpointExtractor;
use insitu::model::{ConvergenceCriteria, IncrementalTrainer, OptimizerKind, TrainerConfig};
use insitu::IterParam;

/// The pre-refactor map-of-row-tuples store, copied verbatim from the old
/// `SampleHistory`.
#[derive(Debug, Clone, Default)]
pub struct MapHistory {
    per_location: BTreeMap<usize, Vec<(u64, f64)>>,
    total: usize,
}

impl MapHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-creates the series for `locations`, as the old `reserve` did.
    pub fn reserve(&mut self, locations: &[usize], samples_per_location: usize) {
        for &location in locations {
            let series = self.per_location.entry(location).or_default();
            let len = series.len();
            series.reserve(samples_per_location.saturating_sub(len));
        }
    }

    /// Records one sample: a tree lookup plus an interleaved-pair append.
    pub fn record(&mut self, iteration: u64, location: usize, value: f64) {
        let series = self.per_location.entry(location).or_default();
        if let Some(last) = series.last_mut() {
            if last.0 == iteration {
                last.1 = value;
                return;
            }
        }
        series.push((iteration, value));
        self.total += 1;
    }

    /// Total number of samples recorded.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The value observed at `(location, iteration)`: tree lookup plus a
    /// binary search over interleaved pairs.
    pub fn value_at(&self, location: usize, iteration: u64) -> Option<f64> {
        self.per_location.get(&location).and_then(|series| {
            series
                .binary_search_by_key(&iteration, |(it, _)| *it)
                .ok()
                .map(|idx| series[idx].1)
        })
    }

    /// The most recent value observed at `location`, if any.
    pub fn latest_of(&self, location: usize) -> Option<f64> {
        self.per_location
            .get(&location)
            .and_then(|series| series.last())
            .map(|(_, v)| *v)
    }

    /// The peak value per location, rescanning every series and allocating
    /// a fresh profile vector — the old extraction path.
    pub fn peak_per_location(&self) -> Vec<(usize, f64)> {
        self.per_location
            .iter()
            .filter(|(_, series)| !series.is_empty())
            .map(|(loc, series)| {
                let peak = series
                    .iter()
                    .map(|(_, v)| *v)
                    .fold(f64::NEG_INFINITY, f64::max);
                (*loc, peak)
            })
            .collect()
    }

    /// The old spatio-temporal predictor read: `order` values at preceding
    /// locations observed at the lagged iteration, each through a fresh
    /// tree lookup. Mirrors `BatchAssembler::write_predictors_for` for the
    /// `SpatioTemporal` layout over a unit-stride spatial characteristic.
    pub fn write_predictors_for(
        &self,
        first_location: usize,
        location: usize,
        lagged_iteration: u64,
        out: &mut [f64],
    ) -> Option<()> {
        for (i, slot) in out.iter_mut().enumerate() {
            let prev = location.checked_sub(i + 1)?;
            if prev < first_location {
                return None;
            }
            *slot = self.value_at(prev, lagged_iteration)?;
        }
        Some(())
    }
}

/// The shared sample→record→extract workload both stores run: a travelling
/// decaying pulse sampled at every location each iteration, with the
/// per-step status scan (wave front = max latest value) and a break-point
/// extraction from the peak profile every iteration — the reductions the
/// engine's status refresh and `try_extract` perform.
pub struct HistoryWorkload {
    /// The sampled locations (unit-stride spatial characteristic).
    pub locations: Vec<usize>,
    /// Sampled iterations (unit-stride temporal characteristic).
    pub iterations: Vec<u64>,
    /// `values[it][i]` is the sample of `locations[i]` at iteration `it` —
    /// precomputed so the timed loops measure the stores, not the pulse.
    pub values: Vec<Vec<f64>>,
    /// AR order of the predictor reads.
    pub order: usize,
    /// Iteration lag of the predictor reads.
    pub lag: u64,
}

/// AR order used by the workload's predictor reads.
pub const WORKLOAD_ORDER: usize = 3;
/// Iteration lag of the workload's predictor reads.
pub const WORKLOAD_LAG: u64 = 5;
/// Break-point threshold fraction applied every iteration.
pub const WORKLOAD_THRESHOLD: f64 = 0.05;

/// Builds the standard workload over `locations` locations and
/// `iterations` iterations.
pub fn workload(locations: u64, iterations: u64) -> HistoryWorkload {
    let locs: Vec<usize> = (1..=locations as usize).collect();
    let its: Vec<u64> = (0..=iterations).collect();
    let values = its
        .iter()
        .map(|&it| {
            locs.iter()
                .map(|&loc| {
                    let x = loc as f64;
                    let front = it as f64 * 0.1;
                    10.0 / (1.0 + x) * (-((x - front) * (x - front)) / 50.0).exp()
                })
                .collect()
        })
        .collect();
    HistoryWorkload {
        locations: locs,
        iterations: its,
        values,
        order: WORKLOAD_ORDER,
        lag: WORKLOAD_LAG,
    }
}

/// What one record+extract run accumulates, for asserting the two stores
/// behave identically. Every field must match bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDigest {
    /// Samples recorded.
    pub samples: usize,
    /// Sum of the per-iteration wave-front locations.
    pub front_sum: u64,
    /// The final break-point radius.
    pub final_radius: usize,
    /// Bits of the sum of every predictor value read.
    pub predictor_sum_bits: u64,
    /// Bits of the final peak-profile checksum.
    pub peak_sum_bits: u64,
}

fn digest_from_profile(
    samples: usize,
    front_sum: u64,
    predictor_sum: f64,
    profile: &[(usize, f64)],
) -> RunDigest {
    let initial = profile.iter().map(|(_, v)| v.abs()).fold(0.0_f64, f64::max);
    let radius = BreakpointExtractor::new(WORKLOAD_THRESHOLD, initial)
        .and_then(|ex| ex.extract_from_profile(profile))
        .map(|r| r.radius)
        .unwrap_or(0);
    let peak_sum: f64 = profile.iter().map(|(_, v)| *v).sum();
    RunDigest {
        samples,
        front_sum,
        final_radius: radius,
        predictor_sum_bits: predictor_sum.to_bits(),
        peak_sum_bits: peak_sum.to_bits(),
    }
}

/// Drives the workload through the **map-based** store: per-sample tree
/// lookups, per-step latest scans through the tree, per-iteration peak
/// rescans with a freshly allocated profile, and lagged predictor reads via
/// binary searches over interleaved pairs.
pub fn run_map_pipeline(w: &HistoryWorkload) -> RunDigest {
    let mut history = MapHistory::new();
    history.reserve(&w.locations, w.iterations.len());
    let mut samples = 0usize;
    let mut front_sum = 0u64;
    let mut predictor_sum = 0.0f64;
    let mut predictors = [0.0f64; WORKLOAD_ORDER];
    let first_loc = w.locations[0];
    for (&iteration, row) in w.iterations.iter().zip(&w.values) {
        // Sample + record.
        for (&loc, &value) in w.locations.iter().zip(row) {
            history.record(iteration, loc, value);
            samples += 1;
        }
        // The per-step status scan: wave front = argmax of latest values.
        let front = w
            .locations
            .iter()
            .filter_map(|&loc| history.latest_of(loc).map(|v| (loc, v)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(loc, _)| loc)
            .unwrap_or(0);
        front_sum += front as u64;
        // The assembler's lagged reads for this iteration's rows.
        if let Some(lagged) = iteration.checked_sub(w.lag) {
            for &loc in &w.locations {
                if history
                    .write_predictors_for(first_loc, loc, lagged, &mut predictors)
                    .is_some()
                {
                    predictor_sum += predictors.iter().sum::<f64>();
                }
            }
        }
        // Per-iteration extraction from the peak profile (old path:
        // rescan + allocate).
        let profile = history.peak_per_location();
        let initial = profile.iter().map(|(_, v)| v.abs()).fold(0.0_f64, f64::max);
        if initial > 0.0 {
            let _ = BreakpointExtractor::new(WORKLOAD_THRESHOLD, initial)
                .and_then(|ex| ex.extract_from_profile(&profile));
        }
    }
    digest_from_profile(
        samples,
        front_sum,
        predictor_sum,
        &history.peak_per_location(),
    )
}

/// The workload's sampling characteristics: unit-stride locations and
/// iterations.
fn characteristics(w: &HistoryWorkload) -> (IterParam, IterParam) {
    let first = |v: Option<&usize>| *v.expect("non-empty") as u64;
    let spatial = IterParam::new(first(w.locations.first()), first(w.locations.last()), 1)
        .expect("valid spatial");
    let temporal =
        IterParam::new(0, *w.iterations.last().expect("non-empty"), 1).expect("valid temporal");
    (spatial, temporal)
}

/// Drives the same workload through the library's **step-major** store:
/// one iteration stamp and one contiguous row per step, the incrementally
/// maintained peak profile and latest scan, and O(1) regular-cadence
/// predictor reads through the library's assembler.
pub fn run_slot_pipeline(w: &HistoryWorkload) -> RunDigest {
    let (spatial, temporal) = characteristics(w);
    let assembler = BatchAssembler::new(
        w.order,
        w.lag,
        PredictorLayout::SpatioTemporal,
        spatial,
        temporal,
    );
    let mut history = SampleHistory::new(spatial);
    history.reserve(w.iterations.len());
    let mut samples = 0usize;
    let mut front_sum = 0u64;
    let mut predictor_sum = 0.0f64;
    let mut predictors = [0.0f64; WORKLOAD_ORDER];
    for (&iteration, row) in w.iterations.iter().zip(&w.values) {
        history.record_step(iteration, row);
        samples += row.len();
        let front = history
            .iter_latest()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(loc, _)| loc)
            .unwrap_or(0);
        front_sum += front as u64;
        for &loc in &w.locations {
            if assembler
                .write_predictors_for(&history, loc, iteration, &mut predictors)
                .is_some()
            {
                predictor_sum += predictors.iter().sum::<f64>();
            }
        }
        let profile = history.peak_profile();
        let initial = profile.iter().map(|(_, v)| v.abs()).fold(0.0_f64, f64::max);
        if initial > 0.0 {
            let _ = BreakpointExtractor::new(WORKLOAD_THRESHOLD, initial)
                .and_then(|ex| ex.extract_from_profile(profile));
        }
    }
    digest_from_profile(samples, front_sum, predictor_sum, history.peak_profile())
}

/// Loss histories of a full assemble+train pipeline fed from each store:
/// the same `IncrementalTrainer` consumes rows whose predictors were read
/// out of the map store and out of the library store. Bitwise-equal histories
/// prove the refactor changed where bytes live, not what the model sees.
pub fn loss_histories(w: &HistoryWorkload) -> (Vec<f64>, Vec<f64>) {
    const BATCH: usize = 16;
    let trainer_config = TrainerConfig {
        order: w.order,
        optimizer: OptimizerKind::Sgd {
            learning_rate: 0.05,
        },
        epochs_per_batch: 4,
        convergence: ConvergenceCriteria::default(),
    };
    let first_loc = w.locations[0];

    // Map-fed pipeline.
    let mut map_history = MapHistory::new();
    let mut map_trainer = IncrementalTrainer::new(trainer_config).expect("valid config");
    let mut pool = BatchPool::new(w.order, BATCH);
    let mut batch = pool.acquire();
    for (&iteration, row) in w.iterations.iter().zip(&w.values) {
        for (&loc, &value) in w.locations.iter().zip(row) {
            map_history.record(iteration, loc, value);
        }
        if let Some(lagged) = iteration.checked_sub(w.lag) {
            for &loc in &w.locations {
                let Some(target) = map_history.value_at(loc, iteration) else {
                    continue;
                };
                batch.push_with(target, |out| {
                    map_history.write_predictors_for(first_loc, loc, lagged, out)
                });
            }
            if batch.is_full() {
                map_trainer.train_batch(&batch).expect("orders match");
                let full = std::mem::replace(&mut batch, pool.acquire());
                pool.release(full);
            }
        }
    }
    let map_losses = map_trainer.loss_history().to_vec();

    // Library-fed pipeline over the library's own collector.
    let (spatial, temporal) = characteristics(w);
    let mut collector = insitu::collect::Collector::new(
        spatial,
        temporal,
        w.order,
        w.lag,
        insitu::collect::PredictorLayout::SpatioTemporal,
        BATCH,
    );
    let mut slot_trainer = IncrementalTrainer::new(trainer_config).expect("valid config");
    for (&iteration, row) in w.iterations.iter().zip(&w.values) {
        let provider = |_d: &(), loc: usize| row[loc - 1];
        collector.sample(iteration, &(), &provider);
        if let Some(full) = collector.assemble(iteration) {
            slot_trainer.train_batch(&full).expect("orders match");
            collector.recycle(full);
        }
    }
    let slot_losses = slot_trainer.loss_history().to_vec();
    (map_losses, slot_losses)
}

/// Asserts the two stores produce bitwise-identical digests and losses,
/// panicking with a description otherwise. Used by both the unit tests and
/// the benchmark binary (an unfair benchmark must refuse to run).
pub fn assert_pipelines_agree(w: &HistoryWorkload) -> RunDigest {
    let map = run_map_pipeline(w);
    let slot = run_slot_pipeline(w);
    assert_eq!(
        map, slot,
        "map-based and step-major stores diverged on the record+extract \
         workload"
    );
    let (map_losses, slot_losses) = loss_histories(w);
    assert_eq!(
        map_losses.len(),
        slot_losses.len(),
        "batch cadence must agree"
    );
    for (i, (a, b)) in map_losses.iter().zip(&slot_losses).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "loss of batch {i} differs between stores ({a:e} vs {b:e})"
        );
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_agree_bitwise_on_record_extract_and_losses() {
        for locations in [10u64, 40] {
            let w = workload(locations, 120);
            let digest = assert_pipelines_agree(&w);
            assert_eq!(digest.samples, (locations as usize) * 121);
            assert!(digest.final_radius > 0, "workload must extract a radius");
            let (map_losses, _) = loss_histories(&w);
            assert!(
                map_losses.len() > 5,
                "workload must actually train ({} batches)",
                map_losses.len()
            );
        }
    }

    #[test]
    fn map_store_matches_old_semantics_on_overwrite() {
        let mut map = MapHistory::new();
        let mut slot = SampleHistory::new(IterParam::single(1));
        for (it, value) in [(5u64, 1.0f64), (5, 2.0), (7, 0.5), (7, 3.0)] {
            map.record(it, 1, value);
            slot.record_step(it, &[value]);
        }
        assert_eq!(map.len(), slot.len());
        assert_eq!(map.value_at(1, 5), slot.value_at(1, 5));
        assert_eq!(map.value_at(1, 7), slot.value_at(1, 7));
        assert_eq!(map.peak_per_location(), slot.peak_profile().to_vec());
        assert!(!map.is_empty());
    }
}
