//! The per-iteration collection helper.
//!
//! The collector is the "helper function [that] continuously monitors each
//! iteration for the specified temporal and spatial characteristics" of the
//! paper. On every iteration the region calls [`Collector::observe`]; when
//! the iteration matches the temporal characteristic the provider is queried
//! at every sampled location, the history is updated, training rows are
//! assembled **directly into a columnar [`MiniBatch`]**, and — if the batch
//! filled up — it is swapped for a recycled buffer and returned to the
//! caller for a gradient-descent update. Callers hand spent batches back
//! through [`Collector::recycle`], so the steady state cycles a fixed set
//! of buffers with zero per-row heap allocations.

use super::assembler::{BatchAssembler, PredictorLayout};
use super::history::{Retention, SampleHistory};
use super::minibatch::{BatchPool, MiniBatch};
use crate::params::IterParam;
use crate::provider::VarProvider;

/// What happened during one call to [`Collector::observe`].
#[derive(Debug, Clone, PartialEq)]
pub enum CollectionEvent {
    /// The iteration did not match the temporal characteristic.
    Skipped,
    /// Samples were recorded but the mini-batch is not yet full.
    Collected {
        /// Number of samples recorded this iteration.
        samples: usize,
    },
    /// Samples were recorded and the mini-batch filled up; the columnar
    /// batch is ready for a training step (return it to
    /// [`Collector::recycle`] afterwards to keep the buffer cycle
    /// allocation-free).
    BatchReady {
        /// Number of samples recorded this iteration.
        samples: usize,
        /// The filled columnar batch.
        batch: MiniBatch,
    },
}

/// Cap on the history's row pre-reservation of a [`Collector`].
/// Pre-sizing lets steady-state sampling append without reallocating —
/// the history gets one row per sampled iteration — but a temporal
/// characteristic spanning the whole simulation (millions of iterations)
/// must not commit worst-case memory up front inside the host application,
/// especially when early termination means most of it would never be used.
/// Runs outliving the cap fall back to amortized `Vec` growth (an
/// allocation every doubling, still nothing per row); windowed
/// retention additionally caps the reservation at the window's bounded
/// backing storage.
const MAX_EAGER_STEPS: usize = 4096;

/// Widens a requested [`Retention`] policy to the AR model's lagged reach:
/// the deepest lagged read any layout performs is `order` strides of
/// `ceil(lag / step)` sampled iterations (the purely temporal layout), and
/// the window must cover it plus the target iteration itself, so a bounded
/// [`Collector`] never starves batch assembly or forecasting.
fn widened_retention(
    retention: Retention,
    order: usize,
    lag: u64,
    temporal: IterParam,
) -> Retention {
    match retention {
        Retention::Full => Retention::Full,
        Retention::Window(n) => {
            let step = temporal.step().max(1);
            let lag_steps = (lag.div_ceil(step)).max(1) as usize;
            Retention::Window(n.max(order * lag_steps + 1))
        }
    }
}

/// Collects the diagnostic variable according to the configured temporal and
/// spatial characteristics and assembles columnar mini-batches.
#[derive(Debug, Clone)]
pub struct Collector {
    spatial: IterParam,
    temporal: IterParam,
    assembler: BatchAssembler,
    history: SampleHistory,
    /// The batch currently filling.
    batch: MiniBatch,
    /// Recycled spare buffers; filled batches are swapped against these.
    pool: BatchPool,
    iterations_collected: u64,
    /// The spatial characteristic enumerated once, so the *sample* stage can
    /// hand the provider the whole location set in one batch call.
    locations: Vec<usize>,
    /// Scratch row the provider's batch fill writes into (reused across
    /// iterations — no per-iteration allocation on the hot path).
    scratch: Vec<f64>,
}

impl Collector {
    /// Creates a collector.
    ///
    /// * `spatial`, `temporal` — the sampling characteristics.
    /// * `order`, `lag`, `layout` — AR model structure (see
    ///   [`BatchAssembler`]).
    /// * `batch_capacity` — the mini-batch fill threshold, in rows: a batch
    ///   is handed out by the first [`Collector::assemble`] that brings it
    ///   to at least this many rows. An iteration's rows are never split
    ///   across batches, so this is a lower bound on a batch's size, not
    ///   its size: 29 rows per iteration at capacity 16 make 29-row
    ///   batches.
    ///
    /// # Panics
    ///
    /// Panics if `order` or `batch_capacity` is zero.
    pub fn new(
        spatial: IterParam,
        temporal: IterParam,
        order: usize,
        lag: u64,
        layout: PredictorLayout,
        batch_capacity: usize,
    ) -> Self {
        Self::with_retention(
            spatial,
            temporal,
            order,
            lag,
            layout,
            batch_capacity,
            Retention::Full,
        )
    }

    /// Creates a collector with an explicit history [`Retention`] policy.
    ///
    /// A requested [`Retention::Window`] is widened to at least the
    /// assembler's reach — `order` lagged reads plus the target iteration —
    /// so bounding memory can never starve batch assembly or forecasting.
    ///
    /// # Panics
    ///
    /// Panics if `order` or `batch_capacity` is zero.
    pub fn with_retention(
        spatial: IterParam,
        temporal: IterParam,
        order: usize,
        lag: u64,
        layout: PredictorLayout,
        batch_capacity: usize,
        retention: Retention,
    ) -> Self {
        let locations: Vec<usize> = spatial.iter().map(|loc| loc as usize).collect();
        let retention = widened_retention(retention, order, lag, temporal);
        let mut history = SampleHistory::with_retention(spatial, retention);
        history.reserve(temporal.len().min(MAX_EAGER_STEPS));
        let mut pool = BatchPool::new(order, batch_capacity);
        let batch = pool.acquire();
        Self {
            spatial,
            temporal,
            assembler: BatchAssembler::new(order, lag, layout, spatial, temporal),
            history,
            batch,
            pool,
            iterations_collected: 0,
            scratch: vec![0.0; locations.len()],
            locations,
        }
    }

    /// The spatial characteristic.
    pub fn spatial(&self) -> IterParam {
        self.spatial
    }

    /// The temporal characteristic.
    pub fn temporal(&self) -> IterParam {
        self.temporal
    }

    /// The batch assembler (model structure).
    pub fn assembler(&self) -> &BatchAssembler {
        &self.assembler
    }

    /// All samples collected so far.
    pub fn history(&self) -> &SampleHistory {
        &self.history
    }

    /// Number of iterations on which data was actually collected.
    pub fn iterations_collected(&self) -> u64 {
        self.iterations_collected
    }

    /// Whether the temporal characteristic has been exhausted (the current
    /// iteration is past its end), i.e. data collection has concluded and
    /// the trained model can be used for inference.
    pub fn finished(&self, iteration: u64) -> bool {
        iteration > self.temporal.end()
    }

    /// The locations enumerated from the spatial characteristic, in sampling
    /// order.
    pub fn locations(&self) -> &[usize] {
        &self.locations
    }

    /// The buffer pool backing this collector's batches, for inspecting the
    /// recycling behaviour (buffers created, recycle hits).
    pub fn batch_pool(&self) -> &BatchPool {
        &self.pool
    }

    /// The **sample** stage: if `iteration` matches the temporal
    /// characteristic, queries the provider for the whole spatial
    /// characteristic in one batch [`VarProvider::fill`] call and records
    /// the values in the history as one step. Returns the number of samples
    /// recorded (`0` for unselected iterations).
    pub fn sample<D: ?Sized, P: VarProvider<D> + ?Sized>(
        &mut self,
        iteration: u64,
        domain: &D,
        provider: &P,
    ) -> usize {
        if !self.temporal.contains(iteration) {
            return 0;
        }
        provider.fill(domain, &self.locations, &mut self.scratch);
        self.history.record_step(iteration, &self.scratch);
        self.iterations_collected += 1;
        self.locations.len()
    }

    /// The **assemble** stage: writes the iteration's fresh samples into the
    /// filling columnar batch and, once it fills up, swaps it against a
    /// recycled buffer and returns it. Must be called after
    /// [`Collector::sample`] for the same iteration.
    pub fn assemble(&mut self, iteration: u64) -> Option<MiniBatch> {
        self.assembler
            .append_rows_for_iteration(&self.history, iteration, &mut self.batch);
        if self.batch.is_full() {
            let fresh = self.pool.acquire();
            Some(std::mem::replace(&mut self.batch, fresh))
        } else {
            None
        }
    }

    /// Returns a spent batch to the collector's buffer pool so its
    /// allocation is reused by a later [`Collector::assemble`]. Dropping the
    /// batch instead is harmless — the pool then allocates a replacement.
    pub fn recycle(&mut self, batch: MiniBatch) {
        self.pool.release(batch);
    }

    /// Observes one simulation iteration: samples the provider if the
    /// iteration is selected and returns what happened.
    ///
    /// This is the one-call convenience wrapper around the explicit
    /// [`Collector::sample`] → [`Collector::assemble`] stages the engine
    /// drives separately.
    pub fn observe<D: ?Sized, P: VarProvider<D> + ?Sized>(
        &mut self,
        iteration: u64,
        domain: &D,
        provider: &P,
    ) -> CollectionEvent {
        if !self.temporal.contains(iteration) {
            return CollectionEvent::Skipped;
        }
        let samples = self.sample(iteration, domain, provider);
        match self.assemble(iteration) {
            Some(batch) => CollectionEvent::BatchReady { samples, batch },
            None => CollectionEvent::Collected { samples },
        }
    }

    /// Builds the predictors for forecasting `V(location, iteration)` from
    /// the collected history (without requiring the target itself), writing
    /// them into `out` (which must hold exactly `order` values).
    pub fn write_predictors_for(
        &self,
        location: usize,
        iteration: u64,
        out: &mut [f64],
    ) -> Option<()> {
        self.assembler
            .write_predictors_for(&self.history, location, iteration, out)
    }

    /// Appends the collector's mutable state — history, collected-iteration
    /// count, and the partially filled batch's rows — to a snapshot payload.
    /// Configuration (characteristics, assembler, pool) is rebuilt from the
    /// spec on restore and never serialized. Must be called at a step
    /// boundary (the engine drains first), when no assembled batch is in
    /// flight.
    pub(crate) fn snapshot_encode(&self, enc: &mut crate::snapshot::Enc) {
        self.history.snapshot_encode(enc);
        enc.put_u64(self.iterations_collected);
        enc.put_f64_slice(self.batch.inputs());
        enc.put_f64_slice(self.batch.targets());
    }

    /// Decodes and validates a state written by
    /// [`Collector::snapshot_encode`] against this (identically configured)
    /// collector, without touching it — the fail-closed half of restore.
    pub(crate) fn snapshot_decode(
        &self,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> crate::error::Result<CollectorState> {
        use crate::snapshot::corrupt;

        let history = SampleHistory::snapshot_decode(dec, self.spatial)?;
        if history.retention() != self.history.retention() {
            return Err(crate::error::Error::SnapshotMismatch {
                what: format!(
                    "snapshot retention {:?} vs configured {:?}",
                    history.retention(),
                    self.history.retention()
                ),
            });
        }
        let iterations_collected = dec.take_u64()?;
        let batch_inputs = dec.take_f64_vec()?;
        let batch_targets = dec.take_f64_vec()?;
        let order = self.batch.order();
        if batch_inputs.len() != batch_targets.len() * order {
            return Err(corrupt("filling batch columns are not parallel"));
        }
        if batch_targets.len() >= self.batch.capacity() {
            // A filling batch is swapped out the moment it fills, so a
            // full-or-overfull one can never appear at a step boundary.
            return Err(corrupt("filling batch holds a full batch"));
        }
        Ok(CollectorState {
            history,
            iterations_collected,
            batch_inputs,
            batch_targets,
        })
    }

    /// Commits a decoded state. Infallible — every invariant was checked by
    /// [`Collector::snapshot_decode`].
    pub(crate) fn snapshot_apply(&mut self, state: CollectorState) {
        self.history = state.history;
        self.history
            .reserve(self.temporal.len().min(MAX_EAGER_STEPS));
        self.iterations_collected = state.iterations_collected;
        self.batch.clear();
        let order = self.batch.order();
        for (i, &target) in state.batch_targets.iter().enumerate() {
            let row = &state.batch_inputs[i * order..(i + 1) * order];
            self.batch
                .push(row, target)
                .expect("decoded rows were validated against the batch shape");
        }
    }
}

/// A [`Collector`]'s decoded-and-validated snapshot state, produced by
/// [`Collector::snapshot_decode`] and committed by
/// [`Collector::snapshot_apply`] once the whole engine snapshot has
/// validated.
#[derive(Debug)]
pub(crate) struct CollectorState {
    history: SampleHistory,
    iterations_collected: u64,
    batch_inputs: Vec<f64>,
    batch_targets: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector() -> Collector {
        Collector::new(
            IterParam::new(1, 6, 1).unwrap(),
            IterParam::new(0, 100, 10).unwrap(),
            2,
            10,
            PredictorLayout::SpatioTemporal,
            8,
        )
    }

    #[test]
    fn skips_unselected_iterations() {
        let mut c = collector();
        let provider = |_d: &(), loc: usize| loc as f64;
        assert_eq!(c.observe(5, &(), &provider), CollectionEvent::Skipped);
        assert_eq!(c.history().len(), 0);
        assert_eq!(c.iterations_collected(), 0);
    }

    #[test]
    fn collects_each_selected_location() {
        let mut c = collector();
        let provider = |_d: &(), loc: usize| loc as f64 * 2.0;
        match c.observe(0, &(), &provider) {
            CollectionEvent::Collected { samples } => assert_eq!(samples, 6),
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(c.history().value_at(3, 0), Some(6.0));
        assert_eq!(c.iterations_collected(), 1);
    }

    #[test]
    fn produces_batches_once_enough_rows_accumulate() {
        let mut c = collector();
        let provider = |_d: &(), loc: usize| loc as f64;
        let mut batches = 0;
        for it in (0..=100u64).step_by(10) {
            if let CollectionEvent::BatchReady { batch, .. } = c.observe(it, &(), &provider) {
                batches += 1;
                assert_eq!(batch.order(), 2);
                assert!(batch.is_full());
                assert_eq!(batch.inputs().len(), batch.len() * 2);
                c.recycle(batch);
            }
        }
        // 10 collected iterations after the first produce 4 rows each
        // (locations 3..=6); with capacity 8 that is several full batches.
        assert!(batches >= 3, "expected at least 3 batches, got {batches}");
        // Recycling keeps the buffer set fixed: one filling + one spare.
        assert!(
            c.batch_pool().buffers_created() <= 2,
            "steady-state collection must not keep allocating buffers ({} created)",
            c.batch_pool().buffers_created()
        );
        assert!(c.batch_pool().recycle_hits() >= batches - 2);
    }

    #[test]
    fn batch_capacity_is_a_lower_bound_never_splitting_an_iteration() {
        // Temporal layout: each of the 29 locations forms a row once it has
        // `order` earlier samples, so every later iteration yields 29 rows.
        let mut c = Collector::new(
            IterParam::new(1, 29, 1).unwrap(),
            IterParam::new(0, 100, 1).unwrap(),
            2,
            1,
            PredictorLayout::Temporal,
            16,
        );
        let provider = |_d: &(), loc: usize| loc as f64;
        for it in 0..=10u64 {
            let event = c.observe(it, &(), &provider);
            if it < 2 {
                assert_eq!(event, CollectionEvent::Collected { samples: 29 });
                continue;
            }
            match event {
                CollectionEvent::BatchReady { batch, .. } => {
                    assert_eq!(batch.capacity(), 16);
                    assert_eq!(batch.len(), 29, "iteration {it} split or merged");
                    c.recycle(batch);
                }
                other => panic!("iteration {it}: expected a batch, got {other:?}"),
            }
        }
    }

    #[test]
    fn finished_after_temporal_end() {
        let c = collector();
        assert!(!c.finished(100));
        assert!(c.finished(101));
    }

    #[test]
    fn sample_and_assemble_stages_compose_to_observe() {
        let provider = |_d: &(), loc: usize| loc as f64;
        let mut staged = collector();
        let mut fused = collector();
        for it in (0..=100u64).step_by(10) {
            let samples = staged.sample(it, &(), &provider);
            let batch = staged.assemble(it);
            match fused.observe(it, &(), &provider) {
                CollectionEvent::Skipped => {
                    assert_eq!(samples, 0);
                    assert!(batch.is_none());
                }
                CollectionEvent::Collected { samples: s } => {
                    assert_eq!(samples, s);
                    assert!(batch.is_none());
                }
                CollectionEvent::BatchReady {
                    samples: s,
                    batch: b,
                } => {
                    assert_eq!(samples, s);
                    assert_eq!(batch.unwrap(), b);
                }
            }
        }
        assert_eq!(staged.history().len(), fused.history().len());
    }

    #[test]
    fn batch_fill_provider_matches_scalar_provider() {
        let domain: Vec<f64> = (0..16).map(|i| (i as f64).sin()).collect();
        let scalar = |d: &Vec<f64>, loc: usize| d.get(loc).copied().unwrap_or(0.0);
        let mut with_scalar = collector();
        let mut with_batch = collector();
        for it in (0..=100u64).step_by(10) {
            with_scalar.observe(it, &domain, &scalar);
            with_batch.observe(it, &domain, &crate::provider::SliceProvider);
        }
        assert_eq!(with_scalar.history().len(), with_batch.history().len());
        for &loc in with_scalar.locations() {
            assert_eq!(
                with_scalar.history().iterations_of(loc),
                with_batch.history().iterations_of(loc)
            );
            assert_eq!(
                with_scalar.history().values_of(loc),
                with_batch.history().values_of(loc)
            );
        }
    }

    #[test]
    fn predictors_available_for_forecasting() {
        let mut c = collector();
        let provider = |_d: &(), loc: usize| loc as f64;
        for it in (0..=100u64).step_by(10) {
            c.observe(it, &(), &provider);
        }
        let mut buf = [0.0; 2];
        c.write_predictors_for(6, 100, &mut buf).unwrap();
        assert_eq!(buf, [5.0, 4.0]);
    }

    #[test]
    fn restored_foreign_location_is_rejected() {
        use crate::snapshot::{Dec, Enc};

        // A snapshot of a history over locations 0, 8, …, 40: as many
        // locations as this collector samples (1..=6), but foreign ones —
        // 40 among them. Recording can never produce that state here, and
        // a step-major store has no column to hold it.
        let mut foreign = SampleHistory::new(IterParam::new(0, 40, 8).unwrap());
        for it in (0..=80u64).step_by(10) {
            foreign.record_step(it, &[1.0; 6]);
        }
        let mut enc = Enc::default();
        foreign.snapshot_encode(&mut enc);
        enc.put_u64(9);
        enc.put_f64_slice(&[]);
        enc.put_f64_slice(&[]);
        let c = collector();
        assert!(matches!(
            c.snapshot_decode(&mut Dec::new(&enc.buf)),
            Err(crate::Error::SnapshotMismatch { .. })
        ));
        // The collector's own snapshot still decodes.
        let mut own = Enc::default();
        c.snapshot_encode(&mut own);
        assert!(c.snapshot_decode(&mut Dec::new(&own.buf)).is_ok());
    }

    #[test]
    fn windowed_collector_matches_full_on_the_live_pipeline() {
        let provider = |_d: &(), loc: usize| (loc as f64).sin();
        let mut full = collector();
        // A requested 1-sample window is widened to the assembler's reach
        // (order 2, lag 10, step 10 ⇒ at least 3 samples per location).
        let mut windowed = Collector::with_retention(
            IterParam::new(1, 6, 1).unwrap(),
            IterParam::new(0, 100, 10).unwrap(),
            2,
            10,
            PredictorLayout::SpatioTemporal,
            8,
            super::Retention::Window(1),
        );
        for it in (0..=100u64).step_by(10) {
            let a = full.observe(it, &(), &provider);
            let b = windowed.observe(it, &(), &provider);
            assert_eq!(a, b, "batch cadence and contents must agree at {it}");
        }
        assert_eq!(
            full.history().peak_profile(),
            windowed.history().peak_profile()
        );
        assert!(windowed.history().series_len(3) < full.history().series_len(3));
    }
}
