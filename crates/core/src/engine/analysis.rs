//! One armed analysis: specification plus live pipeline state.

use std::time::Instant;

use parsim::ThreadPool;

use crate::collect::{Collector, CollectorState, MiniBatch, SampleHistory};
use crate::extract::{
    BreakpointExtractor, BreakpointResult, DelayTimeExtractor, DelayTimeResult, FeatureKind,
    OutlierExtractor, OutlierReport,
};
use crate::model::IncrementalTrainer;
use crate::region::{AnalysisMethod, AnalysisSpec, FeatureValue};
use crate::snapshot::{corrupt, Dec, Enc};
use crate::telemetry::Recorder;

use super::background::{Trained, TrainerSlot};
use super::{ewma, nanos_since};

/// Encodes one extracted [`FeatureValue`] into a snapshot payload (tag +
/// fields, matching the serve crate's wire tags for the same enum).
pub(crate) fn put_feature(enc: &mut Enc, feature: &FeatureValue) {
    match feature {
        FeatureValue::Breakpoint(b) => {
            enc.put_u8(0);
            enc.put_f64(b.threshold_value);
            enc.put_usize(b.radius);
            enc.put_bool(b.bounded);
        }
        FeatureValue::DelayTime(d) => {
            enc.put_u8(1);
            enc.put_f64(d.delay_time);
            enc.put_usize(d.index);
            enc.put_f64(d.value);
            enc.put_f64(d.gradient_drop);
        }
        FeatureValue::Outliers(o) => {
            enc.put_u8(2);
            enc.put_f64(o.threshold);
            enc.put_usize(o.outliers.len());
            for &(location, value) in &o.outliers {
                enc.put_usize(location);
                enc.put_f64(value);
            }
            enc.put_usize(o.inspected);
        }
    }
}

/// Decodes a [`FeatureValue`] written by [`put_feature`].
pub(crate) fn take_feature(dec: &mut Dec<'_>) -> crate::error::Result<FeatureValue> {
    Ok(match dec.take_u8()? {
        0 => FeatureValue::Breakpoint(BreakpointResult {
            threshold_value: dec.take_f64()?,
            radius: dec.take_usize()?,
            bounded: dec.take_bool()?,
        }),
        1 => FeatureValue::DelayTime(DelayTimeResult {
            delay_time: dec.take_f64()?,
            index: dec.take_usize()?,
            value: dec.take_f64()?,
            gradient_drop: dec.take_f64()?,
        }),
        2 => {
            let threshold = dec.take_f64()?;
            let count = dec.take_usize()?;
            dec.check_count(count, 16)?;
            let mut outliers = Vec::with_capacity(count);
            for _ in 0..count {
                let location = dec.take_usize()?;
                let value = dec.take_f64()?;
                outliers.push((location, value));
            }
            FeatureValue::Outliers(OutlierReport {
                threshold,
                outliers,
                inspected: dec.take_usize()?,
            })
        }
        t => return Err(corrupt(format!("invalid feature tag {t}"))),
    })
}

/// One armed analysis: its specification plus the live collector/trainer
/// state, driven through the explicit **sample → assemble → train →
/// extract** stages by the engine.
///
/// Columnar [`MiniBatch`] buffers flow through the analysis by value —
/// collector → trainer (here or on a worker) → back into the collector's
/// pool — so the steady state reuses a fixed set of allocations.
pub(crate) struct Analysis<D: ?Sized> {
    pub(crate) spec: AnalysisSpec<D>,
    pub(crate) store: Collector,
    slot: TrainerSlot,
    feature: Option<FeatureValue>,
    /// Reusable predictor buffer (`order` slots) for the per-step
    /// prediction at the representative location.
    predictor_scratch: Vec<f64>,
    /// Batches trained so far (kept here because the trainer itself may be
    /// in flight on a worker thread).
    pub(crate) batches_trained: usize,
    /// EWMA (α = 1/8) of the ns one batch takes to train, wherever it
    /// trained; 0 until measured. Background mode only.
    train_ewma_ns: u64,
    /// EWMA (α = 1/8) of the ns from launching a job to a worker starting
    /// it; 0 until measured. Background mode only.
    handoff_ewma_ns: u64,
    /// Per-analysis stage-timing recorder (zero-capacity ring when the
    /// engine's telemetry is off). Written by the engine's pipeline; not
    /// serialized into snapshots — telemetry is diagnostics, not state.
    pub(crate) telemetry: Recorder,
}

impl<D: ?Sized> Analysis<D> {
    /// Arms an analysis over its own [`Collector`].
    pub(crate) fn new(spec: AnalysisSpec<D>, telemetry_capacity: usize) -> Self {
        let store = Collector::with_retention(
            spec.spatial,
            spec.temporal,
            spec.trainer.order,
            spec.lag,
            spec.layout,
            spec.batch_capacity,
            spec.retention,
        );
        let trainer = IncrementalTrainer::new(spec.trainer)
            .expect("spec builder validated the trainer configuration");
        let order = spec.trainer.order;
        Self {
            spec,
            store,
            slot: TrainerSlot::Idle(Box::new(trainer)),
            feature: None,
            predictor_scratch: vec![0.0; order],
            batches_trained: 0,
            train_ewma_ns: 0,
            handoff_ewma_ns: 0,
            telemetry: Recorder::with_capacity(telemetry_capacity),
        }
    }

    pub(crate) fn feature(&self) -> Option<&FeatureValue> {
        self.feature.as_ref()
    }

    /// The trainer, when it is resident (not off training on a worker).
    pub(crate) fn trainer(&self) -> Option<&IncrementalTrainer> {
        self.slot.trainer()
    }

    /// Stage 1 — **sample**: batch-query the provider over the spatial
    /// characteristic and append to the history. Returns the number of
    /// samples recorded (0 when the iteration is not selected).
    pub(crate) fn sample(&mut self, iteration: u64, domain: &D) -> usize {
        self.store
            .sample(iteration, domain, self.spec.provider.as_ref())
    }

    /// Stage 2 — **assemble**: write fresh samples into the columnar batch;
    /// returns the filled batch when one is ready. Threshold-only analyses
    /// recycle their batches immediately (they never train).
    pub(crate) fn assemble(&mut self, iteration: u64) -> Option<MiniBatch> {
        let batch = self.store.assemble(iteration)?;
        if self.spec.method == AnalysisMethod::CurveFitting {
            Some(batch)
        } else {
            self.store.recycle(batch);
            None
        }
    }

    /// Stage 3 (inline) — **train** the batch on the calling thread and
    /// recycle its buffer. Returns the batch's loss when the
    /// trainer accepted it.
    pub(crate) fn train_inline(&mut self, batch: MiniBatch) -> Option<f64> {
        let TrainerSlot::Idle(trainer) = &mut self.slot else {
            unreachable!("inline training never leaves the trainer in flight");
        };
        let loss = trainer.train_batch(&batch).ok();
        self.store.recycle(batch);
        self.record_batch_outcome(loss)
    }

    /// Stage 3 (background) — place the batch where it costs the
    /// simulation thread least. After reclaiming a finished job, the batch
    /// goes to a worker when the worker is free and training is not
    /// measured to be cheaper than a hand-off; with no hand-off measured
    /// yet, the first batch always goes, so both estimates exist. Otherwise
    /// it trains here: when training is the cheaper of the two, and when
    /// the previous batch is still on the worker — the worker is not
    /// keeping up, so the simulation thread waits for it and trains this
    /// batch itself rather than queueing a backlog. Batches train one at a
    /// time in fill order either way, which is what keeps background
    /// results bit-identical to inline ones. Returns the loss of the latest
    /// batch that finished during the call, if any.
    pub(crate) fn place_batch(&mut self, batch: MiniBatch, pool: &ThreadPool) -> Option<f64> {
        let mut loss = self.reclaim();
        let cheaper_here = self.handoff_ewma_ns > 0 && self.train_ewma_ns < self.handoff_ewma_ns;
        if self.slot.is_idle() && !cheaper_here {
            self.slot.launch(batch, pool);
            return loss;
        }
        if let Some(trained) = self.slot.join_if_busy() {
            loss = self.finish_job(trained).or(loss);
        }
        if !self.slot.is_idle() {
            // Poisoned by a panicked job: the trainer is gone.
            self.store.recycle(batch);
            return loss;
        }
        let clock = Instant::now();
        loss = self.train_inline(batch).or(loss);
        self.train_ewma_ns = ewma(self.train_ewma_ns, nanos_since(clock));
        loss
    }

    /// Non-blocking progress: if the in-flight training job has finished,
    /// restores the trainer and recycles the batch. Returns the job's loss.
    pub(crate) fn reclaim(&mut self) -> Option<f64> {
        let trained = self.slot.reclaim_if_finished()?;
        self.finish_job(trained)
    }

    /// Blocks until the in-flight training job, if any, has finished and
    /// the trainer is resident again. Returns that job's loss.
    pub(crate) fn drain(&mut self) -> Option<f64> {
        let trained = self.slot.join_if_busy()?;
        self.finish_job(trained)
    }

    /// Winds the analysis down: joins the in-flight background job, if any
    /// (its loss is recorded — the batch was already being consumed). After
    /// this call no pool job references this analysis and no batch buffer
    /// has been leaked; the trainer is resident unless the job panicked.
    /// Returns the joined job's loss.
    pub(crate) fn shutdown(&mut self) -> Option<f64> {
        let trained = self.slot.join_for_shutdown()?;
        self.finish_job(trained)
    }

    /// Books a job that came back from a worker: recycles its batch, folds
    /// its timings into the placement estimates and counts its outcome.
    fn finish_job(&mut self, trained: Trained) -> Option<f64> {
        self.store.recycle(trained.batch);
        self.train_ewma_ns = ewma(self.train_ewma_ns, trained.train_ns);
        self.handoff_ewma_ns = ewma(self.handoff_ewma_ns, trained.handoff_ns);
        self.record_batch_outcome(trained.loss)
    }

    fn record_batch_outcome(&mut self, loss: Option<f64>) -> Option<f64> {
        if loss.is_some() {
            self.batches_trained += 1;
        }
        loss
    }

    /// Whether a training job is currently in flight.
    pub(crate) fn training_in_flight(&self) -> bool {
        !self.slot.is_idle()
    }

    /// Stage 4 — **extract**: attempts feature extraction from the current
    /// history/model state.
    pub(crate) fn try_extract(&mut self) {
        let history = self.store.history();
        if history.is_empty() {
            return;
        }
        let extracted = match self.spec.feature {
            FeatureKind::Breakpoint { threshold } => {
                // The incremental peak profile is maintained at record time;
                // extraction reads it as a borrowed slice — no rescan of the
                // per-location series, no allocation.
                let peaks = history.peak_profile();
                let initial = peaks.iter().map(|(_, v)| v.abs()).fold(0.0_f64, f64::max);
                if initial <= 0.0 {
                    None
                } else {
                    BreakpointExtractor::new(threshold.clamp(1e-6, 1.0), initial)
                        .ok()
                        .and_then(|ex| ex.extract_from_profile(peaks).ok())
                        .map(FeatureValue::Breakpoint)
                }
            }
            FeatureKind::DelayTime => {
                // The SoA history hands the extractor its iteration and
                // value columns directly — no gather into scratch vectors.
                let location = history.representative().unwrap_or(0);
                let iterations = history.iterations_of(location);
                let values = history.values_of(location);
                iterations.zip(values).and_then(|(iterations, values)| {
                    DelayTimeExtractor::new()
                        .extract_sampled(iterations, values)
                        .ok()
                        .map(FeatureValue::DelayTime)
                })
            }
            FeatureKind::Outliers { threshold } => {
                let profile = history.peak_profile();
                OutlierExtractor::new(threshold)
                    .ok()
                    .and_then(|ex| ex.extract(profile).ok())
                    .map(FeatureValue::Outliers)
            }
        };
        if extracted.is_some() {
            self.feature = extracted;
        }
    }

    /// Latest one-step prediction at the representative location, if the
    /// model is resident, trained, and enough history exists. Uses the
    /// reusable predictor scratch — no allocation on the per-step status
    /// path.
    pub(crate) fn latest_prediction(&mut self) -> Option<f64> {
        let trainer = self.slot.trainer()?;
        if !trainer.model().is_trained() {
            return None;
        }
        let location = self.store.history().representative().unwrap_or(0);
        let latest_iteration = self.store.history().last_iteration_of(location)?;
        self.store
            .write_predictors_for(location, latest_iteration, &mut self.predictor_scratch)?;
        trainer.predict(&self.predictor_scratch).ok()
    }

    /// The location of the maximum most-recently-observed value across the
    /// sampled locations — the "wave front" broadcast to other ranks in
    /// the LULESH case study.
    pub(crate) fn front_location(&self) -> Option<usize> {
        self.store
            .history()
            .iter_latest()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(loc, _)| loc)
    }

    /// Whether this analysis considers its work done (model converged, or
    /// threshold-only analyses once collection finished). While a background
    /// training job is in flight the analysis is never done — convergence
    /// cannot be judged until the trainer is resident.
    pub(crate) fn is_done(&self, iteration: u64) -> bool {
        match self.spec.method {
            AnalysisMethod::CurveFitting => {
                let converged = self
                    .slot
                    .trainer()
                    .is_some_and(IncrementalTrainer::is_converged);
                (converged || self.store.finished(iteration)) && !self.training_in_flight()
            }
            AnalysisMethod::ThresholdOnly => self.store.finished(iteration),
        }
    }

    /// The analysis' sample history.
    pub(crate) fn history(&self) -> &SampleHistory {
        self.store.history()
    }

    /// Appends the analysis' mutable pipeline state to a snapshot payload.
    ///
    /// # Panics
    ///
    /// Panics if the trainer is off on a worker — the engine drains before
    /// snapshotting, so at a snapshot point the slot is always idle (which
    /// is also why it is not serialized).
    pub(crate) fn snapshot_encode(&self, enc: &mut Enc) {
        // Store tag 0 is the collector; `snapshot_decode` rejects tag 1,
        // the retired sharded store.
        enc.put_u8(0);
        self.store.snapshot_encode(enc);
        self.slot
            .trainer()
            .expect("snapshot requires a drained engine (trainer resident)")
            .snapshot_encode(enc);
        match &self.feature {
            None => enc.put_u8(0),
            Some(f) => {
                enc.put_u8(1);
                put_feature(enc, f);
            }
        }
        // The representative location and the sample count it belongs to:
        // derived from the history (and rebuilt from it on decode), written
        // so the record layout stays the same.
        let history = self.store.history();
        enc.put_opt_usize(history.representative());
        enc.put_usize(history.len());
        enc.put_usize(self.batches_trained);
    }

    /// Decodes and validates a state written by
    /// [`Analysis::snapshot_encode`] against this (identically configured)
    /// analysis, without touching it.
    pub(crate) fn snapshot_decode(&self, dec: &mut Dec<'_>) -> crate::error::Result<AnalysisState> {
        let store = match dec.take_u8()? {
            0 => self.store.snapshot_decode(dec)?,
            1 => {
                return Err(crate::error::Error::SnapshotMismatch {
                    what: "snapshot of a sharded store; sharded collection is retired".into(),
                })
            }
            t => return Err(corrupt(format!("invalid store tag {t}"))),
        };
        let trainer = IncrementalTrainer::snapshot_decode(self.spec.trainer, dec)?;
        let feature = match dec.take_u8()? {
            0 => None,
            1 => Some(take_feature(dec)?),
            t => return Err(corrupt(format!("invalid feature option tag {t}"))),
        };
        // The derived representative and its sample count: read and ignored.
        dec.take_opt_usize()?;
        dec.take_usize()?;
        let batches_trained = dec.take_usize()?;
        Ok(AnalysisState {
            store,
            trainer,
            feature,
            batches_trained,
        })
    }

    /// Commits a decoded state: quiesces any in-flight training (joining
    /// the worker, recycling its buffer), then overwrites the live
    /// pipeline state. Infallible — everything was validated by
    /// [`Analysis::snapshot_decode`].
    pub(crate) fn snapshot_apply(&mut self, state: AnalysisState) {
        // Quiesce first so no worker job references the store being
        // replaced and no batch buffer leaks.
        if let Some(trained) = self.slot.join_if_busy() {
            self.store.recycle(trained.batch);
        }
        self.store.snapshot_apply(state.store);
        self.slot = TrainerSlot::Idle(Box::new(state.trainer));
        self.feature = state.feature;
        self.batches_trained = state.batches_trained;
        // The placement estimates are diagnostics, not state: they restart
        // empty, like telemetry.
        self.train_ewma_ns = 0;
        self.handoff_ewma_ns = 0;
    }
}

/// One analysis' decoded-and-validated snapshot state, committed by
/// [`Analysis::snapshot_apply`] once the whole engine snapshot has
/// validated.
pub(crate) struct AnalysisState {
    store: CollectorState,
    trainer: IncrementalTrainer,
    feature: Option<FeatureValue>,
    batches_trained: usize,
}
