//! Incremental mini-batch training.
//!
//! The trainer owns the [`ArModel`], an [`Optimizer`] and two
//! [`OnlineScaler`]s (inputs and targets). Every time the collector hands it
//! a filled mini-batch it performs a small, fixed number of gradient-descent
//! epochs over that batch — bounded work per simulation iteration, which is
//! what keeps the in-situ overhead at the fraction-of-a-percent level the
//! paper reports — and tracks the running loss for convergence detection
//! (the trigger for early termination of the simulation).
//!
//! The gradient kernel is **columnar and dispatched**: the batch's
//! contiguous predictor array (the stride convention documented on
//! [`MiniBatch`](crate::collect::MiniBatch)) is standardized in bulk and
//! handed whole to the [`crate::kernels`] vtable the trainer resolved at
//! construction — gradient accumulation, the input-energy/loss reductions
//! and the norm clip all run as explicit-width SIMD kernels (or their
//! bit-identical scalar twins) with no per-row dispatch branch. All
//! intermediate buffers (scaled predictors/targets, gradient, lane
//! scratch, flat parameters) are owned by the trainer and reused across
//! batches, so a steady-state training step performs zero per-row heap
//! allocations.

use super::ar::ArModel;
use super::optimizer::{Optimizer, OptimizerKind};
use super::scaler::OnlineScaler;
use crate::collect::MiniBatch;
use crate::error::{Error, Result};
use crate::kernels::{self, Kernels};

/// Convergence rule: the model is considered "well trained" once the running
/// batch loss stays below `loss_threshold` for `patience` consecutive
/// batches, or once `max_batches` batches have been consumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceCriteria {
    /// Z-score-space mean-squared-error threshold.
    pub loss_threshold: f64,
    /// Number of consecutive below-threshold batches required.
    pub patience: usize,
    /// Hard cap on the number of batches before the model is declared
    /// converged regardless of loss (0 disables the cap).
    pub max_batches: usize,
}

impl Default for ConvergenceCriteria {
    fn default() -> Self {
        Self {
            loss_threshold: 5e-3,
            patience: 3,
            max_batches: 0,
        }
    }
}

/// Hyper-parameters of the incremental trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// AR model order (number of lagged predictors).
    pub order: usize,
    /// Optimizer family and learning rate.
    pub optimizer: OptimizerKind,
    /// Gradient-descent passes over each mini-batch.
    pub epochs_per_batch: usize,
    /// Convergence rule for early termination.
    pub convergence: ConvergenceCriteria,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            order: 3,
            optimizer: OptimizerKind::default(),
            epochs_per_batch: 4,
            convergence: ConvergenceCriteria::default(),
        }
    }
}

impl TrainerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHyperParameter`] if the order or epoch count
    /// is zero.
    pub fn validate(&self) -> Result<()> {
        if self.order == 0 {
            return Err(Error::InvalidHyperParameter {
                name: "order",
                what: "must be positive".into(),
            });
        }
        if self.epochs_per_batch == 0 {
            return Err(Error::InvalidHyperParameter {
                name: "epochs_per_batch",
                what: "must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Summary of the training performed so far.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrainingSummary {
    /// Number of mini-batches consumed.
    pub batches: usize,
    /// Number of rows consumed.
    pub rows: usize,
    /// Most recent batch loss (z-score-space MSE).
    pub last_loss: f64,
    /// Whether the convergence criteria are currently satisfied.
    pub converged: bool,
}

/// The incremental mini-batch trainer.
#[derive(Debug)]
pub struct IncrementalTrainer {
    config: TrainerConfig,
    model: ArModel,
    optimizer: Box<dyn Optimizer>,
    input_scaler: OnlineScaler,
    target_scaler: OnlineScaler,
    loss_history: Vec<f64>,
    below_threshold_streak: usize,
    rows_seen: usize,
    /// The kernel set resolved at construction: every per-batch loop calls
    /// through this vtable, so dispatch never branches per row.
    kernels: &'static Kernels,
    /// Reusable kernel scratch: the batch's predictors in z-score space
    /// (stride = order, mirroring the batch layout).
    scaled_inputs: Vec<f64>,
    /// Reusable kernel scratch: the batch's targets in z-score space.
    scaled_targets: Vec<f64>,
    /// Reusable kernel scratch: the loss gradient (`order + 1` entries).
    grads: Vec<f64>,
    /// Reusable kernel scratch: the gradient kernel's 4-lane accumulators
    /// (`4 * (order + 1)` entries).
    grad_lanes: Vec<f64>,
    /// Reusable kernel scratch: the flat parameter vector for the optimizer.
    params: Vec<f64>,
}

impl IncrementalTrainer {
    /// Creates a trainer from a validated configuration, on the kernel set
    /// [`kernels::select`] resolved for this host.
    ///
    /// # Errors
    ///
    /// Returns the validation error of [`TrainerConfig::validate`].
    pub fn new(config: TrainerConfig) -> Result<Self> {
        Self::with_kernels(config, kernels::select())
    }

    /// Creates a trainer pinned to an explicit kernel set — the benchmarks
    /// use this to time the scalar reference against the dispatched SIMD
    /// path on identical workloads.
    ///
    /// # Errors
    ///
    /// Returns the validation error of [`TrainerConfig::validate`].
    pub fn with_kernels(config: TrainerConfig, kernels: &'static Kernels) -> Result<Self> {
        config.validate()?;
        let mut model = ArModel::new(config.order);
        model.init_persistence();
        Ok(Self {
            config,
            model,
            optimizer: config.optimizer.build(config.order + 1),
            input_scaler: OnlineScaler::new(),
            target_scaler: OnlineScaler::new(),
            loss_history: Vec::new(),
            below_threshold_streak: 0,
            rows_seen: 0,
            kernels,
            scaled_inputs: Vec::new(),
            scaled_targets: Vec::new(),
            grads: vec![0.0; config.order + 1],
            grad_lanes: vec![0.0; 4 * (config.order + 1)],
            params: Vec::with_capacity(config.order + 1),
        })
    }

    /// The trainer configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// The kernel set this trainer dispatches to.
    pub fn kernels(&self) -> &'static Kernels {
        self.kernels
    }

    /// The underlying model (read-only).
    pub fn model(&self) -> &ArModel {
        &self.model
    }

    /// Loss after each consumed batch, oldest first.
    pub fn loss_history(&self) -> &[f64] {
        &self.loss_history
    }

    /// Summary of training progress.
    pub fn summary(&self) -> TrainingSummary {
        TrainingSummary {
            batches: self.loss_history.len(),
            rows: self.rows_seen,
            last_loss: self.loss_history.last().copied().unwrap_or(f64::INFINITY),
            converged: self.is_converged(),
        }
    }

    /// Whether the convergence criteria are currently satisfied.
    pub fn is_converged(&self) -> bool {
        let c = &self.config.convergence;
        if c.max_batches > 0 && self.loss_history.len() >= c.max_batches {
            return true;
        }
        self.below_threshold_streak >= c.patience
    }

    /// Performs gradient-descent epochs over one columnar mini-batch and
    /// returns the post-update loss (z-score-space MSE over the batch).
    ///
    /// The batch's contiguous predictor array is processed whole by the
    /// trainer's resolved [`crate::kernels`] vtable — no per-row
    /// indirection or dispatch branch — and every intermediate lives in
    /// trainer-owned scratch buffers, so steady-state training allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotEnoughData`] for an empty batch and
    /// [`Error::InvalidHyperParameter`] if the batch's order does not match
    /// the model.
    pub fn train_batch(&mut self, batch: &MiniBatch) -> Result<f64> {
        if batch.is_empty() {
            return Err(Error::NotEnoughData {
                available: 0,
                required: 1,
            });
        }
        if batch.order() != self.config.order {
            return Err(Error::InvalidHyperParameter {
                name: "order",
                what: format!(
                    "batch order {} does not match model order {}",
                    batch.order(),
                    self.config.order
                ),
            });
        }
        let rows = batch.len();
        self.input_scaler.update_all(batch.inputs());
        self.target_scaler.update_all(batch.targets());

        // Standardize the whole batch in bulk into the reusable scratch
        // columns (same layout as the batch: predictors with stride =
        // order, targets parallel).
        self.scaled_inputs.clear();
        self.scaled_inputs.extend_from_slice(batch.inputs());
        self.input_scaler
            .transform_in_place_with(self.kernels, &mut self.scaled_inputs);
        self.scaled_targets.clear();
        self.scaled_targets.extend_from_slice(batch.targets());
        self.target_scaler
            .transform_in_place_with(self.kernels, &mut self.scaled_targets);

        // Two stabilizers keep the online fit well behaved when the variable
        // changes regime faster than the running scaler can adapt (the
        // arrival of a shock, a detonation transient): the gradient is
        // normalized by the batch's input energy (the normalized-LMS rule,
        // which keeps the update stable regardless of how large the z-scores
        // momentarily become), and its norm is clipped. The per-row energy
        // chunking collapses into one flat sum-of-squares over the whole
        // predictor column — same values, one kernel call.
        const MAX_GRADIENT_NORM: f64 = 2.0;
        let input_energy = 1.0 + self.kernels.sum_squares(&self.scaled_inputs) / rows as f64;
        for _ in 0..self.config.epochs_per_batch {
            self.model.write_parameters(&mut self.params);
            self.kernels.grad_epoch(
                &self.scaled_inputs,
                &self.scaled_targets,
                self.model.intercept(),
                self.model.coefficients(),
                &mut self.grads,
                &mut self.grad_lanes,
            );
            let scale = 1.0 / (rows as f64 * input_energy);
            self.grads.iter_mut().for_each(|g| *g *= scale);
            let norm = self.kernels.sum_squares(&self.grads).sqrt();
            if norm > MAX_GRADIENT_NORM {
                let shrink = MAX_GRADIENT_NORM / norm;
                self.grads.iter_mut().for_each(|g| *g *= shrink);
            }
            self.optimizer.step(&mut self.params, &self.grads);
            self.model.apply_parameters(&self.params);
        }

        let loss = self.kernels.loss_sum(
            &self.scaled_inputs,
            &self.scaled_targets,
            self.model.intercept(),
            self.model.coefficients(),
        ) / rows as f64;

        self.rows_seen += rows;
        self.loss_history.push(loss);
        if loss <= self.config.convergence.loss_threshold {
            self.below_threshold_streak += 1;
        } else {
            self.below_threshold_streak = 0;
        }
        Ok(loss)
    }

    /// Predicts the target (in raw physical units) for a raw predictor
    /// vector. Allocation-free: the predictors are standardized on the fly
    /// inside the affine accumulation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ModelNotTrained`] before the first batch and
    /// [`Error::InvalidHyperParameter`] for a wrong predictor count.
    pub fn predict(&self, inputs: &[f64]) -> Result<f64> {
        if !self.model.is_trained() {
            return Err(Error::ModelNotTrained);
        }
        if inputs.len() != self.config.order {
            return Err(Error::InvalidHyperParameter {
                name: "inputs",
                what: format!(
                    "expected {} predictors, got {}",
                    self.config.order,
                    inputs.len()
                ),
            });
        }
        let mut acc = 0.0;
        for (c, &x) in self.model.coefficients().iter().zip(inputs) {
            acc += c * self.input_scaler.transform(x);
        }
        let z = self.model.intercept() + acc;
        Ok(self.target_scaler.inverse(z))
    }

    /// Appends the trainer's persistent state — model parameters, optimizer
    /// state, both Welford scalers, loss history and convergence streak —
    /// to a snapshot payload. The kernel vtable and scratch buffers are
    /// derived state and are never serialized.
    pub(crate) fn snapshot_encode(&self, enc: &mut crate::snapshot::Enc) {
        let (intercept, coefficients, trained) = self.model.snapshot_state();
        enc.put_f64(intercept);
        enc.put_f64_slice(coefficients);
        enc.put_bool(trained);
        let mut opt_state = Vec::new();
        self.optimizer.export_state(&mut opt_state);
        enc.put_f64_slice(&opt_state);
        for scaler in [&self.input_scaler, &self.target_scaler] {
            let (count, mean, m2) = scaler.snapshot_state();
            enc.put_u64(count);
            enc.put_f64(mean);
            enc.put_f64(m2);
        }
        enc.put_f64_slice(&self.loss_history);
        enc.put_usize(self.below_threshold_streak);
        enc.put_usize(self.rows_seen);
    }

    /// Decodes a trainer state written by
    /// [`IncrementalTrainer::snapshot_encode`] into a fully built trainer on
    /// this host's kernel set, validating every length against `config` (the
    /// configuration of the analysis being restored into).
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotCorrupt`] for torn payloads,
    /// [`Error::SnapshotMismatch`] if the recorded state does not fit the
    /// configuration.
    pub(crate) fn snapshot_decode(
        config: TrainerConfig,
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> Result<Self> {
        let intercept = dec.take_f64()?;
        let coefficients = dec.take_f64_vec()?;
        let trained = dec.take_bool()?;
        if coefficients.len() != config.order {
            return Err(Error::SnapshotMismatch {
                what: format!(
                    "snapshot has {} AR coefficients, configuration wants order {}",
                    coefficients.len(),
                    config.order
                ),
            });
        }
        let opt_state = dec.take_f64_vec()?;
        let mut scalers = [OnlineScaler::new(), OnlineScaler::new()];
        for scaler in &mut scalers {
            let count = dec.take_u64()?;
            let mean = dec.take_f64()?;
            let m2 = dec.take_f64()?;
            *scaler = OnlineScaler::from_snapshot_state(count, mean, m2);
        }
        let loss_history = dec.take_f64_vec()?;
        let below_threshold_streak = dec.take_usize()?;
        let rows_seen = dec.take_usize()?;

        let mut trainer = Self::new(config)?;
        if !trainer.optimizer.import_state(&opt_state) {
            return Err(Error::SnapshotMismatch {
                what: format!(
                    "optimizer state of {} values does not fit {:?}",
                    opt_state.len(),
                    config.optimizer
                ),
            });
        }
        trainer.model = ArModel::from_snapshot_state(intercept, coefficients, trained);
        let [input_scaler, target_scaler] = scalers;
        trainer.input_scaler = input_scaler;
        trainer.target_scaler = target_scaler;
        trainer.loss_history = loss_history;
        trainer.below_threshold_streak = below_threshold_streak;
        trainer.rows_seen = rows_seen;
        Ok(trainer)
    }

    /// Rolls the model forward `steps` predictions starting from the raw
    /// seed values (newest first), feeding predictions back in.
    ///
    /// # Errors
    ///
    /// Same as [`IncrementalTrainer::predict`].
    pub fn forecast(&self, seed: &[f64], steps: usize) -> Result<Vec<f64>> {
        if seed.len() != self.config.order {
            return Err(Error::InvalidHyperParameter {
                name: "seed",
                what: format!(
                    "expected {} seed values, got {}",
                    self.config.order,
                    seed.len()
                ),
            });
        }
        let mut window = seed.to_vec();
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let next = self.predict(&window)?;
            out.push(next);
            window.rotate_right(1);
            window[0] = next;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Temporal layout: predict `series[i]` from the `order` previous
    /// values (newest first), chunked into columnar batches of
    /// `batch_size` rows (the final batch may be short).
    fn batches_from_series(series: &[f64], order: usize, batch_size: usize) -> Vec<MiniBatch> {
        let mut batches = Vec::new();
        let mut batch = MiniBatch::new(order, batch_size);
        for i in order..series.len() {
            batch.push_with(series[i], |out| {
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot = series[i - (k + 1)];
                }
                Some(())
            });
            if batch.is_full() {
                batches.push(std::mem::replace(
                    &mut batch,
                    MiniBatch::new(order, batch_size),
                ));
            }
        }
        if !batch.is_empty() {
            batches.push(batch);
        }
        batches
    }

    fn decaying_series(n: usize) -> Vec<f64> {
        (0..n).map(|i| 10.0 * (-0.05 * i as f64).exp()).collect()
    }

    #[test]
    fn config_validation() {
        let mut c = TrainerConfig::default();
        assert!(c.validate().is_ok());
        c.order = 0;
        assert!(c.validate().is_err());
        let c = TrainerConfig {
            epochs_per_batch: 0,
            ..TrainerConfig::default()
        };
        assert!(IncrementalTrainer::new(c).is_err());
    }

    #[test]
    fn loss_decreases_over_batches_on_stationary_process() {
        let series = decaying_series(400);
        let batches = batches_from_series(&series, 3, 16);
        let mut trainer = IncrementalTrainer::new(TrainerConfig {
            order: 3,
            optimizer: OptimizerKind::Sgd { learning_rate: 0.1 },
            epochs_per_batch: 4,
            convergence: ConvergenceCriteria::default(),
        })
        .unwrap();
        let mut losses = Vec::new();
        for batch in &batches {
            losses.push(trainer.train_batch(batch).unwrap());
        }
        assert!(losses.len() > 5);
        let early: f64 = losses[..3].iter().sum::<f64>() / 3.0;
        let late: f64 = losses[losses.len() - 3..].iter().sum::<f64>() / 3.0;
        assert!(
            late <= early + 1e-3,
            "training should not increase loss (early {early}, late {late})"
        );
        assert!(late < 0.05, "final loss {late} should be small");
    }

    #[test]
    fn trained_model_predicts_decay_accurately() {
        let series = decaying_series(600);
        let batches = batches_from_series(&series, 2, 32);
        let mut trainer = IncrementalTrainer::new(TrainerConfig {
            order: 2,
            optimizer: OptimizerKind::Sgd { learning_rate: 0.2 },
            epochs_per_batch: 8,
            convergence: ConvergenceCriteria::default(),
        })
        .unwrap();
        for batch in &batches {
            trainer.train_batch(batch).unwrap();
        }
        // Predict an early-series value (still well above the numerical
        // floor of the decay) from its true predecessors.
        let i = 100;
        let prediction = trainer.predict(&[series[i - 1], series[i - 2]]).unwrap();
        let relative = (prediction - series[i]).abs() / series[i];
        assert!(relative < 0.05, "relative error {relative} too large");
    }

    #[test]
    fn convergence_streak_triggers() {
        let series = vec![1.0; 200];
        let batches = batches_from_series(&series, 2, 16);
        let mut trainer = IncrementalTrainer::new(TrainerConfig {
            order: 2,
            optimizer: OptimizerKind::Sgd { learning_rate: 0.3 },
            epochs_per_batch: 8,
            convergence: ConvergenceCriteria {
                loss_threshold: 1e-4,
                patience: 2,
                max_batches: 0,
            },
        })
        .unwrap();
        for batch in &batches {
            trainer.train_batch(batch).unwrap();
            if trainer.is_converged() {
                break;
            }
        }
        assert!(trainer.is_converged());
        assert!(trainer.summary().converged);
    }

    #[test]
    fn max_batches_cap_forces_convergence() {
        let mut trainer = IncrementalTrainer::new(TrainerConfig {
            order: 1,
            convergence: ConvergenceCriteria {
                loss_threshold: 0.0,
                patience: 100,
                max_batches: 2,
            },
            ..TrainerConfig::default()
        })
        .unwrap();
        let mut batch = MiniBatch::new(1, 2);
        batch.push(&[1.0], 2.0).unwrap();
        batch.push(&[2.0], 4.0).unwrap();
        trainer.train_batch(&batch).unwrap();
        assert!(!trainer.is_converged());
        trainer.train_batch(&batch).unwrap();
        assert!(trainer.is_converged());
    }

    #[test]
    fn empty_batches_and_wrong_orders_are_rejected() {
        let mut trainer = IncrementalTrainer::new(TrainerConfig::default()).unwrap();
        assert!(matches!(
            trainer.train_batch(&MiniBatch::new(3, 4)),
            Err(Error::NotEnoughData { .. })
        ));
        let mut bad = MiniBatch::new(1, 4); // order 1 vs model order 3
        bad.push(&[1.0], 2.0).unwrap();
        assert!(trainer.train_batch(&bad).is_err());
    }

    #[test]
    fn predict_before_training_errors() {
        let trainer = IncrementalTrainer::new(TrainerConfig::default()).unwrap();
        assert_eq!(
            trainer.predict(&[1.0, 2.0, 3.0]),
            Err(Error::ModelNotTrained)
        );
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let series = decaying_series(300);
        let config = TrainerConfig {
            order: 3,
            optimizer: OptimizerKind::Momentum {
                learning_rate: 0.1,
                beta: 0.9,
            },
            epochs_per_batch: 4,
            convergence: ConvergenceCriteria::default(),
        };
        let batches = batches_from_series(&series, 3, 16);
        let (warmup, tail) = batches.split_at(batches.len() / 2);

        let mut trainer = IncrementalTrainer::new(config).unwrap();
        for batch in warmup {
            trainer.train_batch(batch).unwrap();
        }
        let mut enc = crate::snapshot::Enc::default();
        trainer.snapshot_encode(&mut enc);
        let bytes = {
            let mut c = crate::snapshot::Container::new();
            c.section(enc);
            c.finish()
        };
        let sections = crate::snapshot::parse_container(&bytes).unwrap();
        let mut dec = crate::snapshot::Dec::new(sections[0]);
        let mut restored = IncrementalTrainer::snapshot_decode(config, &mut dec).unwrap();
        dec.finish().unwrap();

        for batch in tail {
            let a = trainer.train_batch(batch).unwrap();
            let b = restored.train_batch(batch).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "losses must stay bit-identical");
        }
        assert_eq!(trainer.model(), restored.model());
        assert_eq!(trainer.loss_history(), restored.loss_history());
    }

    #[test]
    fn snapshot_decode_rejects_mismatched_config() {
        let config = TrainerConfig::default();
        let mut trainer = IncrementalTrainer::new(config).unwrap();
        let mut batch = MiniBatch::new(3, 2);
        batch.push(&[1.0, 2.0, 3.0], 4.0).unwrap();
        batch.push(&[2.0, 3.0, 4.0], 5.0).unwrap();
        trainer.train_batch(&batch).unwrap();
        let mut enc = crate::snapshot::Enc::default();
        trainer.snapshot_encode(&mut enc);
        let bytes = {
            let mut c = crate::snapshot::Container::new();
            c.section(enc);
            c.finish()
        };
        let sections = crate::snapshot::parse_container(&bytes).unwrap();

        // Wrong order: the coefficient count no longer fits.
        let wrong_order = TrainerConfig { order: 4, ..config };
        let mut dec = crate::snapshot::Dec::new(sections[0]);
        assert!(matches!(
            IncrementalTrainer::snapshot_decode(wrong_order, &mut dec),
            Err(Error::SnapshotMismatch { .. })
        ));

        // Wrong optimizer family: the (empty) SGD state does not fit
        // momentum's velocity vector.
        let wrong_optimizer = TrainerConfig {
            optimizer: OptimizerKind::Momentum {
                learning_rate: 0.1,
                beta: 0.5,
            },
            ..config
        };
        let mut dec = crate::snapshot::Dec::new(sections[0]);
        assert!(matches!(
            IncrementalTrainer::snapshot_decode(wrong_optimizer, &mut dec),
            Err(Error::SnapshotMismatch { .. })
        ));
    }

    #[test]
    fn forecast_tracks_decay_shape() {
        let series = decaying_series(600);
        let batches = batches_from_series(&series, 2, 32);
        let mut trainer = IncrementalTrainer::new(TrainerConfig {
            order: 2,
            optimizer: OptimizerKind::Sgd { learning_rate: 0.2 },
            epochs_per_batch: 8,
            ..TrainerConfig::default()
        })
        .unwrap();
        for batch in &batches {
            trainer.train_batch(batch).unwrap();
        }
        let start = 100;
        let forecast = trainer
            .forecast(&[series[start - 1], series[start - 2]], 10)
            .unwrap();
        // Forecast should be decreasing, like the underlying decay.
        for w in forecast.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }
}
