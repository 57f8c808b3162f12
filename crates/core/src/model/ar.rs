//! The linear auto-regressive model.

use crate::error::{Error, Result};

/// A linear auto-regressive model of fixed order:
///
/// ```text
/// V̂ = b0 + b1·x1 + b2·x2 + ... + bn·xn
/// ```
///
/// where `x1..xn` are the lagged predictor values chosen by the
/// [`PredictorLayout`](crate::collect::PredictorLayout). The model stores
/// only its coefficients; fitting lives in
/// [`IncrementalTrainer`](crate::model::IncrementalTrainer).
///
/// ```
/// use insitu::model::ArModel;
///
/// let mut m = ArModel::new(2);
/// m.set_coefficients(1.0, &[0.5, -0.25]).unwrap();
/// assert_eq!(m.predict(&[2.0, 4.0]).unwrap(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArModel {
    intercept: f64,
    coefficients: Vec<f64>,
    trained: bool,
}

impl ArModel {
    /// Creates a zero-initialized model of the given order.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero.
    pub fn new(order: usize) -> Self {
        assert!(order > 0, "AR order must be positive");
        Self {
            intercept: 0.0,
            coefficients: vec![0.0; order],
            trained: false,
        }
    }

    /// Model order (number of lagged predictors).
    pub fn order(&self) -> usize {
        self.coefficients.len()
    }

    /// The intercept `b0`.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The lag coefficients `b1..bn`.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Whether at least one training update has been applied.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Overwrites all parameters (used by the trainer and by tests).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHyperParameter`] if the coefficient count does
    /// not match the model order.
    pub fn set_coefficients(&mut self, intercept: f64, coefficients: &[f64]) -> Result<()> {
        if coefficients.len() != self.order() {
            return Err(Error::InvalidHyperParameter {
                name: "coefficients",
                what: format!(
                    "expected {} coefficients, got {}",
                    self.order(),
                    coefficients.len()
                ),
            });
        }
        self.intercept = intercept;
        self.coefficients.copy_from_slice(coefficients);
        self.trained = true;
        Ok(())
    }

    /// Initializes the coefficients as a persistence (random-walk) model:
    /// `V̂ = x1`, i.e. "the next value equals the most recent lagged value".
    /// This is the standard neutral starting point for an online AR fit —
    /// gradient descent then only has to learn the *deviation* from
    /// persistence, which keeps the very first mini-batches from producing
    /// wild predictions. The model is still considered untrained until the
    /// first update.
    pub(crate) fn init_persistence(&mut self) {
        self.coefficients.iter_mut().for_each(|c| *c = 0.0);
        self.coefficients[0] = 1.0;
        self.intercept = 0.0;
    }

    /// Writes the flat parameter view (`[b0, b1, ..., bn]`) into `out` for
    /// the optimizer, reusing the buffer's allocation across epochs.
    pub(crate) fn write_parameters(&self, out: &mut Vec<f64>) {
        out.clear();
        out.push(self.intercept);
        out.extend_from_slice(&self.coefficients);
    }

    /// Writes back parameters produced by the optimizer and marks the model
    /// trained.
    pub(crate) fn apply_parameters(&mut self, params: &[f64]) {
        debug_assert_eq!(params.len(), self.order() + 1);
        self.intercept = params[0];
        self.coefficients.copy_from_slice(&params[1..]);
        self.trained = true;
    }

    /// Predicts the target from a predictor vector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ModelNotTrained`] before any training update and
    /// [`Error::InvalidHyperParameter`] if the predictor count is wrong.
    pub fn predict(&self, inputs: &[f64]) -> Result<f64> {
        if !self.trained {
            return Err(Error::ModelNotTrained);
        }
        self.predict_untrained(inputs)
    }

    /// Predicts without requiring the model to be marked trained; used
    /// internally for loss evaluation during the very first update.
    pub(crate) fn predict_untrained(&self, inputs: &[f64]) -> Result<f64> {
        if inputs.len() != self.order() {
            return Err(Error::InvalidHyperParameter {
                name: "inputs",
                what: format!("expected {} predictors, got {}", self.order(), inputs.len()),
            });
        }
        Ok(self.predict_unchecked(inputs))
    }

    /// The affine prediction kernel over one stride of a columnar batch:
    /// `b0 + Σ bi·xi`, no arity or trained checks, dispatched through
    /// [`crate::kernels`] (the model is serializable, so it cannot pin a
    /// vtable; after the first call the selection is one atomic load).
    /// The trainer's batched hot loops no longer come through here — they
    /// hand whole batches to the block kernels — so this serves the
    /// forecast/extraction path.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `inputs.len()` differs from the order.
    #[inline]
    pub(crate) fn predict_unchecked(&self, inputs: &[f64]) -> f64 {
        debug_assert_eq!(inputs.len(), self.order(), "stride must match order");
        crate::kernels::select().affine(self.intercept, &self.coefficients, inputs)
    }

    /// Exports `(intercept, coefficients, trained)` for the snapshot
    /// encoder; unlike [`ArModel::set_coefficients`] this view preserves the
    /// untrained flag, so a never-trained model restores as never-trained.
    pub(crate) fn snapshot_state(&self) -> (f64, &[f64], bool) {
        (self.intercept, &self.coefficients, self.trained)
    }

    /// Rebuilds a model from a previously exported snapshot state. The
    /// caller (the trainer's decoder) has already validated the coefficient
    /// count against the configured order.
    pub(crate) fn from_snapshot_state(
        intercept: f64,
        coefficients: Vec<f64>,
        trained: bool,
    ) -> Self {
        debug_assert!(!coefficients.is_empty(), "AR order must be positive");
        Self {
            intercept,
            coefficients,
            trained,
        }
    }

    /// Rolls the model forward `steps` times starting from `seed` (the most
    /// recent `order` observed values, newest first), feeding each
    /// prediction back in as the newest value. This is how the paper
    /// "forwards the targeted variable across time and space": replace
    /// `V(l, t)` by `V(l+1, t)` or `V(l, t+1)` and predict again.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`ArModel::predict`].
    pub fn forecast(&self, seed: &[f64], steps: usize) -> Result<Vec<f64>> {
        if seed.len() != self.order() {
            return Err(Error::InvalidHyperParameter {
                name: "seed",
                what: format!("expected {} seed values, got {}", self.order(), seed.len()),
            });
        }
        let mut window = seed.to_vec();
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let next = self.predict(&window)?;
            out.push(next);
            // newest first: shift right, insert prediction at the front
            window.rotate_right(1);
            window[0] = next;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_model_refuses_to_predict() {
        let m = ArModel::new(3);
        assert_eq!(m.predict(&[1.0, 2.0, 3.0]), Err(Error::ModelNotTrained));
        assert!(!m.is_trained());
    }

    #[test]
    fn prediction_is_affine_combination() {
        let mut m = ArModel::new(3);
        m.set_coefficients(0.5, &[1.0, 2.0, 3.0]).unwrap();
        let y = m.predict(&[1.0, 1.0, 1.0]).unwrap();
        assert!((y - 6.5).abs() < 1e-12);
    }

    #[test]
    fn wrong_input_arity_is_rejected() {
        let mut m = ArModel::new(2);
        m.set_coefficients(0.0, &[1.0, 1.0]).unwrap();
        assert!(m.predict(&[1.0]).is_err());
        assert!(m.set_coefficients(0.0, &[1.0]).is_err());
    }

    #[test]
    fn forecast_feeds_predictions_back() {
        // V(t) = V(t-1) exactly: forecasting a constant stays constant.
        let mut m = ArModel::new(2);
        m.set_coefficients(0.0, &[1.0, 0.0]).unwrap();
        let path = m.forecast(&[5.0, 4.0], 4).unwrap();
        assert_eq!(path, vec![5.0, 5.0, 5.0, 5.0]);

        // V(t) = 0.5 V(t-1): geometric decay.
        let mut m = ArModel::new(1);
        m.set_coefficients(0.0, &[0.5]).unwrap();
        let path = m.forecast(&[8.0], 3).unwrap();
        assert_eq!(path, vec![4.0, 2.0, 1.0]);
    }

    #[test]
    fn forecast_requires_full_seed() {
        let mut m = ArModel::new(2);
        m.set_coefficients(0.0, &[0.5, 0.5]).unwrap();
        assert!(m.forecast(&[1.0], 2).is_err());
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn zero_order_panics() {
        let _ = ArModel::new(0);
    }
}
