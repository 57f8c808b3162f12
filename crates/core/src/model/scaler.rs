//! Online standardization of inputs and targets.
//!
//! Gradient descent on raw physical values is fragile: velocities in a blast
//! simulation span orders of magnitude and astrophysical energies are ~1e50
//! erg. The scaler keeps running mean/variance estimates (Welford's
//! algorithm) and maps values into z-score space for training, then maps
//! predictions back. It is updated incrementally alongside the mini-batch
//! stream, so it never needs a full-dataset pass — consistent with the
//! paper's "no pre-training" constraint.

/// Running mean/variance with z-score transform and inverse.
///
/// ```
/// use insitu::model::OnlineScaler;
///
/// let mut s = OnlineScaler::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.update(v);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// let z = s.transform(9.0);
/// assert!((s.inverse(z) - 9.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OnlineScaler {
    count: u64,
    mean: f64,
    m2: f64,
}

impl OnlineScaler {
    /// Creates an empty scaler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of values observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 before any observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Running population standard deviation (1 before enough observations,
    /// so the transform degenerates to a mean shift rather than dividing by
    /// zero).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            return 1.0;
        }
        let var = self.m2 / self.count as f64;
        if var <= 1e-30 {
            1.0
        } else {
            var.sqrt()
        }
    }

    /// Incorporates one observation.
    pub fn update(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
    }

    /// Incorporates every value in the slice.
    pub fn update_all(&mut self, values: &[f64]) {
        for &v in values {
            self.update(v);
        }
    }

    /// Maps a raw value into z-score space.
    pub fn transform(&self, value: f64) -> f64 {
        (value - self.mean) / self.std_dev()
    }

    /// Maps every value in the slice into z-score space in place — the
    /// allocation-free bulk transform the trainer's columnar kernel uses on
    /// a whole mini-batch of predictors at once. Purely elementwise
    /// division, bit-identical to [`OnlineScaler::transform`].
    pub fn transform_in_place(&self, values: &mut [f64]) {
        self.transform_in_place_with(crate::kernels::select(), values);
    }

    /// [`OnlineScaler::transform_in_place`] on an explicit kernel set (the
    /// trainer passes its per-instance vtable so the whole batch path uses
    /// one dispatch decision). Every kernel set runs the same scalar
    /// divide, so the result does not depend on the dispatch.
    pub fn transform_in_place_with(&self, kernels: &crate::kernels::Kernels, values: &mut [f64]) {
        kernels.transform(values, self.mean, self.std_dev());
    }

    /// Maps a z-score back into raw space.
    pub fn inverse(&self, z: f64) -> f64 {
        z * self.std_dev() + self.mean
    }

    /// Exports the raw Welford accumulator `(count, mean, m2)` for the
    /// snapshot encoder. The triple is the scaler's entire state, so a
    /// restored scaler transforms bit-identically.
    pub(crate) fn snapshot_state(&self) -> (u64, f64, f64) {
        (self.count, self.mean, self.m2)
    }

    /// Rebuilds a scaler from a previously exported Welford accumulator.
    pub(crate) fn from_snapshot_state(count: u64, mean: f64, m2: f64) -> Self {
        Self { count, mean, m2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_batch_statistics() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineScaler::new();
        s.update_all(&values);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn transform_and_inverse_round_trip() {
        let mut s = OnlineScaler::new();
        s.update_all(&[10.0, 20.0, 30.0, 40.0]);
        for v in [-5.0, 0.0, 12.5, 100.0] {
            assert!((s.inverse(s.transform(v)) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn bulk_transform_matches_scalar_transform_bitwise() {
        let mut s = OnlineScaler::new();
        s.update_all(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        let raw = [-3.0, 0.0, 4.9, 5.0, 123.456];
        let mut bulk = raw;
        s.transform_in_place(&mut bulk);
        for (r, b) in raw.iter().zip(&bulk) {
            assert_eq!(s.transform(*r).to_bits(), b.to_bits());
        }
    }

    #[test]
    fn degenerate_scaler_does_not_divide_by_zero() {
        let s = OnlineScaler::new();
        assert_eq!(s.std_dev(), 1.0);
        assert_eq!(s.transform(3.0), 3.0);
        let mut s = OnlineScaler::new();
        s.update_all(&[7.0, 7.0, 7.0]);
        assert_eq!(s.std_dev(), 1.0);
        assert_eq!(s.transform(7.0), 0.0);
    }
}
