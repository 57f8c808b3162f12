//! Time series container used by simulation diagnostics and the analysis
//! comparisons in the experiment harness.
//!
//! A [`TimeSeries`] pairs sample values with the simulation time (or
//! iteration number) at which they were recorded, and offers the handful of
//! operations the paper's evaluation needs: gradients, resampling onto a
//! common grid, normalization, and truncation to a training fraction.

use crate::stats;

/// A sequence of `(time, value)` samples in non-decreasing time order.
///
/// ```
/// use simkit::series::TimeSeries;
///
/// let mut s = TimeSeries::new("temperature");
/// for t in 0..5 {
///     s.push(t as f64, (t * t) as f64);
/// }
/// assert_eq!(s.len(), 5);
/// assert_eq!(s.value_at(2.0), Some(4.0));
/// let grad = s.gradients();
/// assert_eq!(grad.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    name: String,
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates a series from parallel time/value vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    pub fn from_parts(name: impl Into<String>, times: Vec<f64>, values: Vec<f64>) -> Self {
        assert_eq!(
            times.len(),
            values.len(),
            "times and values must have equal lengths"
        );
        Self {
            name: name.into(),
            times,
            values,
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends a sample. Times are expected to be non-decreasing; this is
    /// not enforced so callers can replay recorded data verbatim.
    pub fn push(&mut self, time: f64, value: f64) {
        self.times.push(time);
        self.values.push(value);
    }

    /// Sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The last recorded value, if any.
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// The value recorded exactly at `time`, if such a sample exists.
    pub fn value_at(&self, time: f64) -> Option<f64> {
        self.times
            .iter()
            .position(|&t| (t - time).abs() < 1e-12)
            .map(|i| self.values[i])
    }

    /// Linear interpolation of the series at an arbitrary time inside the
    /// recorded range. Returns `None` outside the range or for an empty
    /// series.
    pub fn interpolate(&self, time: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let first = *self.times.first().expect("non-empty");
        let last = *self.times.last().expect("non-empty");
        if time < first || time > last {
            return None;
        }
        // Find the bracketing interval.
        let mut hi = self.times.partition_point(|&t| t < time);
        if hi == 0 {
            return Some(self.values[0]);
        }
        if hi >= self.len() {
            hi = self.len() - 1;
        }
        let lo = hi - 1;
        let (t0, t1) = (self.times[lo], self.times[hi]);
        let (v0, v1) = (self.values[lo], self.values[hi]);
        if (t1 - t0).abs() < 1e-30 {
            return Some(v1);
        }
        Some(v0 + (v1 - v0) * (time - t0) / (t1 - t0))
    }

    /// First-order finite-difference gradients between consecutive samples
    /// (the `k1, k2, k3, ...` of the paper's variable-tracking algorithm).
    /// Returns `len - 1` values, or an empty vector for short series.
    pub fn gradients(&self) -> Vec<f64> {
        if self.len() < 2 {
            return Vec::new();
        }
        self.values
            .windows(2)
            .zip(self.times.windows(2))
            .map(|(v, t)| {
                let dt = t[1] - t[0];
                if dt.abs() < 1e-30 {
                    0.0
                } else {
                    (v[1] - v[0]) / dt
                }
            })
            .collect()
    }

    /// A copy containing only the first `fraction` (0..=1) of the samples.
    /// This is how "training data from N % of total iterations" is carved
    /// out in the paper's accuracy studies.
    pub fn truncate_fraction(&self, fraction: f64) -> TimeSeries {
        let frac = fraction.clamp(0.0, 1.0);
        let keep = ((self.len() as f64) * frac).round() as usize;
        TimeSeries {
            name: self.name.clone(),
            times: self.times[..keep.min(self.len())].to_vec(),
            values: self.values[..keep.min(self.len())].to_vec(),
        }
    }

    /// A copy with values min-max normalized into `[0, 1]`.
    pub fn normalized(&self) -> TimeSeries {
        TimeSeries {
            name: self.name.clone(),
            times: self.times.clone(),
            values: stats::min_max_normalize(&self.values),
        }
    }

    /// A copy with values standardized to zero mean and unit variance.
    pub fn standardized(&self) -> TimeSeries {
        TimeSeries {
            name: self.name.clone(),
            times: self.times.clone(),
            values: stats::z_score_normalize(&self.values),
        }
    }

    /// Resamples the series onto `n` evenly spaced times across its range
    /// using linear interpolation. Returns an empty series if the input has
    /// fewer than two samples.
    pub fn resample(&self, n: usize) -> TimeSeries {
        if self.len() < 2 || n == 0 {
            return TimeSeries::new(self.name.clone());
        }
        let first = self.times[0];
        let last = self.times[self.len() - 1];
        let grid = stats::linspace(first, last, n);
        let values = grid
            .iter()
            .map(|&t| self.interpolate(t).unwrap_or(0.0))
            .collect();
        TimeSeries {
            name: self.name.clone(),
            times: grid,
            values,
        }
    }

    /// Index of the maximum value, if any.
    pub fn argmax(&self) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let mut best = 0;
        for i in 1..self.len() {
            if self.values[i] > self.values[best] {
                best = i;
            }
        }
        Some(best)
    }
}

impl Extend<(f64, f64)> for TimeSeries {
    fn extend<T: IntoIterator<Item = (f64, f64)>>(&mut self, iter: T) {
        for (t, v) in iter {
            self.push(t, v);
        }
    }
}

impl FromIterator<(f64, f64)> for TimeSeries {
    fn from_iter<T: IntoIterator<Item = (f64, f64)>>(iter: T) -> Self {
        let mut s = TimeSeries::new("");
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> TimeSeries {
        (0..n).map(|i| (i as f64, 2.0 * i as f64)).collect()
    }

    #[test]
    fn push_and_query() {
        let s = ramp(10);
        assert_eq!(s.len(), 10);
        assert_eq!(s.value_at(3.0), Some(6.0));
        assert_eq!(s.value_at(3.5), None);
        assert_eq!(s.last(), Some(18.0));
    }

    #[test]
    fn interpolation_inside_and_outside_range() {
        let s = ramp(5);
        assert_eq!(s.interpolate(2.5), Some(5.0));
        assert_eq!(s.interpolate(0.0), Some(0.0));
        assert_eq!(s.interpolate(4.0), Some(8.0));
        assert_eq!(s.interpolate(-1.0), None);
        assert_eq!(s.interpolate(4.1), None);
    }

    #[test]
    fn gradients_of_linear_series_are_constant() {
        let s = ramp(6);
        let g = s.gradients();
        assert_eq!(g.len(), 5);
        assert!(g.iter().all(|&v| (v - 2.0).abs() < 1e-12));
    }

    #[test]
    fn truncate_fraction_keeps_prefix() {
        let s = ramp(10);
        let t = s.truncate_fraction(0.4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.values(), &[0.0, 2.0, 4.0, 6.0]);
        assert_eq!(s.truncate_fraction(0.0).len(), 0);
        assert_eq!(s.truncate_fraction(1.5).len(), 10);
    }

    #[test]
    fn resample_preserves_endpoints() {
        let s = ramp(10);
        let r = s.resample(5);
        assert_eq!(r.len(), 5);
        assert_eq!(r.values()[0], 0.0);
        assert!((r.values()[4] - 18.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_series_is_in_unit_interval() {
        let s = ramp(7).normalized();
        assert!(s.values().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(s.values()[0], 0.0);
        assert_eq!(s.values()[6], 1.0);
    }

    #[test]
    fn argmax_finds_peak() {
        let mut s = TimeSeries::new("v");
        for (i, v) in [1.0, 5.0, 3.0, 4.0].iter().enumerate() {
            s.push(i as f64, *v);
        }
        assert_eq!(s.argmax(), Some(1));
        assert_eq!(TimeSeries::new("e").argmax(), None);
    }

    #[test]
    fn empty_series_operations_are_safe() {
        let s = TimeSeries::new("x");
        assert!(s.is_empty());
        assert!(s.gradients().is_empty());
        assert!(s.resample(4).is_empty());
        assert_eq!(s.interpolate(0.0), None);
    }
}
