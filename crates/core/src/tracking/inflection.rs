//! Inflection point detection.
//!
//! The paper locates inflection points by "detecting local maxima in the
//! derivative of the data": where the gradient of a rising curve peaks and
//! starts to drop (or the gradient of a falling curve bottoms out), the
//! underlying variable changes regime. In the WD-merger case study this
//! regime change — a sudden slowdown of the temperature/energy increase, of
//! the angular-momentum decrease, the onset of mass ejection — is the signal
//! of thermonuclear detonation, and its timestamp is the delay time.

use super::gradient::gradients;
use super::peaks::{find_local_extrema, TrackedPointKind};

/// An inflection point of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InflectionPoint {
    /// Index in the original series at which the regime change occurs.
    pub index: usize,
    /// Value of the series at that index.
    pub value: f64,
    /// Gradient just before the inflection.
    pub gradient_before: f64,
    /// Gradient just after the inflection.
    pub gradient_after: f64,
}

impl InflectionPoint {
    /// How sharply the gradient changed across the inflection; large drops
    /// indicate the "rate of increase suddenly decreases" signature used to
    /// pick the detonation-related inflection among several candidates.
    pub fn gradient_drop(&self) -> f64 {
        (self.gradient_before - self.gradient_after).abs()
    }
}

/// Finds inflection points as extrema of the gradient series.
///
/// ```
/// use insitu::tracking::find_inflections;
///
/// // A smooth S-curve: the inflection is at the middle.
/// let s: Vec<f64> = (0..100)
///     .map(|i| 1.0 / (1.0 + (-0.2 * (i as f64 - 50.0)).exp()))
///     .collect();
/// let inflections = find_inflections(&s);
/// assert!(!inflections.is_empty());
/// let best = inflections
///     .iter()
///     .max_by(|a, b| a.gradient_drop().partial_cmp(&b.gradient_drop()).unwrap())
///     .unwrap();
/// assert!((best.index as i64 - 50).abs() <= 2);
/// ```
pub fn find_inflections(values: &[f64]) -> Vec<InflectionPoint> {
    let grads = gradients(values);
    if grads.len() < 3 {
        return Vec::new();
    }
    find_local_extrema(&grads)
        .into_iter()
        .filter_map(|p| {
            // The extremum of the gradient at grads[p.index] separates the
            // regimes; the corresponding series index is p.index + 1 (the
            // sample where the new regime starts).
            let idx = p.index;
            let before = grads[idx];
            let after = if idx + 1 < grads.len() {
                grads[idx + 1]
            } else {
                return None;
            };
            Some(InflectionPoint {
                index: idx + 1,
                value: values[idx + 1],
                gradient_before: before,
                gradient_after: after,
            })
        })
        .collect()
}

/// The single most pronounced inflection point (largest gradient drop), if
/// any. Convenience for the delay-time extractor.
pub fn strongest_inflection(values: &[f64]) -> Option<InflectionPoint> {
    find_inflections(values).into_iter().max_by(|a, b| {
        a.gradient_drop()
            .partial_cmp(&b.gradient_drop())
            .unwrap_or(std::cmp::Ordering::Equal)
    })
}

/// Keeps only inflections of a given gradient-extremum direction: `true`
/// selects slowdowns of an increase (gradient maximum), `false` slowdowns of
/// a decrease (gradient minimum). Exposed for completeness of the tracking
/// toolbox; the extractors pick by gradient drop instead.
pub fn inflections_of_kind(values: &[f64], rising: bool) -> Vec<InflectionPoint> {
    let grads = gradients(values);
    if grads.len() < 3 {
        return Vec::new();
    }
    find_local_extrema(&grads)
        .into_iter()
        .filter(|p| (p.kind == TrackedPointKind::LocalMaximum) == rising)
        .filter_map(|p| {
            let idx = p.index;
            let after = *grads.get(idx + 1)?;
            Some(InflectionPoint {
                index: idx + 1,
                value: values[idx + 1],
                gradient_before: grads[idx],
                gradient_after: after,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logistic(n: usize, mid: f64, rate: f64) -> Vec<f64> {
        (0..n)
            .map(|i| 1.0 / (1.0 + (-rate * (i as f64 - mid)).exp()))
            .collect()
    }

    #[test]
    fn logistic_inflection_is_at_midpoint() {
        let s = logistic(120, 60.0, 0.15);
        let best = strongest_inflection(&s).unwrap();
        assert!((best.index as i64 - 60).abs() <= 2, "index {}", best.index);
    }

    #[test]
    fn linear_series_has_no_inflection() {
        let s: Vec<f64> = (0..50).map(|i| 2.0 * i as f64).collect();
        assert!(find_inflections(&s).is_empty());
        assert!(strongest_inflection(&s).is_none());
    }

    #[test]
    fn piecewise_slope_change_is_detected() {
        // Steep rise then plateau-like slow rise: inflection at the joint.
        let mut s = Vec::new();
        for i in 0..30 {
            s.push(i as f64 * 2.0);
        }
        // smooth the corner slightly so gradients change sign cleanly
        for i in 0..30 {
            s.push(58.0 + 2.0 / (1.0 + i as f64) + i as f64 * 0.05);
        }
        let inflections = find_inflections(&s);
        assert!(!inflections.is_empty());
        let best = strongest_inflection(&s).unwrap();
        assert!((best.index as i64 - 30).abs() <= 3, "index {}", best.index);
    }

    #[test]
    fn rising_and_falling_kinds_are_separable() {
        let s = logistic(120, 60.0, 0.15);
        let rising = inflections_of_kind(&s, true);
        assert!(!rising.is_empty());
        // A decaying curve's slowdown is a gradient minimum.
        let decay: Vec<f64> = (0..100).map(|i| (-0.1 * i as f64).exp()).collect();
        let falling = inflections_of_kind(&decay, false);
        let rising_on_decay = inflections_of_kind(&decay, true);
        assert!(falling.len() + rising_on_decay.len() <= 2);
    }

    #[test]
    fn short_series_are_safe() {
        assert!(find_inflections(&[1.0, 2.0]).is_empty());
        assert!(find_inflections(&[]).is_empty());
    }
}
