//! Break-point radius extraction (material deformation case study).

use crate::error::{Error, Result};
use crate::tracking::radius_search;

/// Result of a break-point extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakpointResult {
    /// The velocity threshold in absolute units that was applied.
    pub threshold_value: f64,
    /// The break-point radius: the smallest location id at which the peak
    /// diagnostic value stays below the threshold (material outside this
    /// radius is in the "safe zone").
    pub radius: usize,
    /// Whether the radius was found inside the searched range (`false`
    /// means every searched location still exceeded the threshold and the
    /// reported radius is the range end).
    pub bounded: bool,
}

/// Extracts the break-point radius of a blast wave from a per-location peak
/// profile: the first radius at which the peak velocity drops below a
/// threshold defined as a fraction of the initial (blast) velocity.
///
/// ```
/// use insitu::extract::BreakpointExtractor;
///
/// // Peak velocity decaying with radius, blast velocity 10.
/// let peaks: Vec<(usize, f64)> = (1..=30).map(|r| (r, 10.0 / (r as f64))).collect();
/// let ex = BreakpointExtractor::new(0.05, 10.0).unwrap();
/// let result = ex.extract_from_profile(&peaks).unwrap();
/// // 10/r < 0.5  =>  r > 20  =>  first radius 21.
/// assert_eq!(result.radius, 21);
/// assert!(result.bounded);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakpointExtractor {
    threshold_fraction: f64,
    initial_value: f64,
    search_radius: usize,
}

impl BreakpointExtractor {
    /// Creates an extractor for a threshold expressed as a fraction of the
    /// initial velocity `initial_value`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHyperParameter`] if the fraction is not in
    /// `(0, 1]` or the initial value is not positive.
    pub fn new(threshold_fraction: f64, initial_value: f64) -> Result<Self> {
        if !(threshold_fraction > 0.0 && threshold_fraction <= 1.0) {
            return Err(Error::InvalidHyperParameter {
                name: "threshold_fraction",
                what: "must lie in (0, 1]".into(),
            });
        }
        if initial_value <= 0.0 {
            return Err(Error::InvalidHyperParameter {
                name: "initial_value",
                what: "must be positive".into(),
            });
        }
        Ok(Self {
            threshold_fraction,
            initial_value,
            search_radius: 3,
        })
    }

    /// Sets the coarse search stride used by the radius-refined search
    /// (default 3 locations).
    pub fn with_search_radius(mut self, radius: usize) -> Self {
        self.search_radius = radius.max(1);
        self
    }

    /// The absolute threshold value (`fraction * initial`).
    pub fn threshold_value(&self) -> f64 {
        self.threshold_fraction * self.initial_value
    }

    /// The configured threshold fraction.
    pub fn threshold_fraction(&self) -> f64 {
        self.threshold_fraction
    }

    /// Extracts the break-point radius from a `(location, peak value)`
    /// profile sorted by location.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotEnoughData`] for an empty profile.
    pub fn extract_from_profile(&self, peaks: &[(usize, f64)]) -> Result<BreakpointResult> {
        if peaks.is_empty() {
            return Err(Error::NotEnoughData {
                available: 0,
                required: 1,
            });
        }
        let threshold = self.threshold_value();
        let first_loc = peaks[0].0;
        let last_loc = peaks[peaks.len() - 1].0;
        let lookup = |loc: usize| -> f64 {
            peaks
                .binary_search_by_key(&loc, |(l, _)| *l)
                .map(|idx| peaks[idx].1)
                // Locations not present in the profile are treated as already
                // quiescent, which biases the search toward the observed data.
                .unwrap_or(0.0)
        };
        match radius_search(first_loc, last_loc, self.search_radius, lookup, |v| {
            v < threshold
        }) {
            Some(radius) => Ok(BreakpointResult {
                threshold_value: threshold,
                radius,
                bounded: true,
            }),
            None => Ok(BreakpointResult {
                threshold_value: threshold,
                radius: last_loc,
                bounded: false,
            }),
        }
    }

    /// Extracts the break-point radius using a prediction oracle (the
    /// trained model's forecast of the peak value at a location), searching
    /// locations `start..=end`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FeatureNotFound`] if no location in the range
    /// satisfies the threshold.
    pub fn extract_with_oracle<F>(
        &self,
        start: usize,
        end: usize,
        oracle: F,
    ) -> Result<BreakpointResult>
    where
        F: Fn(usize) -> f64,
    {
        let threshold = self.threshold_value();
        radius_search(start, end, self.search_radius, oracle, |v| v < threshold)
            .map(|radius| BreakpointResult {
                threshold_value: threshold,
                radius,
                bounded: true,
            })
            .ok_or_else(|| Error::FeatureNotFound {
                what: format!("no location in {start}..={end} below threshold {threshold:.3e}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decaying_profile(n: usize, initial: f64) -> Vec<(usize, f64)> {
        (1..=n)
            .map(|r| (r, initial / (r as f64).powf(1.2)))
            .collect()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(BreakpointExtractor::new(0.0, 1.0).is_err());
        assert!(BreakpointExtractor::new(1.5, 1.0).is_err());
        assert!(BreakpointExtractor::new(0.5, 0.0).is_err());
    }

    #[test]
    fn lower_thresholds_give_larger_radii() {
        let profile = decaying_profile(30, 8.0);
        let mut last_radius = 0;
        for fraction in [0.20, 0.10, 0.05, 0.02, 0.01] {
            let ex = BreakpointExtractor::new(fraction, 8.0).unwrap();
            let r = ex.extract_from_profile(&profile).unwrap();
            assert!(
                r.radius >= last_radius,
                "radius should grow as the threshold shrinks"
            );
            last_radius = r.radius;
        }
    }

    #[test]
    fn unbounded_when_threshold_never_reached() {
        let profile = decaying_profile(10, 8.0);
        let ex = BreakpointExtractor::new(0.0001, 8.0).unwrap();
        let r = ex.extract_from_profile(&profile).unwrap();
        assert!(!r.bounded);
        assert_eq!(r.radius, 10);
    }

    #[test]
    fn oracle_variant_matches_profile_variant() {
        let profile = decaying_profile(40, 5.0);
        let ex = BreakpointExtractor::new(0.05, 5.0).unwrap();
        let from_profile = ex.extract_from_profile(&profile).unwrap();
        let from_oracle = ex
            .extract_with_oracle(1, 40, |loc| 5.0 / (loc as f64).powf(1.2))
            .unwrap();
        assert_eq!(from_profile.radius, from_oracle.radius);
    }

    #[test]
    fn oracle_variant_errors_when_nothing_matches() {
        let ex = BreakpointExtractor::new(0.01, 1.0).unwrap();
        let err = ex.extract_with_oracle(1, 5, |_| 1.0).unwrap_err();
        assert!(matches!(err, Error::FeatureNotFound { .. }));
    }

    #[test]
    fn empty_profile_is_rejected() {
        let ex = BreakpointExtractor::new(0.1, 1.0).unwrap();
        assert!(matches!(
            ex.extract_from_profile(&[]),
            Err(Error::NotEnoughData { .. })
        ));
    }

    #[test]
    fn threshold_value_is_fraction_of_initial() {
        let ex = BreakpointExtractor::new(0.2, 50.0).unwrap();
        assert_eq!(ex.threshold_value(), 10.0);
        assert_eq!(ex.threshold_fraction(), 0.2);
    }
}
