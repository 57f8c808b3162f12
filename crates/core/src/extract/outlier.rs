//! Threshold-exceeding outlier extraction.

use crate::error::{Error, Result};

/// The distribution of threshold-exceeding samples across locations.
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierReport {
    /// The absolute threshold applied.
    pub threshold: f64,
    /// Locations whose value exceeds the threshold, with their values.
    pub outliers: Vec<(usize, f64)>,
    /// Total number of locations inspected.
    pub inspected: usize,
}

impl OutlierReport {
    /// Fraction of inspected locations that are outliers.
    pub fn fraction(&self) -> f64 {
        if self.inspected == 0 {
            0.0
        } else {
            self.outliers.len() as f64 / self.inspected as f64
        }
    }
}

/// Extracts the set of locations whose (predicted) value exceeds an absolute
/// threshold — the generic "distribution of outliers" feature.
///
/// ```
/// use insitu::extract::OutlierExtractor;
///
/// let ex = OutlierExtractor::new(25.26).unwrap();
/// let profile = vec![(1, 10.0), (2, 30.0), (3, 26.0), (4, 5.0)];
/// let report = ex.extract(&profile).unwrap();
/// assert_eq!(report.outliers.len(), 2);
/// assert_eq!(report.fraction(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierExtractor {
    threshold: f64,
}

impl OutlierExtractor {
    /// Creates an extractor with the given absolute threshold.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHyperParameter`] if the threshold is not
    /// finite.
    pub fn new(threshold: f64) -> Result<Self> {
        if !threshold.is_finite() {
            return Err(Error::InvalidHyperParameter {
                name: "threshold",
                what: "must be finite".into(),
            });
        }
        Ok(Self { threshold })
    }

    /// The configured threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Extracts the outlier distribution from a `(location, value)` profile.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotEnoughData`] for an empty profile.
    pub fn extract(&self, profile: &[(usize, f64)]) -> Result<OutlierReport> {
        if profile.is_empty() {
            return Err(Error::NotEnoughData {
                available: 0,
                required: 1,
            });
        }
        let outliers = profile
            .iter()
            .copied()
            .filter(|(_, v)| *v > self.threshold)
            .collect();
        Ok(OutlierReport {
            threshold: self.threshold,
            outliers,
            inspected: profile.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_only_exceeding_locations() {
        let ex = OutlierExtractor::new(1.0).unwrap();
        let report = ex
            .extract(&[(0, 0.5), (1, 1.5), (2, 1.0), (3, 2.0)])
            .unwrap();
        assert_eq!(report.outliers, vec![(1, 1.5), (3, 2.0)]);
        assert_eq!(report.inspected, 4);
        assert_eq!(report.fraction(), 0.5);
    }

    #[test]
    fn strict_inequality_at_threshold() {
        let ex = OutlierExtractor::new(1.0).unwrap();
        let report = ex.extract(&[(0, 1.0)]).unwrap();
        assert!(report.outliers.is_empty());
        assert_eq!(report.fraction(), 0.0);
    }

    #[test]
    fn rejects_non_finite_threshold_and_empty_profile() {
        assert!(OutlierExtractor::new(f64::NAN).is_err());
        assert!(OutlierExtractor::new(f64::INFINITY).is_err());
        let ex = OutlierExtractor::new(0.0).unwrap();
        assert!(matches!(ex.extract(&[]), Err(Error::NotEnoughData { .. })));
    }
}
