//! Feature extraction from fitted curves.
//!
//! The tracking primitives locate focal points on a curve; the extractors
//! turn them into the physical features the paper's two case studies need:
//!
//! * [`BreakpointExtractor`] — the break-point radius of a blast wave, i.e.
//!   the boundary of the region of interest within which material motion
//!   stays below a velocity safety threshold (LULESH, Tables II & IV);
//! * [`DelayTimeExtractor`] — the delay time of a thermonuclear detonation,
//!   read off the strongest inflection point of a diagnostic series
//!   (Castro `wdmerger`, Table VI);
//! * [`OutlierExtractor`] — the distribution of threshold-exceeding samples,
//!   the generic "distribution of outliers" feature mentioned in
//!   Section III-B.2.

mod breakpoint;
mod delay_time;
mod outlier;

pub use breakpoint::{BreakpointExtractor, BreakpointResult};
pub(crate) use delay_time::DelayTimeScan;
pub use delay_time::{DelayTimeExtractor, DelayTimeResult};
pub use outlier::{OutlierExtractor, OutlierReport};

/// Which feature an analysis extracts; carried in the
/// [`AnalysisSpec`](crate::region::AnalysisSpec).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureKind {
    /// Break-point radius at a velocity threshold expressed as a fraction
    /// of the initial (blast) velocity.
    Breakpoint {
        /// Threshold as a fraction of the initial velocity (e.g. `0.05` for
        /// the paper's 5 % row).
        threshold: f64,
    },
    /// Delay time of the strongest regime change (inflection) in the
    /// diagnostic series.
    DelayTime,
    /// Locations whose predicted value exceeds an absolute threshold.
    Outliers {
        /// Absolute threshold on the diagnostic variable.
        threshold: f64,
    },
}

impl FeatureKind {
    /// Short human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FeatureKind::Breakpoint { .. } => "breakpoint",
            FeatureKind::DelayTime => "delay-time",
            FeatureKind::Outliers { .. } => "outliers",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_names_are_stable() {
        assert_eq!(
            FeatureKind::Breakpoint { threshold: 0.1 }.name(),
            "breakpoint"
        );
        assert_eq!(FeatureKind::DelayTime.name(), "delay-time");
        assert_eq!(FeatureKind::Outliers { threshold: 1.0 }.name(), "outliers");
    }
}
