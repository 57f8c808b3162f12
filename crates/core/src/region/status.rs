//! Region status and its broadcast to other ranks.

use crate::extract::{BreakpointResult, DelayTimeResult, OutlierReport};

/// The value of an extracted feature, tagged by kind.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureValue {
    /// A break-point radius.
    Breakpoint(BreakpointResult),
    /// A detonation delay time.
    DelayTime(DelayTimeResult),
    /// An outlier distribution.
    Outliers(OutlierReport),
}

impl FeatureValue {
    /// The scalar summary of the feature (radius, delay time, outlier
    /// count), convenient for logging and broadcasting.
    pub fn scalar(&self) -> f64 {
        match self {
            FeatureValue::Breakpoint(b) => b.radius as f64,
            FeatureValue::DelayTime(d) => d.delay_time,
            FeatureValue::Outliers(o) => o.outliers.len() as f64,
        }
    }
}

/// The state of a region after an iteration, mirroring the values the
/// paper's `td_region_end` broadcasts: the current predicted value, the
/// location (rank) of the wave front, and the flag indicating what happens
/// once the analysis concludes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegionStatus {
    /// Iteration this status describes.
    pub iteration: u64,
    /// Total samples collected across all analyses.
    pub samples_collected: usize,
    /// Total mini-batches consumed by the trainers.
    pub batches_trained: usize,
    /// Most recent training loss (z-score MSE), `None` before training.
    pub last_loss: Option<f64>,
    /// Whether every analysis' model satisfies its convergence criteria.
    pub converged: bool,
    /// Latest model prediction of the diagnostic variable (for the first
    /// analysis), if available.
    pub predicted_value: Option<f64>,
    /// Location id of the current wave front / focal point, if tracked.
    pub front_location: Option<usize>,
    /// Features extracted so far, one entry per analysis that has produced
    /// its feature.
    pub features: Vec<(String, FeatureValue)>,
    /// Whether the region requests early termination of the simulation.
    pub should_terminate: bool,
}

impl RegionStatus {
    /// The feature extracted by the analysis with the given name, if any.
    /// Names are unique within a region
    /// ([`Engine::add_analysis`](crate::engine::Engine::add_analysis) rejects
    /// duplicates), so at most one feature matches.
    pub fn feature(&self, name: &str) -> Option<&FeatureValue> {
        self.features
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

/// Publishes a region's status to the other ranks of a parallel run.
///
/// The core library is runtime-agnostic: the default [`NullBroadcaster`]
/// does nothing (single-rank runs), and the proxy applications install a
/// broadcaster backed by the `parsim` world so the broadcast's cost shows up
/// in the overhead measurements exactly as the MPI broadcast does in the
/// paper.
pub trait StatusBroadcaster: Send {
    /// Publishes the status; called once per completed step from
    /// [`StepScope::complete`](crate::engine::StepScope::complete) (never for
    /// a skipped or dropped scope), and again whenever
    /// [`Engine::poll`](crate::engine::Engine::poll) or
    /// [`Engine::drain`](crate::engine::Engine::drain) refreshes the status.
    fn broadcast(&mut self, status: &RegionStatus);
}

/// A broadcaster that does nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullBroadcaster;

impl StatusBroadcaster for NullBroadcaster {
    fn broadcast(&mut self, _status: &RegionStatus) {}
}

impl<F> StatusBroadcaster for F
where
    F: FnMut(&RegionStatus) + Send,
{
    fn broadcast(&mut self, status: &RegionStatus) {
        self(status);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_summaries() {
        let b = FeatureValue::Breakpoint(BreakpointResult {
            threshold_value: 0.5,
            radius: 22,
            bounded: true,
        });
        assert_eq!(b.scalar(), 22.0);
        let d = FeatureValue::DelayTime(DelayTimeResult {
            delay_time: 30.8,
            index: 31,
            value: 1.0,
            gradient_drop: 0.2,
        });
        assert!((d.scalar() - 30.8).abs() < 1e-12);
    }

    #[test]
    fn feature_lookup_by_name() {
        let mut status = RegionStatus::default();
        status.features.push((
            "mass".to_string(),
            FeatureValue::DelayTime(DelayTimeResult {
                delay_time: 31.2,
                index: 31,
                value: 3.0,
                gradient_drop: 0.1,
            }),
        ));
        assert!(status.feature("mass").is_some());
        assert!(status.feature("energy").is_none());
    }

    #[test]
    fn closures_are_broadcasters() {
        let mut seen = 0;
        {
            let mut b = |_s: &RegionStatus| seen += 1;
            b.broadcast(&RegionStatus::default());
            b.broadcast(&RegionStatus::default());
        }
        assert_eq!(seen, 2);
    }
}
