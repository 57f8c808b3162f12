//! Local extrema detection from consecutive gradients.

use super::gradient::gradients;

/// The kind of focal point that was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackedPointKind {
    /// A local maximum (positive `k2`, negative `k3`).
    LocalMaximum,
    /// A local minimum (negative `k2`, positive `k3`).
    LocalMinimum,
}

/// A focal point located by the tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackedPoint {
    /// Index of the point within the series that was scanned (for the
    /// streaming detector, the index of the value in arrival order).
    pub index: usize,
    /// Value at the focal point.
    pub value: f64,
    /// Which kind of extremum was detected.
    pub kind: TrackedPointKind,
}

/// Finds every local extremum of a series using the paper's back-to-back
/// gradient rule. Plateaus (zero gradients) are skipped.
///
/// ```
/// use insitu::tracking::{find_local_extrema, TrackedPointKind};
///
/// let wave: Vec<f64> = (0..40).map(|i| (i as f64 * 0.5).sin()).collect();
/// let extrema = find_local_extrema(&wave);
/// assert!(extrema.iter().any(|p| p.kind == TrackedPointKind::LocalMaximum));
/// assert!(extrema.iter().any(|p| p.kind == TrackedPointKind::LocalMinimum));
/// ```
pub fn find_local_extrema(values: &[f64]) -> Vec<TrackedPoint> {
    let grads = gradients(values);
    let mut out = Vec::new();
    for i in 1..grads.len() {
        let k2 = grads[i - 1];
        let k3 = grads[i];
        if k2 > 0.0 && k3 < 0.0 {
            out.push(TrackedPoint {
                index: i,
                value: values[i],
                kind: TrackedPointKind::LocalMaximum,
            });
        } else if k2 < 0.0 && k3 > 0.0 {
            out.push(TrackedPoint {
                index: i,
                value: values[i],
                kind: TrackedPointKind::LocalMinimum,
            });
        }
    }
    out
}

/// Streaming detector that reproduces Figure 1 of the paper: it keeps the
/// last four observed values, computes the gradients `k1, k2, k3` and
/// reports a focal point as soon as the sign pattern appears — i.e. within
/// one simulation iteration of the peak actually occurring.
///
/// ```
/// use insitu::tracking::{PeakDetector, TrackedPointKind};
///
/// let mut det = PeakDetector::new();
/// let mut found = None;
/// for (i, v) in [1.0, 2.0, 3.5, 3.0, 2.0].iter().enumerate() {
///     if let Some(p) = det.push(*v) {
///         found = Some((i, p));
///     }
/// }
/// let (at, peak) = found.unwrap();
/// assert_eq!(peak.kind, TrackedPointKind::LocalMaximum);
/// assert_eq!(peak.value, 3.5);
/// assert_eq!(at, 3); // detected one sample after the peak
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PeakDetector {
    window: Vec<f64>,
    pushed: usize,
}

impl PeakDetector {
    /// Creates a detector with an empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of values observed so far.
    pub fn observed(&self) -> usize {
        self.pushed
    }

    /// Feeds the next value; returns a focal point if the latest gradients
    /// reveal one.
    pub fn push(&mut self, value: f64) -> Option<TrackedPoint> {
        self.pushed += 1;
        self.window.push(value);
        if self.window.len() > 4 {
            self.window.remove(0);
        }
        if self.window.len() < 3 {
            return None;
        }
        let n = self.window.len();
        let k2 = self.window[n - 2] - self.window[n - 3];
        let k3 = self.window[n - 1] - self.window[n - 2];
        let peak_index = self.pushed - 2; // the value that generated k3's start
        if k2 > 0.0 && k3 < 0.0 {
            Some(TrackedPoint {
                index: peak_index,
                value: self.window[n - 2],
                kind: TrackedPointKind::LocalMaximum,
            })
        } else if k2 < 0.0 && k3 > 0.0 {
            Some(TrackedPoint {
                index: peak_index,
                value: self.window[n - 2],
                kind: TrackedPointKind::LocalMinimum,
            })
        } else {
            None
        }
    }

    /// Clears the window so the detector can be reused on a new curve.
    pub fn reset(&mut self) {
        self.window.clear();
        self.pushed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_detector_finds_single_peak() {
        let v = [0.0, 1.0, 4.0, 9.0, 7.0, 3.0, 1.0];
        let extrema = find_local_extrema(&v);
        assert_eq!(extrema.len(), 1);
        assert_eq!(extrema[0].kind, TrackedPointKind::LocalMaximum);
        assert_eq!(extrema[0].value, 9.0);
        assert_eq!(extrema[0].index, 3);
    }

    #[test]
    fn batch_detector_finds_valley() {
        let v = [5.0, 3.0, 1.0, 2.0, 4.0];
        let extrema = find_local_extrema(&v);
        assert_eq!(extrema.len(), 1);
        assert_eq!(extrema[0].kind, TrackedPointKind::LocalMinimum);
        assert_eq!(extrema[0].value, 1.0);
    }

    #[test]
    fn monotone_series_has_no_extrema() {
        let up: Vec<f64> = (0..20).map(|i| i as f64).collect();
        assert!(find_local_extrema(&up).is_empty());
        let down: Vec<f64> = (0..20).map(|i| -(i as f64)).collect();
        assert!(find_local_extrema(&down).is_empty());
    }

    #[test]
    fn streaming_matches_batch_on_sine_wave() {
        let wave: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        let batch = find_local_extrema(&wave);
        let mut det = PeakDetector::new();
        let mut streamed = Vec::new();
        for &v in &wave {
            if let Some(p) = det.push(v) {
                streamed.push(p);
            }
        }
        assert_eq!(batch.len(), streamed.len());
        for (b, s) in batch.iter().zip(&streamed) {
            assert_eq!(b.kind, s.kind);
            assert!((b.value - s.value).abs() < 1e-12);
        }
    }

    #[test]
    fn streaming_detector_reset_forgets_history() {
        let mut det = PeakDetector::new();
        for v in [1.0, 3.0, 2.0] {
            det.push(v);
        }
        det.reset();
        assert_eq!(det.observed(), 0);
        assert_eq!(det.push(10.0), None);
    }
}
