//! Accuracy, overhead and acceleration reports.
//!
//! These are the record types the experiment harness (the `bench` crate's
//! table and figure binaries) fills in and prints; they encode the exact
//! definitions the paper uses in its tables (overhead as a percentage of
//! the original runtime, acceleration as the saving from early
//! termination, accuracy as `100 % − error rate`).

/// Curve-fitting accuracy of one analysis against ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyReport {
    /// Which analysis / diagnostic variable this report describes.
    pub name: String,
    /// The paper's error rate in percent.
    pub error_rate_percent: f64,
    /// Number of points compared.
    pub points: usize,
}

impl AccuracyReport {
    /// Accuracy as defined by the paper: `100 − error rate`, clamped to
    /// `[0, 100]`.
    pub fn accuracy_percent(&self) -> f64 {
        (100.0 - self.error_rate_percent).clamp(0.0, 100.0)
    }
}

/// Execution-time overhead of running the simulation with in-situ analysis
/// enabled (the paper's Tables III and VII "origin" vs "non-stop" columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Execution time of the plain simulation, in seconds.
    pub baseline_seconds: f64,
    /// Execution time with feature extraction enabled (no early stop).
    pub instrumented_seconds: f64,
}

impl OverheadReport {
    /// Absolute overhead in seconds (never negative: timing jitter that
    /// makes the instrumented run appear faster is reported as zero).
    pub fn overhead_seconds(&self) -> f64 {
        (self.instrumented_seconds - self.baseline_seconds).max(0.0)
    }

    /// Overhead as a percentage of the baseline runtime.
    pub fn overhead_percent(&self) -> f64 {
        if self.baseline_seconds <= 0.0 {
            0.0
        } else {
            self.overhead_seconds() / self.baseline_seconds * 100.0
        }
    }
}

/// Saving obtained by terminating the simulation early once the model has
/// converged (the paper's Tables IV and VII "stop" columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyTerminationReport {
    /// Iterations of the full simulation.
    pub full_iterations: u64,
    /// Iterations executed before early termination.
    pub stopped_iterations: u64,
    /// Execution time of the full simulation, in seconds.
    pub full_seconds: f64,
    /// Execution time of the early-terminated simulation, in seconds.
    pub stopped_seconds: f64,
}

impl EarlyTerminationReport {
    /// Fraction of iterations that were executed, in percent.
    pub fn iteration_fraction_percent(&self) -> f64 {
        if self.full_iterations == 0 {
            0.0
        } else {
            self.stopped_iterations as f64 / self.full_iterations as f64 * 100.0
        }
    }

    /// Fraction of the full execution time that was spent, in percent.
    pub fn time_fraction_percent(&self) -> f64 {
        if self.full_seconds <= 0.0 {
            0.0
        } else {
            self.stopped_seconds / self.full_seconds * 100.0
        }
    }

    /// The paper's acceleration metric: percentage of the full runtime that
    /// early termination saves.
    pub fn acceleration_percent(&self) -> f64 {
        if self.full_seconds <= 0.0 {
            0.0
        } else {
            ((self.full_seconds - self.stopped_seconds) / self.full_seconds * 100.0).max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_is_complement_of_error_rate() {
        let r = AccuracyReport {
            name: "temperature".into(),
            error_rate_percent: 2.7,
            points: 100,
        };
        assert!((r.accuracy_percent() - 97.3).abs() < 1e-12);
        let bad = AccuracyReport {
            name: "x".into(),
            error_rate_percent: 267.0,
            points: 10,
        };
        assert_eq!(bad.accuracy_percent(), 0.0);
    }

    #[test]
    fn overhead_percent_matches_definition() {
        let r = OverheadReport {
            baseline_seconds: 100.0,
            instrumented_seconds: 101.5,
        };
        assert!((r.overhead_percent() - 1.5).abs() < 1e-12);
        assert!((r.overhead_seconds() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn overhead_never_negative_and_zero_baseline_safe() {
        let r = OverheadReport {
            baseline_seconds: 10.0,
            instrumented_seconds: 9.0,
        };
        assert_eq!(r.overhead_percent(), 0.0);
        let z = OverheadReport {
            baseline_seconds: 0.0,
            instrumented_seconds: 1.0,
        };
        assert_eq!(z.overhead_percent(), 0.0);
    }

    #[test]
    fn early_termination_fractions() {
        let r = EarlyTerminationReport {
            full_iterations: 932,
            stopped_iterations: 373,
            full_seconds: 7.2563,
            stopped_seconds: 3.0218,
        };
        assert!((r.iteration_fraction_percent() - 40.0).abs() < 0.1);
        assert!((r.time_fraction_percent() - 41.6).abs() < 0.2);
        assert!((r.acceleration_percent() - 58.4).abs() < 0.2);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let r = EarlyTerminationReport {
            full_iterations: 0,
            stopped_iterations: 0,
            full_seconds: 0.0,
            stopped_seconds: 0.0,
        };
        assert_eq!(r.iteration_fraction_percent(), 0.0);
        assert_eq!(r.time_fraction_percent(), 0.0);
        assert_eq!(r.acceleration_percent(), 0.0);
    }
}
