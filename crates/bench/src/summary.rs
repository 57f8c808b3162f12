//! Headline numbers: the accuracy and overhead ranges the paper's abstract
//! quotes (94.44 %–99.60 % accuracy, 0.11 %–4.95 % overhead).

use crate::lulesh_exp;
use crate::wd_exp;

/// The aggregated headline result.
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    /// Lowest accuracy (%) across the feature-extraction experiments.
    pub min_accuracy_percent: f64,
    /// Highest accuracy (%) across the feature-extraction experiments.
    pub max_accuracy_percent: f64,
    /// Lowest observed overhead (%) across the overhead experiments.
    pub min_overhead_percent: f64,
    /// Highest observed overhead (%) across the overhead experiments.
    pub max_overhead_percent: f64,
}

/// Computes the headline ranges from a reduced set of experiments sized for
/// a quick run: break-point accuracy on the LULESH proxy at the paper's
/// usable thresholds (2 %–20 %), delay-time accuracy on the wdmerger proxy,
/// and the overhead of both instrumented applications at a small
/// configuration sweep.
pub fn headline(lulesh_size: usize, wd_resolution: usize) -> Headline {
    // Accuracy from the two feature-extraction tables.
    let mut accuracies = Vec::new();
    for row in lulesh_exp::breakpoint_table(lulesh_size, &[2.0, 5.0, 10.0, 20.0], 0.4, 12) {
        accuracies.push(100.0 - row.error_percent().abs());
    }
    for row in wd_exp::delay_time_table(wd_resolution, 0.25) {
        accuracies.push(100.0 - row.error_percent().abs());
    }

    // Overhead from one configuration of each application.
    let mut overheads = Vec::new();
    for row in lulesh_exp::overhead_table(&[lulesh_size], &[1]) {
        overheads.push(row.overhead_percent());
    }
    for row in wd_exp::overhead_table(&[wd_resolution], &[(8, 1)], 0.5) {
        overheads.push(row.overhead_percent());
    }

    let fold = |values: &[f64]| -> (f64, f64) {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (min, max)
    };
    let (min_accuracy_percent, max_accuracy_percent) = fold(&accuracies);
    let (min_overhead_percent, max_overhead_percent) = fold(&overheads);
    Headline {
        min_accuracy_percent,
        max_accuracy_percent,
        min_overhead_percent,
        max_overhead_percent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_ranges_are_sane_on_small_configs() {
        let h = headline(14, 12);
        assert!(h.min_accuracy_percent <= h.max_accuracy_percent);
        assert!(h.max_accuracy_percent <= 100.0);
        assert!(h.min_overhead_percent <= h.max_overhead_percent);
        // Signed: a noisy instrumented run may beat the plain one, but no
        // run takes less than no time.
        assert!(h.min_overhead_percent > -100.0);
        assert!(h.max_overhead_percent.is_finite());
        assert!(h.max_accuracy_percent > 70.0);
    }
}
