//! Case study 2: WD-merger detonation determination with the `wdmerger`
//! proxy (Tables V–VII, Figures 7 and 8).

use insitu::extract::DelayTimeExtractor;
use insitu::model::{ConvergenceCriteria, OptimizerKind, TrainerConfig};
use insitu::prelude::*;
use parsim::ParallelConfig;
use wdmerger::{DiagnosticVariable, WdMergerConfig, WdMergerSim};

use crate::fitting::{fit_series, FitConfig, FitOutcome};

/// Runs the plain simulation at a resolution and returns it after
/// completion.
pub fn run_full(resolution: usize) -> WdMergerSim {
    let mut sim = WdMergerSim::new(WdMergerConfig::with_resolution(resolution));
    sim.run_to_completion();
    sim
}

/// The fit configuration used for the WD diagnostics (order-3 temporal AR,
/// unit lag — every diagnostic timestep is sampled, as in the paper's
/// Castro integration).
pub fn wd_fit_config() -> FitConfig {
    FitConfig {
        order: 3,
        lag_steps: 1,
        batch: 8,
        learning_rate: 0.05,
        epochs: 4,
    }
}

/// One cell of Table V: the curve-fitting error rate for one diagnostic
/// variable and one training fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct WdFitErrorRow {
    /// The diagnostic variable.
    pub variable: DiagnosticVariable,
    /// Training fraction of the total iterations.
    pub fraction: f64,
    /// The paper's error rate (%).
    pub error_rate_percent: f64,
}

/// Table V: error rates of curve fitting for the four diagnostic variables
/// using training data from the given fractions of the total iterations.
pub fn fit_error_table(resolution: usize, fractions: &[f64]) -> Vec<WdFitErrorRow> {
    let sim = run_full(resolution);
    let mut rows = Vec::new();
    for variable in DiagnosticVariable::all() {
        let values = sim.diagnostics().series(variable).values().to_vec();
        for &fraction in fractions {
            let outcome = fit_series(&values, fraction, wd_fit_config());
            rows.push(WdFitErrorRow {
                variable,
                fraction,
                error_rate_percent: outcome.error_rate_percent,
            });
        }
    }
    rows
}

/// Figure 7: predicted-vs-real curves for each diagnostic variable at one
/// training fraction. Returns `(variable, outcome)` pairs; the outcome holds
/// the aligned `predicted` / `actual` series.
pub fn curve_fit_series(resolution: usize, fraction: f64) -> Vec<(DiagnosticVariable, FitOutcome)> {
    let sim = run_full(resolution);
    DiagnosticVariable::all()
        .into_iter()
        .map(|variable| {
            let values = sim.diagnostics().series(variable).values().to_vec();
            (variable, fit_series(&values, fraction, wd_fit_config()))
        })
        .collect()
}

/// Figure 8: the four diagnostic series normalized (zero mean, unit
/// variance) over the timesteps, as `(variable, timesteps, values)`.
pub fn normalized_series(resolution: usize) -> Vec<(DiagnosticVariable, Vec<f64>, Vec<f64>)> {
    let sim = run_full(resolution);
    sim.diagnostics()
        .normalized_series()
        .into_iter()
        .map(|(variable, series)| (variable, series.times().to_vec(), series.values().to_vec()))
        .collect()
}

/// One row of Table VI: the delay time derived from one diagnostic variable.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayTimeRow {
    /// The diagnostic variable.
    pub variable: DiagnosticVariable,
    /// Delay time derived from the full simulation data (ground truth).
    pub from_simulation: f64,
    /// Delay time derived from the curve fitted with partial training data.
    pub from_extraction: f64,
}

impl DelayTimeRow {
    /// Signed difference (extraction − simulation).
    pub fn difference(&self) -> f64 {
        self.from_extraction - self.from_simulation
    }

    /// Relative error (%) of the extraction against the simulation value.
    pub fn error_percent(&self) -> f64 {
        if self.from_simulation.abs() < 1e-12 {
            0.0
        } else {
            self.difference() / self.from_simulation * 100.0
        }
    }
}

/// Table VI: delay time of the thermonuclear detonation per diagnostic
/// variable — inflection-point extraction on the real series (ground truth)
/// vs. on the series reconstructed by the AR model trained on
/// `train_fraction` of the iterations.
pub fn delay_time_table(resolution: usize, train_fraction: f64) -> Vec<DelayTimeRow> {
    let sim = run_full(resolution);
    let extractor = DelayTimeExtractor::new();
    DiagnosticVariable::all()
        .into_iter()
        .filter_map(|variable| {
            let series = sim.diagnostics().series(variable);
            let times = series.times().to_vec();
            let values = series.values().to_vec();
            let truth = extractor.extract(&times, &values).ok()?;
            let outcome = fit_series(&values, train_fraction, wd_fit_config());
            let fitted_times: Vec<f64> = outcome.indices.iter().map(|&i| times[i]).collect();
            let fitted = extractor.extract(&fitted_times, &outcome.predicted).ok()?;
            Some(DelayTimeRow {
                variable,
                from_simulation: truth.delay_time,
                from_extraction: fitted.delay_time,
            })
        })
        .collect()
}

/// Builds the in-situ analysis specification for one WD diagnostic variable
/// (temporal curve fitting of the global series).
pub fn wd_analysis_spec(
    variable: DiagnosticVariable,
    temporal_end: u64,
    exit: ExitAction,
) -> AnalysisSpec<WdMergerSim> {
    let location = variable.location() as u64;
    AnalysisSpec::builder()
        .name(variable.name())
        .provider(move |sim: &WdMergerSim, loc: usize| sim.diagnostic_at(loc))
        .spatial(IterParam::single(location))
        .temporal(IterParam::new(1, temporal_end.max(8), 1).expect("valid temporal range"))
        .method(AnalysisMethod::CurveFitting)
        .feature(FeatureKind::DelayTime)
        .layout(insitu::collect::PredictorLayout::Temporal)
        .lag(1)
        .batch_capacity(8)
        .trainer(TrainerConfig {
            order: 3,
            optimizer: OptimizerKind::Sgd {
                learning_rate: 0.15,
            },
            epochs_per_batch: 8,
            convergence: ConvergenceCriteria {
                loss_threshold: 1e-2,
                patience: 2,
                max_batches: 0,
            },
        })
        .exit(exit)
        .build()
        .expect("specification is complete")
}

/// One row of Table VII: original, instrumented (no stop) and
/// early-terminated execution times for one (resolution, ranks, threads)
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WdOverheadRow {
    /// Grid resolution.
    pub resolution: usize,
    /// MPI×OpenMP label.
    pub config: String,
    /// Plain-simulation wall time, seconds.
    pub origin_seconds: f64,
    /// Wall time with feature extraction, no early stop.
    pub nonstop_seconds: f64,
    /// Wall time with feature extraction and early termination.
    pub stop_seconds: f64,
}

impl WdOverheadRow {
    /// Overhead (%) of the non-stop instrumented run, signed: negative
    /// when it happened to finish faster than the plain run.
    pub fn overhead_percent(&self) -> f64 {
        if self.origin_seconds <= 0.0 {
            0.0
        } else {
            (self.nonstop_seconds - self.origin_seconds) / self.origin_seconds * 100.0
        }
    }

    /// Acceleration (%) achieved by early termination, signed: negative
    /// when the early-stopping run took longer than the plain one.
    pub fn acceleration_percent(&self) -> f64 {
        if self.origin_seconds <= 0.0 {
            0.0
        } else {
            (self.origin_seconds - self.stop_seconds) / self.origin_seconds * 100.0
        }
    }
}

/// Runs one instrumented wdmerger simulation with all four diagnostic
/// analyses attached. Returns `(steps, wall_seconds)`.
pub fn run_instrumented(
    resolution: usize,
    parallel: ParallelConfig,
    temporal_end: u64,
    allow_early_stop: bool,
) -> (u64, f64) {
    let config = WdMergerConfig::with_resolution(resolution).with_parallel(parallel);
    let mut sim = WdMergerSim::new(config);
    let exit = if allow_early_stop {
        ExitAction::TerminateSimulation
    } else {
        ExitAction::Continue
    };
    let mut region: Region<WdMergerSim> = Region::new("wdmerger");
    for variable in DiagnosticVariable::all() {
        region.add_analysis(wd_analysis_spec(variable, temporal_end, exit));
    }
    let analysis_world = parsim::World::new(parallel);
    let mut region = region.with_broadcaster(move |status: &RegionStatus| {
        let _ = analysis_world.broadcast(0, status.iteration);
    });

    let started = std::time::Instant::now();
    let summary = sim.run_with(|sim_ref, step| {
        region.begin(step);
        let status = region.end(step, sim_ref);
        // Early termination needs the detonation signal to have been seen;
        // otherwise the delay time cannot be derived yet.
        !(allow_early_stop && status.should_terminate && sim_ref.detonated())
    });
    let wall = started.elapsed().as_secs_f64();
    (summary.steps, wall)
}

/// Table VII: execution times and overhead/acceleration for every
/// resolution × (ranks, threads) configuration.
pub fn overhead_table(
    resolutions: &[usize],
    configs: &[(usize, usize)],
    early_stop_fraction: f64,
) -> Vec<WdOverheadRow> {
    let mut rows = Vec::new();
    for &resolution in resolutions {
        for &(ranks, threads) in configs {
            let parallel = ParallelConfig::new(ranks, threads).expect("positive counts");
            let mut origin = WdMergerSim::new(
                WdMergerConfig::with_resolution(resolution).with_parallel(parallel),
            );
            let origin_summary = origin.run_to_completion();
            let steps = origin_summary.steps;
            let temporal_end_nonstop = steps;
            let temporal_end_stop = ((steps as f64) * early_stop_fraction).round() as u64;
            let (_, nonstop_seconds) =
                run_instrumented(resolution, parallel, temporal_end_nonstop, false);
            let (_, stop_seconds) = run_instrumented(resolution, parallel, temporal_end_stop, true);
            rows.push(WdOverheadRow {
                resolution,
                config: parallel.label(),
                origin_seconds: origin_summary.wall_seconds,
                nonstop_seconds,
                stop_seconds,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_and_acceleration_are_signed() {
        let row = WdOverheadRow {
            resolution: 8,
            config: "8x1".into(),
            origin_seconds: 1.0,
            nonstop_seconds: 0.9,
            stop_seconds: 1.2,
        };
        assert!((row.overhead_percent() + 10.0).abs() < 1e-9);
        assert!((row.acceleration_percent() + 20.0).abs() < 1e-9);
    }

    #[test]
    fn fit_error_does_not_grow_with_training_fraction() {
        let rows = fit_error_table(12, &[0.1, 0.5]);
        assert_eq!(rows.len(), 8);
        let mean_at = |fraction: f64| -> f64 {
            let selected: Vec<f64> = rows
                .iter()
                .filter(|r| (r.fraction - fraction).abs() < 1e-9)
                .map(|r| r.error_rate_percent)
                .collect();
            selected.iter().sum::<f64>() / selected.len() as f64
        };
        let low = mean_at(0.1);
        let high = mean_at(0.5);
        assert!(low.is_finite() && high.is_finite());
        assert!(
            high <= low + 2.0,
            "mean error with 50% training ({high}) should not exceed 10% training ({low}) by much"
        );
    }

    #[test]
    fn delay_times_match_ground_truth_within_a_few_percent() {
        let rows = delay_time_table(12, 0.25);
        assert!(!rows.is_empty());
        for row in &rows {
            assert!(
                row.error_percent().abs() < 25.0,
                "{}: extraction {} vs simulation {}",
                row.variable,
                row.from_extraction,
                row.from_simulation
            );
            assert!(row.from_simulation > 5.0 && row.from_simulation < 100.0);
        }
    }

    #[test]
    fn curve_fit_series_align_predictions_with_truth() {
        let series = curve_fit_series(12, 0.25);
        assert_eq!(series.len(), 4);
        for (_, outcome) in &series {
            assert_eq!(outcome.predicted.len(), outcome.actual.len());
            assert!(!outcome.predicted.is_empty());
        }
    }

    #[test]
    fn normalized_series_cover_all_steps() {
        let series = normalized_series(12);
        assert_eq!(series.len(), 4);
        let steps = WdMergerConfig::default().steps as usize;
        for (_, times, values) in &series {
            assert_eq!(times.len(), steps);
            assert_eq!(values.len(), steps);
        }
    }

    #[test]
    fn instrumented_run_with_early_stop_is_shorter() {
        let parallel = ParallelConfig::serial();
        let full_steps = WdMergerConfig::default().steps;
        let (nonstop_steps, _) = run_instrumented(12, parallel, full_steps, false);
        let (stop_steps, _) = run_instrumented(12, parallel, full_steps / 2, true);
        assert_eq!(nonstop_steps, full_steps);
        assert!(stop_steps < nonstop_steps);
    }
}
