//! Case study 2: WD-merger detonation determination with the `wdmerger`
//! proxy (Tables V–VII, Figures 7 and 8).

use insitu::extract::DelayTimeExtractor;
use insitu::model::{ConvergenceCriteria, OptimizerKind, TrainerConfig};
use insitu::prelude::*;
use parsim::ParallelConfig;
use wdmerger::{DiagnosticVariable, WdMergerConfig, WdMergerSim};

use crate::fitting::{self, FitRun, Reconstruction};

/// Runs the plain simulation at a resolution and returns it after
/// completion.
pub fn run_full(resolution: usize) -> WdMergerSim {
    let mut sim = WdMergerSim::new(WdMergerConfig::with_resolution(resolution));
    sim.run_to_completion();
    sim
}

/// The lag of [`wd_analysis_spec`]: every diagnostic timestep is sampled,
/// as in the paper's Castro integration.
const WD_LAG: u64 = 1;

/// Trains [`wd_analysis_spec`] for every diagnostic variable at every
/// training fraction under one engine over a full run, and scores each
/// against the run's own series. Returns the completed simulation and one
/// `(variable, fraction, reconstruction)` per fit, variables outermost.
fn score_fits(
    resolution: usize,
    fractions: &[f64],
) -> (WdMergerSim, Vec<(DiagnosticVariable, f64, Reconstruction)>) {
    let config = WdMergerConfig::with_resolution(resolution);
    let mut run = FitRun::new(WdMergerSim::diagnostic_at);
    for variable in DiagnosticVariable::all() {
        for &fraction in fractions {
            let cut = fitting::cut(config.steps, fraction);
            let spec = wd_analysis_spec(variable, cut, ExitAction::Continue);
            run.add((variable, fraction), spec, WD_LAG);
        }
    }
    let mut sim = WdMergerSim::new(config);
    sim.run_with(|sim, step| {
        run.step(step, sim);
        true
    });
    let fits = run
        .finish()
        .into_iter()
        .map(|((variable, fraction), mut score)| (variable, fraction, score.series.remove(0)));
    (sim, fits.collect())
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
/// Rows run variable by variable, fractions in the given order.
pub fn fit_error_table(resolution: usize, fractions: &[f64]) -> Vec<WdFitErrorRow> {
    score_fits(resolution, fractions)
        .1
        .into_iter()
        .map(|(variable, fraction, fit)| WdFitErrorRow {
            variable,
            fraction,
            error_rate_percent: fit.error_rate_percent,
        })
        .collect()
}

/// Figure 7: predicted-vs-real curves for each diagnostic variable at one
/// training fraction, one reconstruction per variable (aligned
/// `iterations` / `predicted` / `actual`).
pub fn curve_fit_series(
    resolution: usize,
    fraction: f64,
) -> Vec<(DiagnosticVariable, Reconstruction)> {
    score_fits(resolution, &[fraction])
        .1
        .into_iter()
        .map(|(variable, _, fit)| (variable, fit))
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
    let (sim, fits) = score_fits(resolution, &[train_fraction]);
    let extractor = DelayTimeExtractor::new();
    fits.into_iter()
        .filter_map(|(variable, _, fit)| {
            let series = sim.diagnostics().series(variable);
            let times = series.times();
            let truth = extractor.extract(times, series.values()).ok()?;
            // Step `i` reports the state the diagnostics recorded at time
            // index `i - 1`.
            let fitted_times: Vec<f64> = fit
                .iterations
                .iter()
                .map(|&it| times[it as usize - 1])
                .collect();
            let fitted = extractor.extract(&fitted_times, &fit.predicted).ok()?;
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
        .lag(WD_LAG)
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
    let mut engine: Engine<WdMergerSim> = Engine::new();
    let region = engine.add_region("wdmerger").expect("fresh engine");
    for variable in DiagnosticVariable::all() {
        engine
            .add_analysis(region, wd_analysis_spec(variable, temporal_end, exit))
            .expect("one analysis per diagnostic variable");
    }
    let analysis_world = parsim::World::new(parallel);
    engine
        .set_broadcaster(region, move |status: &RegionStatus| {
            let _ = analysis_world.broadcast(0, status.iteration);
        })
        .expect("region exists");

    let started = std::time::Instant::now();
    let summary = sim.run_with(|sim_ref, step| {
        let report = engine.step(step).complete(sim_ref);
        // Early termination needs the detonation signal to have been seen;
        // otherwise the delay time cannot be derived yet.
        !(allow_early_stop && report.should_terminate() && sim_ref.detonated())
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
    fn scorer_predicts_the_cut_like_the_engine_status() {
        // Each fit's region reports the engine's own prediction of the
        // latest sampled step; at the cut that is the scorer's prediction
        // there, bit for bit, for every variable.
        let config = WdMergerConfig::with_resolution(12);
        let cut = fitting::cut(config.steps, 0.5);
        let mut run = FitRun::new(WdMergerSim::diagnostic_at);
        for variable in DiagnosticVariable::all() {
            let spec = wd_analysis_spec(variable, cut, ExitAction::Continue);
            run.add(variable, spec, WD_LAG);
        }
        let mut at_cut = Vec::new();
        WdMergerSim::new(config).run_with(|sim, step| {
            let report = run.step(step, sim);
            if step == cut {
                at_cut = report.regions().iter().map(|s| s.predicted_value).collect();
            }
            true
        });
        let scores = run.finish();
        assert_eq!(scores.len(), 4);
        for ((_, score), engine) in scores.iter().zip(at_cut) {
            let fit = &score.series[0];
            let k = fit.iterations.iter().position(|&it| it == cut).unwrap();
            let engine = engine.expect("the model trained before the cut");
            assert_eq!(fit.predicted[k].to_bits(), engine.to_bits());
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
