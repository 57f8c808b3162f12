//! Case study 1: material deformation analysis with the LULESH proxy
//! (Tables I–IV, Figures 4 and 5).

use insitu::collect::MiniBatch;
use insitu::extract::{BreakpointExtractor, BreakpointResult, FeatureKind};
use insitu::model::{ConvergenceCriteria, OptimizerKind, TrainerConfig};
use insitu::prelude::*;
use insitu::region::AnalysisSpecBuilder;
use lulesh::{LuleshConfig, LuleshSim};
use parsim::ParallelConfig;

use crate::fitting::{self, FitRun, Score};

/// Runs the plain simulation (radial physics only — the accuracy studies do
/// not need the 3D field work term) and returns it after completion.
pub fn run_physics_only(size: usize) -> LuleshSim {
    let mut sim = LuleshSim::new(physics_only(size));
    sim.run_to_completion();
    sim
}

fn physics_only(size: usize) -> LuleshConfig {
    LuleshConfig::with_edge_elems(size).without_element_fields()
}

/// The harness's velocity fit over `spatial` (see [`fitting::fit_spec`]),
/// trained up to iteration `cut`.
pub fn velocity_fit(spatial: IterParam, cut: u64, lag: u64) -> AnalysisSpecBuilder<LuleshSim> {
    fitting::fit_spec(LuleshSim::velocity_at, spatial, cut, lag)
}

/// Iterations of the physics-only run of `size`: where the fits place
/// their training cuts.
pub fn physics_iterations(size: usize) -> u64 {
    run_physics_only(size).diagnostics().iterations()
}

/// Trains every `(key, spec, lag)` velocity fit under one engine over a
/// physics-only run of `size` and scores each against the run's full
/// velocity series. Returns each key with its score, in order.
pub fn score_velocity_fits<K>(
    size: usize,
    fits: Vec<(K, AnalysisSpec<LuleshSim>, u64)>,
) -> Vec<(K, Score)> {
    let mut run = FitRun::new(LuleshSim::velocity_at);
    for (key, spec, lag) in fits {
        run.add(key, spec, lag);
    }
    LuleshSim::new(physics_only(size)).run_with(|sim, iteration| {
        run.step(iteration, sim);
        true
    });
    run.finish()
}

/// One cell of Table I: a location interval, a training fraction, and the
/// resulting curve-fitting error rate.
#[derive(Debug, Clone, PartialEq)]
pub struct FitErrorRow {
    /// Inclusive location interval, in element units.
    pub interval: (usize, usize),
    /// Training fraction of the total iterations (0..=1).
    pub fraction: f64,
    /// The paper's error rate (%).
    pub error_rate_percent: f64,
}

/// Table I: curve-fitting error rates for velocity by location interval and
/// training fraction. Intervals are the paper's `(1,10)`, `(10,20)`,
/// `(20,30)` scaled to the domain size.
///
/// Each cell is one analysis over the whole interval, so one model learns
/// from every location in it; the cell is the mean of the per-location
/// error rates. Rows run interval by interval, at 40, 60 and 80 %.
pub fn fit_error_table(size: usize, lag: usize) -> Vec<FitErrorRow> {
    let scale = size as f64 / 30.0;
    let intervals = [
        (1, (10.0 * scale) as usize),
        ((10.0 * scale) as usize, (20.0 * scale) as usize),
        ((20.0 * scale) as usize, (30.0 * scale) as usize - 1),
    ];
    let iterations = physics_iterations(size);
    let lag = lag.max(1) as u64;
    let mut fits = Vec::new();
    for (begin, end) in intervals {
        let spatial = IterParam::new(begin as u64, end as u64, 1).expect("an interval");
        for fraction in [0.4, 0.6, 0.8] {
            let spec = velocity_fit(spatial, fitting::cut(iterations, fraction), lag);
            fits.push((
                ((begin, end), fraction),
                spec.build().expect("complete"),
                lag,
            ));
        }
    }
    score_velocity_fits(size, fits)
        .into_iter()
        .map(|((interval, fraction), score)| FitErrorRow {
            interval,
            fraction,
            error_rate_percent: score.mean_error_percent(),
        })
        .collect()
}

/// One point of Figure 4: lag value, training fraction, error rate at the
/// probe location.
#[derive(Debug, Clone, PartialEq)]
pub struct LagRow {
    /// The AR lag, in iterations.
    pub lag: usize,
    /// Training fraction of the total iterations.
    pub fraction: f64,
    /// Error rate (%) of the fit at the probe location.
    pub error_rate_percent: f64,
}

/// Figure 4: curve-fitting error at `location` for each lag and training
/// fraction. A cell whose lags reach back past its cut trains nothing and
/// has no row.
pub fn lag_sweep(size: usize, location: usize, lags: &[usize]) -> Vec<LagRow> {
    let iterations = physics_iterations(size);
    let order = fitting::fit_trainer().order;
    let mut fits = Vec::new();
    for &lag in lags {
        for fraction in [0.4, 0.6, 0.8] {
            let cut = fitting::cut(iterations, fraction);
            let steps = lag.max(1) as u64;
            if fitting::fills_a_batch(order, steps, cut) {
                let spec = velocity_fit(IterParam::single(location as u64), cut, steps);
                fits.push(((lag, fraction), spec.build().expect("complete"), steps));
            }
        }
    }
    score_velocity_fits(size, fits)
        .into_iter()
        .map(|((lag, fraction), score)| LagRow {
            lag,
            fraction,
            error_rate_percent: score.mean_error_percent(),
        })
        .collect()
}

/// One row of Table II: the break-point radius derived by feature
/// extraction, compared to the simulation's ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakpointRow {
    /// Velocity threshold as a percentage of the initial blast velocity.
    pub threshold_percent: f64,
    /// Ground-truth radius from the full simulation.
    pub from_simulation: usize,
    /// Radius derived by the in-situ feature extraction (partial data plus
    /// auto-regressive extrapolation of the peak-velocity profile).
    pub from_extraction: usize,
    /// Signed difference (simulation − extraction).
    pub difference: i64,
    /// Whether the extraction found a location below the threshold;
    /// `false` means the radius is the edge of the searched profile.
    pub bounded: bool,
}

impl BreakpointRow {
    /// Relative error (%) of the extraction, using the paper's convention of
    /// normalizing by the extracted value.
    pub fn error_percent(&self) -> f64 {
        if self.from_extraction == 0 {
            0.0
        } else {
            self.difference as f64 / self.from_extraction as f64 * 100.0
        }
    }
}

/// Table II: break-point radius vs. velocity threshold.
///
/// Ground truth uses the peak-velocity profile of the *full* run. The
/// feature extraction mimics the in-situ setting: it only sees the first
/// `train_fraction` of the iterations and the innermost `observed_locations`
/// locations, trains the AR model on the observed peak-velocity profile
/// (spatial auto-regression) and extrapolates it across the rest of the
/// domain before applying the threshold search.
pub fn breakpoint_table(
    size: usize,
    thresholds_percent: &[f64],
    train_fraction: f64,
    observed_locations: usize,
) -> Vec<BreakpointRow> {
    // Ground truth from a full run.
    let full = run_physics_only(size);
    let initial_velocity = full.initial_blast_velocity();

    // Partial-information run: stop at the training fraction.
    let full_iterations = full.diagnostics().iterations();
    let budget = ((full_iterations as f64) * train_fraction).round() as u64;
    let mut partial = LuleshSim::new(physics_only(size));
    partial.run_with(|_, iteration| iteration < budget);

    // Observed peak profile over the inner locations, then AR extrapolation
    // of the decay across the remaining radii.
    let observed: Vec<f64> = (1..=observed_locations)
        .map(|loc| partial.diagnostics().peak_at(loc))
        .collect();
    let extrapolated = extrapolate_peaks(&observed, size.saturating_sub(observed_locations));
    let mut profile: Vec<(usize, f64)> = Vec::new();
    for (i, &peak) in observed.iter().enumerate() {
        profile.push((i + 1, peak));
    }
    for (i, &peak) in extrapolated.iter().enumerate() {
        profile.push((observed_locations + 1 + i, peak));
    }

    thresholds_percent
        .iter()
        .map(|&threshold_percent| {
            let fraction = threshold_percent / 100.0;
            let from_simulation = full.diagnostics().breakpoint_radius(fraction);
            let extractor = BreakpointExtractor::new(fraction.clamp(1e-6, 1.0), initial_velocity)
                .expect("valid threshold");
            let (from_extraction, bounded) = extractor
                .extract_from_profile(&profile)
                .map_or((size, false), |r| (r.radius, r.bounded));
            BreakpointRow {
                threshold_percent,
                from_simulation,
                from_extraction,
                difference: from_simulation as i64 - from_extraction as i64,
                bounded,
            }
        })
        .collect()
}

/// Extrapolates a decaying peak-velocity profile outward with the in-situ
/// AR machinery: an order-2 spatial auto-regression trained on the observed
/// profile (in log space, since the Sedov peak decay is a power law), then
/// rolled forward `extra` locations.
fn extrapolate_peaks(observed: &[f64], extra: usize) -> Vec<f64> {
    if observed.len() < 4 || extra == 0 {
        return vec![0.0; extra];
    }
    let floor = 1e-12;
    let logs: Vec<f64> = observed.iter().map(|v| v.max(floor).ln()).collect();
    // Continue the log profile from the last observed value at the local
    // decay rate of the fitted profile.
    let decay = estimate_decay(&fit_log_profile(&logs), &logs);
    let mut last = logs[logs.len() - 1];
    (0..extra)
        .map(|_| {
            last += decay;
            last.exp()
        })
        .collect()
}

/// Trains an order-2 spatial AR model on the whole log-peak profile, in
/// mini-batches of four locations (the final one short), and returns its
/// one-step predictions from the third location on. Each window of three
/// consecutive locations is one row, predictors nearest first.
fn fit_log_profile(logs: &[f64]) -> Vec<f64> {
    let mut trainer = IncrementalTrainer::new(TrainerConfig {
        order: 2,
        optimizer: OptimizerKind::Sgd { learning_rate: 0.2 },
        epochs_per_batch: 30,
        convergence: ConvergenceCriteria::default(),
    })
    .expect("valid trainer configuration");
    let rows: Vec<&[f64]> = logs.windows(3).collect();
    for chunk in rows.chunks(4) {
        let mut batch = MiniBatch::new(2, 4);
        for row in chunk {
            batch.push(&[row[1], row[0]], row[2]).expect("order 2");
        }
        trainer.train_batch(&batch).expect("order 2");
    }
    rows.iter()
        .filter_map(|row| trainer.predict(&[row[1], row[0]]).ok())
        .collect()
}

/// Estimates the per-location decrement of the log-peak profile from the
/// fitted series (falls back to the observed decrement when the fit is
/// degenerate).
fn estimate_decay(predicted: &[f64], logs: &[f64]) -> f64 {
    let fitted_decay = if predicted.len() >= 2 {
        (predicted[predicted.len() - 1] - predicted[0]) / (predicted.len() - 1) as f64
    } else {
        0.0
    };
    let observed_decay = if logs.len() >= 2 {
        (logs[logs.len() - 1] - logs[0]) / (logs.len() - 1) as f64
    } else {
        0.0
    };
    if fitted_decay.is_finite() && fitted_decay < 0.0 {
        // Blend: the fit captures the local slope, the observation the trend.
        0.5 * fitted_decay + 0.5 * observed_decay
    } else {
        observed_decay
    }
}

/// Figure 5: the velocity distribution over timesteps at the probe
/// locations. Returns `(location, (iterations, velocities))` pairs.
pub fn velocity_profiles(size: usize, locations: &[usize]) -> Vec<(usize, Vec<(f64, f64)>)> {
    let sim = run_physics_only(size);
    locations
        .iter()
        .filter_map(|&loc| {
            sim.diagnostics().series_at(loc).map(|s| {
                let pairs = s
                    .times()
                    .iter()
                    .copied()
                    .zip(s.values().iter().copied())
                    .collect();
                (loc, pairs)
            })
        })
        .collect()
}

/// One row of Table III: execution time with and without in-situ feature
/// extraction for one (size, ranks) configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Domain size (elements per edge).
    pub size: usize,
    /// MPI×OpenMP label.
    pub config: String,
    /// Plain-simulation wall time in seconds.
    pub origin_seconds: f64,
    /// Wall time with feature extraction enabled (no early stop).
    pub nonstop_seconds: f64,
}

impl OverheadRow {
    /// Overhead in seconds, signed: negative when the instrumented run
    /// happened to finish faster than the plain one.
    pub fn overhead_seconds(&self) -> f64 {
        self.nonstop_seconds - self.origin_seconds
    }

    /// Overhead as a percentage of the plain runtime.
    pub fn overhead_percent(&self) -> f64 {
        if self.origin_seconds <= 0.0 {
            0.0
        } else {
            self.overhead_seconds() / self.origin_seconds * 100.0
        }
    }
}

/// Builds the in-situ analysis specification used by the LULESH overhead and
/// early-termination experiments (velocity curve fitting over the inner
/// locations, as in the paper's Fig. 2 example).
pub fn lulesh_analysis_spec(
    size: usize,
    temporal_end: u64,
    threshold_fraction: f64,
    exit: ExitAction,
) -> AnalysisSpec<LuleshSim> {
    let spatial_end = (size / 3).clamp(6, 12) as u64;
    AnalysisSpec::builder()
        .name("velocity")
        .provider(|sim: &LuleshSim, loc: usize| sim.velocity_at(loc))
        .spatial(IterParam::new(1, spatial_end, 1).expect("valid spatial range"))
        .temporal(IterParam::new(1, temporal_end.max(2), 1).expect("valid temporal range"))
        .method(AnalysisMethod::CurveFitting)
        .feature(FeatureKind::Breakpoint {
            threshold: threshold_fraction,
        })
        .lag(5)
        .batch_capacity(16)
        .trainer(TrainerConfig {
            order: 3,
            optimizer: OptimizerKind::Sgd { learning_rate: 0.1 },
            epochs_per_batch: 4,
            convergence: ConvergenceCriteria {
                loss_threshold: 5e-3,
                patience: 3,
                max_batches: 200,
            },
        })
        .exit(exit)
        .build()
        .expect("specification is complete")
}

/// Runs one instrumented LULESH simulation: the full 3D workload with the
/// in-situ region attached, optional early termination when the region both
/// converged and can answer the threshold query. Returns
/// `(iterations, wall_seconds, extracted_breakpoint)`.
pub fn run_instrumented(
    size: usize,
    parallel: ParallelConfig,
    temporal_end: u64,
    threshold_fraction: f64,
    allow_early_stop: bool,
) -> (u64, f64, Option<BreakpointResult>) {
    let config = LuleshConfig::with_edge_elems(size).with_parallel(parallel);
    let mut sim = LuleshSim::new(config);
    let exit = if allow_early_stop {
        ExitAction::TerminateSimulation
    } else {
        ExitAction::Continue
    };
    let mut engine: Engine<LuleshSim> = Engine::new();
    let region = engine.add_region("lulesh").expect("fresh engine");
    engine
        .add_analysis(
            region,
            lulesh_analysis_spec(size, temporal_end, threshold_fraction, exit),
        )
        .expect("region exists");
    // Rank-wide status broadcast, as the paper's integration performs after
    // every analysed iteration; its cost is modelled by the parsim world.
    let analysis_world = parsim::World::new(parallel);
    engine
        .set_broadcaster(region, move |status: &RegionStatus| {
            let _ = analysis_world.broadcast(0, status.iteration);
        })
        .expect("region exists");

    let started = std::time::Instant::now();
    let summary = sim.run_with(|sim_ref, iteration| {
        let report = engine.step(iteration).complete(sim_ref);
        let status = report.region(region).expect("region exists");
        if !allow_early_stop {
            return true;
        }
        // Early termination: either the analysis itself requests it (model
        // converged / collection window exhausted), or the model has seen
        // enough mini-batches and the observed data already answers the
        // threshold query (a location the shock has passed stays below the
        // threshold — the paper's "region of interest identified").
        let initial = sim_ref.initial_blast_velocity();
        if initial <= 0.0 {
            return true;
        }
        let threshold = threshold_fraction * initial;
        let front = sim_ref.state().shock_front_radius();
        let answered = sim_ref
            .diagnostics()
            .peak_profile()
            .iter()
            .any(|(loc, peak)| (*loc as f64) + 1.0 < front && *peak < threshold);
        let trained_enough = status.batches_trained >= 5;
        !(status.should_terminate || (answered && trained_enough))
    });
    let wall = started.elapsed().as_secs_f64();

    engine.extract_now(region).expect("region exists");
    let breakpoint = engine
        .status(region)
        .expect("region exists")
        .features
        .first()
        .and_then(|(_, f)| match f {
            insitu::region::FeatureValue::Breakpoint(b) => Some(*b),
            _ => None,
        });
    (summary.iterations, wall, breakpoint)
}

/// Table III: plain vs. instrumented execution time for every size × rank
/// configuration.
pub fn overhead_table(sizes: &[usize], rank_configs: &[usize]) -> Vec<OverheadRow> {
    let mut rows = Vec::new();
    for &size in sizes {
        for &ranks in rank_configs {
            let parallel = ParallelConfig::new(ranks, 1).expect("positive rank count");
            // Plain run.
            let mut origin =
                LuleshSim::new(LuleshConfig::with_edge_elems(size).with_parallel(parallel));
            let origin_summary = origin.run_to_completion();
            let origin_seconds = origin_summary.compute_seconds;
            let full_iterations = origin_summary.iterations;
            // Instrumented run without early termination: the analysis keeps
            // collecting over the paper's 40% window.
            let temporal_end = (full_iterations as f64 * 0.4) as u64;
            let (_, nonstop_seconds, _) =
                run_instrumented(size, parallel, temporal_end, 0.02, false);
            rows.push(OverheadRow {
                size,
                config: parallel.label(),
                origin_seconds,
                nonstop_seconds,
            });
        }
    }
    rows
}

/// One row of Table IV: early-termination behaviour at one threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct EarlyTerminationRow {
    /// Domain size.
    pub size: usize,
    /// Threshold as a percentage of the initial velocity.
    pub threshold_percent: f64,
    /// Extracted region-of-interest radius.
    pub radius: Option<usize>,
    /// Whether that radius lies inside the observed locations; `false`
    /// means it is the edge of the observation window.
    pub bounded: bool,
    /// Iterations executed before the region of interest was identified.
    pub iterations: u64,
    /// Iterations of the full simulation.
    pub full_iterations: u64,
    /// Wall seconds of the early-terminated run.
    pub seconds: f64,
    /// Wall seconds of the full simulation.
    pub full_seconds: f64,
}

impl EarlyTerminationRow {
    /// Percentage of the full iteration count that was executed.
    pub fn iteration_percent(&self) -> f64 {
        if self.full_iterations == 0 {
            0.0
        } else {
            self.iterations as f64 / self.full_iterations as f64 * 100.0
        }
    }

    /// Percentage of the full execution time that was spent.
    pub fn time_percent(&self) -> f64 {
        if self.full_seconds <= 0.0 {
            0.0
        } else {
            self.seconds / self.full_seconds * 100.0
        }
    }
}

/// Table IV: early-termination performance per size and threshold.
pub fn early_termination_table(
    sizes: &[usize],
    thresholds_percent: &[f64],
) -> Vec<EarlyTerminationRow> {
    let mut rows = Vec::new();
    for &size in sizes {
        let parallel = ParallelConfig::serial();
        let mut full = LuleshSim::new(LuleshConfig::with_edge_elems(size).with_parallel(parallel));
        let full_summary = full.run_to_completion();
        let full_iterations = full_summary.iterations;
        let full_seconds = full_summary.compute_seconds;
        let temporal_end = (full_iterations as f64 * 0.4) as u64;
        for &threshold_percent in thresholds_percent {
            let (iterations, seconds, breakpoint) = run_instrumented(
                size,
                parallel,
                temporal_end,
                threshold_percent / 100.0,
                true,
            );
            rows.push(EarlyTerminationRow {
                size,
                threshold_percent,
                radius: breakpoint.map(|b| b.radius),
                bounded: breakpoint.is_some_and(|b| b.bounded),
                iterations,
                full_iterations,
                seconds,
                full_seconds,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_signed_when_the_instrumented_run_is_faster() {
        let row = OverheadRow {
            size: 8,
            config: "8x1".into(),
            origin_seconds: 0.070,
            nonstop_seconds: 0.053,
        };
        assert!((row.overhead_seconds() + 0.017).abs() < 1e-12);
        assert!(row.overhead_percent() < 0.0);
    }

    #[test]
    fn fit_error_improves_with_more_training_on_inner_interval() {
        let rows = fit_error_table(16, 10);
        assert_eq!(rows.len(), 9);
        let inner_40 = rows
            .iter()
            .find(|r| r.interval.0 == 1 && (r.fraction - 0.4).abs() < 1e-9)
            .unwrap();
        let inner_80 = rows
            .iter()
            .find(|r| r.interval.0 == 1 && (r.fraction - 0.8).abs() < 1e-9)
            .unwrap();
        assert!(inner_80.error_rate_percent <= inner_40.error_rate_percent + 5.0);
        // Outer interval at 40% has seen almost nothing of the wave yet and
        // must be much worse than the inner interval at 80%.
        let outer_40 = rows
            .iter()
            .find(|r| r.interval.0 > 1 && (r.fraction - 0.4).abs() < 1e-9)
            .unwrap();
        assert!(outer_40.error_rate_percent > inner_80.error_rate_percent);
    }

    #[test]
    fn breakpoint_extraction_matches_ground_truth_at_high_thresholds() {
        let rows = breakpoint_table(20, &[2.0, 5.0, 10.0, 20.0], 0.5, 12);
        // High thresholds have their radius inside the observed window and
        // must match closely; lower thresholds rely on the AR extrapolation
        // and only need to stay inside the domain.
        for row in &rows {
            assert!(row.from_extraction >= 1 && row.from_extraction <= 20);
            if row.threshold_percent >= 10.0 {
                assert!(
                    row.difference.unsigned_abs() as usize <= 2,
                    "threshold {}%: sim {} vs extraction {}",
                    row.threshold_percent,
                    row.from_simulation,
                    row.from_extraction
                );
            }
        }
        // Radii shrink as the threshold grows (both for the ground truth and
        // the extraction).
        assert!(rows[0].from_simulation >= rows[3].from_simulation);
        assert!(rows[0].from_extraction >= rows[3].from_extraction);
    }

    #[test]
    fn velocity_profiles_cover_requested_locations() {
        let profiles = velocity_profiles(12, &[1, 2, 3]);
        assert_eq!(profiles.len(), 3);
        assert!(profiles.iter().all(|(_, pairs)| !pairs.is_empty()));
    }

    #[test]
    fn instrumented_run_reports_overhead_and_radius() {
        let parallel = ParallelConfig::serial();
        let mut origin = LuleshSim::new(LuleshConfig::with_edge_elems(12).with_parallel(parallel));
        let origin_summary = origin.run_to_completion();
        let temporal_end = (origin_summary.iterations as f64 * 0.4) as u64;
        let (iters, seconds, radius) = run_instrumented(12, parallel, temporal_end, 0.05, false);
        assert_eq!(iters, origin_summary.iterations);
        assert!(seconds > 0.0);
        assert!(radius.is_some());
    }

    #[test]
    fn early_termination_saves_iterations_for_high_thresholds() {
        let rows = early_termination_table(&[14], &[1.0, 20.0]);
        assert_eq!(rows.len(), 2);
        let low = &rows[0];
        let high = &rows[1];
        assert!(high.iterations <= low.iterations);
        assert!(low.iterations < low.full_iterations);
    }
}
