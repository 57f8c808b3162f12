//! Scoring the engine's curve fits, shared by both case studies.
//!
//! Each fit is an `Engine` analysis whose temporal characteristic ends at
//! the training cut, exactly as an in-situ integration trains it. Alongside
//! the engine, [`FitRun`] records the full-run ground truth; afterwards each
//! trained model predicts the whole series one step ahead, from predictors
//! written by the library's [`BatchAssembler::write_predictors_for`], and
//! the paper's error rate is taken over the iterations training never saw.

use insitu::collect::{BatchAssembler, PredictorLayout, SampleHistory};
use insitu::model::{metrics, ConvergenceCriteria};
use insitu::prelude::*;
use insitu::region::AnalysisSpecBuilder;

/// The harness's trainer: order-3 AR, SGD at rate 0.1, six epochs per
/// mini-batch.
pub fn fit_trainer() -> TrainerConfig {
    TrainerConfig {
        order: 3,
        optimizer: OptimizerKind::Sgd { learning_rate: 0.1 },
        epochs_per_batch: 6,
        convergence: ConvergenceCriteria::default(),
    }
}

/// Rows per mini-batch of [`fit_spec`].
pub const FIT_BATCH: usize = 16;

/// The harness's curve fit of `value` over `spatial`: temporal AR at `lag`
/// iterations with [`fit_trainer`] and mini-batches of [`FIT_BATCH`] rows, sampling
/// every iteration from 1 up to the training cut. Callers override single
/// settings (batch capacity, trainer) on the returned builder.
pub fn fit_spec<D: ?Sized + 'static>(
    value: fn(&D, usize) -> f64,
    spatial: IterParam,
    cut: u64,
    lag: u64,
) -> AnalysisSpecBuilder<D> {
    AnalysisSpec::builder()
        .provider(value)
        .spatial(spatial)
        .temporal(IterParam::new(1, cut.max(1), 1).expect("a cut at or past iteration 1"))
        .layout(PredictorLayout::Temporal)
        .lag(lag)
        .batch_capacity(FIT_BATCH)
        .trainer(fit_trainer())
}

/// Whether a one-location fit of `order` × `lag` fills one [`FIT_BATCH`]-row
/// mini-batch by iteration `cut`: its rows start at iteration
/// `order * lag + 1`, once the lags reach back to iteration 1.
pub fn fills_a_batch(order: usize, lag: u64, cut: u64) -> bool {
    cut.saturating_sub(order as u64 * lag) >= FIT_BATCH as u64
}

/// The iteration at `fraction` of a run of `iterations` iterations: the
/// last one a fit trains on.
pub fn cut(iterations: u64, fraction: f64) -> u64 {
    (iterations as f64 * fraction.clamp(0.0, 1.0)).round() as u64
}

/// One location's one-step-ahead reconstruction over the full run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reconstruction {
    /// Iterations predicted: every one the lagged predictors reach.
    pub iterations: Vec<u64>,
    /// One-step-ahead predictions at those iterations.
    pub predicted: Vec<f64>,
    /// Ground truth at those iterations.
    pub actual: Vec<f64>,
    /// The paper's error rate (%) over the iterations after the cut (over
    /// the whole reconstruction when the model trained on everything).
    pub error_rate_percent: f64,
}

impl Reconstruction {
    /// The paper's accuracy metric (`100 − error rate`, clamped).
    pub fn accuracy_percent(&self) -> f64 {
        (100.0 - self.error_rate_percent).clamp(0.0, 100.0)
    }
}

/// How well one trained fit reconstructs the full run.
#[derive(Debug, Clone, PartialEq)]
pub struct Score {
    /// The last iteration the fit trained on.
    pub cut: u64,
    /// Mini-batches the engine trained.
    pub batches: usize,
    /// One reconstruction per location of the fit's spatial characteristic.
    pub series: Vec<Reconstruction>,
}

impl Score {
    /// The mean of the per-location error rates (%): Table I's cell for a
    /// location interval.
    pub fn mean_error_percent(&self) -> f64 {
        let total: f64 = self.series.iter().map(|r| r.error_rate_percent).sum();
        total / self.series.len().max(1) as f64
    }
}

/// One armed fit: its analysis, the spec settings the predictor writer
/// must share, and the full-run values over its spatial characteristic.
struct Fit {
    analysis: AnalysisId,
    spatial: IterParam,
    lag: u64,
    cut: u64,
    truth: SampleHistory,
}

/// One simulation run under an inline [`Engine`] that trains a set of fits,
/// each labelled by a key `K`, and records the ground truth they are scored
/// on.
///
/// Each fit gets a region of its own, so its analysis is the one whose
/// prediction the region's status reports.
pub struct FitRun<D: ?Sized + 'static, K> {
    engine: Engine<D>,
    value: fn(&D, usize) -> f64,
    fits: Vec<(K, Fit)>,
}

impl<D: ?Sized + 'static, K> FitRun<D, K> {
    /// An empty run whose ground truth at a location is `value` — the
    /// provider of every fit's spec.
    pub fn new(value: fn(&D, usize) -> f64) -> Self {
        Self {
            engine: Engine::new(),
            value,
            fits: Vec::new(),
        }
    }

    /// Arms the fit `key`. `spec` must be a temporal-layout curve fit that
    /// samples every iteration from 1 with `value` (as [`fit_spec`] and
    /// `wd_exp::wd_analysis_spec` build them); `lag` is its lag.
    pub fn add(&mut self, key: K, spec: AnalysisSpec<D>, lag: u64) {
        assert_eq!(
            (spec.temporal().begin(), spec.temporal().step()),
            (1, 1),
            "a scored fit samples every iteration from 1"
        );
        let (spatial, cut) = (spec.spatial(), spec.temporal().end());
        let region = self
            .engine
            .add_region(format!("fit{}", self.fits.len()))
            .expect("one region per fit");
        let analysis = self
            .engine
            .add_analysis(region, spec)
            .expect("the region is fresh");
        let fit = Fit {
            analysis,
            spatial,
            lag,
            cut,
            truth: SampleHistory::new(spatial),
        };
        self.fits.push((key, fit));
    }

    /// Runs one completed simulation iteration through the engine and
    /// records its ground truth. Returns the engine's report: region `k`
    /// belongs to the `k`-th fit.
    pub fn step(&mut self, iteration: u64, domain: &D) -> StepReport {
        let report = self.engine.step(iteration).complete(domain);
        for (_, fit) in &mut self.fits {
            let row: Vec<f64> = fit
                .spatial
                .iter()
                .map(|location| (self.value)(domain, location as usize))
                .collect();
            fit.truth.record_step(iteration, &row);
        }
        report
    }

    /// Drains the engine and scores every fit, keyed, in the order they
    /// were added.
    ///
    /// # Panics
    ///
    /// Panics if a fit's model never trained: the run up to its cut was too
    /// short to fill one mini-batch.
    pub fn finish(mut self) -> Vec<(K, Score)> {
        self.engine.drain();
        let engine = &self.engine;
        self.fits
            .into_iter()
            .map(|(key, fit)| {
                let trainer = engine.trainer(fit.analysis).expect("a drained engine");
                (key, score(trainer, &fit))
            })
            .collect()
    }
}

fn score(trainer: &IncrementalTrainer, fit: &Fit) -> Score {
    let order = trainer.config().order;
    assert!(
        trainer.model().is_trained(),
        "series too short: no mini-batch of order {order} x lag {} filled by the cut at iteration {}",
        fit.lag,
        fit.cut
    );
    let (spatial, truth) = (fit.spatial, &fit.truth);
    let last = truth.last_iteration_of(spatial.begin() as usize);
    let temporal = IterParam::new(1, last.expect("a recorded run"), 1).expect("from 1");
    let layout = PredictorLayout::Temporal;
    let assembler = BatchAssembler::new(order, fit.lag, layout, spatial, temporal);
    let mut predictors = vec![0.0; order];
    let series = spatial
        .iter()
        .map(|location| {
            let location = location as usize;
            let mut r = Reconstruction::default();
            let iterations = truth.iterations_of(location).unwrap_or_default();
            let values = truth.values_of(location).expect("a recorded location");
            for (&iteration, actual) in iterations.iter().zip(values.iter()) {
                if assembler
                    .write_predictors_for(truth, location, iteration, &mut predictors)
                    .is_some()
                {
                    r.iterations.push(iteration);
                    r.predicted
                        .push(trainer.predict(&predictors).expect("a trained model"));
                    r.actual.push(actual);
                }
            }
            // The error rate is what the paper reports: how well the model
            // describes the data it has *not* trained on. When it trained on
            // everything, fall back to the whole reconstruction.
            let mut from = r.iterations.partition_point(|&it| it <= fit.cut);
            if from == r.iterations.len() {
                from = 0;
            }
            r.error_rate_percent =
                metrics::error_rate_percent(&r.predicted[from..], &r.actual[from..]);
            r
        })
        .collect();
    Score {
        cut: fit.cut,
        batches: trainer.loss_history().len(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decaying_wave(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                5.0 * (-0.01 * t).exp() * (1.0 + 0.1 * (0.2 * t).sin())
            })
            .collect()
    }

    const VALUE: fn(&Vec<f64>, usize) -> f64 = |domain, location| domain[location];

    /// Fits synthetic series under an engine: `series[k]` is location
    /// `k + 1`, and iteration `i` holds each series' `(i - 1)`-th value.
    /// Returns the score and the region statuses at every iteration.
    fn fit_synthetic(series: &[Vec<f64>], fraction: f64, lag: u64) -> (Score, Vec<RegionStatus>) {
        let iterations = series[0].len() as u64;
        let spatial = IterParam::new(1, series.len() as u64, 1).unwrap();
        let mut run = FitRun::new(VALUE);
        let spec = fit_spec(VALUE, spatial, cut(iterations, fraction), lag);
        run.add((), spec.build().unwrap(), lag);
        let mut domain = vec![0.0; series.len() + 1];
        let mut statuses = Vec::new();
        for iteration in 1..=iterations {
            for (slot, values) in domain[1..].iter_mut().zip(series) {
                *slot = values[iteration as usize - 1];
            }
            statuses.push(run.step(iteration, &domain).regions()[0].clone());
        }
        (run.finish().remove(0).1, statuses)
    }

    fn fit(series: &[f64], fraction: f64, lag: u64) -> Score {
        fit_synthetic(&[series.to_vec()], fraction, lag).0
    }

    #[test]
    fn fitting_a_smooth_series_is_accurate() {
        let score = fit(&decaying_wave(400), 0.5, 1);
        let outcome = &score.series[0];
        assert!(score.batches > 3);
        assert!(
            outcome.error_rate_percent < 10.0,
            "error {} too high",
            outcome.error_rate_percent
        );
        assert!(outcome.accuracy_percent() > 90.0);
        assert_eq!(outcome.predicted.len(), outcome.actual.len());
    }

    #[test]
    fn more_training_data_does_not_hurt() {
        let series = decaying_wave(400);
        let low = fit(&series, 0.2, 1).mean_error_percent();
        let high = fit(&series, 0.8, 1).mean_error_percent();
        assert!(high <= low * 1.5 + 1.0);
    }

    #[test]
    fn error_is_evaluated_on_unseen_samples_only() {
        let series = decaying_wave(300);
        let score = fit(&series, 0.4, 1);
        assert_eq!(score.cut, 120);
        let outcome = &score.series[0];
        // The reconstruction still covers the full range for plotting...
        assert!(outcome.iterations.iter().any(|&it| it <= score.cut));
        // ...but the error is taken over the iterations after the cut.
        let unseen = outcome.iterations.partition_point(|&it| it <= score.cut);
        assert_eq!(
            outcome.error_rate_percent,
            metrics::error_rate_percent(&outcome.predicted[unseen..], &outcome.actual[unseen..])
        );
        // A model trained on everything reports over the whole range.
        let full = fit(&series, 1.0, 1);
        assert_eq!(full.cut, series.len() as u64);
        let whole = &full.series[0];
        assert_eq!(
            whole.error_rate_percent,
            metrics::error_rate_percent(&whole.predicted, &whole.actual)
        );
    }

    #[test]
    fn flat_training_data_fails_on_later_dynamics() {
        // First 40% of the series is flat (shock not arrived); the rest
        // moves sharply. A model that could only train on the flat prefix is
        // noticeably worse on the unseen dynamics than one that saw a smooth
        // series of the same length — the Table I "central locations at
        // early stages" effect.
        let mut shocked = vec![0.001; 200];
        for (i, v) in shocked.iter_mut().enumerate().skip(80) {
            *v = ((i - 80) as f64 * 0.05).min(3.0) + 0.3 * ((i as f64) * 0.4).sin().abs();
        }
        let smooth: Vec<f64> = (0..200).map(|i| 5.0 * (-0.01 * i as f64).exp()).collect();
        let shocked_fit = fit(&shocked, 0.4, 5).mean_error_percent();
        let smooth_fit = fit(&smooth, 0.4, 5).mean_error_percent();
        assert!(smooth_fit.is_finite());
        assert!(
            shocked_fit > 1.0,
            "unseen shock dynamics should leave a visible error ({shocked_fit}%)"
        );
    }

    #[test]
    fn mean_fit_error_averages_over_locations() {
        let a = decaying_wave(300);
        let b: Vec<f64> = a.iter().map(|v| v * 2.0).collect();
        let (score, _) = fit_synthetic(&[a, b], 0.5, 1);
        assert_eq!(score.series.len(), 2);
        let mean = score.mean_error_percent();
        let (first, second) = (
            score.series[0].error_rate_percent,
            score.series[1].error_rate_percent,
        );
        assert!(mean > 0.0);
        assert_eq!(mean, (first + second) / 2.0);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_series_panics() {
        let _ = fit(&[1.0, 2.0, 3.0], 0.5, 1);
    }

    #[test]
    fn scorer_predicts_the_cut_like_the_engine_status() {
        // The engine predicts its representative (largest) location at the
        // latest sampled iteration; at the cut that is the scorer's
        // prediction there, bit for bit.
        let a = decaying_wave(300);
        let b: Vec<f64> = a.iter().map(|v| 1.0 + v * 0.5).collect();
        let (score, statuses) = fit_synthetic(&[a, b], 0.4, 2);
        let at_cut = statuses[score.cut as usize - 1]
            .predicted_value
            .expect("the model trained before the cut");
        let representative = &score.series[1];
        let k = representative
            .iterations
            .iter()
            .position(|&it| it == score.cut)
            .unwrap();
        assert_eq!(representative.predicted[k].to_bits(), at_cut.to_bits());
    }
}
