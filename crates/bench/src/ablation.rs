//! Ablation studies for the pipeline's design choices (see
//! `docs/ARCHITECTURE.md`): mini-batch size, AR order/lag, optimizer
//! family, and the spatial sampling window. The `ablate_*` binaries print
//! them.

use insitu::collect::MiniBatch;
use insitu::model::{
    metrics, ConvergenceCriteria, IncrementalTrainer, OptimizerKind, TrainerConfig,
};

use crate::fitting::{fit_series, FitConfig};
use crate::lulesh_exp;

/// One ablation measurement: a configuration label, the resulting error
/// rate, and the number of training batches it took.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Human-readable configuration label.
    pub label: String,
    /// Error rate (%) of the fit.
    pub error_rate_percent: f64,
    /// Mini-batches consumed during training.
    pub batches: usize,
}

/// Mini-batch size ablation on the LULESH velocity series at the probe
/// location.
pub fn minibatch_sweep(size: usize, location: usize, batch_sizes: &[usize]) -> Vec<AblationRow> {
    let sim = lulesh_exp::run_physics_only(size);
    let values = sim
        .diagnostics()
        .series_at(location)
        .map(|s| s.values().to_vec())
        .unwrap_or_default();
    batch_sizes
        .iter()
        .map(|&batch| {
            let outcome = fit_series(
                &values,
                0.6,
                FitConfig {
                    batch,
                    ..FitConfig::default()
                },
            );
            AblationRow {
                label: format!("batch={batch}"),
                error_rate_percent: outcome.error_rate_percent,
                batches: outcome.batches,
            }
        })
        .collect()
}

/// AR order × lag ablation (extends the paper's Figure 4).
pub fn lag_order_sweep(
    size: usize,
    location: usize,
    orders: &[usize],
    lags: &[usize],
) -> Vec<AblationRow> {
    let sim = lulesh_exp::run_physics_only(size);
    let values = sim
        .diagnostics()
        .series_at(location)
        .map(|s| s.values().to_vec())
        .unwrap_or_default();
    let mut rows = Vec::new();
    for &order in orders {
        for &lag in lags {
            if order * lag + 4 >= values.len() {
                continue;
            }
            let outcome = fit_series(
                &values,
                0.6,
                FitConfig {
                    order,
                    lag_steps: lag,
                    ..FitConfig::default()
                },
            );
            rows.push(AblationRow {
                label: format!("order={order} lag={lag}"),
                error_rate_percent: outcome.error_rate_percent,
                batches: outcome.batches,
            });
        }
    }
    rows
}

/// Optimizer ablation: SGD vs momentum vs Adagrad on the same mini-batch
/// stream (a decaying LULESH velocity series).
pub fn optimizer_sweep(size: usize, location: usize) -> Vec<AblationRow> {
    let sim = lulesh_exp::run_physics_only(size);
    let values = sim
        .diagnostics()
        .series_at(location)
        .map(|s| s.values().to_vec())
        .unwrap_or_default();
    let optimizers = [
        ("sgd", OptimizerKind::Sgd { learning_rate: 0.1 }),
        (
            "momentum",
            OptimizerKind::Momentum {
                learning_rate: 0.1,
                beta: 0.9,
            },
        ),
        ("adagrad", OptimizerKind::Adagrad { learning_rate: 0.3 }),
    ];
    let order = 3;
    optimizers
        .iter()
        .map(|(label, kind)| {
            let mut trainer = IncrementalTrainer::new(TrainerConfig {
                order,
                optimizer: *kind,
                epochs_per_batch: 6,
                convergence: ConvergenceCriteria::default(),
            })
            .expect("valid trainer configuration");
            let train_end = (values.len() as f64 * 0.6) as usize;
            let mut batch = MiniBatch::new(order, 16);
            let mut batches = 0;
            for i in order..train_end {
                batch.push_with(values[i], |out| {
                    for (k, slot) in out.iter_mut().enumerate() {
                        *slot = values[i - (k + 1)];
                    }
                    Some(())
                });
                if batch.is_full() {
                    trainer.train_batch(&batch).expect("uniform row order");
                    batch.clear();
                    batches += 1;
                }
            }
            let mut inputs = vec![0.0; order];
            let mut predicted = Vec::new();
            let mut actual = Vec::new();
            for i in order..values.len() {
                for (k, slot) in inputs.iter_mut().enumerate() {
                    *slot = values[i - (k + 1)];
                }
                if let Ok(p) = trainer.predict(&inputs) {
                    predicted.push(p);
                    actual.push(values[i]);
                }
            }
            AblationRow {
                label: (*label).to_string(),
                error_rate_percent: metrics::error_rate_percent(&predicted, &actual),
                batches,
            }
        })
        .collect()
}

/// Spatial-window ablation (generalizes the paper's Table I): error rate of
/// the fit as a function of which location interval supplies the training
/// data.
pub fn window_sweep(size: usize, windows: &[(usize, usize)], fraction: f64) -> Vec<AblationRow> {
    let sim = lulesh_exp::run_physics_only(size);
    windows
        .iter()
        .map(|&(begin, end)| {
            let series = lulesh_exp::velocity_series(&sim, begin, end);
            let error = crate::fitting::mean_fit_error(&series, fraction, FitConfig::default());
            AblationRow {
                label: format!("locations ({begin},{end})"),
                error_rate_percent: error,
                batches: 0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minibatch_sweep_produces_one_row_per_size() {
        let rows = minibatch_sweep(12, 3, &[8, 16, 32]);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.error_rate_percent.is_finite()));
        // Smaller batches mean more updates.
        assert!(rows[0].batches >= rows[2].batches);
    }

    #[test]
    fn lag_order_sweep_skips_infeasible_combinations() {
        let rows = lag_order_sweep(12, 3, &[2, 3], &[1, 5, 10_000]);
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| !r.label.contains("10000")));
    }

    #[test]
    fn optimizer_sweep_compares_three_families() {
        let rows = optimizer_sweep(12, 3);
        assert_eq!(rows.len(), 3);
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"sgd"));
        assert!(labels.contains(&"momentum"));
        assert!(labels.contains(&"adagrad"));
    }

    #[test]
    fn window_sweep_reports_each_interval() {
        let rows = window_sweep(12, &[(1, 4), (5, 8)], 0.5);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].error_rate_percent.is_finite());
    }
}
