//! Ablation studies for the pipeline's design choices (see
//! `docs/ARCHITECTURE.md`): mini-batch size, AR order/lag, optimizer
//! family, and the spatial sampling window. The `ablate_*` binaries print
//! them.

use insitu::model::OptimizerKind;
use insitu::prelude::*;
use lulesh::LuleshSim;

use crate::fitting::{self, fit_trainer};
use crate::lulesh_exp::{physics_iterations, score_velocity_fits, velocity_fit};
use crate::table::{fmt_pct, TextTable};

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

/// Renders ablation rows as a table: `header` (the configuration), error
/// rate and mini-batches.
pub fn table(header: &str, rows: &[AblationRow]) -> TextTable {
    let mut table = TextTable::new(vec![header, "error rate", "batches"]);
    for row in rows {
        let error = fmt_pct(row.error_rate_percent);
        table.add_row(vec![row.label.clone(), error, row.batches.to_string()]);
    }
    table
}

/// Scores one labelled velocity fit per configuration, all trained under
/// one engine over a physics-only run of `size`.
fn sweep(size: usize, fits: Vec<(String, AnalysisSpec<LuleshSim>, u64)>) -> Vec<AblationRow> {
    score_velocity_fits(size, fits)
        .into_iter()
        .map(|(label, score)| AblationRow {
            label,
            error_rate_percent: score.mean_error_percent(),
            batches: score.batches,
        })
        .collect()
}

/// Mini-batch size ablation on the LULESH velocity series at the probe
/// location, trained on 60 % of the run.
pub fn minibatch_sweep(size: usize, location: usize, batch_sizes: &[usize]) -> Vec<AblationRow> {
    let cut = fitting::cut(physics_iterations(size), 0.6);
    let spatial = IterParam::single(location as u64);
    let fits = batch_sizes
        .iter()
        .map(|&batch| {
            let spec = velocity_fit(spatial, cut, 1).batch_capacity(batch);
            (format!("batch={batch}"), spec.build().expect("complete"), 1)
        })
        .collect();
    sweep(size, fits)
}

/// AR order × lag ablation (extends the paper's Figure 4), trained on 60 %
/// of the run. Combinations whose lags leave no full mini-batch before the
/// cut are skipped.
pub fn lag_order_sweep(
    size: usize,
    location: usize,
    orders: &[usize],
    lags: &[usize],
) -> Vec<AblationRow> {
    let cut = fitting::cut(physics_iterations(size), 0.6);
    let spatial = IterParam::single(location as u64);
    let mut fits = Vec::new();
    for &order in orders {
        for &lag in lags {
            if fitting::fills_a_batch(order, lag as u64, cut) {
                let trainer = TrainerConfig {
                    order,
                    ..fit_trainer()
                };
                let spec = velocity_fit(spatial, cut, lag as u64).trainer(trainer);
                let label = format!("order={order} lag={lag}");
                fits.push((label, spec.build().expect("complete"), lag as u64));
            }
        }
    }
    sweep(size, fits)
}

/// Optimizer ablation: SGD vs momentum vs Adagrad on the same mini-batch
/// stream (the LULESH velocity series at the probe location, trained on
/// 60 % of the run).
pub fn optimizer_sweep(size: usize, location: usize) -> Vec<AblationRow> {
    let cut = fitting::cut(physics_iterations(size), 0.6);
    let spatial = IterParam::single(location as u64);
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
    let fits = optimizers
        .into_iter()
        .map(|(label, optimizer)| {
            let trainer = TrainerConfig {
                optimizer,
                ..fit_trainer()
            };
            let spec = velocity_fit(spatial, cut, 1).trainer(trainer);
            (label.to_string(), spec.build().expect("complete"), 1)
        })
        .collect();
    sweep(size, fits)
}

/// Spatial-window ablation (generalizes the paper's Table I): error rate of
/// the fit as a function of which location interval supplies the training
/// data, one analysis per window.
pub fn window_sweep(size: usize, windows: &[(usize, usize)], fraction: f64) -> Vec<AblationRow> {
    let cut = fitting::cut(physics_iterations(size), fraction);
    let fits = windows
        .iter()
        .map(|&(begin, end)| {
            let spatial = IterParam::new(begin as u64, end as u64, 1).expect("a window");
            let spec = velocity_fit(spatial, cut, 1).build().expect("complete");
            (format!("locations ({begin},{end})"), spec, 1)
        })
        .collect();
    sweep(size, fits)
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
