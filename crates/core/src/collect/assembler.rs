//! Assembling training rows from the sample history.
//!
//! The AR model relates a target value to `n` of its own past values. The
//! paper's formulation uses both dimensions at once:
//!
//! ```text
//! V(l, t) = β0 + β1 V(l-1, t-lag) + ... + βn V(l-n, t-lag) + ε
//! ```
//!
//! i.e. the predictors are values at *preceding locations* observed `lag`
//! iterations earlier. [`BatchAssembler`] builds such rows from the
//! step-major [`SampleHistory`] and writes them **directly into a columnar
//! [`MiniBatch`]** (see the stride convention in
//! [`minibatch`](crate::collect::MiniBatch)) — no per-row allocation. Each
//! target iteration resolves the rows it reads once; a row's predictors are
//! then index arithmetic inside them. Two simpler layouts (purely temporal,
//! purely spatial) are provided for the ablation studies.

use super::history::SampleHistory;
use super::minibatch::MiniBatch;
use crate::params::IterParam;

/// Which past values serve as predictors for `V(l, t)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictorLayout {
    /// `V(l-i, t-lag)` for `i = 1..=order` — the paper's dual-dimensional
    /// formulation.
    #[default]
    SpatioTemporal,
    /// `V(l, t - i*lag)` for `i = 1..=order` — classic temporal AR at a
    /// fixed location.
    Temporal,
    /// `V(l-i, t)` for `i = 1..=order` — spatial regression at a fixed
    /// iteration.
    Spatial,
}

/// Builds columnar training rows for target `(location, iteration)` pairs
/// from the collected history.
///
/// The history must be built from the assembler's spatial characteristic:
/// the `k`-th location is the `k`-th value of every row.
///
/// ```
/// use insitu::collect::{BatchAssembler, MiniBatch, PredictorLayout, SampleHistory};
/// use insitu::IterParam;
///
/// let spatial = IterParam::new(1, 5, 1).unwrap();
/// let temporal = IterParam::new(0, 100, 10).unwrap();
/// let asm = BatchAssembler::new(2, 10, PredictorLayout::SpatioTemporal, spatial, temporal);
///
/// let mut h = SampleHistory::new(spatial);
/// for it in (0..=100).step_by(10) {
///     let row: Vec<f64> = (1..=5).map(|loc| loc as f64 + it as f64 / 100.0).collect();
///     h.record_step(it, &row);
/// }
/// let mut batch = MiniBatch::new(2, 16);
/// asm.append_rows_for_iteration(&h, 20, &mut batch);
/// // Locations 3, 4, 5 have two predecessors each at iteration 20.
/// assert_eq!(batch.len(), 3);
/// assert_eq!(batch.targets()[0], 3.2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchAssembler {
    order: usize,
    lag: u64,
    layout: PredictorLayout,
    spatial: IterParam,
    temporal: IterParam,
}

impl BatchAssembler {
    /// Creates an assembler.
    ///
    /// * `order` — number of predictors (the AR model size `n`).
    /// * `lag` — the time-step lag, measured in iterations as in the paper.
    /// * `layout` — which past values serve as predictors.
    /// * `spatial` / `temporal` — the sampling characteristics, used to step
    ///   to "previous" locations/iterations in sampled units rather than raw
    ///   ids.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero.
    pub fn new(
        order: usize,
        lag: u64,
        layout: PredictorLayout,
        spatial: IterParam,
        temporal: IterParam,
    ) -> Self {
        assert!(order > 0, "AR order must be positive");
        Self {
            order,
            lag,
            layout,
            spatial,
            temporal,
        }
    }

    /// The AR model order this assembler produces rows for.
    pub fn order(&self) -> usize {
        self.order
    }

    /// The configured time-step lag in iterations.
    pub fn lag(&self) -> u64 {
        self.lag
    }

    /// The predictor layout.
    pub fn layout(&self) -> PredictorLayout {
        self.layout
    }

    fn assert_columns_match(&self, history: &SampleHistory) {
        assert_eq!(
            history.spatial(),
            self.spatial,
            "the history must be built from the assembler's spatial characteristic"
        );
    }

    /// The lagged iteration that predictors are read from, if it is sampled
    /// and non-negative.
    fn lagged_iteration(&self, iteration: u64) -> Option<u64> {
        let lagged = iteration.checked_sub(self.lag)?;
        // Snap to the nearest sampled iteration at or before the lagged time.
        let step = self.temporal.step();
        let begin = self.temporal.begin();
        if lagged < begin {
            return None;
        }
        Some(begin + ((lagged - begin) / step) * step)
    }

    /// Resolves where the predictors of every row targeting `iteration` are
    /// read, once per target iteration rather than once per row. `None`
    /// when no row of that iteration can be formed.
    fn reads_for<'h>(&self, history: &'h SampleHistory, iteration: u64) -> Option<Reads<'h>> {
        match self.layout {
            PredictorLayout::SpatioTemporal => Some(Reads::Across(
                history.row_at(self.lagged_iteration(iteration)?)?,
            )),
            PredictorLayout::Spatial => Some(Reads::Across(history.row_at(iteration)?)),
            PredictorLayout::Temporal => Some(Reads::Along {
                it_index: self.temporal.index_of(iteration)?,
                lag_steps: (self.lag / self.temporal.step()).max(1) as usize,
            }),
        }
    }

    /// The one row routine: writes the predictors of the target in column
    /// `index` into `out`.
    fn write_row(
        &self,
        history: &SampleHistory,
        reads: &Reads<'_>,
        index: usize,
        out: &mut [f64],
    ) -> Option<()> {
        match *reads {
            Reads::Across(row) => {
                // The `order` preceding locations, nearest first.
                let preceding = &row[index.checked_sub(self.order)?..index];
                for (slot, &value) in out.iter_mut().zip(preceding.iter().rev()) {
                    *slot = value;
                }
            }
            Reads::Along {
                it_index,
                lag_steps,
            } => {
                for (i, slot) in out.iter_mut().enumerate() {
                    let back = (i + 1) * lag_steps;
                    let prev_it = self.temporal.nth(it_index.checked_sub(back)?)?;
                    *slot = history.row_at(prev_it)?[index];
                }
            }
        }
        Some(())
    }

    /// Writes the predictor values that would be used to *predict*
    /// `V(location, iteration)` into `out` (which must hold exactly `order`
    /// elements); the target itself does not need to have been observed.
    /// Returns `None` — leaving `out` in an unspecified state — when the
    /// history does not yet contain every value the row needs (early in
    /// the run, or at the low edge of the spatial range).
    ///
    /// # Panics
    ///
    /// Panics if `history` was built from a different spatial
    /// characteristic.
    pub fn write_predictors_for(
        &self,
        history: &SampleHistory,
        location: usize,
        iteration: u64,
        out: &mut [f64],
    ) -> Option<()> {
        debug_assert_eq!(out.len(), self.order, "predictor buffer must match order");
        self.assert_columns_match(history);
        let reads = self.reads_for(history, iteration)?;
        let index = self.spatial.index_of(location as u64)?;
        self.write_row(history, &reads, index, out)
    }

    /// Appends every row that can be formed for a given iteration across
    /// the spatial characteristic directly into `batch` (predictors are
    /// written in place — zero per-row allocations). Returns the number of
    /// rows appended.
    ///
    /// # Panics
    ///
    /// Panics if `history` was built from a different spatial
    /// characteristic, and in debug builds if `batch.order()` differs from
    /// the assembler's order.
    pub fn append_rows_for_iteration(
        &self,
        history: &SampleHistory,
        iteration: u64,
        batch: &mut MiniBatch,
    ) -> usize {
        debug_assert_eq!(
            batch.order(),
            self.order,
            "batch stride must match the assembler order"
        );
        self.assert_columns_match(history);
        let Some(targets) = history.row_at(iteration) else {
            return 0;
        };
        let Some(reads) = self.reads_for(history, iteration) else {
            return 0;
        };
        match reads {
            // Every target with `order` preceding locations forms a row, so
            // the step's rows are written in one go.
            Reads::Across(_) => {
                let targets = targets.get(self.order..).unwrap_or_default();
                batch.extend_with(targets, |inputs| {
                    for (out, index) in inputs.chunks_exact_mut(self.order).zip(self.order..) {
                        let written = self.write_row(history, &reads, index, out);
                        debug_assert!(written.is_some());
                    }
                });
                targets.len()
            }
            Reads::Along { .. } => targets
                .iter()
                .enumerate()
                .filter(|&(index, &target)| {
                    batch.push_with(target, |out| self.write_row(history, &reads, index, out))
                })
                .count(),
        }
    }
}

/// Where the predictors of one target iteration are read, resolved once
/// per call by `BatchAssembler::reads_for`.
#[derive(Debug, Clone, Copy)]
enum Reads<'h> {
    /// Preceding locations, all in one row.
    Across(&'h [f64]),
    /// The target's own column, `lag_steps`, `2·lag_steps`, … sampled
    /// iterations before the target's index `it_index`.
    Along { it_index: usize, lag_steps: usize },
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `V(l, t) = l + t/100` over locations `1..=locations`, iterations
    /// `0..=last` step 10.
    fn history_over(locations: u64, last: u64) -> SampleHistory {
        let mut h = SampleHistory::new(IterParam::new(1, locations, 1).unwrap());
        for it in (0..=last).step_by(10) {
            let row: Vec<f64> = (1..=locations)
                .map(|loc| loc as f64 + it as f64 / 100.0)
                .collect();
            h.record_step(it, &row);
        }
        h
    }

    fn history() -> SampleHistory {
        history_over(8, 200)
    }

    fn assembler(layout: PredictorLayout) -> BatchAssembler {
        BatchAssembler::new(
            3,
            20,
            layout,
            IterParam::new(1, 8, 1).unwrap(),
            IterParam::new(0, 200, 10).unwrap(),
        )
    }

    /// The row whose target is `V(location, iteration)`, assembled through
    /// the slice kernel.
    fn row_for(
        asm: &BatchAssembler,
        h: &SampleHistory,
        location: usize,
        iteration: u64,
    ) -> Option<(Vec<f64>, f64)> {
        let target = h.value_at(location, iteration)?;
        let mut inputs = vec![0.0; asm.order()];
        asm.write_predictors_for(h, location, iteration, &mut inputs)?;
        Some((inputs, target))
    }

    #[test]
    fn spatiotemporal_rows_use_previous_locations_at_lagged_time() {
        let h = history();
        let asm = assembler(PredictorLayout::SpatioTemporal);
        let (inputs, target) = row_for(&asm, &h, 5, 50).unwrap();
        assert_eq!(target, 5.5);
        // lag 20 => lagged iteration 30; predictors are locations 4, 3, 2.
        assert_eq!(inputs, vec![4.3, 3.3, 2.3]);
    }

    #[test]
    fn temporal_rows_use_previous_iterations_at_same_location() {
        let h = history();
        let asm = assembler(PredictorLayout::Temporal);
        let (inputs, target) = row_for(&asm, &h, 5, 100).unwrap();
        assert_eq!(target, 6.0);
        // lag 20 = 2 sampled steps; predictors at iterations 80, 60, 40.
        assert_eq!(inputs, vec![5.8, 5.6, 5.4]);
    }

    #[test]
    fn spatial_rows_use_previous_locations_at_same_iteration() {
        let h = history();
        let asm = assembler(PredictorLayout::Spatial);
        let (inputs, target) = row_for(&asm, &h, 4, 50).unwrap();
        assert_eq!(target, 4.5);
        assert_eq!(inputs, vec![3.5, 2.5, 1.5]);
    }

    #[test]
    fn rows_missing_history_are_skipped() {
        let h = history();
        let asm = assembler(PredictorLayout::SpatioTemporal);
        // Location 2 needs locations 1, 0, -1: impossible for order 3.
        assert!(row_for(&asm, &h, 2, 50).is_none());
        // Iteration 10 lags to -10: impossible.
        assert!(row_for(&asm, &h, 5, 10).is_none());
    }

    #[test]
    fn append_rows_builds_all_valid_targets_columnar() {
        let h = history();
        let asm = assembler(PredictorLayout::SpatioTemporal);
        let mut batch = MiniBatch::new(3, 16);
        let appended = asm.append_rows_for_iteration(&h, 100, &mut batch);
        // Locations 4..=8 have 3 predecessors; 1..=3 do not.
        assert_eq!(appended, 5);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.inputs().len(), 15, "stride 3 x 5 rows, contiguous");
        // Rolled-back rows must not leave partial predictors behind.
        for (inputs, target) in batch.rows() {
            assert_eq!(inputs.len(), 3);
            assert!(target > 0.0);
        }
        // Row for location 4 at iteration 100: predecessors 3, 2, 1 at
        // the lagged iteration 80.
        assert_eq!(batch.row(0), Some(&[3.8, 2.8, 1.8][..]));
        assert_eq!(batch.targets()[0], 5.0);
    }

    #[test]
    fn predictors_can_be_formed_without_observed_target() {
        let h = history();
        let asm = assembler(PredictorLayout::Spatial);
        // Location 9 is outside the spatial range: no row.
        assert!(row_for(&asm, &h, 9, 50).is_none());
        // Over locations 1..=9 sampled up to iteration 50, the target
        // V(9, 70) was never observed, but its predecessors at the lagged
        // iteration 50 were.
        let h2 = history_over(9, 50);
        let asm2 = BatchAssembler::new(
            3,
            20,
            PredictorLayout::SpatioTemporal,
            IterParam::new(1, 9, 1).unwrap(),
            IterParam::new(0, 200, 10).unwrap(),
        );
        assert_eq!(h2.value_at(9, 70), None);
        let mut predictors = [0.0; 3];
        asm2.write_predictors_for(&h2, 9, 70, &mut predictors)
            .unwrap();
        assert_eq!(predictors, [8.5, 7.5, 6.5]);
    }

    #[test]
    #[should_panic(expected = "spatial characteristic")]
    fn a_history_over_other_locations_is_refused() {
        let mut out = [0.0; 3];
        assembler(PredictorLayout::Spatial).write_predictors_for(
            &history_over(9, 50),
            5,
            50,
            &mut out,
        );
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn zero_order_panics() {
        let _ = BatchAssembler::new(
            0,
            1,
            PredictorLayout::Temporal,
            IterParam::single(0),
            IterParam::single(0),
        );
    }
}
