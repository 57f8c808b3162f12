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
//! [`SampleHistory`] and writes them **directly into a columnar
//! [`MiniBatch`]** (see the stride convention in
//! [`minibatch`](crate::collect::MiniBatch)) — no per-row allocation. Two
//! simpler layouts (purely temporal, purely spatial) are provided for the
//! ablation studies.

use super::history::{SampleHistory, SlotId};
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
/// ```
/// use insitu::collect::{BatchAssembler, MiniBatch, PredictorLayout, Sample, SampleHistory};
/// use insitu::IterParam;
///
/// let spatial = IterParam::new(1, 5, 1).unwrap();
/// let temporal = IterParam::new(0, 100, 10).unwrap();
/// let asm = BatchAssembler::new(2, 10, PredictorLayout::SpatioTemporal, spatial, temporal);
///
/// let mut h = SampleHistory::new();
/// for it in (0..=100).step_by(10) {
///     for loc in 1..=5 {
///         h.record(Sample::new(it, loc, (loc as f64) + it as f64 / 100.0));
///     }
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
    fn reads_for(&self, iteration: u64) -> Option<Reads> {
        let step = self.temporal.step();
        match self.layout {
            PredictorLayout::SpatioTemporal => {
                let lagged = self.lagged_iteration(iteration)?;
                Some(Reads::Across {
                    iteration: lagged,
                    back: ((iteration - lagged) / step) as usize,
                })
            }
            PredictorLayout::Spatial => Some(Reads::Across { iteration, back: 0 }),
            PredictorLayout::Temporal => Some(Reads::Along {
                it_index: self.temporal.index_of(iteration)?,
                lag_steps: (self.lag / step).max(1) as usize,
            }),
        }
    }

    /// The one row routine: writes the predictors of the target at spatial
    /// index `index` (whose own slot is `own`) into `out`, reading every
    /// value through [`SampleHistory::probe`]. `slot_at(k)` is the slot of
    /// the `k`-th location of the spatial characteristic.
    fn write_row<S>(
        &self,
        history: &SampleHistory,
        reads: Reads,
        own: Option<SlotId>,
        index: Option<usize>,
        slot_at: &S,
        out: &mut [f64],
    ) -> Option<()>
    where
        S: Fn(usize) -> Option<SlotId>,
    {
        match reads {
            Reads::Across { iteration, back } => {
                let index = index?;
                for (i, slot) in out.iter_mut().enumerate() {
                    let prev = slot_at(index.checked_sub(i + 1)?)?;
                    *slot = history.probe(prev, back, iteration)?;
                }
            }
            Reads::Along {
                it_index,
                lag_steps,
            } => {
                let own = own?;
                for (i, slot) in out.iter_mut().enumerate() {
                    let back = (i + 1) * lag_steps;
                    let prev_it = self.temporal.nth(it_index.checked_sub(back)?)?;
                    *slot = history.probe(own, back, prev_it)?;
                }
            }
        }
        Some(())
    }

    /// Appends every row that can be formed for `iteration` across the
    /// spatial characteristic, resolving slots through `slot_at`. Rows of
    /// the layouts that read preceding locations at one iteration overlap:
    /// a row whose neighbour was just appended copies all but its nearest
    /// predictor from it, so each lagged value is probed once per call.
    /// The copied values are the very ones `write_row` would read.
    fn append_rows<S>(
        &self,
        history: &SampleHistory,
        iteration: u64,
        batch: &mut MiniBatch,
        slot_at: S,
    ) -> usize
    where
        S: Fn(usize) -> Option<SlotId>,
    {
        debug_assert_eq!(
            batch.order(),
            self.order,
            "batch stride must match the assembler order"
        );
        let Some(reads) = self.reads_for(iteration) else {
            return 0;
        };
        let mut appended = 0;
        // Whether the batch's last row is the row of the previous index.
        let mut carried = false;
        for index in 0..self.spatial.len() {
            // The target is the newest sample when the iteration was just
            // recorded.
            let target =
                slot_at(index).and_then(|own| Some((own, history.probe(own, 0, iteration)?)));
            let Some((own, target)) = target else {
                carried = false;
                continue;
            };
            carried = batch.push_after(target, |last, out| match reads {
                // Preceding locations at one iteration: this row reads
                // location `index - 1` and then exactly what the previous
                // row read, minus its farthest location.
                Reads::Across { iteration, back } if carried => {
                    let (nearest, rest) = out.split_first_mut()?;
                    *nearest = history.probe(slot_at(index - 1)?, back, iteration)?;
                    rest.copy_from_slice(&last[..rest.len()]);
                    Some(())
                }
                _ => self.write_row(history, reads, Some(own), Some(index), &slot_at, out),
            });
            appended += usize::from(carried);
        }
        appended
    }

    /// The slot of the `index`-th location of the spatial characteristic,
    /// looked up by location (the wrappers' resolver).
    fn slot_by_location(&self, history: &SampleHistory, index: usize) -> Option<SlotId> {
        history.slot_id(self.spatial.nth(index)? as usize)
    }

    /// Writes the predictor values that would be used to *predict*
    /// `V(location, iteration)` into `out` (which must hold exactly `order`
    /// elements). Returns `None` — leaving `out` in an unspecified state —
    /// when the history does not yet contain every value the row needs
    /// (early in the run, or at the low edge of the spatial range).
    ///
    /// Location-keyed wrapper over the same allocation-free row routine the
    /// slot-addressed collector path uses; see also
    /// [`BatchAssembler::predictors_for`].
    pub fn write_predictors_for(
        &self,
        history: &SampleHistory,
        location: usize,
        iteration: u64,
        out: &mut [f64],
    ) -> Option<()> {
        self.write_predictors(history, location, iteration, out, |k| {
            self.slot_by_location(history, k)
        })
    }

    /// [`BatchAssembler::write_predictors_for`] over pre-resolved slots:
    /// `slots[k]` is the slot of the `k`-th location of the spatial
    /// characteristic.
    pub(crate) fn write_predictors_in_slots(
        &self,
        history: &SampleHistory,
        slots: &[SlotId],
        location: usize,
        iteration: u64,
        out: &mut [f64],
    ) -> Option<()> {
        self.write_predictors(history, location, iteration, out, |k| slots.get(k).copied())
    }

    fn write_predictors<S>(
        &self,
        history: &SampleHistory,
        location: usize,
        iteration: u64,
        out: &mut [f64],
        slot_at: S,
    ) -> Option<()>
    where
        S: Fn(usize) -> Option<SlotId>,
    {
        debug_assert_eq!(out.len(), self.order, "predictor buffer must match order");
        let reads = self.reads_for(iteration)?;
        let own = history.slot_id(location);
        let index = self.spatial.index_of(location as u64);
        self.write_row(history, reads, own, index, &slot_at, out)
    }

    /// The predictor vector that would be used to *predict*
    /// `V(location, iteration)`; the target itself does not need to have
    /// been observed. Allocating convenience wrapper around
    /// [`BatchAssembler::write_predictors_for`] for cold paths.
    #[deprecated(
        since = "0.1.0",
        note = "allocates a fresh Vec per call; use the slice-writing \
                `write_predictors_for`"
    )]
    pub fn predictors_for(
        &self,
        history: &SampleHistory,
        location: usize,
        iteration: u64,
    ) -> Option<Vec<f64>> {
        let mut inputs = vec![0.0; self.order];
        self.write_predictors_for(history, location, iteration, &mut inputs)?;
        Some(inputs)
    }

    /// Appends every row that can be formed for a given iteration across
    /// the spatial characteristic directly into `batch` (predictors are
    /// written in place — zero per-row allocations). Returns the number of
    /// rows appended.
    ///
    /// Location-keyed wrapper over the row routine the collector drives
    /// with its pre-resolved slots.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `batch.order()` differs from the
    /// assembler's order.
    pub fn append_rows_for_iteration(
        &self,
        history: &SampleHistory,
        iteration: u64,
        batch: &mut MiniBatch,
    ) -> usize {
        self.append_rows(history, iteration, batch, |k| {
            self.slot_by_location(history, k)
        })
    }

    /// [`BatchAssembler::append_rows_for_iteration`] over pre-resolved
    /// slots: `slots[k]` is the slot of the `k`-th location of the spatial
    /// characteristic. What the collector calls after recording an
    /// iteration's samples.
    pub(crate) fn append_rows_in_slots(
        &self,
        history: &SampleHistory,
        slots: &[SlotId],
        iteration: u64,
        batch: &mut MiniBatch,
    ) -> usize {
        self.append_rows(history, iteration, batch, |k| slots.get(k).copied())
    }
}

/// Where the predictors of one target iteration are read, resolved once
/// per call by `BatchAssembler::reads_for`. `back` distances count samples
/// before the target's newest sample on an unbroken cadence; they only
/// steer [`SampleHistory::probe`] to the right sample, which verifies the
/// iteration and falls back to a lookup when the cadence had gaps.
#[derive(Debug, Clone, Copy)]
enum Reads {
    /// Preceding locations, all at `iteration`.
    Across { iteration: u64, back: usize },
    /// The target's own location, `lag_steps`, `2·lag_steps`, … sampled
    /// iterations before the target's index `it_index`.
    Along { it_index: usize, lag_steps: usize },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::Sample;

    fn history() -> SampleHistory {
        // V(l, t) = l + t/100 over locations 1..=8, iterations 0..=200 step 10.
        let mut h = SampleHistory::new();
        for it in (0..=200u64).step_by(10) {
            for loc in 1..=8usize {
                h.record(Sample::new(it, loc, loc as f64 + it as f64 / 100.0));
            }
        }
        h
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
    #[allow(deprecated)]
    fn predictors_can_be_formed_without_observed_target() {
        let h = history();
        let asm = assembler(PredictorLayout::Spatial);
        // Location 9 itself was never sampled, but its predecessors were.
        let spatial = IterParam::new(1, 9, 1).unwrap();
        let asm2 = BatchAssembler::new(
            3,
            20,
            PredictorLayout::Spatial,
            spatial,
            IterParam::new(0, 200, 10).unwrap(),
        );
        assert!(row_for(&asm, &h, 9, 50).is_none());
        let predictors = asm2.predictors_for(&h, 9, 50).unwrap();
        assert_eq!(predictors, vec![8.5, 7.5, 6.5]);
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
