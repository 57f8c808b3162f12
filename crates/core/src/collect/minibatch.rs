//! Columnar (struct-of-arrays) mini-batches of training rows.
//!
//! # The stride convention
//!
//! This module is the **single source of truth** for the columnar layout
//! used throughout the pipeline (assembler → collector → trainer):
//!
//! * A batch of `len` rows with AR order `n` stores its predictors in one
//!   contiguous `inputs: Vec<f64>` of length `len * n`. Row `r` occupies
//!   `inputs[r * n .. (r + 1) * n]` — the **stride equals the model
//!   order**.
//! * Within a row, predictors are ordered nearest-lag first:
//!   `V(l-1, t-lag), V(l-2, t-lag), ..., V(l-n, t-lag)` (or the temporal /
//!   spatial analogue chosen by the
//!   [`PredictorLayout`](crate::collect::PredictorLayout)).
//! * The targets live in a parallel `targets: Vec<f64>` of length `len`;
//!   `targets[r]` is the target of row `r`.
//!
//! Every consumer iterates with `inputs.chunks_exact(order)` zipped against
//! `targets` — contiguous, allocation-free, and vectorizable. Code that
//! needs the layout (the trainer's gradient kernel, the benches) should
//! reference this doc rather than restating it.
//!
//! # Buffer recycling
//!
//! Mini-batches are handed across stages (and across threads in background
//! training mode) **by value** and come back to the owning collector's
//! [`BatchPool`] once trained. The pool hands out cleared-but-allocated
//! buffers, so after warm-up the steady-state iteration performs zero
//! per-row heap allocations: the same few buffers cycle between
//! "filling", "training", and "spare" forever.

use crate::error::{Error, Result};

/// A bounded columnar buffer of training rows handed to the trainer when
/// full.
///
/// See the [`collect` module documentation](crate::collect) and the
/// source module header for the stride convention. The
/// `capacity` is the fill threshold, not a hard limit: the assembler appends
/// every row an iteration produces before the fullness check, so a batch can
/// momentarily exceed its capacity (the recycled buffer then keeps the
/// larger allocation, preserving the zero-allocation steady state).
///
/// ```
/// use insitu::collect::MiniBatch;
///
/// let mut batch = MiniBatch::new(2, 2);
/// assert!(!batch.is_full());
/// batch.push(&[1.0, 2.0], 3.0).unwrap();
/// batch.push(&[2.0, 3.0], 4.0).unwrap();
/// assert!(batch.is_full());
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.inputs(), &[1.0, 2.0, 2.0, 3.0]);
/// assert_eq!(batch.targets(), &[3.0, 4.0]);
/// let rows: Vec<(&[f64], f64)> = batch.rows().collect();
/// assert_eq!(rows[1], (&[2.0, 3.0][..], 4.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MiniBatch {
    order: usize,
    capacity: usize,
    inputs: Vec<f64>,
    targets: Vec<f64>,
}

impl MiniBatch {
    /// Creates an empty batch for rows of `order` predictors that is
    /// considered full after `capacity` rows. The backing storage is
    /// allocated up front.
    ///
    /// # Panics
    ///
    /// Panics if `order` or `capacity` is zero.
    pub fn new(order: usize, capacity: usize) -> Self {
        assert!(order > 0, "AR order must be positive");
        assert!(capacity > 0, "mini-batch capacity must be positive");
        Self {
            order,
            capacity,
            inputs: Vec::with_capacity(order * capacity),
            targets: Vec::with_capacity(capacity),
        }
    }

    /// The AR order: the stride of [`MiniBatch::inputs`].
    pub fn order(&self) -> usize {
        self.order
    }

    /// The configured fill threshold, in rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of rows currently buffered.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Whether the batch has reached its capacity and should be trained on.
    pub fn is_full(&self) -> bool {
        self.targets.len() >= self.capacity
    }

    /// The contiguous predictor values, stride [`MiniBatch::order`]
    /// (row-major: row `r` is `inputs()[r*order..(r+1)*order]`).
    pub fn inputs(&self) -> &[f64] {
        &self.inputs
    }

    /// The target values, one per row.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Iterates the rows as `(predictors, target)` pairs without copying.
    pub fn rows(&self) -> impl Iterator<Item = (&[f64], f64)> + '_ {
        self.inputs
            .chunks_exact(self.order)
            .zip(self.targets.iter().copied())
    }

    /// The predictors of row `index`, if it exists.
    pub fn row(&self, index: usize) -> Option<&[f64]> {
        (index < self.len()).then(|| &self.inputs[index * self.order..(index + 1) * self.order])
    }

    /// Appends a row by copying its predictors.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidHyperParameter`] if `inputs` does not hold
    /// exactly `order` values (all rows in a batch must agree so the
    /// gradient has a fixed dimension).
    pub fn push(&mut self, inputs: &[f64], target: f64) -> Result<()> {
        if inputs.len() != self.order {
            return Err(Error::InvalidHyperParameter {
                name: "order",
                what: format!(
                    "row order {} differs from batch order {}",
                    inputs.len(),
                    self.order
                ),
            });
        }
        self.inputs.extend_from_slice(inputs);
        self.targets.push(target);
        Ok(())
    }

    /// Appends a row by letting `fill` write the predictors **directly into
    /// the batch's backing storage** — the zero-copy, zero-allocation path
    /// the assembler uses. `fill` receives a slice of exactly `order`
    /// elements (initialized to zero); returning `None` rolls the row back
    /// (nothing is appended) and `push_with` returns `false`.
    pub fn push_with<F>(&mut self, target: f64, fill: F) -> bool
    where
        F: FnOnce(&mut [f64]) -> Option<()>,
    {
        self.push_after(target, |_, row| fill(row))
    }

    /// [`MiniBatch::push_with`] whose `fill` also reads the predictors of
    /// the last row in the batch (an empty slice when there is none), so an
    /// assembler can carry values over from one row to the next.
    pub(crate) fn push_after<F>(&mut self, target: f64, fill: F) -> bool
    where
        F: FnOnce(&[f64], &mut [f64]) -> Option<()>,
    {
        let start = self.inputs.len();
        self.inputs.resize(start + self.order, 0.0);
        let (earlier, row) = self.inputs.split_at_mut(start);
        let last = &earlier[start.saturating_sub(self.order)..];
        if fill(last, row).is_some() {
            self.targets.push(target);
            true
        } else {
            self.inputs.truncate(start);
            false
        }
    }

    /// Removes every row while keeping the allocated storage — the paper's
    /// "the mini-batch is reset to collect new data", minus the
    /// reallocation. This is what [`BatchPool::release`] calls; recycled
    /// buffers re-enter circulation at full capacity.
    pub fn clear(&mut self) {
        self.inputs.clear();
        self.targets.clear();
    }

    /// Allocated room, in rows, of the backing storage (at least
    /// [`MiniBatch::capacity`]; more if an iteration once overfilled the
    /// batch). Used by the capacity-reuse tests.
    pub fn allocated_rows(&self) -> usize {
        self.targets.capacity()
    }

    /// Mean of the buffered targets (0 for an empty batch); used by
    /// normalization warm-up.
    pub fn target_mean(&self) -> f64 {
        if self.targets.is_empty() {
            0.0
        } else {
            self.targets.iter().sum::<f64>() / self.targets.len() as f64
        }
    }
}

/// A recycling pool of [`MiniBatch`] buffers, all sharing one `(order,
/// capacity)` shape.
///
/// The collector owns one pool per analysis. When a batch fills it is
/// swapped for a spare buffer and handed downstream (possibly to another
/// thread); once trained it is [`released`](BatchPool::release) back and
/// its allocation is reused. [`BatchPool::buffers_created`] /
/// [`BatchPool::recycle_hits`] expose the steady-state behaviour to tests:
/// after warm-up, `buffers_created` stops growing and every acquire is a
/// recycle hit.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPool {
    order: usize,
    capacity: usize,
    free: Vec<MiniBatch>,
    buffers_created: usize,
    recycle_hits: usize,
}

/// Spare buffers kept per pool. Two cover the steady state (one filling,
/// one in flight); a few more absorb background-training backlog bursts
/// without unbounded growth.
const MAX_SPARE_BUFFERS: usize = 8;

impl BatchPool {
    /// Creates an empty pool producing batches of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `order` or `capacity` is zero.
    pub fn new(order: usize, capacity: usize) -> Self {
        assert!(order > 0, "AR order must be positive");
        assert!(capacity > 0, "mini-batch capacity must be positive");
        Self {
            order,
            capacity,
            free: Vec::new(),
            buffers_created: 0,
            recycle_hits: 0,
        }
    }

    /// Hands out an empty batch, recycling a spare buffer when one is
    /// available and allocating a fresh one otherwise.
    pub fn acquire(&mut self) -> MiniBatch {
        if let Some(batch) = self.free.pop() {
            self.recycle_hits += 1;
            batch
        } else {
            self.buffers_created += 1;
            MiniBatch::new(self.order, self.capacity)
        }
    }

    /// Returns a spent batch to the pool. The batch is cleared (storage
    /// kept); buffers of a foreign shape (different order **or**
    /// capacity — either would change the batch cadence of a later
    /// acquire), or beyond the spare cap, are dropped instead of pooled.
    pub fn release(&mut self, mut batch: MiniBatch) {
        if batch.order() != self.order
            || batch.capacity() != self.capacity
            || self.free.len() >= MAX_SPARE_BUFFERS
        {
            return;
        }
        batch.clear();
        self.free.push(batch);
    }

    /// Total buffers ever allocated by this pool. Flat after warm-up.
    pub fn buffers_created(&self) -> usize {
        self.buffers_created
    }

    /// Acquires served from the free list instead of a fresh allocation.
    pub fn recycle_hits(&self) -> usize {
        self.recycle_hits
    }

    /// Spare buffers currently pooled.
    pub fn spare_buffers(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_and_clears_keeping_storage() {
        let mut b = MiniBatch::new(1, 3);
        for i in 0..3 {
            b.push(&[i as f64], i as f64).unwrap();
        }
        assert!(b.is_full());
        assert_eq!(b.len(), 3);
        assert_eq!(b.inputs(), &[0.0, 1.0, 2.0]);
        assert_eq!(b.targets(), &[0.0, 1.0, 2.0]);
        let rows_before = b.allocated_rows();
        b.clear();
        assert!(b.is_empty());
        assert!(!b.is_full());
        assert_eq!(b.allocated_rows(), rows_before, "clear must keep storage");
    }

    #[test]
    fn rejects_mismatched_orders() {
        let mut b = MiniBatch::new(2, 4);
        b.push(&[1.0, 2.0], 0.0).unwrap();
        let err = b.push(&[1.0], 0.0).unwrap_err();
        assert!(matches!(err, Error::InvalidHyperParameter { .. }));
        assert_eq!(b.len(), 1, "failed push must not change the batch");
        assert_eq!(b.inputs().len(), 2);
    }

    #[test]
    fn push_with_writes_in_place_and_rolls_back() {
        let mut b = MiniBatch::new(3, 4);
        assert!(b.push_with(9.0, |out| {
            out.copy_from_slice(&[1.0, 2.0, 3.0]);
            Some(())
        }));
        assert!(!b.push_with(8.0, |_| None));
        assert_eq!(b.len(), 1);
        assert_eq!(b.inputs(), &[1.0, 2.0, 3.0]);
        assert_eq!(b.targets(), &[9.0]);
        assert_eq!(b.row(0), Some(&[1.0, 2.0, 3.0][..]));
        assert_eq!(b.row(1), None);
    }

    #[test]
    fn can_overfill_past_capacity() {
        // The assembler appends every row of an iteration before checking
        // fullness, so a batch may exceed its nominal capacity.
        let mut b = MiniBatch::new(1, 2);
        for i in 0..5 {
            b.push(&[i as f64], 0.0).unwrap();
        }
        assert_eq!(b.len(), 5);
        assert!(b.is_full());
    }

    #[test]
    fn target_mean_is_average_of_targets() {
        let mut b = MiniBatch::new(1, 8);
        b.push(&[0.0], 2.0).unwrap();
        b.push(&[0.0], 4.0).unwrap();
        assert_eq!(b.target_mean(), 3.0);
        assert_eq!(MiniBatch::new(1, 8).target_mean(), 0.0);
    }

    #[test]
    fn pool_recycles_buffers_without_reallocating() {
        let mut pool = BatchPool::new(3, 16);
        let mut batch = pool.acquire();
        assert_eq!(pool.buffers_created(), 1);
        for _ in 0..16 {
            batch.push(&[1.0, 2.0, 3.0], 4.0).unwrap();
        }
        pool.release(batch);
        let again = pool.acquire();
        assert!(again.is_empty());
        assert_eq!(again.allocated_rows(), 16, "storage must survive recycling");
        assert_eq!(pool.buffers_created(), 1, "no second allocation");
        assert_eq!(pool.recycle_hits(), 1);
    }

    #[test]
    fn pool_caps_spares_and_rejects_foreign_shapes() {
        let mut pool = BatchPool::new(2, 4);
        for _ in 0..MAX_SPARE_BUFFERS + 3 {
            pool.release(MiniBatch::new(2, 4));
        }
        assert_eq!(pool.spare_buffers(), MAX_SPARE_BUFFERS);
        let mut pool = BatchPool::new(2, 4);
        pool.release(MiniBatch::new(5, 4));
        assert_eq!(pool.spare_buffers(), 0, "foreign order must be dropped");
        pool.release(MiniBatch::new(2, 1));
        assert_eq!(
            pool.spare_buffers(),
            0,
            "foreign capacity must be dropped — pooling it would change \
             the fill threshold of a later acquire"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = MiniBatch::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn zero_order_panics() {
        let _ = MiniBatch::new(0, 4);
    }
}
