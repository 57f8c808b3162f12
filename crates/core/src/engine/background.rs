//! Off-thread training machinery.
//!
//! In [`TrainingMode::Background`](super::TrainingMode::Background) the
//! engine can move an analysis' trainer onto a `parsim` worker when a
//! mini-batch is ready, so the gradient-descent epochs run concurrently with
//! the simulation's next iterations. It does so only when that pays: every
//! job measures the batch's train time and its hand-off wait (launch to
//! worker start), and the engine trains a batch in place on the simulation
//! thread whenever training is measured to be cheaper than the hand-off, or
//! the previous batch is still on the worker (see `Analysis::place_batch`).
//! The trainer is *moved*, not shared: at
//! any moment it is either resident in the [`TrainerSlot`] or owned by
//! exactly one in-flight job, which keeps the design lock-free and the
//! training sequence identical to inline mode (same batches, same order —
//! bit-identical results once drained). The columnar batch travels with the
//! job and comes back with the trainer, so its buffer can be recycled into
//! the collector's pool instead of reallocated.

use std::time::Instant;

use parsim::{JobHandle, ThreadPool};

use crate::collect::MiniBatch;
use crate::model::IncrementalTrainer;

use super::nanos_since;

/// One batch trained on a worker: the spent batch (ready for recycling),
/// its loss (`None` if the batch was rejected) and what the job measured.
pub(crate) struct Trained {
    pub(crate) batch: MiniBatch,
    pub(crate) loss: Option<f64>,
    /// Time the worker spent training the batch.
    pub(crate) train_ns: u64,
    /// Time from the launch on the simulation thread to the worker
    /// starting the job: the cost of handing the batch off.
    pub(crate) handoff_ns: u64,
}

/// Result of one background training job: the trainer comes back together
/// with the trained batch.
pub(crate) struct TrainJob {
    pub(crate) trainer: Box<IncrementalTrainer>,
    pub(crate) trained: Trained,
}

/// Where an analysis' trainer currently lives. The trainer is boxed so
/// moving it between the slot and a worker (and between enum variants) is
/// a pointer move, not a copy of its scratch buffers.
pub(crate) enum TrainerSlot {
    /// Resident and ready for the next batch (always the case between
    /// steps in inline mode).
    Idle(Box<IncrementalTrainer>),
    /// Off training a mini-batch on a worker thread.
    Busy(JobHandle<TrainJob>),
    /// Transient state while ownership moves between the two variants; never
    /// observable from outside this module.
    Moving,
    /// The in-flight job panicked on its worker and took the trainer (and
    /// the batch buffer) with it. A poisoned slot is inert: shutting it
    /// down again is a no-op, so dropping an engine whose background job
    /// panicked never double-panics (which would abort the process).
    Poisoned,
}

impl TrainerSlot {
    /// The resident trainer, if it is not in flight.
    pub(crate) fn trainer(&self) -> Option<&IncrementalTrainer> {
        match self {
            TrainerSlot::Idle(trainer) => Some(trainer),
            _ => None,
        }
    }

    pub(crate) fn is_idle(&self) -> bool {
        matches!(self, TrainerSlot::Idle(_))
    }

    /// Moves the trainer onto a worker to train `batch`. The job stamps
    /// the launch and its own start so the hand-off can be measured.
    ///
    /// # Panics
    ///
    /// Panics if the trainer is already in flight — callers reclaim first.
    pub(crate) fn launch(&mut self, batch: MiniBatch, pool: &ThreadPool) {
        let TrainerSlot::Idle(mut trainer) = std::mem::replace(self, TrainerSlot::Moving) else {
            panic!("launch requires a resident trainer");
        };
        let launched = Instant::now();
        *self = TrainerSlot::Busy(pool.spawn_job(move || {
            let handoff_ns = nanos_since(launched);
            let started = Instant::now();
            let loss = trainer.train_batch(&batch).ok();
            let train_ns = nanos_since(started);
            TrainJob {
                trainer,
                trained: Trained {
                    batch,
                    loss,
                    train_ns,
                    handoff_ns,
                },
            }
        }));
    }

    /// If the in-flight job has finished, restores the trainer to the slot
    /// and returns what it trained; returns `None` (without blocking)
    /// otherwise.
    pub(crate) fn reclaim_if_finished(&mut self) -> Option<Trained> {
        if matches!(self, TrainerSlot::Busy(handle) if handle.is_finished()) {
            Some(self.join_if_busy().expect("slot was busy"))
        } else {
            None
        }
    }

    /// Blocks until the in-flight job (if any) finishes, restores the
    /// trainer to the slot, and returns what it trained; returns `None` if
    /// the slot was idle.
    pub(crate) fn join_if_busy(&mut self) -> Option<Trained> {
        match std::mem::replace(self, TrainerSlot::Moving) {
            TrainerSlot::Busy(handle) => {
                let TrainJob { trainer, trained } = handle.join();
                *self = TrainerSlot::Idle(trainer);
                Some(trained)
            }
            other => {
                *self = other;
                None
            }
        }
    }

    /// [`TrainerSlot::join_if_busy`] for the shutdown/drop path: where the
    /// plain join *propagates* a worker panic (a visible failure for normal
    /// operation), this variant catches it and leaves the slot
    /// [`TrainerSlot::Poisoned`], so shutdown is safe to call during panic
    /// unwinding (where a second panic would abort) and safe to call again.
    pub(crate) fn join_for_shutdown(&mut self) -> Option<Trained> {
        match std::mem::replace(self, TrainerSlot::Moving) {
            TrainerSlot::Busy(handle) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.join())) {
                    Ok(TrainJob { trainer, trained }) => {
                        *self = TrainerSlot::Idle(trainer);
                        Some(trained)
                    }
                    Err(_) => {
                        *self = TrainerSlot::Poisoned;
                        None
                    }
                }
            }
            other => {
                *self = other;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim::ParallelConfig;

    #[test]
    fn shutdown_join_poisons_instead_of_propagating_worker_panics() {
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        let mut slot = TrainerSlot::Busy(pool.spawn_job(|| -> TrainJob { panic!("boom") }));
        assert!(slot.join_for_shutdown().is_none());
        assert!(matches!(slot, TrainerSlot::Poisoned));
        // Idempotent: a poisoned slot shuts down again as a clean no-op.
        assert!(slot.join_for_shutdown().is_none());
        assert!(matches!(slot, TrainerSlot::Poisoned));
        assert!(!slot.is_idle());
        assert!(slot.trainer().is_none());
    }
}
