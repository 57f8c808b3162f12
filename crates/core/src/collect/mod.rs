//! Real-time data collection.
//!
//! On every simulation iteration the collector checks the user's temporal
//! characteristic; if the iteration is sampled it queries the
//! [`VarProvider`](crate::provider::VarProvider) at every sampled location
//! (the spatial characteristic), records the values in a [`SampleHistory`],
//! and assembles training rows into columnar [`MiniBatch`]es (one
//! contiguous predictor array with stride = AR order plus a parallel target
//! array — see the stride convention in [`MiniBatch`]). When a batch fills
//! up it is swapped for a recycled buffer from the [`BatchPool`] and handed
//! to the incremental trainer — the behaviour described in Section
//! III-B.1/2 of the paper, minus the per-row allocations.
//!
//! Both stores in this module are **struct-of-arrays**:
//!
//! * [`MiniBatch`] holds one contiguous `inputs: Vec<f64>` whose stride
//!   equals the AR order (row `r` is `inputs[r*order..(r+1)*order]`,
//!   nearest lag first) plus a parallel `targets: Vec<f64>` — the stride
//!   convention every trainer kernel iterates with `chunks_exact(order)`;
//! * [`SampleHistory`] is slot-indexed: a dense `location → slot` map
//!   built when the collector registers its locations, per-slot
//!   `iterations`/`values` columns, incrementally-maintained peak/latest
//!   statistics read by the extractors as borrowed slices, and a
//!   configurable [`Retention`] policy ([`Retention::Window`] bounds
//!   per-location memory for indefinitely-running analyses).
//!
//! Every analysis collects through exactly one [`Collector`] on the
//! simulation thread. The per-step record and assembly work is a few
//! microseconds, less than a single thread-pool dispatch costs, so the
//! collection layer is never split across workers; domain-decomposed
//! simulations run one engine per rank instead.

mod assembler;
mod collector;
mod history;
mod minibatch;
mod sample;
#[cfg(test)]
mod slot_assembly_tests;

pub use assembler::{BatchAssembler, PredictorLayout};
pub(crate) use collector::CollectorState;
pub use collector::{CollectionEvent, Collector};
pub use history::{Retention, SampleHistory, SlotId};
pub use minibatch::{BatchPool, MiniBatch};
pub use sample::Sample;
