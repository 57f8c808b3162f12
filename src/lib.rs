//! Umbrella crate for the ISPASS 2025 reproduction workspace.
//!
//! This crate re-exports the public APIs of the workspace members so the
//! `examples/` and `tests/` directories at the repository root can exercise
//! the whole system through one import:
//!
//! ```
//! use insitu_repro::prelude::*;
//!
//! let params = IterParam::new(0, 10, 1).expect("valid range");
//! assert_eq!(params.len(), 11);
//! ```
//!
//! Downstream users normally depend on the individual crates
//! ([`insitu`], [`lulesh`], [`wdmerger`], [`simkit`], [`parsim`]) directly.

pub use insitu;
pub use lulesh;
pub use parsim;
pub use simkit;
pub use wdmerger;

/// Convenience re-exports of the most commonly used items across the
/// workspace (the engine API, both proxy simulations, and the
/// parallel-runtime configuration).
pub mod prelude {
    pub use insitu::prelude::*;
    pub use lulesh::{LuleshConfig, LuleshSim};
    pub use parsim::{CostModel, ParallelConfig, ThreadPool, World};
    pub use simkit::series::TimeSeries;
    pub use wdmerger::{DiagnosticVariable, WdMergerConfig, WdMergerSim};
}
