//! What a region is made of: the analyses it runs and the status it
//! publishes.
//!
//! A region of the [`Engine`](crate::engine::Engine) corresponds to the
//! paper's `td_region_t`: it owns one or more analyses (each an
//! [`AnalysisSpec`]) and, after every completed step, publishes a
//! [`RegionStatus`] that the application (and, through a
//! [`StatusBroadcaster`], every other rank) can consult — including the
//! early-termination request once the auto-regressive model has converged.

mod spec;
mod status;

pub use spec::{AnalysisMethod, AnalysisSpec, AnalysisSpecBuilder, ExitAction};
pub use status::{FeatureValue, NullBroadcaster, RegionStatus, StatusBroadcaster};
