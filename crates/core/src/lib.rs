//! `insitu` — real-time, auto-regression based in-situ feature extraction.
//!
//! This crate implements the method of *"A Real-Time, Auto-Regression Method
//! for In-Situ Feature Extraction in Hydrodynamics Simulations"* (ISPASS
//! 2025): a lightweight analysis layer that is linked into an iterative
//! simulation and, while the simulation runs,
//!
//! 1. **collects** a diagnostic variable at user-specified temporal and
//!    spatial characteristics ([`collect`]),
//! 2. **curve-fits** its evolution with a linear auto-regressive model
//!    trained incrementally on mini-batches by gradient descent ([`model`]),
//! 3. **tracks** focal points of the fitted curve — local extrema,
//!    inflection points, threshold crossings ([`tracking`]), and
//! 4. **extracts** the features the user asked for — a break-point radius,
//!    a detonation delay time, an outlier set ([`extract`]) —
//!
//! optionally requesting **early termination** of the simulation once the
//! model is accurate enough ([`region`]).
//!
//! The single entry point is the handle-based multi-region
//! [`engine::Engine`], which drives every iteration through explicit
//! **sample → assemble → train → extract** stages and can move training off
//! the simulation thread ([`engine::TrainingMode::Background`]). Each call of
//! the paper's `td_*` API (Section III-C) has one engine counterpart:
//! `td_region_init` is [`Engine::add_region`](engine::Engine::add_region),
//! `td_region_add_analysis` is
//! [`Engine::add_analysis`](engine::Engine::add_analysis), and the
//! `td_region_begin` / `td_region_end` pair is
//! [`Engine::step`](engine::Engine::step) /
//! [`StepScope::complete`](engine::StepScope::complete).
//!
//! # Quick start
//!
//! ```
//! use insitu::prelude::*;
//!
//! // The "simulation": a decaying wave sampled at 20 locations.
//! struct Domain {
//!     velocities: Vec<f64>,
//! }
//!
//! let mut engine: Engine<Domain> = Engine::new();
//! let region = engine.add_region("demo").unwrap();
//! let spec = AnalysisSpec::builder()
//!     .provider(|d: &Domain, loc: usize| d.velocities.get(loc).copied().unwrap_or(0.0))
//!     .spatial(IterParam::new(1, 10, 1).unwrap())
//!     .temporal(IterParam::new(0, 200, 1).unwrap())
//!     .method(AnalysisMethod::CurveFitting)
//!     .feature(FeatureKind::Breakpoint { threshold: 0.05 })
//!     .build()
//!     .unwrap();
//! engine.add_analysis(region, spec).unwrap();
//!
//! let mut domain = Domain { velocities: vec![0.0; 32] };
//! for iteration in 0..200u64 {
//!     let step = engine.step(iteration);
//!     // main computation: an outward-travelling, decaying pulse
//!     for (loc, v) in domain.velocities.iter_mut().enumerate() {
//!         let front = iteration as f64 * 0.15;
//!         let x = loc as f64;
//!         *v = (1.0 / (1.0 + x)) * (-(x - front).powi(2) / 4.0).exp();
//!     }
//!     if step.complete(&domain).should_terminate() {
//!         break;
//!     }
//! }
//! assert!(engine.status(region).unwrap().samples_collected > 0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod collect;
pub mod engine;
pub mod error;
pub mod extract;
pub mod kernels;
pub mod model;
pub mod params;
pub mod provider;
pub mod region;
pub mod report;
pub mod snapshot;
pub mod telemetry;
pub mod tracking;

pub use error::{Error, Result};
pub use params::IterParam;
pub use provider::VarProvider;

/// The most commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::collect::{Collector, MiniBatch, Retention, SampleHistory};
    pub use crate::engine::{
        AnalysisId, Engine, EngineConfig, RegionId, StepReport, StepScope, TrainingMode,
        TrainingProgress,
    };
    pub use crate::error::{Error, Result};
    pub use crate::extract::{BreakpointExtractor, DelayTimeExtractor, FeatureKind};
    pub use crate::model::{ArModel, IncrementalTrainer, Optimizer, OptimizerKind, TrainerConfig};
    pub use crate::params::IterParam;
    pub use crate::provider::{FrameProvider, SampleFrame, SliceProvider, VarProvider};
    pub use crate::region::{
        AnalysisMethod, AnalysisSpec, ExitAction, RegionStatus, StatusBroadcaster,
    };
    pub use crate::telemetry::{
        Histogram, Recorder, ShedPolicy, Stage, StepBudget, TelemetryConfig,
    };
    pub use crate::tracking::{PeakDetector, TrackedPoint, TrackedPointKind};
}
