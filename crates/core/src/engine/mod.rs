//! The in-situ engine: handle-based multi-region sessions with staged
//! sampling, training and extraction.
//!
//! [`Engine`] is the library's entry point. An engine owns one or more
//! regions and their analyses behind copyable integer handles
//! ([`RegionId`], [`AnalysisId`]) — mirroring the paper's C API, which also
//! hands out ids — and splits every iteration into four explicit stages:
//!
//! 1. **sample** — batch-query each analysis' provider over its spatial
//!    characteristic ([`VarProvider::fill`](crate::provider::VarProvider::fill)),
//! 2. **assemble** — write fresh samples into a columnar
//!    [`MiniBatch`](crate::collect::MiniBatch) (contiguous predictors,
//!    stride = AR order; buffers recycled through a pool so the steady
//!    state allocates nothing per row),
//! 3. **train** — run gradient descent on full batches, either
//!    [`TrainingMode::Inline`] on the simulation thread, right where the
//!    batch was assembled, or [`TrainingMode::Background`], which hands a
//!    batch to a `parsim` worker only when training it costs more than the
//!    hand-off,
//! 4. **extract** — derive the requested features once an analysis is done.
//!
//! The paired `begin`/`end` calls of the paper's API are replaced by the
//! RAII [`StepScope`] returned from [`Engine::step`].
//!
//! # Example
//!
//! ```
//! use insitu::engine::{Engine, EngineConfig, TrainingMode};
//! use insitu::extract::FeatureKind;
//! use insitu::region::AnalysisSpec;
//! use insitu::IterParam;
//!
//! let mut engine: Engine<Vec<f64>> = Engine::new();
//! let region = engine.add_region("demo").unwrap();
//! let analysis = engine
//!     .add_analysis(
//!         region,
//!         AnalysisSpec::builder()
//!             .name("velocity")
//!             .provider(|d: &Vec<f64>, loc: usize| d.get(loc).copied().unwrap_or(0.0))
//!             .spatial(IterParam::new(1, 10, 1).unwrap())
//!             .temporal(IterParam::new(0, 100, 1).unwrap())
//!             .feature(FeatureKind::Breakpoint { threshold: 0.05 })
//!             .lag(5)
//!             .build()
//!             .unwrap(),
//!     )
//!     .unwrap();
//!
//! let mut domain = vec![0.0_f64; 32];
//! for iteration in 0..100u64 {
//!     let step = engine.step(iteration);
//!     // ... main computation updates `domain` ...
//!     for (loc, v) in domain.iter_mut().enumerate() {
//!         let front = iteration as f64 * 0.2;
//!         let x = loc as f64;
//!         *v = 5.0 / (1.0 + x) * (-(x - front) * (x - front) / 8.0).exp();
//!     }
//!     let report = step.complete(&domain);
//!     if report.should_terminate() {
//!         break;
//!     }
//! }
//! engine.drain();
//! assert!(engine.status(region).unwrap().samples_collected > 0);
//! assert!(engine.history(analysis).is_some());
//! ```

mod analysis;
mod background;
mod step;

pub use step::{StepReport, StepScope};

use parsim::ThreadPool;

use crate::collect::SampleHistory;
use crate::error::{Error, Result};
use crate::model::IncrementalTrainer;
use crate::region::{
    AnalysisSpec, ExitAction, FeatureValue, NullBroadcaster, RegionStatus, StatusBroadcaster,
};
use crate::snapshot::{parse_container, Container, Dec, Enc};
use crate::telemetry::{self, Recorder, ShedPolicy, Stage, StepBudget, TelemetryConfig};

use analysis::{put_feature, take_feature, Analysis, AnalysisState};

/// Starts a monotonic stage clock, or not — untimed engines skip the
/// `Instant::now()` syscall entirely so telemetry-off stays free.
#[inline]
fn stage_clock(timed: bool) -> Option<std::time::Instant> {
    timed.then(std::time::Instant::now)
}

/// Elapsed nanoseconds since [`stage_clock`], saturating to `u64`.
#[inline]
fn stage_elapsed(clock: Option<std::time::Instant>) -> u64 {
    clock.map_or(0, nanos_since)
}

/// Nanoseconds elapsed since `start`, saturating to `u64`.
#[inline]
fn nanos_since(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Folds `sample` into an EWMA with α = 1/8, the constant the budget and
/// the background placement estimates use. An EWMA of 0 means "nothing
/// measured yet": the first sample seeds it, and the result is never 0.
fn ewma(current_ns: u64, sample_ns: u64) -> u64 {
    if current_ns == 0 {
        sample_ns.max(1)
    } else {
        (current_ns - current_ns / 8 + sample_ns / 8).max(1)
    }
}

/// Where the gradient-descent training of full mini-batches runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrainingMode {
    /// Train inside [`StepScope::complete`] — the paper's original
    /// behaviour, lowest latency to convergence signals. Each filled batch
    /// trains on the simulation thread right after it is assembled; the
    /// configured pool is never used. A batch trains in well under one
    /// pool dispatch, so spreading several analyses' batches over workers
    /// would only add cost.
    #[default]
    Inline,
    /// Move the trainer onto a `parsim` worker when a batch fills and
    /// training it costs more than handing it off, so the simulation thread
    /// pays for sampling, assembly and the cheaper of the two. Each
    /// analysis keeps measuring both costs (train time per batch, and the
    /// wait from launch to a worker starting the job). A batch goes to the
    /// worker when the worker is free and its measured train time is not
    /// below the measured hand-off; the first batch always goes, so both
    /// costs get measured. Otherwise it trains on the simulation thread —
    /// also when the previous batch is still on the worker, which then
    /// cannot keep up: the step waits for that job instead of queueing a
    /// backlog, so at most one batch is ever in flight. Poll with
    /// [`Engine::poll`]; [`Engine::drain`] blocks until the background work
    /// has caught up, after which results are bit-identical to inline mode
    /// (same batches, same order, wherever each one trained).
    Background,
}

/// Engine construction parameters.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Inline or background training (default inline).
    pub training_mode: TrainingMode,
    /// Thread pool for [`TrainingMode::Background`] training jobs; inline
    /// engines never touch it.
    pub pool: ThreadPool,
    /// Stage-timing telemetry (default: off unless the `INSITU_TELEMETRY`
    /// environment variable enables it, or [`EngineConfig::budget`] is
    /// set). See [`crate::telemetry`].
    pub telemetry: TelemetryConfig,
    /// Per-step cost budget and overload policy (default: none). When the
    /// EWMA of measured step cost crosses the budget, the engine sheds
    /// deterministically per [`ShedPolicy`] instead of stalling the
    /// simulation step; shed decisions are recorded as
    /// [`Stage::Shed`] telemetry events.
    pub budget: Option<StepBudget>,
}

impl EngineConfig {
    /// Inline training on the simulation thread (the default).
    pub fn inline() -> Self {
        Self::default()
    }

    /// [`EngineConfig::inline`] with `pool` set. The inline train stage no
    /// longer fans out, so the pool goes unused.
    #[deprecated(
        since = "0.1.0",
        note = "inline training never fans out; use `inline()`"
    )]
    pub fn inline_parallel(pool: ThreadPool) -> Self {
        Self {
            pool,
            ..Self::default()
        }
    }

    /// Background training on the given pool.
    pub fn background(pool: ThreadPool) -> Self {
        Self {
            training_mode: TrainingMode::Background,
            pool,
            ..Self::default()
        }
    }

    /// [`EngineConfig::inline`] with `pool` set. Collection is no longer
    /// sharded, so the decomposition is dropped.
    #[deprecated(
        since = "0.1.0",
        note = "collection is never sharded; use `inline()` or `background(pool)`"
    )]
    pub fn sharded(
        _decomposition: simkit::decomposition::BlockDecomposition,
        pool: ThreadPool,
    ) -> Self {
        Self {
            pool,
            ..Self::default()
        }
    }

    /// Whether the stage clocks run for engines built from this
    /// configuration: explicitly enabled, enabled by `INSITU_TELEMETRY`,
    /// or implied by a configured [`EngineConfig::budget`].
    pub fn telemetry_enabled(&self) -> bool {
        self.budget.is_some()
            || self
                .telemetry
                .enabled
                .unwrap_or_else(telemetry::env_enabled)
    }
}

/// Copyable handle to a region registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(usize);

impl RegionId {
    /// The raw registration index (stable for the engine's lifetime).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Copyable handle to an analysis registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AnalysisId {
    region: usize,
    index: usize,
}

impl AnalysisId {
    /// The handle of the region this analysis belongs to.
    pub fn region(self) -> RegionId {
        RegionId(self.region)
    }

    /// The analysis' registration index within its region.
    pub fn index(self) -> usize {
        self.index
    }
}

/// Non-blocking snapshot of the engine's background-training backlog,
/// returned by [`Engine::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainingProgress {
    /// Training jobs currently running on workers. A batch that fills
    /// while a job is in flight trains after it on the simulation thread
    /// instead of queueing.
    pub in_flight: usize,
}

impl TrainingProgress {
    /// Whether all training has caught up with collection.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0
    }
}

/// One named region: a group of analyses sharing a status and broadcaster.
struct EngineRegion<D: ?Sized> {
    name: String,
    analyses: Vec<Analysis<D>>,
    broadcaster: Box<dyn StatusBroadcaster>,
    status: RegionStatus,
}

/// A multi-region in-situ session: the owner of every analysis' collector,
/// trainer and extracted features, addressed through copyable handles.
///
/// See the [module documentation](self) for the pipeline model and an
/// end-to-end example.
pub struct Engine<D: ?Sized> {
    config: EngineConfig,
    regions: Vec<EngineRegion<D>>,
    /// Whether the stage clocks run (resolved once at construction from
    /// config + environment; budget implies timing).
    timed: bool,
    /// Live overload-control state, when a budget is configured.
    budget: Option<BudgetState>,
    /// Cumulative measured pipeline nanoseconds across all steps (0 when
    /// telemetry is off).
    total_cost_ns: u64,
    /// Number of steps the overload policy degraded.
    shed_steps: u64,
}

/// Live overload-control state derived from [`EngineConfig::budget`].
struct BudgetState {
    limit_ns: u64,
    policy: ShedPolicy,
    /// EWMA (α = 1/8) of measured step cost; 0 until the first step.
    ewma_ns: u64,
}

impl<D: ?Sized> std::fmt::Debug for Engine<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("training_mode", &self.config.training_mode)
            .field("regions", &self.regions.len())
            .finish_non_exhaustive()
    }
}

impl<D: ?Sized> Default for Engine<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: ?Sized> Drop for Engine<D> {
    /// Joins in-flight background training jobs so a dropped engine never
    /// leaves a pool worker running against freed analysis state.
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<D: ?Sized> Engine<D> {
    /// An engine with inline training (the paper's behaviour).
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// An engine with an explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        let timed = config.telemetry_enabled();
        let budget = config.budget.map(|b| BudgetState {
            limit_ns: u64::try_from(b.limit.as_nanos()).unwrap_or(u64::MAX),
            policy: b.policy,
            ewma_ns: 0,
        });
        Self {
            config,
            regions: Vec::new(),
            timed,
            budget,
            total_cost_ns: 0,
            shed_steps: 0,
        }
    }

    /// The configured training mode.
    pub fn training_mode(&self) -> TrainingMode {
        self.config.training_mode
    }

    /// Always 0: the inline train stage no longer fans out.
    #[deprecated(since = "0.1.0", note = "the inline train stage never fans out")]
    pub fn parallel_train_fanouts(&self) -> u64 {
        0
    }

    /// Always 0: collection is no longer sharded.
    #[deprecated(since = "0.1.0", note = "collection never fans out")]
    pub fn parallel_shard_fanouts(&self) -> u64 {
        0
    }

    /// Borrows an analysis' telemetry recorder: the stage-event ring plus
    /// per-stage latency histograms. Cheap — no copies, no allocation.
    /// With telemetry disabled the recorder exists but stays empty (its
    /// ring has zero capacity and nothing records into it).
    pub fn telemetry(&self, analysis: AnalysisId) -> Option<&Recorder> {
        self.regions
            .get(analysis.region)?
            .analyses
            .get(analysis.index)
            .map(|a| &a.telemetry)
    }

    /// Cumulative measured pipeline cost in nanoseconds across all
    /// completed steps (0 when telemetry is disabled).
    pub fn budget_used(&self) -> u64 {
        self.total_cost_ns
    }

    /// The configured per-step budget limit in nanoseconds, if any.
    pub fn budget_limit(&self) -> Option<u64> {
        self.budget.as_ref().map(|b| b.limit_ns)
    }

    /// Number of completed steps on which the overload policy shed work.
    pub fn shed_steps(&self) -> u64 {
        self.shed_steps
    }

    /// Registers a new, empty region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateName`] if a region with this name already
    /// exists.
    pub fn add_region(&mut self, name: impl Into<String>) -> Result<RegionId> {
        let name = name.into();
        if self.regions.iter().any(|r| r.name == name) {
            return Err(Error::DuplicateName {
                what: "region",
                name,
            });
        }
        self.regions.push(EngineRegion {
            name,
            analyses: Vec::new(),
            broadcaster: Box::new(NullBroadcaster),
            status: RegionStatus::default(),
        });
        Ok(RegionId(self.regions.len() - 1))
    }

    /// Looks up a region handle by name.
    pub fn region_id(&self, name: &str) -> Option<RegionId> {
        self.regions
            .iter()
            .position(|r| r.name == name)
            .map(RegionId)
    }

    /// The name a region was registered under.
    pub fn region_name(&self, region: RegionId) -> Option<&str> {
        self.regions.get(region.0).map(|r| r.name.as_str())
    }

    /// Number of registered regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Registers an analysis with a region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownHandle`] if `region` does not refer to a
    /// region of this engine, and [`Error::DuplicateName`] if the region
    /// already has an analysis with the spec's name.
    pub fn add_analysis(&mut self, region: RegionId, spec: AnalysisSpec<D>) -> Result<AnalysisId> {
        if self
            .regions
            .get(region.0)
            .is_some_and(|r| r.analyses.iter().any(|a| a.spec.name() == spec.name()))
        {
            return Err(Error::DuplicateName {
                what: "analysis",
                name: spec.name().to_string(),
            });
        }
        // Disabled telemetry gets a zero-capacity ring: the accessors stay
        // valid, the memory cost is nil, and nothing records into it.
        let telemetry_capacity = if self.timed {
            self.config.telemetry.ring_capacity
        } else {
            0
        };
        let slot = self.regions.get_mut(region.0).ok_or(Error::UnknownHandle {
            what: "region",
            index: region.0,
        })?;
        slot.analyses.push(Analysis::new(spec, telemetry_capacity));
        Ok(AnalysisId {
            region: region.0,
            index: slot.analyses.len() - 1,
        })
    }

    /// Number of analyses registered with a region.
    pub fn analysis_count(&self, region: RegionId) -> Option<usize> {
        self.regions.get(region.0).map(|r| r.analyses.len())
    }

    /// Builds the handle for a region's `index`-th analysis (registration
    /// order), if it exists.
    pub fn analysis_id(&self, region: RegionId, index: usize) -> Option<AnalysisId> {
        let slot = self.regions.get(region.0)?;
        (index < slot.analyses.len()).then_some(AnalysisId {
            region: region.0,
            index,
        })
    }

    /// Replaces a region's status broadcaster (e.g. with one backed by a
    /// `parsim` world so broadcast costs are accounted like MPI broadcasts).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownHandle`] for a stale region handle.
    pub fn set_broadcaster<B>(&mut self, region: RegionId, broadcaster: B) -> Result<()>
    where
        B: StatusBroadcaster + 'static,
    {
        let slot = self.regions.get_mut(region.0).ok_or(Error::UnknownHandle {
            what: "region",
            index: region.0,
        })?;
        slot.broadcaster = Box::new(broadcaster);
        Ok(())
    }

    /// Opens the RAII scope for one simulation iteration. Call at the top of
    /// the iteration; call [`StepScope::complete`] once the main computation
    /// has produced the iteration's values.
    pub fn step(&mut self, iteration: u64) -> StepScope<'_, D> {
        StepScope::new(self, iteration)
    }

    /// The most recent status of a region: the value carried by the last
    /// [`StepReport`], unless [`Engine::poll`] or [`Engine::drain`]
    /// refreshed it since.
    pub fn status(&self, region: RegionId) -> Option<&RegionStatus> {
        self.regions.get(region.0).map(|r| &r.status)
    }

    /// The sample history of one analysis (`None` for stale handles).
    pub fn history(&self, analysis: AnalysisId) -> Option<&SampleHistory> {
        self.regions
            .get(analysis.region)?
            .analyses
            .get(analysis.index)
            .map(Analysis::history)
    }

    /// The trainer of one analysis, for inspecting the fitted model and loss
    /// history. Returns `None` for stale handles **and** while the trainer
    /// is off on a background worker — call [`Engine::drain`] first for a
    /// guaranteed-resident trainer.
    pub fn trainer(&self, analysis: AnalysisId) -> Option<&IncrementalTrainer> {
        self.regions
            .get(analysis.region)?
            .analyses
            .get(analysis.index)?
            .trainer()
    }

    /// Non-blocking background-training progress: reclaims finished jobs
    /// and reports what is still outstanding. Any
    /// region whose training advanced gets its status fully refreshed
    /// (extraction included) and broadcast, so polling to idle leaves the
    /// same coherent terminal state as [`Engine::drain`]. Always idle in
    /// inline mode.
    pub fn poll(&mut self) -> TrainingProgress {
        let mut progress = TrainingProgress::default();
        for region in &mut self.regions {
            let iteration = region.status.iteration;
            let mut advanced = false;
            for analysis in &mut region.analyses {
                if let Some(loss) = analysis.reclaim() {
                    region.status.last_loss = Some(loss);
                    advanced = true;
                }
                if analysis.training_in_flight() {
                    progress.in_flight += 1;
                }
            }
            if advanced {
                for analysis in &mut region.analyses {
                    if analysis.is_done(iteration) || analysis.store.finished(iteration) {
                        analysis.try_extract();
                    }
                }
                Self::refresh_status(region, iteration);
                region.broadcaster.broadcast(&region.status);
            }
        }
        progress
    }

    /// Blocks until every in-flight mini-batch has been trained, then re-runs
    /// extraction, refreshes every region's status and broadcasts it (so
    /// rank-notification broadcasters observe the terminal status even when
    /// the deciding batch finished inside the drain). After `drain`,
    /// background-mode results are bit-identical to an inline run over the
    /// same iterations: the trainers consumed the same batches in the same
    /// order.
    pub fn drain(&mut self) {
        for region in &mut self.regions {
            let iteration = region.status.iteration;
            for analysis in &mut region.analyses {
                if let Some(loss) = analysis.drain() {
                    region.status.last_loss = Some(loss);
                }
                if analysis.is_done(iteration) || analysis.store.finished(iteration) {
                    analysis.try_extract();
                }
            }
            Self::refresh_status(region, iteration);
            region.broadcaster.broadcast(&region.status);
        }
    }

    /// Winds the engine down: joins every in-flight background `TrainJob`
    /// (a job that has already left for a worker cannot be cancelled, so
    /// its loss is recorded).
    ///
    /// This is the session-eviction half of the lifecycle: where
    /// [`Engine::drain`] refreshes and broadcasts the terminal status,
    /// `shutdown` finishes only what is unavoidable — but never orphans a
    /// pool job and never leaks a recycled batch buffer. Dropping an engine calls `shutdown` implicitly, so evicting
    /// a long-running session mid-run (the `serve` crate's `CloseSession`)
    /// is safe by construction. Idempotent (a second call is a clean
    /// no-op) and panic-safe: if a background training job panicked on its
    /// worker, the panic is contained — the affected trainer slot is
    /// poisoned rather than re-thrown, so shutting down (or dropping,
    /// even during unwinding from the original panic) a poisoned engine
    /// never double-panics. A no-op for inline engines.
    pub fn shutdown(&mut self) {
        for region in &mut self.regions {
            for analysis in &mut region.analyses {
                if let Some(loss) = analysis.shutdown() {
                    region.status.last_loss = Some(loss);
                }
            }
        }
    }

    /// Serializes the engine's full mutable state into a self-describing
    /// binary snapshot (see [`crate::snapshot`] for the container format).
    ///
    /// The engine is [drained](Engine::drain) first, so the snapshot is
    /// taken at a quiescent point — no in-flight training job ever needs
    /// serializing, and because draining is bit-identical
    /// to having trained inline, the snapshot is independent of *when*
    /// background work happened to be scheduled.
    ///
    /// The captured state covers, per analysis: the sample history
    /// (including incremental peak statistics and retention bookkeeping),
    /// the partially-filled assembly batch, the AR model coefficients,
    /// scaler moments, optimizer state and loss history, and the extracted
    /// feature — plus each region's status. Configuration (specs,
    /// providers, pools) is **not** serialized: [`Engine::restore`]
    /// overlays the snapshot onto an engine rebuilt with identical
    /// configuration.
    ///
    /// A restored engine continues bit-identically to one that never
    /// stopped: same losses, same features, same statuses.
    #[must_use]
    pub fn snapshot(&mut self) -> Vec<u8> {
        self.drain();
        let mut container = Container::new();
        let timed = self.timed;
        let iteration = self.regions.first().map_or(0, |r| r.status.iteration);
        for region in &mut self.regions {
            let mut enc = Enc::default();
            enc.put_str(&region.name);
            encode_status(&mut enc, &region.status);
            enc.put_usize(region.analyses.len());
            for analysis in &mut region.analyses {
                enc.put_str(analysis.spec.name());
                let clock = stage_clock(timed);
                analysis.snapshot_encode(&mut enc);
                let snapshot_ns = stage_elapsed(clock);
                if timed {
                    analysis
                        .telemetry
                        .record(Stage::Snapshot, iteration, snapshot_ns);
                }
            }
            container.section(enc);
        }
        container.finish()
    }

    /// Restores state captured by [`Engine::snapshot`] onto this engine,
    /// which must have been configured identically (same regions, analyses
    /// and specs, in the same order). After a
    /// successful restore the engine produces bit-identical losses,
    /// features and statuses to the engine the snapshot was taken from.
    ///
    /// Restore **fails closed**: the entire snapshot is parsed, checksummed
    /// and validated against this engine's configuration before any live
    /// state is touched, so on error the engine is exactly as it was.
    ///
    /// # Errors
    ///
    /// * [`Error::SnapshotCorrupt`] — truncated, tampered or malformed
    ///   bytes (every section payload is checksummed).
    /// * [`Error::SnapshotVersion`] — written by an incompatible format
    ///   version.
    /// * [`Error::SnapshotMismatch`] — a well-formed snapshot of a
    ///   *differently configured* engine (region/analysis names or counts,
    ///   spatial characteristic, retention or trainer shape differ).
    pub fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        let sections = parse_container(bytes)?;
        if sections.len() != self.regions.len() {
            return Err(Error::SnapshotMismatch {
                what: format!(
                    "snapshot has {} regions, engine has {}",
                    sections.len(),
                    self.regions.len()
                ),
            });
        }
        let mut decoded: Vec<(RegionStatus, Vec<AnalysisState>)> =
            Vec::with_capacity(sections.len());
        for (region, payload) in self.regions.iter().zip(sections) {
            let mut dec = Dec::new(payload);
            let name = dec.take_str()?;
            if name != region.name {
                return Err(Error::SnapshotMismatch {
                    what: format!("snapshot region {name:?}, engine region {:?}", region.name),
                });
            }
            let status = decode_status(&mut dec)?;
            let analysis_count = dec.take_usize()?;
            if analysis_count != region.analyses.len() {
                return Err(Error::SnapshotMismatch {
                    what: format!(
                        "region {name:?}: snapshot has {analysis_count} analyses, engine has {}",
                        region.analyses.len()
                    ),
                });
            }
            let mut states = Vec::with_capacity(analysis_count);
            for analysis in &region.analyses {
                let spec_name = dec.take_str()?;
                if spec_name != analysis.spec.name() {
                    return Err(Error::SnapshotMismatch {
                        what: format!(
                            "snapshot analysis {spec_name:?}, engine analysis {:?}",
                            analysis.spec.name()
                        ),
                    });
                }
                states.push(analysis.snapshot_decode(&mut dec)?);
            }
            dec.finish()?;
            decoded.push((status, states));
        }
        // Everything validated — commit. Apply quiesces each analysis
        // (joining any in-flight training) before overwriting its state.
        for (region, (status, states)) in self.regions.iter_mut().zip(decoded) {
            region.status = status;
            for (analysis, state) in region.analyses.iter_mut().zip(states) {
                analysis.snapshot_apply(state);
            }
        }
        Ok(())
    }

    /// Forces feature extraction for one region from whatever has been
    /// collected so far (normally extraction happens automatically once an
    /// analysis is done).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownHandle`] for a stale region handle.
    pub fn extract_now(&mut self, region: RegionId) -> Result<()> {
        let slot = self.regions.get_mut(region.0).ok_or(Error::UnknownHandle {
            what: "region",
            index: region.0,
        })?;
        for analysis in &mut slot.analyses {
            analysis.try_extract();
        }
        Self::sync_features(&mut slot.status.features, &slot.analyses);
        Ok(())
    }

    /// Stamps the iteration on every region without sampling — the effect of
    /// a dropped (uncompleted) [`StepScope`].
    pub(crate) fn stamp_iteration(&mut self, iteration: u64) {
        for region in &mut self.regions {
            region.status.iteration = iteration;
        }
    }

    /// The full pipeline for one completed step, run as explicit stages
    /// over every analysis of every region:
    ///
    /// 1. **sample** + **assemble** each analysis on the simulation thread;
    /// 2. **train** a batch the moment it fills — on the simulation thread
    ///    inline; in background mode, on the worker when it is free and the
    ///    measured train time is not below a hand-off, in place otherwise;
    /// 3. **extract**, refresh and broadcast each region's status.
    ///
    /// Spent batches return to their collectors' buffer pools, so the
    /// steady-state step performs zero per-row heap allocations.
    pub(crate) fn run_pipeline(&mut self, iteration: u64, domain: &D) -> StepReport {
        let background = self.config.training_mode == TrainingMode::Background;
        let timed = self.timed;

        // Overload decision, taken BEFORE this step's work from the
        // previous steps' cost EWMA: the degraded step does strictly less
        // work than a full one (shed, never stall), and the decision order
        // is deterministic with respect to the measurements that drove it.
        let overloaded = self.budget.as_ref().is_some_and(|b| b.ewma_ns > b.limit_ns);
        let (defer_extract, skip_collect) = match self.budget.as_ref().map(|b| b.policy) {
            Some(ShedPolicy::DeferExtraction) if overloaded => (true, false),
            Some(ShedPolicy::CoarsenSampling { stride }) if overloaded => {
                (false, !iteration.is_multiple_of(u64::from(stride.max(2))))
            }
            _ => (false, false),
        };
        let shed = defer_extract || skip_collect;
        let mut stage_ns = [0u64; Stage::COUNT];

        // Stages 1–3: sample, assemble and train, one analysis at a time. A
        // coarsening shed skips collection for this iteration entirely.
        if !skip_collect {
            for region in &mut self.regions {
                let mut samples_this_iteration = 0;
                for analysis in &mut region.analyses {
                    let clock = stage_clock(timed);
                    samples_this_iteration += analysis.sample(iteration, domain);
                    let sample_ns = stage_elapsed(clock);
                    let clock = stage_clock(timed);
                    let assembled = analysis.assemble(iteration);
                    let assemble_ns = stage_elapsed(clock);
                    // Inline engines clock only the steps that train.
                    let clock = stage_clock(timed && (background || assembled.is_some()));
                    let (trained, loss) = match assembled {
                        Some(batch) if background => {
                            (true, analysis.place_batch(batch, &self.config.pool))
                        }
                        Some(batch) => (true, analysis.train_inline(batch)),
                        // Keep reclaiming finished jobs even on iterations
                        // that produced no batch.
                        None if background => {
                            let loss = analysis.reclaim();
                            (loss.is_some(), loss)
                        }
                        None => (false, None),
                    };
                    let train_ns = stage_elapsed(clock);
                    if let Some(loss) = loss {
                        region.status.last_loss = Some(loss);
                    }
                    if timed {
                        analysis
                            .telemetry
                            .record(Stage::Sample, iteration, sample_ns);
                        analysis
                            .telemetry
                            .record(Stage::Assemble, iteration, assemble_ns);
                        stage_ns[Stage::Sample as usize] += sample_ns;
                        stage_ns[Stage::Assemble as usize] += assemble_ns;
                        if trained {
                            analysis.telemetry.record(Stage::Train, iteration, train_ns);
                        }
                        stage_ns[Stage::Train as usize] += train_ns;
                    }
                }
                region.status.samples_collected += samples_this_iteration;
            }
        }

        // Stage 4: extract, refresh and broadcast. A deferring shed skips
        // extraction — a pure function of the collected state, so running
        // it later produces identical bits — but statuses still refresh and
        // broadcast so downstream ranks observe the step.
        if shed {
            self.shed_steps += 1;
            let ewma = self.budget.as_ref().map_or(0, |b| b.ewma_ns);
            for region in &mut self.regions {
                for analysis in &mut region.analyses {
                    analysis.telemetry.record(Stage::Shed, iteration, ewma);
                }
            }
        }
        let mut statuses = Vec::with_capacity(self.regions.len());
        for region in &mut self.regions {
            for analysis in &mut region.analyses {
                if !defer_extract
                    && (analysis.is_done(iteration) || analysis.store.finished(iteration))
                {
                    let clock = stage_clock(timed);
                    analysis.try_extract();
                    let extract_ns = stage_elapsed(clock);
                    if timed {
                        analysis
                            .telemetry
                            .record(Stage::Extract, iteration, extract_ns);
                        stage_ns[Stage::Extract as usize] += extract_ns;
                    }
                }
            }
            Self::refresh_status(region, iteration);
            region.broadcaster.broadcast(&region.status);
            statuses.push(region.status.clone());
        }

        // Budget accounting: fold this step's measured cost into the EWMA
        // (α = 1/8) and the cumulative total. Untimed engines skip all of
        // this — stage_ns stays zero.
        let step_cost: u64 = stage_ns[Stage::Sample as usize]
            + stage_ns[Stage::Assemble as usize]
            + stage_ns[Stage::Train as usize]
            + stage_ns[Stage::Extract as usize];
        self.total_cost_ns += step_cost;
        if let Some(budget) = &mut self.budget {
            budget.ewma_ns = ewma(budget.ewma_ns, step_cost);
        }
        StepReport {
            statuses,
            stage_ns,
            budget_used: self.total_cost_ns,
            budget_limit: self.budget.as_ref().map(|b| b.limit_ns),
            ewma_cost_ns: self.budget.as_ref().map_or(0, |b| b.ewma_ns),
            shed,
        }
    }

    /// Recomputes the derived fields of a region's status from its analyses.
    fn refresh_status(region: &mut EngineRegion<D>, iteration: u64) {
        region.status.predicted_value = region
            .analyses
            .first_mut()
            .and_then(Analysis::latest_prediction);

        let analyses = &region.analyses;
        let all_done = !analyses.is_empty() && analyses.iter().all(|a| a.is_done(iteration));
        let wants_termination = analyses
            .iter()
            .any(|a| a.spec.exit() == ExitAction::TerminateSimulation);

        region.status.iteration = iteration;
        region.status.batches_trained = analyses.iter().map(|a| a.batches_trained).sum();
        region.status.converged = all_done;
        region.status.front_location = Self::front_location(analyses);
        Self::sync_features(&mut region.status.features, analyses);
        region.status.should_terminate = all_done && wants_termination;
    }

    /// Brings a status' feature list in line with its analyses: one
    /// `(name, feature)` entry per analysis that has extracted its feature,
    /// in analysis order. Entries are overwritten in place, so a step whose
    /// features did not change reuses their `String`s and `Vec` instead of
    /// rebuilding them.
    fn sync_features(features: &mut Vec<(String, FeatureValue)>, analyses: &[Analysis<D>]) {
        let mut len = 0;
        for analysis in analyses {
            let Some(feature) = analysis.feature() else {
                continue;
            };
            let name = analysis.spec.name();
            match features.get_mut(len) {
                Some((entry_name, entry)) => {
                    if entry_name != name {
                        *entry_name = name.to_owned();
                    }
                    entry.clone_from(feature);
                }
                None => features.push((name.to_string(), feature.clone())),
            }
            len += 1;
        }
        features.truncate(len);
    }

    /// The location of the maximum most-recently-observed value across the
    /// first analysis' sampled locations — the "wave front" broadcast to
    /// other ranks in the LULESH case study.
    fn front_location(analyses: &[Analysis<D>]) -> Option<usize> {
        analyses.first()?.front_location()
    }
}

/// Appends a [`RegionStatus`] to a snapshot payload.
fn encode_status(enc: &mut Enc, status: &RegionStatus) {
    enc.put_u64(status.iteration);
    enc.put_usize(status.samples_collected);
    enc.put_usize(status.batches_trained);
    enc.put_opt_f64(status.last_loss);
    enc.put_bool(status.converged);
    enc.put_opt_f64(status.predicted_value);
    enc.put_opt_usize(status.front_location);
    enc.put_bool(status.should_terminate);
    enc.put_usize(status.features.len());
    for (name, feature) in &status.features {
        enc.put_str(name);
        put_feature(enc, feature);
    }
}

/// Decodes a [`RegionStatus`] written by [`encode_status`].
fn decode_status(dec: &mut Dec<'_>) -> Result<RegionStatus> {
    let iteration = dec.take_u64()?;
    let samples_collected = dec.take_usize()?;
    let batches_trained = dec.take_usize()?;
    let last_loss = dec.take_opt_f64()?;
    let converged = dec.take_bool()?;
    let predicted_value = dec.take_opt_f64()?;
    let front_location = dec.take_opt_usize()?;
    let should_terminate = dec.take_bool()?;
    let feature_count = dec.take_usize()?;
    dec.check_count(feature_count, 9)?;
    let mut features = Vec::with_capacity(feature_count);
    for _ in 0..feature_count {
        let name = dec.take_str()?;
        features.push((name, take_feature(dec)?));
    }
    Ok(RegionStatus {
        iteration,
        samples_collected,
        batches_trained,
        last_loss,
        converged,
        predicted_value,
        front_location,
        should_terminate,
        features,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::FeatureKind;
    use crate::model::{ConvergenceCriteria, OptimizerKind, TrainerConfig};
    use crate::params::IterParam;
    use parsim::ParallelConfig;

    /// A toy domain: an outward-travelling decaying pulse.
    struct Pulse {
        values: Vec<f64>,
    }

    impl Pulse {
        fn new() -> Self {
            Self {
                values: vec![0.0; 40],
            }
        }

        fn advance(&mut self, iteration: u64) {
            let front = iteration as f64 * 0.2;
            for (loc, v) in self.values.iter_mut().enumerate() {
                let x = loc as f64;
                *v = 10.0 / (1.0 + x) * (-((x - front) * (x - front)) / 8.0).exp();
            }
        }
    }

    fn pulse_spec(name: &str) -> AnalysisSpec<Pulse> {
        AnalysisSpec::builder()
            .name(name)
            .provider(|d: &Pulse, loc: usize| d.values.get(loc).copied().unwrap_or(0.0))
            .spatial(IterParam::new(1, 12, 1).unwrap())
            .temporal(IterParam::new(0, 300, 1).unwrap())
            .feature(FeatureKind::Breakpoint { threshold: 0.05 })
            .lag(5)
            .batch_capacity(16)
            .trainer(TrainerConfig {
                order: 3,
                optimizer: OptimizerKind::Sgd { learning_rate: 0.1 },
                epochs_per_batch: 4,
                convergence: ConvergenceCriteria {
                    loss_threshold: 1e-2,
                    patience: 3,
                    max_batches: 60,
                },
            })
            .build()
            .unwrap()
    }

    fn run_engine(mut engine: Engine<Pulse>, iterations: u64) -> (Engine<Pulse>, RegionId) {
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        let mut domain = Pulse::new();
        for it in 0..iterations {
            let step = engine.step(it);
            domain.advance(it);
            step.complete(&domain);
        }
        engine.drain();
        (engine, region)
    }

    #[test]
    fn background_training_is_bit_identical_to_inline_after_drain() {
        let (inline, inline_region) = run_engine(Engine::new(), 301);
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        let (background, bg_region) =
            run_engine(Engine::with_config(EngineConfig::background(pool)), 301);

        let a = inline.status(inline_region).unwrap();
        let b = background.status(bg_region).unwrap();
        assert_eq!(a.samples_collected, b.samples_collected);
        assert_eq!(a.batches_trained, b.batches_trained);
        assert!(a.batches_trained > 0);
        assert_eq!(a.last_loss, b.last_loss, "loss sequence must be identical");
        assert_eq!(a.features, b.features, "features must be bit-identical");
        match a.feature("velocity") {
            Some(FeatureValue::Breakpoint(bp)) => assert!((1..=12).contains(&bp.radius)),
            other => panic!("expected a breakpoint feature, got {other:?}"),
        }
        // The front location tracks the pulse over the spatial range.
        assert!(a.front_location.is_some_and(|f| (1..=12).contains(&f)));
        assert_eq!(a.front_location, b.front_location);

        // The fitted models are bit-identical too: same batches, same order.
        let ia = inline.analysis_id(inline_region, 0).unwrap();
        let ib = background.analysis_id(bg_region, 0).unwrap();
        assert!(inline.trainer(ia).unwrap().model().is_trained());
        assert_eq!(
            inline.trainer(ia).unwrap().model().coefficients(),
            background.trainer(ib).unwrap().model().coefficients()
        );
    }

    #[test]
    fn poll_reports_progress_and_reaches_idle() {
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        let mut engine: Engine<Pulse> = Engine::with_config(EngineConfig::background(pool));
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        let mut domain = Pulse::new();
        for it in 0..200u64 {
            let step = engine.step(it);
            domain.advance(it);
            step.complete(&domain);
        }
        // Eventually the background backlog clears without ever blocking.
        let mut progress = engine.poll();
        let mut spins = 0usize;
        while !progress.is_idle() {
            assert!(spins < 1_000_000, "background training never caught up");
            spins += 1;
            std::thread::yield_now();
            progress = engine.poll();
        }
        // Polling to idle leaves a coherent terminal status: every reclaimed
        // batch is counted and a subsequent drain() changes nothing.
        let polled = engine.status(region).unwrap().clone();
        assert!(polled.batches_trained > 0);
        let analysis = engine.analysis_id(region, 0).unwrap();
        assert_eq!(
            polled.batches_trained,
            engine.trainer(analysis).unwrap().loss_history().len()
        );
        engine.drain();
        assert_eq!(&polled, engine.status(region).unwrap());
    }

    /// Two analyses with identical cadence so both fill their batches in
    /// the same steps.
    fn run_two_analyses(config: EngineConfig, iterations: u64) -> (Engine<Pulse>, RegionId) {
        let mut engine = Engine::with_config(config);
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        engine.add_analysis(region, pulse_spec("pressure")).unwrap();
        let mut domain = Pulse::new();
        for it in 0..iterations {
            let step = engine.step(it);
            domain.advance(it);
            step.complete(&domain);
        }
        engine.drain();
        (engine, region)
    }

    /// Inline training ignores the pool: a multi-worker pool trains the
    /// same batches in the same order as the serial default.
    #[test]
    fn parallel_inline_training_is_bit_identical_to_sequential() {
        let (serial, serial_region) = run_two_analyses(EngineConfig::inline(), 301);
        let config = EngineConfig {
            pool: ThreadPool::new(ParallelConfig::new(2, 2).unwrap()),
            ..EngineConfig::inline()
        };
        let (parallel, parallel_region) = run_two_analyses(config, 301);

        let a = serial.status(serial_region).unwrap();
        let b = parallel.status(parallel_region).unwrap();
        assert_eq!(a, b);
        assert!(a.batches_trained > 0);
        for index in 0..2 {
            let ia = serial.analysis_id(serial_region, index).unwrap();
            let ib = parallel.analysis_id(parallel_region, index).unwrap();
            assert_eq!(
                serial.trainer(ia).unwrap().loss_history(),
                parallel.trainer(ib).unwrap().loss_history(),
                "analysis {index}: the pool must not change the loss sequence"
            );
            assert_eq!(
                serial.trainer(ia).unwrap().model().coefficients(),
                parallel.trainer(ib).unwrap().model().coefficients()
            );
        }
    }

    #[test]
    fn shutdown_joins_in_flight_jobs() {
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        let mut engine: Engine<Pulse> = Engine::with_config(EngineConfig::background(pool));
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        let mut domain = Pulse::new();
        for it in 0..200u64 {
            let step = engine.step(it);
            domain.advance(it);
            step.complete(&domain);
        }
        // Shut down mid-run: whatever was in flight joins, and the engine is
        // left fully idle with the trainer resident again.
        engine.shutdown();
        assert!(engine.poll().is_idle());
        let analysis = engine.analysis_id(region, 0).unwrap();
        assert!(engine.trainer(analysis).is_some(), "trainer is resident");
        // Every batch the trainer consumed is accounted in the status (the
        // deciding property: no in-flight job was orphaned mid-count), so
        // the follow-up drain has nothing to train and the two counts agree
        // exactly.
        engine.drain();
        assert_eq!(
            engine.status(region).unwrap().batches_trained,
            engine.trainer(analysis).unwrap().loss_history().len()
        );
        // ...and shutdown is idempotent: a second call changes nothing.
        let before = engine.status(region).unwrap().clone();
        engine.shutdown();
        assert_eq!(&before, engine.status(region).unwrap());
    }

    /// Background mode never queues a batch behind an in-flight job, so
    /// shutting down mid-run loses none: the job in flight joins and every
    /// filled batch is counted, exactly as the inline run counts them.
    #[test]
    fn shutdown_loses_no_filled_batch() {
        let (reference, reference_region) = run_engine(Engine::new(), 301);
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        let mut engine: Engine<Pulse> = Engine::with_config(EngineConfig::background(pool));
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        let mut domain = Pulse::new();
        for it in 0..301u64 {
            let step = engine.step(it);
            domain.advance(it);
            step.complete(&domain);
        }
        engine.shutdown();
        // Drain only refreshes the status here: nothing is left to train.
        engine.drain();
        assert_eq!(
            engine.status(region).unwrap().batches_trained,
            reference.status(reference_region).unwrap().batches_trained
        );
    }

    #[test]
    fn dropping_a_background_engine_mid_run_is_safe() {
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        let mut engine: Engine<Pulse> = Engine::with_config(EngineConfig::background(pool.clone()));
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        let mut domain = Pulse::new();
        for it in 0..120u64 {
            let step = engine.step(it);
            domain.advance(it);
            step.complete(&domain);
        }
        // Drop with jobs potentially in flight: Drop runs shutdown, so the
        // pool workers must stay healthy for subsequent users.
        drop(engine);
        assert_eq!(pool.spawn_job(|| 21 * 2).join(), 42);
    }

    #[test]
    fn inline_engines_are_always_idle() {
        let (mut engine, _region) = run_engine(Engine::new(), 50);
        assert!(engine.poll().is_idle());
        assert_eq!(engine.training_mode(), TrainingMode::Inline);
    }

    #[test]
    fn unknown_region_handles_are_rejected() {
        // Forge a handle from a second engine with more regions than the
        // first: it is valid there, stale here.
        let mut other: Engine<Pulse> = Engine::new();
        other.add_region("a").unwrap();
        let stale = other.add_region("b").unwrap();

        let mut engine: Engine<Pulse> = Engine::new();
        engine.add_region("only").unwrap();
        assert!(matches!(
            engine.add_analysis(stale, pulse_spec("velocity")),
            Err(Error::UnknownHandle { what: "region", .. })
        ));
        assert!(matches!(
            engine.extract_now(stale),
            Err(Error::UnknownHandle { .. })
        ));
        assert!(engine.status(stale).is_none());
        assert!(engine.analysis_count(stale).is_none());
        assert!(engine.region_name(stale).is_none());
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut engine: Engine<Pulse> = Engine::new();
        let region = engine.add_region("pulse").unwrap();
        assert!(matches!(
            engine.add_region("pulse"),
            Err(Error::DuplicateName { what: "region", .. })
        ));
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        assert!(matches!(
            engine.add_analysis(region, pulse_spec("velocity")),
            Err(Error::DuplicateName {
                what: "analysis",
                ..
            })
        ));
    }

    #[test]
    fn analysis_handles_round_trip_and_bounds_check() {
        let mut engine: Engine<Pulse> = Engine::new();
        let region = engine.add_region("pulse").unwrap();
        let analysis = engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        assert_eq!(analysis.region(), region);
        assert_eq!(analysis.index(), 0);
        assert_eq!(engine.analysis_id(region, 0), Some(analysis));
        assert_eq!(engine.analysis_id(region, 1), None);
        assert_eq!(engine.region_id("pulse"), Some(region));
        assert_eq!(engine.region_id("missing"), None);
        assert!(engine.history(analysis).is_some());
        assert!(engine.trainer(analysis).is_some());
    }

    #[test]
    fn dropped_step_scope_stamps_iteration_without_sampling() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let broadcasts = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&broadcasts);
        let mut engine: Engine<Pulse> = Engine::new();
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        engine
            .set_broadcaster(region, move |_: &RegionStatus| {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        // begin-without-end: the scope is dropped (skipped) — the iteration
        // advances but nothing is sampled or broadcast.
        engine.step(7).skip();
        let status = engine.status(region).unwrap();
        assert_eq!(status.iteration, 7);
        assert_eq!(status.samples_collected, 0);
        // And an unpolled drop behaves the same.
        {
            let _scope = engine.step(9);
        }
        let status = engine.status(region).unwrap();
        assert_eq!(status.iteration, 9);
        assert_eq!(status.samples_collected, 0);
        assert_eq!(broadcasts.load(Ordering::Relaxed), 0);

        // Every completed step broadcasts exactly once.
        let mut domain = Pulse::new();
        for it in 10..20u64 {
            let step = engine.step(it);
            domain.advance(it);
            step.complete(&domain);
        }
        assert_eq!(broadcasts.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn multi_region_sessions_progress_independently() {
        let mut engine: Engine<Pulse> = Engine::new();
        let dense = engine.add_region("dense").unwrap();
        let sparse = engine.add_region("sparse").unwrap();
        engine.add_analysis(dense, pulse_spec("velocity")).unwrap();
        let sparse_spec = AnalysisSpec::builder()
            .name("velocity")
            .provider(|d: &Pulse, loc: usize| d.values.get(loc).copied().unwrap_or(0.0))
            .spatial(IterParam::new(1, 12, 1).unwrap())
            .temporal(IterParam::new(0, 300, 10).unwrap())
            .feature(FeatureKind::Breakpoint { threshold: 0.05 })
            .lag(10)
            .build()
            .unwrap();
        engine.add_analysis(sparse, sparse_spec).unwrap();
        let empty = engine.add_region("empty").unwrap();

        let mut domain = Pulse::new();
        for it in 0..100u64 {
            let step = engine.step(it);
            domain.advance(it);
            let report = step.complete(&domain);
            assert_eq!(report.regions().len(), 3);
        }
        let dense_samples = engine.status(dense).unwrap().samples_collected;
        let sparse_samples = engine.status(sparse).unwrap().samples_collected;
        assert!(dense_samples > sparse_samples);
        assert!(sparse_samples > 0);
        // A region with no analyses reports nothing and never terminates.
        let empty = engine.status(empty).unwrap();
        assert_eq!(empty.samples_collected, 0);
        assert!(!empty.converged);
        assert!(!empty.should_terminate);
    }

    /// Builds the same engine shape as [`run_engine`] without running it.
    fn fresh_engine(config: EngineConfig) -> (Engine<Pulse>, RegionId) {
        let mut engine = Engine::with_config(config);
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        (engine, region)
    }

    fn drive(engine: &mut Engine<Pulse>, domain: &mut Pulse, range: std::ops::Range<u64>) {
        for it in range {
            let step = engine.step(it);
            domain.advance(it);
            step.complete(domain);
        }
    }

    fn assert_same_terminal_state(
        a: &Engine<Pulse>,
        ra: RegionId,
        b: &Engine<Pulse>,
        rb: RegionId,
    ) {
        assert_eq!(a.status(ra).unwrap(), b.status(rb).unwrap());
        let ia = a.analysis_id(ra, 0).unwrap();
        let ib = b.analysis_id(rb, 0).unwrap();
        assert_eq!(
            a.trainer(ia).unwrap().loss_history(),
            b.trainer(ib).unwrap().loss_history(),
            "loss sequences must be bit-identical"
        );
        assert_eq!(
            a.trainer(ia).unwrap().model().coefficients(),
            b.trainer(ib).unwrap().model().coefficients()
        );
        assert_eq!(a.history(ia), b.history(ib));
    }

    /// The tentpole invariant: snapshot mid-run, restore onto a freshly
    /// configured engine, continue — and end bit-identical to an engine
    /// that never stopped.
    #[test]
    fn restored_engine_continues_bit_identically() {
        // One step past a batch boundary and one mid-fill, to cover both
        // pending-batch shapes.
        for split in [100u64, 153] {
            let (mut reference, reference_region) = fresh_engine(EngineConfig::inline());
            let mut domain = Pulse::new();
            drive(&mut reference, &mut domain, 0..301);
            reference.drain();

            let (mut original, region) = fresh_engine(EngineConfig::inline());
            let mut domain = Pulse::new();
            drive(&mut original, &mut domain, 0..split);
            let bytes = original.snapshot();

            let (mut restored, restored_region) = fresh_engine(EngineConfig::inline());
            restored.restore(&bytes).unwrap();
            // The restore itself is faithful...
            assert_eq!(
                original.status(region).unwrap(),
                restored.status(restored_region).unwrap()
            );
            // ...and so is the continuation. The domain replays from its
            // own state (it is a pure function of the iteration).
            let mut domain = Pulse::new();
            drive(&mut restored, &mut domain, split..301);
            restored.drain();
            assert_same_terminal_state(&restored, restored_region, &reference, reference_region);
        }
    }

    /// Snapshots taken from a background engine restore bit-identically
    /// onto an inline engine and vice versa: draining before serializing
    /// erases the scheduling difference.
    #[test]
    fn snapshot_round_trips_across_training_modes() {
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        let (mut background, _) = fresh_engine(EngineConfig::background(pool));
        let mut domain = Pulse::new();
        drive(&mut background, &mut domain, 0..153);
        let bytes = background.snapshot();

        let (mut restored, restored_region) = fresh_engine(EngineConfig::inline());
        restored.restore(&bytes).unwrap();
        let mut domain = Pulse::new();
        drive(&mut restored, &mut domain, 153..301);
        restored.drain();

        let (mut reference, reference_region) = fresh_engine(EngineConfig::inline());
        let mut domain = Pulse::new();
        drive(&mut reference, &mut domain, 0..301);
        reference.drain();
        assert_same_terminal_state(&restored, restored_region, &reference, reference_region);
    }

    /// Restore fails closed: a mismatching or corrupt snapshot leaves the
    /// target engine exactly as it was.
    #[test]
    fn failed_restore_leaves_engine_untouched() {
        let (mut original, _) = fresh_engine(EngineConfig::inline());
        let mut domain = Pulse::new();
        drive(&mut original, &mut domain, 0..100);
        let bytes = original.snapshot();

        let (mut target, target_region) = fresh_engine(EngineConfig::inline());
        let mut domain = Pulse::new();
        drive(&mut target, &mut domain, 0..40);
        target.drain();
        let before = target.status(target_region).unwrap().clone();

        // Corrupt: flip a payload byte (fails the section checksum).
        let mut tampered = bytes.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0x40;
        assert!(matches!(
            target.restore(&tampered),
            Err(Error::SnapshotCorrupt { .. })
        ));
        assert_eq!(&before, target.status(target_region).unwrap());

        // Mismatch: a snapshot of a differently named region.
        let mut renamed: Engine<Pulse> = Engine::new();
        let other = renamed.add_region("other").unwrap();
        renamed.add_analysis(other, pulse_spec("velocity")).unwrap();
        let other_bytes = renamed.snapshot();
        assert!(matches!(
            target.restore(&other_bytes),
            Err(Error::SnapshotMismatch { .. })
        ));
        assert_eq!(&before, target.status(target_region).unwrap());

        // And a valid restore still succeeds afterwards.
        target.restore(&bytes).unwrap();
    }

    /// `shutdown` twice (and then `drain`) is a clean no-op — the
    /// eviction path may run more than once (explicit shutdown followed by
    /// drop) and must never disturb already-settled state.
    #[test]
    fn shutdown_is_idempotent() {
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        let mut engine: Engine<Pulse> = Engine::with_config(EngineConfig::background(pool));
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        let mut domain = Pulse::new();
        drive(&mut engine, &mut domain, 0..153);
        engine.shutdown();
        let after_first = engine.status(region).unwrap().clone();
        let losses = engine
            .trainer(engine.analysis_id(region, 0).unwrap())
            .unwrap()
            .loss_history()
            .to_vec();
        engine.shutdown();
        assert_eq!(&after_first, engine.status(region).unwrap());
        assert_eq!(
            losses,
            engine
                .trainer(engine.analysis_id(region, 0).unwrap())
                .unwrap()
                .loss_history()
        );
        // Nothing is left in flight; draining afterwards has nothing to do.
        engine.drain();
        assert_eq!(
            losses,
            engine
                .trainer(engine.analysis_id(region, 0).unwrap())
                .unwrap()
                .loss_history()
        );
    }

    /// A pulse analysis sampling locations `1..=locations` into
    /// `batch_capacity`-row batches for an AR model of `order`, each batch
    /// trained for `epochs` epochs. Locations past the first `order` yield
    /// a row each step.
    fn sized_pulse_spec(
        locations: u64,
        order: usize,
        batch_capacity: usize,
        epochs: usize,
    ) -> AnalysisSpec<Pulse> {
        AnalysisSpec::builder()
            .name("velocity")
            .provider(|d: &Pulse, loc: usize| d.values.get(loc).copied().unwrap_or(0.0))
            .spatial(IterParam::new(1, locations, 1).unwrap())
            .temporal(IterParam::new(0, 300, 1).unwrap())
            .feature(FeatureKind::Breakpoint { threshold: 0.05 })
            .lag(5)
            .batch_capacity(batch_capacity)
            .trainer(TrainerConfig {
                order,
                optimizer: OptimizerKind::Sgd { learning_rate: 0.1 },
                epochs_per_batch: epochs,
                convergence: ConvergenceCriteria::default(),
            })
            .build()
            .unwrap()
    }

    fn engine_with(config: EngineConfig, spec: AnalysisSpec<Pulse>) -> (Engine<Pulse>, RegionId) {
        let mut engine = Engine::with_config(config);
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, spec).unwrap();
        (engine, region)
    }

    /// Runs `spec` for 301 steps inline and in background mode. After each
    /// background step the test waits `solver` — a stand-in for a solver
    /// step, longer than a hand-off — without polling, so a finished
    /// job is reclaimed by the next step, in the same call that may train
    /// that step's batch in place. Whenever the trainer is resident after a
    /// step, every batch so far has trained, so the last loss must match
    /// the inline run's. Returns, for each step from the 100th on, whether
    /// it filled a batch (per the inline run) and whether the trainer was
    /// off on a worker right after it — having checked that both runs end
    /// bit-identical. Residency right after the step is the exact placement
    /// observation: a later `poll` can find an offloaded job already done.
    fn placements_after_warmup(
        spec: fn() -> AnalysisSpec<Pulse>,
        solver: std::time::Duration,
    ) -> Vec<(bool, bool)> {
        const WARMUP: u64 = 100;
        let (mut reference, reference_region) = engine_with(EngineConfig::inline(), spec());
        let pool = ThreadPool::new(ParallelConfig::new(1, 2).unwrap());
        // A pool already in use: its worker thread is running.
        pool.spawn_job(|| ()).join();
        let (mut engine, region) = engine_with(EngineConfig::background(pool), spec());
        let (mut reference_domain, mut domain) = (Pulse::new(), Pulse::new());
        let mut placements = Vec::new();
        for it in 0..301u64 {
            let trained = reference.status(reference_region).unwrap().batches_trained;
            drive(&mut reference, &mut reference_domain, it..it + 1);
            let filled = reference.status(reference_region).unwrap().batches_trained > trained;
            drive(&mut engine, &mut domain, it..it + 1);
            let analysis = engine.analysis_id(region, 0).unwrap();
            let offloaded = engine.trainer(analysis).is_none();
            if !offloaded {
                assert_eq!(
                    engine.status(region).unwrap().last_loss,
                    reference.status(reference_region).unwrap().last_loss,
                    "iteration {it}: the last loss is not the latest batch's"
                );
            }
            let started = std::time::Instant::now();
            while started.elapsed() < solver {
                // Yield rather than spin, so a loaded host still schedules
                // the worker.
                std::thread::yield_now();
            }
            if it >= WARMUP {
                placements.push((filled, offloaded));
            }
        }
        reference.drain();
        engine.drain();
        assert_same_terminal_state(&engine, region, &reference, reference_region);
        placements
    }

    /// Background placement follows measured cost: once both costs are
    /// measured, a cheap batch trains on the simulation thread and a heavy
    /// one keeps going to the worker, and both end bit-identical to inline.
    #[test]
    fn background_placement_follows_cost() {
        // Cheap: one row a step into one-row batches, one epoch each — under
        // a hand-off even unoptimised.
        let cheap = placements_after_warmup(
            || sized_pulse_spec(2, 1, 1, 1),
            std::time::Duration::from_micros(200),
        );
        let left = cheap.iter().filter(|(_, offloaded)| *offloaded).count();
        assert!(
            left * 10 <= cheap.len(),
            "cheap batches left the simulation thread after {left} of {} steps",
            cheap.len()
        );

        // Heavy: 33 rows a step into 1024-row batches of 400 epochs, about
        // 2 ms each (unoptimised builds train ~50× slower, so 20 epochs do
        // there), far above a hand-off. With 1 ms solver steps a batch fills
        // every ~31 ms, so the worker keeps up and each batch goes to it. A
        // loaded host can still delay a hand-off past a batch's train time
        // now and then, so most rather than all must leave.
        const HEAVY_EPOCHS: usize = if cfg!(debug_assertions) { 20 } else { 400 };
        let heavy = placements_after_warmup(
            || sized_pulse_spec(36, 3, 1024, HEAVY_EPOCHS),
            std::time::Duration::from_millis(1),
        );
        let offloaded: Vec<bool> = heavy
            .iter()
            .filter(|(filled, _)| *filled)
            .map(|&(_, offloaded)| offloaded)
            .collect();
        assert!(offloaded.len() >= 5, "the heavy scenario must fill batches");
        assert!(
            offloaded.iter().filter(|&&offloaded| offloaded).count() * 4 >= offloaded.len() * 3,
            "heavy batches trained in place: {offloaded:?}"
        );
    }

    #[test]
    fn telemetry_records_stage_events_and_budget_ledger() {
        let config = EngineConfig {
            telemetry: TelemetryConfig::on(),
            ..EngineConfig::default()
        };
        let (mut engine, region) = fresh_engine(config);
        let mut domain = Pulse::new();
        let mut last = StepReport::default();
        for it in 0..120u64 {
            let step = engine.step(it);
            domain.advance(it);
            let report = step.complete(&domain);
            assert!(
                report.budget_used() >= last.budget_used(),
                "budget ledger is cumulative"
            );
            last = report;
        }
        // Sampling runs every step, so its stage clock must have ticked.
        assert!(last.stage_nanos(Stage::Sample) > 0);
        assert!(last.budget_used() > 0);
        assert_eq!(last.budget_limit(), None, "no budget configured");
        assert!(!last.shed());

        let analysis = engine.analysis_id(region, 0).unwrap();
        let recorder = engine.telemetry(analysis).unwrap();
        assert_eq!(
            recorder.capacity(),
            TelemetryConfig::default().ring_capacity
        );
        assert_eq!(recorder.histogram(Stage::Sample).count(), 120);
        assert_eq!(recorder.histogram(Stage::Assemble).count(), 120);
        assert!(recorder.histogram(Stage::Train).count() > 0);
        assert!(recorder.histogram(Stage::Extract).count() > 0);
        assert_eq!(recorder.sheds(), 0);
        assert!(!recorder.is_empty());

        // Snapshot serialization is timed as its own stage.
        let _ = engine.snapshot();
        assert_eq!(
            engine
                .telemetry(analysis)
                .unwrap()
                .histogram(Stage::Snapshot)
                .count(),
            1
        );
    }

    #[test]
    fn untimed_engine_reports_zero_stage_nanos_and_empty_recorder() {
        // Pin telemetry off explicitly: the suite must pass under an
        // INSITU_TELEMETRY=1 environment too, and Some(false) beats the
        // env fallback.
        let mut config = EngineConfig::inline();
        config.telemetry.enabled = Some(false);
        let (mut engine, region) = fresh_engine(config);
        let mut domain = Pulse::new();
        let mut last = StepReport::default();
        for it in 0..50u64 {
            let step = engine.step(it);
            domain.advance(it);
            last = step.complete(&domain);
        }
        for stage in Stage::ALL {
            assert_eq!(last.stage_nanos(stage), 0);
        }
        assert_eq!(last.budget_used(), 0);
        let analysis = engine.analysis_id(region, 0).unwrap();
        let recorder = engine.telemetry(analysis).unwrap();
        assert_eq!(recorder.capacity(), 0);
        assert!(recorder.is_empty());
        assert_eq!(recorder.histogram(Stage::Sample).count(), 0);
    }

    /// A budget so tight every step overloads it: with
    /// [`ShedPolicy::DeferExtraction`] the engine sheds continuously, yet
    /// after `drain` (which always extracts) the terminal state is
    /// bit-identical to an unbudgeted run — deferral never changes bits.
    #[test]
    fn defer_extraction_sheds_and_stays_bit_identical_after_drain() {
        let (reference, reference_region) = run_engine(Engine::new(), 301);

        let config = EngineConfig {
            budget: Some(StepBudget::new(std::time::Duration::from_nanos(1))),
            ..EngineConfig::default()
        };
        let mut engine = Engine::with_config(config);
        let region = engine.add_region("pulse").unwrap();
        engine.add_analysis(region, pulse_spec("velocity")).unwrap();
        let mut domain = Pulse::new();
        let mut shed_reports = 0u64;
        for it in 0..301u64 {
            let step = engine.step(it);
            domain.advance(it);
            let report = step.complete(&domain);
            if report.shed() {
                shed_reports += 1;
            }
            assert_eq!(report.budget_limit(), Some(1));
        }
        engine.drain();

        // The EWMA arms after the first measured step; everything after
        // overloads a 1 ns budget.
        assert_eq!(shed_reports, 300);
        assert_eq!(engine.shed_steps(), 300);
        let analysis = engine.analysis_id(region, 0).unwrap();
        assert_eq!(engine.telemetry(analysis).unwrap().sheds(), 300);

        assert_same_terminal_state(&reference, reference_region, &engine, region);
    }

    /// Coarsening under continuous overload deterministically drops the
    /// off-stride collection iterations: two identical runs agree exactly,
    /// and both collect fewer samples than the unbudgeted engine.
    #[test]
    fn coarsen_sampling_skips_off_stride_iterations_deterministically() {
        let (reference, reference_region) = run_engine(Engine::new(), 301);
        let coarse = || {
            let config = EngineConfig {
                budget: Some(StepBudget {
                    limit: std::time::Duration::from_nanos(1),
                    policy: ShedPolicy::CoarsenSampling { stride: 4 },
                }),
                ..EngineConfig::default()
            };
            run_engine(Engine::with_config(config), 301)
        };
        let (a, ra) = coarse();
        let (b, rb) = coarse();
        assert!(a.shed_steps() > 0);
        assert_eq!(a.shed_steps(), b.shed_steps());
        assert_eq!(
            a.status(ra).unwrap().samples_collected,
            b.status(rb).unwrap().samples_collected,
            "coarsening must be deterministic"
        );
        assert!(
            a.status(ra).unwrap().samples_collected
                < reference
                    .status(reference_region)
                    .unwrap()
                    .samples_collected,
            "coarsening must actually drop samples"
        );
    }

    /// The feature list as `refresh_status` used to rebuild it every step.
    fn rebuilt_features(engine: &Engine<Pulse>, region: RegionId) -> Vec<(String, FeatureValue)> {
        engine.regions[region.0]
            .analyses
            .iter()
            .filter_map(|a| a.feature().cloned().map(|f| (a.spec.name().to_string(), f)))
            .collect()
    }

    #[test]
    fn in_place_features_match_the_rebuilt_list() {
        // Threshold-only analyses extract once their collection finishes,
        // so different temporal ends make them extract in an order unlike
        // their registration order: entries appear in the middle of the
        // list and shift the names after them.
        fn arm(engine: &mut Engine<Pulse>) -> RegionId {
            let region = engine.add_region("pulse").unwrap();
            for (name, end, feature) in [
                (
                    "breakpoint-late",
                    60,
                    FeatureKind::Breakpoint { threshold: 0.05 },
                ),
                ("outliers-mid", 40, FeatureKind::Outliers { threshold: 1.0 }),
                ("delay-early", 20, FeatureKind::DelayTime),
                (
                    "breakpoint-mid",
                    40,
                    FeatureKind::Breakpoint { threshold: 0.2 },
                ),
            ] {
                let spec = AnalysisSpec::builder()
                    .name(name)
                    .provider(|d: &Pulse, loc: usize| d.values.get(loc).copied().unwrap_or(0.0))
                    .spatial(IterParam::new(1, 12, 1).unwrap())
                    .temporal(IterParam::new(0, end, 1).unwrap())
                    .method(crate::region::AnalysisMethod::ThresholdOnly)
                    .feature(feature)
                    .build()
                    .unwrap();
                engine.add_analysis(region, spec).unwrap();
            }
            region
        }
        let mut engine: Engine<Pulse> = Engine::new();
        let region = arm(&mut engine);
        let mut domain = Pulse::new();
        let mut lengths = Vec::new();
        for it in 0..80 {
            let step = engine.step(it);
            domain.advance(it);
            let report = step.complete(&domain);
            let want = rebuilt_features(&engine, region);
            assert_eq!(report.region(region).unwrap().features, want, "step {it}");
            lengths.push(want.len());
        }
        // All three extraction waves happened.
        for len in [1, 3, 4] {
            assert!(lengths.contains(&len), "lengths {lengths:?}");
        }

        // A restored engine starts from the snapshot's list and keeps it in
        // line from there.
        let bytes = engine.snapshot();
        let mut restored: Engine<Pulse> = Engine::new();
        let r = arm(&mut restored);
        restored.restore(&bytes).unwrap();
        restored.extract_now(r).unwrap();
        let features = &restored.status(r).unwrap().features;
        assert_eq!(*features, rebuilt_features(&restored, r));
        assert_eq!(*features, engine.status(region).unwrap().features);
    }
}
