//! One analysis session: the bridge between wire frames and an engine.
//!
//! A [`Session`] owns an [`Engine<SampleFrame>`] configured from the
//! client's [`SessionSpec`], plus a reusable [`SampleFrame`] that each
//! `StepSamples` frame is ingested into before the engine's
//! sample → assemble → train → extract pipeline runs over it. Because the
//! engine is the same type the in-process API uses — same collector, same
//! trainer, same extractors — a session's features are bit-identical to
//! what the identical sample stream produces in-process; the wire adds
//! transport, not arithmetic.
//!
//! Sessions always train [inline](insitu::engine::EngineConfig::inline):
//! the *server* provides the concurrency by spreading sessions across
//! worker lanes, so a session must never block on (or compete for) pool
//! job threads of its own.

use insitu::engine::{Engine, EngineConfig, RegionId};
use insitu::prelude::{FrameProvider, SampleFrame};
use insitu::region::{AnalysisSpec, FeatureValue};
use insitu::telemetry::Stage;

use crate::wire::{SessionSpec, SessionStatus, SessionTelemetry, StageStats};

/// One open session: an engine, its region handle, and the reusable
/// ingestion frame.
pub struct Session {
    engine: Engine<SampleFrame>,
    region: RegionId,
    frame: SampleFrame,
    name: String,
    last_samples: u64,
}

impl Session {
    /// Builds the engine for `spec`. Returns a human-readable message when
    /// the spec fails the core library's validation (surfaced to the
    /// client as [`ErrorCode::BadSpec`](crate::wire::ErrorCode::BadSpec)).
    pub fn open(spec: &SessionSpec) -> Result<Self, String> {
        let mut config = EngineConfig::inline();
        // Served sessions always run with telemetry armed so a `Stats`
        // request has something to report; the recorder is allocation-free
        // on the step path and perf_smoke pins its cost under 5 %.
        config.telemetry.enabled = Some(true);
        let mut engine = Engine::with_config(config);
        let region = engine
            .add_region(spec.name.clone())
            .map_err(|e| e.to_string())?;
        let analysis = AnalysisSpec::builder()
            .name(spec.name.clone())
            .provider(FrameProvider)
            .spatial(spec.spatial)
            .temporal(spec.temporal)
            .layout(spec.layout)
            .feature(spec.feature)
            .lag(spec.lag)
            .batch_capacity(spec.batch_capacity)
            .trainer(spec.trainer)
            .retention(spec.retention)
            .build()
            .map_err(|e| e.to_string())?;
        engine
            .add_analysis(region, analysis)
            .map_err(|e| e.to_string())?;
        Ok(Self {
            engine,
            region,
            frame: SampleFrame::new(),
            name: spec.name.clone(),
            last_samples: 0,
        })
    }

    /// Serializes this session into a self-contained blob: the session's
    /// cumulative sample count, then the engine's versioned snapshot
    /// container. Draining first makes the blob independent of training
    /// mode and of where in a batch the session was killed — a restored
    /// session continues bit-identically.
    pub fn snapshot(&mut self) -> Vec<u8> {
        let engine = self.engine.snapshot();
        let mut data = Vec::with_capacity(8 + engine.len());
        data.extend_from_slice(&self.last_samples.to_le_bytes());
        data.extend_from_slice(&engine);
        crate::fault::mangle_snapshot(&mut data);
        data
    }

    /// Resurrects a session from `spec` plus a blob a [`Session::snapshot`]
    /// of an identically specified session produced. Fails closed: a
    /// damaged blob or a spec that doesn't match the snapshotted shape
    /// yields an error and no session.
    pub fn restore(spec: &SessionSpec, data: &[u8]) -> Result<Self, String> {
        let (counter, engine_bytes) = data
            .split_first_chunk::<8>()
            .ok_or_else(|| "snapshot too short for the session header".to_string())?;
        let mut session = Self::open(spec)?;
        session
            .engine
            .restore(engine_bytes)
            .map_err(|e| e.to_string())?;
        session.last_samples = u64::from_le_bytes(*counter);
        Ok(session)
    }

    /// Ingests one step's columns and runs the pipeline. Returns
    /// `(samples recorded by this step, cumulative batches trained)` for
    /// the `StepAck`; errors are client mistakes (mismatched columns).
    pub fn step(
        &mut self,
        iteration: u64,
        locations: &[u64],
        values: &[f64],
    ) -> Result<(u64, u64), String> {
        crate::fault::before_step(&self.name);
        self.frame
            .ingest(locations, values)
            .map_err(|e| e.to_string())?;
        let report = self.engine.step(iteration).complete(&self.frame);
        let status = report.region(self.region).expect("session region exists");
        let total = status.samples_collected as u64;
        let delta = total - self.last_samples;
        self.last_samples = total;
        Ok((delta, status.batches_trained as u64))
    }

    /// Finishes all deferred training (bit-identical to having trained
    /// inline), forces extraction from everything collected so far, and
    /// returns the features.
    pub fn extract(&mut self) -> Vec<(String, FeatureValue)> {
        self.engine.drain();
        self.engine
            .extract_now(self.region)
            .expect("session region exists");
        self.features()
    }

    /// The features extracted so far, without forcing anything.
    pub fn features(&self) -> Vec<(String, FeatureValue)> {
        self.status_ref().features.clone()
    }

    /// A wire snapshot of the region status.
    pub fn poll(&self) -> SessionStatus {
        let status = self.status_ref();
        SessionStatus {
            iteration: status.iteration,
            samples_collected: status.samples_collected as u64,
            batches_trained: status.batches_trained as u64,
            last_loss: status.last_loss,
            converged: status.converged,
            should_terminate: status.should_terminate,
            front_location: status.front_location.map(|l| l as u64),
            predicted_value: status.predicted_value,
        }
    }

    /// A wire snapshot of the session's telemetry: the budget ledger and
    /// per-stage latency statistics (stages with no events are omitted).
    pub fn stats(&self) -> SessionTelemetry {
        let analysis = self
            .engine
            .analysis_id(self.region, 0)
            .expect("session analysis exists");
        let recorder = self
            .engine
            .telemetry(analysis)
            .expect("session analysis exists");
        let stages = Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let histogram = recorder.histogram(stage);
                (histogram.count() > 0).then(|| StageStats {
                    stage: stage as u8,
                    count: histogram.count(),
                    total_ns: histogram.total_ns(),
                    max_ns: histogram.max_ns(),
                    buckets: histogram.buckets().to_vec(),
                })
            })
            .collect();
        SessionTelemetry {
            sheds: recorder.sheds(),
            budget_used_ns: self.engine.budget_used(),
            budget_limit_ns: self.engine.budget_limit(),
            stages,
        }
    }

    fn status_ref(&self) -> &insitu::region::RegionStatus {
        self.engine
            .status(self.region)
            .expect("session region exists")
    }
}

// Dropping a Session drops its Engine, whose `Drop` runs `shutdown()`:
// in-flight training jobs are joined and queued batches recycled, so
// evicting a session (CloseSession, or a connection dying) never orphans
// pool work.

#[cfg(test)]
mod tests {
    use super::*;
    use insitu::IterParam;

    fn spec() -> SessionSpec {
        let mut spec = SessionSpec::new(
            "wave",
            IterParam::new(1, 8, 1).unwrap(),
            IterParam::new(0, 200, 1).unwrap(),
        );
        spec.lag = 10;
        spec
    }

    fn drive(session: &mut Session, steps: u64) {
        let locations: Vec<u64> = (1..=8).collect();
        for it in 0..steps {
            let values: Vec<f64> = locations
                .iter()
                .map(|&l| ((it as f64) * 0.1 - l as f64).tanh() + 1.0)
                .collect();
            session.step(it, &locations, &values).unwrap();
        }
    }

    #[test]
    fn session_matches_the_in_process_engine_bit_for_bit() {
        let mut session = Session::open(&spec()).unwrap();
        drive(&mut session, 120);
        let served = session.extract();

        // The same stream through the in-process API, same provider path.
        let mut engine: Engine<SampleFrame> = Engine::with_config(EngineConfig::inline());
        let region = engine.add_region("wave").unwrap();
        let s = spec();
        engine
            .add_analysis(
                region,
                AnalysisSpec::builder()
                    .name(s.name.clone())
                    .provider(FrameProvider)
                    .spatial(s.spatial)
                    .temporal(s.temporal)
                    .layout(s.layout)
                    .feature(s.feature)
                    .lag(s.lag)
                    .batch_capacity(s.batch_capacity)
                    .trainer(s.trainer)
                    .retention(s.retention)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let mut frame = SampleFrame::new();
        let locations: Vec<u64> = (1..=8).collect();
        for it in 0..120 {
            let values: Vec<f64> = locations
                .iter()
                .map(|&l| ((it as f64) * 0.1 - l as f64).tanh() + 1.0)
                .collect();
            frame.ingest(&locations, &values).unwrap();
            engine.step(it).complete(&frame);
        }
        engine.drain();
        engine.extract_now(region).unwrap();
        let reference = engine.status(region).unwrap().features.clone();

        assert_eq!(served, reference);
        assert!(!served.is_empty(), "the workload extracts a feature");
    }

    /// An `OpenSession` frame from a client that still fills the retired
    /// shard-count slot opens the same inline session as one that does not.
    #[test]
    fn legacy_shard_count_opens_the_plain_session() {
        let mut bytes = Vec::new();
        crate::wire::Frame::OpenSession(spec()).encode(&mut bytes);
        // The spec, and with it the frame, ends in the u32 shard slot.
        let slot = bytes.len() - 4;
        bytes[slot..].copy_from_slice(&3u32.to_le_bytes());
        let crate::wire::Frame::OpenSession(legacy) =
            crate::wire::Frame::decode(&bytes[4..]).unwrap()
        else {
            panic!("an OpenSession frame decodes as one");
        };
        assert_eq!(legacy, spec());

        let mut plain = Session::open(&spec()).unwrap();
        let mut reopened = Session::open(&legacy).unwrap();
        drive(&mut plain, 90);
        drive(&mut reopened, 90);
        assert_eq!(plain.extract(), reopened.extract());
        assert_eq!(plain.poll(), reopened.poll());
    }

    #[test]
    fn step_acks_report_per_step_sample_deltas() {
        let mut session = Session::open(&spec()).unwrap();
        let locations: Vec<u64> = (1..=8).collect();
        let values = vec![1.0; 8];
        let (delta, _) = session.step(0, &locations, &values).unwrap();
        assert_eq!(delta, 8);
        let (delta, _) = session.step(1, &locations, &values).unwrap();
        assert_eq!(delta, 8);
        // Mismatched columns are a client error, not a panic.
        assert!(session.step(2, &locations, &values[..4]).is_err());
    }

    #[test]
    fn bad_specs_are_reported_not_panicked() {
        let mut bad = spec();
        bad.trainer.epochs_per_batch = 0;
        assert!(Session::open(&bad).is_err());
    }

    #[test]
    fn restored_session_continues_bit_identically() {
        // Reference: one uninterrupted session.
        let mut reference = Session::open(&spec()).unwrap();
        drive(&mut reference, 120);

        // Checkpointed: killed at an arbitrary step boundary, resurrected
        // from the blob, driven through the same remaining steps.
        let mut first = Session::open(&spec()).unwrap();
        drive(&mut first, 47);
        let blob = first.snapshot();
        drop(first);
        let mut resumed = Session::restore(&spec(), &blob).unwrap();
        let locations: Vec<u64> = (1..=8).collect();
        for it in 47..120 {
            let values: Vec<f64> = locations
                .iter()
                .map(|&l| ((it as f64) * 0.1 - l as f64).tanh() + 1.0)
                .collect();
            resumed.step(it, &locations, &values).unwrap();
        }
        assert_eq!(resumed.poll(), reference.poll());
        assert_eq!(resumed.extract(), reference.extract());
    }

    #[test]
    fn restore_fails_closed_on_damaged_or_mismatched_blobs() {
        let mut session = Session::open(&spec()).unwrap();
        drive(&mut session, 60);
        let blob = session.snapshot();

        // Too short for even the session header.
        assert!(Session::restore(&spec(), &blob[..4]).is_err());
        // Tail truncated mid-container.
        assert!(Session::restore(&spec(), &blob[..blob.len() - 3]).is_err());
        // A flipped payload bit trips the section checksum.
        let mut corrupt = blob.clone();
        let at = corrupt.len() / 2;
        corrupt[at] ^= 0x01;
        assert!(Session::restore(&spec(), &corrupt).is_err());
        // A spec naming a different region is a mismatch, not a merge.
        let mut other = spec();
        other.name = "other".into();
        assert!(Session::restore(&other, &blob).is_err());
        // The pristine blob still restores.
        assert!(Session::restore(&spec(), &blob).is_ok());
    }
}
