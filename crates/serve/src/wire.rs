//! The length-prefixed binary wire protocol.
//!
//! Transport-independent: this module only deals in byte buffers and
//! `std::io` streams, so the same codec serves TCP sockets, Unix sockets,
//! and the in-memory round-trips of the property tests.
//!
//! # Frame layout
//!
//! ```text
//! ┌────────────┬─────────┬────────────────────────┐
//! │ len: u32le │ kind:u8 │ payload (len - 1 bytes)│
//! └────────────┴─────────┴────────────────────────┘
//! ```
//!
//! `len` counts everything after the prefix (kind byte included) and must
//! be in `1..=`[`MAX_FRAME_LEN`]; oversized frames are rejected **before**
//! any allocation. All integers are little-endian; `f64`s travel as their
//! IEEE-754 bit patterns ([`f64::to_bits`]), which is what makes features
//! served over the wire *bit-identical* to in-process extraction. Strings
//! are UTF-8 with a `u32` byte-length prefix capped at [`MAX_NAME_LEN`].
//! Decoding is strict: truncated payloads, unknown kinds/tags, mismatched
//! column lengths and trailing bytes are all [`WireError`]s, never panics.
//!
//! # Frames
//!
//! Every request gets exactly one response, so clients may pipeline
//! requests and correlate replies by session id.
//!
//! | kind | request (client → server)  | kind | response (server → client)   |
//! |------|----------------------------|------|------------------------------|
//! | 0x01 | [`Frame::OpenSession`]     | 0x81 | [`Frame::SessionOpened`]     |
//! | 0x02 | [`Frame::StepSamples`]     | 0x82 | [`Frame::StepAck`]           |
//! | 0x03 | [`Frame::Extract`]         | 0x83 | [`Frame::FeatureReport`]     |
//! | 0x04 | [`Frame::Features`]        | 0x83 | [`Frame::FeatureReport`]     |
//! | 0x05 | [`Frame::Poll`]            | 0x84 | [`Frame::Status`]            |
//! | 0x06 | [`Frame::CloseSession`]    | 0x86 | [`Frame::Closed`]            |
//! | 0x07 | [`Frame::Subscribe`]       | 0x89 | [`Frame::SubscriptionAck`]   |
//! | 0x08 | [`Frame::Unsubscribe`]     | 0x89 | [`Frame::SubscriptionAck`]   |
//! | 0x09 | [`Frame::Snapshot`]        | 0x8a | [`Frame::SnapshotData`]      |
//! | 0x0a | [`Frame::Restore`]         | 0x81 | [`Frame::SessionOpened`]     |
//! | 0x0b | [`Frame::Stats`]           | 0x8b | [`Frame::StatsReply`]        |
//!
//! Any request may instead be answered by [`Frame::Busy`] (0x85, the frame
//! was shed under backpressure) or [`Frame::ErrorReply`] (0x87).
//! [`Frame::FeatureEvent`] (0x88) is the one *unsolicited* response: after
//! a [`Frame::Subscribe`], the server pushes one whenever a step changes
//! the session's extracted features (convergence or a later refinement),
//! interleaved between replies on the subscribing connection.
//!
//! # Example
//!
//! A frame encodes to one length-prefixed byte run and decodes back
//! bit-identically, whether from a buffer or a byte stream:
//!
//! ```
//! use serve::wire::{read_frame, Frame};
//!
//! let frame = Frame::Poll { session: 7 };
//! let mut bytes = Vec::new();
//! frame.encode(&mut bytes);
//!
//! // First 4 bytes: little-endian body length (kind byte + payload).
//! assert_eq!(u32::from_le_bytes(bytes[..4].try_into().unwrap()), 9);
//! assert_eq!(bytes[4], 0x05); // the Poll kind byte
//!
//! // Streams decode through `read_frame`, which reuses its scratch buffer.
//! let mut stream = bytes.as_slice();
//! let mut scratch = Vec::new();
//! assert_eq!(read_frame(&mut stream, &mut scratch).unwrap(), Some(frame));
//! assert_eq!(read_frame(&mut stream, &mut scratch).unwrap(), None); // clean EOF
//! ```

use std::io::Read;

use insitu::collect::{PredictorLayout, Retention};
use insitu::extract::{BreakpointResult, DelayTimeResult, FeatureKind, OutlierReport};
use insitu::model::{ConvergenceCriteria, OptimizerKind, TrainerConfig};
use insitu::region::FeatureValue;
use insitu::IterParam;

/// Upper bound on the post-prefix length of one frame (1 MiB): large enough
/// for a 65k-location sample batch, small enough that a corrupt or hostile
/// length prefix cannot trigger an unbounded allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Upper bound on the byte length of strings carried in frames.
pub const MAX_NAME_LEN: usize = 1 << 12;

/// Why a byte sequence failed to parse as a frame (or a stream failed to
/// deliver one).
#[derive(Debug)]
pub enum WireError {
    /// The stream or buffer ended inside a frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`] (or was zero).
    Oversized {
        /// The offending declared length.
        len: u32,
    },
    /// The frame kind byte is not one this protocol version knows.
    UnknownKind(u8),
    /// A structurally invalid payload (bad tag, bad UTF-8, column length
    /// mismatch, trailing bytes, ...).
    Malformed(&'static str),
    /// The payload parsed but describes an invalid configuration (e.g. an
    /// empty sampling range).
    Invalid(String),
    /// An I/O error from the underlying stream.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversized { len } => {
                write!(f, "frame length {len} outside 1..={MAX_FRAME_LEN}")
            }
            WireError::UnknownKind(kind) => write!(f, "unknown frame kind {kind:#04x}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Invalid(what) => write!(f, "invalid configuration: {what}"),
            WireError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Machine-readable error category carried by [`Frame::ErrorReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The addressed session id is not open on this server.
    UnknownSession,
    /// The `OpenSession` spec failed validation.
    BadSpec,
    /// The peer sent a frame this endpoint could not decode.
    Protocol,
    /// The server failed internally while processing the request.
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::UnknownSession => 0,
            ErrorCode::BadSpec => 1,
            ErrorCode::Protocol => 2,
            ErrorCode::Internal => 3,
        }
    }

    fn from_u8(byte: u8) -> Result<Self, WireError> {
        Ok(match byte {
            0 => ErrorCode::UnknownSession,
            1 => ErrorCode::BadSpec,
            2 => ErrorCode::Protocol,
            3 => ErrorCode::Internal,
            _ => return Err(WireError::Malformed("unknown error code")),
        })
    }
}

/// Everything a server needs to arm one analysis session: the analysis
/// configuration of [`AnalysisSpec`](insitu::region::AnalysisSpec) minus
/// the provider (the wire feeds samples explicitly), plus the AR trainer
/// hyper-parameters and the retention policy bounding per-session memory.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Analysis name (reported back with extracted features).
    pub name: String,
    /// Spatial sampling characteristic (locations).
    pub spatial: IterParam,
    /// Temporal sampling characteristic (iterations).
    pub temporal: IterParam,
    /// Predictor layout of the AR model.
    pub layout: PredictorLayout,
    /// Feature to extract.
    pub feature: FeatureKind,
    /// Time-step lag between predictors and target.
    pub lag: u64,
    /// Mini-batch capacity (rows per training batch).
    pub batch_capacity: usize,
    /// AR trainer hyper-parameters.
    pub trainer: TrainerConfig,
    /// Sample-history retention policy. [`Retention::Window`] is what
    /// bounds per-session memory for indefinitely running sessions.
    pub retention: Retention,
}

impl SessionSpec {
    /// A spec with the library's defaults (order-3 AR, SGD, batch 16,
    /// spatio-temporal layout, full retention) over the given
    /// characteristics.
    pub fn new(name: impl Into<String>, spatial: IterParam, temporal: IterParam) -> Self {
        Self {
            name: name.into(),
            spatial,
            temporal,
            layout: PredictorLayout::SpatioTemporal,
            feature: FeatureKind::DelayTime,
            lag: 50,
            batch_capacity: 16,
            trainer: TrainerConfig::default(),
            retention: Retention::Full,
        }
    }
}

/// A non-blocking snapshot of one session's region status, the wire mirror
/// of [`RegionStatus`](insitu::region::RegionStatus)'s scalar fields.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionStatus {
    /// Iteration of the last completed step.
    pub iteration: u64,
    /// Total samples recorded.
    pub samples_collected: u64,
    /// Total mini-batches consumed by the trainer.
    pub batches_trained: u64,
    /// Most recent training loss.
    pub last_loss: Option<f64>,
    /// Whether the model satisfies its convergence criteria.
    pub converged: bool,
    /// Whether the session requests early termination of its simulation.
    pub should_terminate: bool,
    /// Location id of the current wave front, if tracked.
    pub front_location: Option<u64>,
    /// Latest model prediction, if available.
    pub predicted_value: Option<f64>,
}

/// Per-stage latency statistics in a [`Frame::StatsReply`]: one engine
/// pipeline stage's event count, cumulative/max nanoseconds, and its
/// power-of-two latency histogram (bucket `i` counts events in
/// `(2^(i-1), 2^i]` ns — the wire mirror of
/// [`Histogram`](insitu::telemetry::Histogram)'s buckets).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageStats {
    /// The stage's discriminant
    /// ([`Stage as u8`](insitu::telemetry::Stage); decode with
    /// [`Stage::from_u8`](insitu::telemetry::Stage::from_u8)).
    pub stage: u8,
    /// Number of recorded events.
    pub count: u64,
    /// Sum of all recorded durations, in nanoseconds.
    pub total_ns: u64,
    /// Largest recorded duration, in nanoseconds.
    pub max_ns: u64,
    /// Power-of-two latency bucket counts, lowest bound first.
    pub buckets: Vec<u64>,
}

/// One session's telemetry snapshot, carried by [`Frame::StatsReply`]:
/// the budget ledger plus per-stage latency statistics. Stages that never
/// recorded an event are omitted from `stages`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionTelemetry {
    /// Steps on which the overload policy shed work.
    pub sheds: u64,
    /// Cumulative measured pipeline cost, in nanoseconds.
    pub budget_used_ns: u64,
    /// The configured per-step budget limit in nanoseconds, if any.
    pub budget_limit_ns: Option<u64>,
    /// Per-stage latency statistics, in stage-discriminant order.
    pub stages: Vec<StageStats>,
}

/// One protocol frame. See the [module documentation](self) for the byte
/// layout and the request/response pairing.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Open a new analysis session; answered by [`Frame::SessionOpened`]
    /// (or [`Frame::ErrorReply`] with [`ErrorCode::BadSpec`]).
    OpenSession(SessionSpec),
    /// One simulation step's samples as parallel location/value columns;
    /// answered by [`Frame::StepAck`] or shed with [`Frame::Busy`].
    StepSamples {
        /// Target session.
        session: u64,
        /// Simulation iteration the columns describe.
        iteration: u64,
        /// Sampled locations (need not be sorted; must parallel `values`).
        locations: Vec<u64>,
        /// Sampled values, parallel to `locations`.
        values: Vec<f64>,
    },
    /// Force feature extraction now; answered by [`Frame::FeatureReport`].
    Extract {
        /// Target session.
        session: u64,
    },
    /// Report the features extracted so far; answered by
    /// [`Frame::FeatureReport`].
    Features {
        /// Target session.
        session: u64,
    },
    /// Query the session status; answered by [`Frame::Status`].
    Poll {
        /// Target session.
        session: u64,
    },
    /// Close the session, winding its engine down; answered by
    /// [`Frame::Closed`].
    CloseSession {
        /// Target session.
        session: u64,
    },
    /// Subscribe this connection to server-push feature streaming for the
    /// session: after each ingested step whose extracted features changed,
    /// the server pushes a [`Frame::FeatureEvent`] instead of the client
    /// burning `Poll`/`Features` round-trips. Answered by
    /// [`Frame::SubscriptionAck`].
    Subscribe {
        /// Target session.
        session: u64,
    },
    /// Stop feature streaming for the session; answered by
    /// [`Frame::SubscriptionAck`]. Events already queued may still arrive
    /// before the ack.
    Unsubscribe {
        /// Target session.
        session: u64,
    },
    /// Checkpoint the session: serialize its full engine state at the
    /// current step boundary; answered by [`Frame::SnapshotData`]. The
    /// session stays open and continues exactly as if never snapshotted.
    Snapshot {
        /// Target session.
        session: u64,
    },
    /// Resurrect a session from a [`Frame::SnapshotData`] blob — on this
    /// server or a different one — under a **new** session id; answered by
    /// [`Frame::SessionOpened`] (or [`Frame::ErrorReply`] with
    /// [`ErrorCode::BadSpec`] when the blob is corrupt or was taken from a
    /// differently configured spec). The spec must equal the one the
    /// snapshotted session was opened with; the restored session then
    /// serves a feature stream bit-identical to one that never stopped.
    Restore {
        /// The spec the snapshotted session was opened with.
        spec: SessionSpec,
        /// The opaque state blob from [`Frame::SnapshotData`].
        data: Vec<u8>,
    },
    /// Query the session's telemetry — per-stage latency histograms and
    /// the budget ledger; answered by [`Frame::StatsReply`].
    Stats {
        /// Target session.
        session: u64,
    },
    /// The session is open and ready for samples.
    SessionOpened {
        /// Server-assigned session id, unique for the server's lifetime.
        session: u64,
    },
    /// One step's samples were ingested.
    StepAck {
        /// Acknowledging session.
        session: u64,
        /// Iteration that was ingested.
        iteration: u64,
        /// Samples recorded by this step (0 when the iteration is not in
        /// the temporal characteristic).
        samples: u64,
        /// Cumulative mini-batches trained so far.
        batches_trained: u64,
    },
    /// Extracted features, one `(analysis name, value)` pair per analysis
    /// that has produced its feature.
    FeatureReport {
        /// Reporting session.
        session: u64,
        /// The features, bit-identical to in-process extraction.
        features: Vec<(String, FeatureValue)>,
    },
    /// Session status snapshot.
    Status {
        /// Reporting session.
        session: u64,
        /// The snapshot.
        status: SessionStatus,
    },
    /// The session's inflight queue is full — the frame was shed, not
    /// buffered. Retry after draining pending replies.
    Busy {
        /// The session that shed the frame.
        session: u64,
        /// Queue depth at shed time (the configured capacity).
        depth: u32,
    },
    /// The session is closed; its id is retired.
    Closed {
        /// The closed session.
        session: u64,
    },
    /// Server-pushed feature report for a subscribed session: emitted
    /// after the step at `iteration` left the session's extracted features
    /// different from the last event (the first one marks
    /// extraction-convergence). Same payload contract as
    /// [`Frame::FeatureReport`]: bit-identical to in-process extraction.
    FeatureEvent {
        /// The subscribed session.
        session: u64,
        /// The ingested iteration whose step produced these features.
        iteration: u64,
        /// The features, bit-identical to in-process extraction.
        features: Vec<(String, FeatureValue)>,
    },
    /// The session's serialized state, answering [`Frame::Snapshot`]. The
    /// blob is opaque to the wire layer (internally the engine's versioned,
    /// checksummed snapshot container) and is valid [`Frame::Restore`]
    /// input on any server build with a compatible snapshot version.
    SnapshotData {
        /// The snapshotted session.
        session: u64,
        /// The opaque state blob.
        data: Vec<u8>,
    },
    /// The session's telemetry snapshot, answering [`Frame::Stats`].
    StatsReply {
        /// Reporting session.
        session: u64,
        /// The telemetry snapshot.
        telemetry: SessionTelemetry,
    },
    /// Acknowledges [`Frame::Subscribe`] / [`Frame::Unsubscribe`].
    SubscriptionAck {
        /// The session addressed.
        session: u64,
        /// Whether the connection is now subscribed.
        subscribed: bool,
    },
    /// The request failed.
    ErrorReply {
        /// Session the failed request addressed (0 when not applicable).
        session: u64,
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// Frame kind bytes. Requests have the high bit clear, responses set.
const KIND_OPEN_SESSION: u8 = 0x01;
const KIND_STEP_SAMPLES: u8 = 0x02;
const KIND_EXTRACT: u8 = 0x03;
const KIND_FEATURES: u8 = 0x04;
const KIND_POLL: u8 = 0x05;
const KIND_CLOSE_SESSION: u8 = 0x06;
const KIND_SUBSCRIBE: u8 = 0x07;
const KIND_UNSUBSCRIBE: u8 = 0x08;
const KIND_SNAPSHOT: u8 = 0x09;
const KIND_RESTORE: u8 = 0x0a;
const KIND_STATS: u8 = 0x0b;
const KIND_SESSION_OPENED: u8 = 0x81;
const KIND_STEP_ACK: u8 = 0x82;
const KIND_FEATURE_REPORT: u8 = 0x83;
const KIND_STATUS: u8 = 0x84;
const KIND_BUSY: u8 = 0x85;
const KIND_CLOSED: u8 = 0x86;
const KIND_ERROR: u8 = 0x87;
const KIND_FEATURE_EVENT: u8 = 0x88;
const KIND_SUBSCRIPTION_ACK: u8 = 0x89;
const KIND_SNAPSHOT_DATA: u8 = 0x8a;
const KIND_STATS_REPLY: u8 = 0x8b;

impl Frame {
    /// Appends the complete frame (length prefix included) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&[0; 4]); // length back-patched below
        match self {
            Frame::OpenSession(spec) => {
                buf.push(KIND_OPEN_SESSION);
                put_spec(buf, spec);
            }
            Frame::StepSamples {
                session,
                iteration,
                locations,
                values,
            } => {
                buf.push(KIND_STEP_SAMPLES);
                put_u64(buf, *session);
                put_u64(buf, *iteration);
                put_u32(buf, locations.len() as u32);
                for &l in locations {
                    put_u64(buf, l);
                }
                for &v in values {
                    put_f64(buf, v);
                }
            }
            Frame::Extract { session } => {
                buf.push(KIND_EXTRACT);
                put_u64(buf, *session);
            }
            Frame::Features { session } => {
                buf.push(KIND_FEATURES);
                put_u64(buf, *session);
            }
            Frame::Poll { session } => {
                buf.push(KIND_POLL);
                put_u64(buf, *session);
            }
            Frame::CloseSession { session } => {
                buf.push(KIND_CLOSE_SESSION);
                put_u64(buf, *session);
            }
            Frame::Subscribe { session } => {
                buf.push(KIND_SUBSCRIBE);
                put_u64(buf, *session);
            }
            Frame::Unsubscribe { session } => {
                buf.push(KIND_UNSUBSCRIBE);
                put_u64(buf, *session);
            }
            Frame::Snapshot { session } => {
                buf.push(KIND_SNAPSHOT);
                put_u64(buf, *session);
            }
            Frame::Stats { session } => {
                buf.push(KIND_STATS);
                put_u64(buf, *session);
            }
            Frame::StatsReply { session, telemetry } => {
                buf.push(KIND_STATS_REPLY);
                put_u64(buf, *session);
                put_u64(buf, telemetry.sheds);
                put_u64(buf, telemetry.budget_used_ns);
                put_opt_u64(buf, telemetry.budget_limit_ns);
                put_u32(buf, telemetry.stages.len() as u32);
                for stage in &telemetry.stages {
                    buf.push(stage.stage);
                    put_u64(buf, stage.count);
                    put_u64(buf, stage.total_ns);
                    put_u64(buf, stage.max_ns);
                    put_u32(buf, stage.buckets.len() as u32);
                    for &bucket in &stage.buckets {
                        put_u64(buf, bucket);
                    }
                }
            }
            Frame::Restore { spec, data } => {
                buf.push(KIND_RESTORE);
                put_spec(buf, spec);
                put_u32(buf, data.len() as u32);
                buf.extend_from_slice(data);
            }
            Frame::SnapshotData { session, data } => {
                buf.push(KIND_SNAPSHOT_DATA);
                put_u64(buf, *session);
                put_u32(buf, data.len() as u32);
                buf.extend_from_slice(data);
            }
            Frame::SessionOpened { session } => {
                buf.push(KIND_SESSION_OPENED);
                put_u64(buf, *session);
            }
            Frame::StepAck {
                session,
                iteration,
                samples,
                batches_trained,
            } => {
                buf.push(KIND_STEP_ACK);
                put_u64(buf, *session);
                put_u64(buf, *iteration);
                put_u64(buf, *samples);
                put_u64(buf, *batches_trained);
            }
            Frame::FeatureReport { session, features } => {
                buf.push(KIND_FEATURE_REPORT);
                put_u64(buf, *session);
                put_u32(buf, features.len() as u32);
                for (name, feature) in features {
                    put_str(buf, name);
                    put_feature(buf, feature);
                }
            }
            Frame::Status { session, status } => {
                buf.push(KIND_STATUS);
                put_u64(buf, *session);
                put_u64(buf, status.iteration);
                put_u64(buf, status.samples_collected);
                put_u64(buf, status.batches_trained);
                put_opt_f64(buf, status.last_loss);
                buf.push(status.converged as u8);
                buf.push(status.should_terminate as u8);
                put_opt_u64(buf, status.front_location);
                put_opt_f64(buf, status.predicted_value);
            }
            Frame::Busy { session, depth } => {
                buf.push(KIND_BUSY);
                put_u64(buf, *session);
                put_u32(buf, *depth);
            }
            Frame::Closed { session } => {
                buf.push(KIND_CLOSED);
                put_u64(buf, *session);
            }
            Frame::FeatureEvent {
                session,
                iteration,
                features,
            } => {
                buf.push(KIND_FEATURE_EVENT);
                put_u64(buf, *session);
                put_u64(buf, *iteration);
                put_u32(buf, features.len() as u32);
                for (name, feature) in features {
                    put_str(buf, name);
                    put_feature(buf, feature);
                }
            }
            Frame::SubscriptionAck {
                session,
                subscribed,
            } => {
                buf.push(KIND_SUBSCRIPTION_ACK);
                put_u64(buf, *session);
                buf.push(*subscribed as u8);
            }
            Frame::ErrorReply {
                session,
                code,
                message,
            } => {
                buf.push(KIND_ERROR);
                put_u64(buf, *session);
                buf.push(code.to_u8());
                put_str(buf, message);
            }
        }
        let body_len = (buf.len() - start - 4) as u32;
        debug_assert!((1..=MAX_FRAME_LEN).contains(&body_len));
        buf[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
    }

    /// Decodes one frame **body** (kind byte + payload, without the length
    /// prefix). Strict: every byte must be consumed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] variant except `Io`; never panics, whatever the
    /// input bytes.
    pub fn decode(body: &[u8]) -> Result<Frame, WireError> {
        let mut cur = Cursor::new(body);
        let kind = cur.take_u8()?;
        let frame = match kind {
            KIND_OPEN_SESSION => Frame::OpenSession(take_spec(&mut cur)?),
            KIND_STEP_SAMPLES => {
                let session = cur.take_u64()?;
                let iteration = cur.take_u64()?;
                let count = cur.take_u32()? as usize;
                // The two columns are exactly the rest of the payload;
                // checked before anything is allocated, so a corrupt (or
                // mismatched-column) count can neither over-allocate nor
                // read past the body.
                let expected = count
                    .checked_mul(16)
                    .ok_or(WireError::Malformed("sample count overflows the frame"))?;
                if cur.remaining() != expected {
                    return Err(WireError::Malformed(
                        "sample columns do not match their count",
                    ));
                }
                let mut locations = Vec::with_capacity(count);
                for _ in 0..count {
                    locations.push(cur.take_u64()?);
                }
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(cur.take_f64()?);
                }
                Frame::StepSamples {
                    session,
                    iteration,
                    locations,
                    values,
                }
            }
            KIND_EXTRACT => Frame::Extract {
                session: cur.take_u64()?,
            },
            KIND_FEATURES => Frame::Features {
                session: cur.take_u64()?,
            },
            KIND_POLL => Frame::Poll {
                session: cur.take_u64()?,
            },
            KIND_CLOSE_SESSION => Frame::CloseSession {
                session: cur.take_u64()?,
            },
            KIND_SUBSCRIBE => Frame::Subscribe {
                session: cur.take_u64()?,
            },
            KIND_UNSUBSCRIBE => Frame::Unsubscribe {
                session: cur.take_u64()?,
            },
            KIND_SNAPSHOT => Frame::Snapshot {
                session: cur.take_u64()?,
            },
            KIND_STATS => Frame::Stats {
                session: cur.take_u64()?,
            },
            KIND_STATS_REPLY => {
                let session = cur.take_u64()?;
                let sheds = cur.take_u64()?;
                let budget_used_ns = cur.take_u64()?;
                let budget_limit_ns = cur.take_opt_u64()?;
                let stage_count = cur.take_u32()? as usize;
                // Smallest possible stage entry: tag + three u64s + an
                // empty bucket count.
                cur.ensure_capacity_for(stage_count, 1 + 8 * 3 + 4)?;
                let mut stages = Vec::with_capacity(stage_count);
                for _ in 0..stage_count {
                    let stage = cur.take_u8()?;
                    let count = cur.take_u64()?;
                    let total_ns = cur.take_u64()?;
                    let max_ns = cur.take_u64()?;
                    let bucket_count = cur.take_u32()? as usize;
                    cur.ensure_capacity_for(bucket_count, 8)?;
                    let mut buckets = Vec::with_capacity(bucket_count);
                    for _ in 0..bucket_count {
                        buckets.push(cur.take_u64()?);
                    }
                    stages.push(StageStats {
                        stage,
                        count,
                        total_ns,
                        max_ns,
                        buckets,
                    });
                }
                Frame::StatsReply {
                    session,
                    telemetry: SessionTelemetry {
                        sheds,
                        budget_used_ns,
                        budget_limit_ns,
                        stages,
                    },
                }
            }
            KIND_RESTORE => {
                let spec = take_spec(&mut cur)?;
                let data = cur.take_blob()?;
                Frame::Restore { spec, data }
            }
            KIND_SNAPSHOT_DATA => {
                let session = cur.take_u64()?;
                let data = cur.take_blob()?;
                Frame::SnapshotData { session, data }
            }
            KIND_SESSION_OPENED => Frame::SessionOpened {
                session: cur.take_u64()?,
            },
            KIND_STEP_ACK => Frame::StepAck {
                session: cur.take_u64()?,
                iteration: cur.take_u64()?,
                samples: cur.take_u64()?,
                batches_trained: cur.take_u64()?,
            },
            KIND_FEATURE_REPORT => {
                let session = cur.take_u64()?;
                let count = cur.take_u32()? as usize;
                // Cheapest possible feature is > 8 bytes; bound the
                // allocation by what could actually fit.
                cur.ensure_capacity_for(count, 8)?;
                let mut features = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = cur.take_str()?;
                    let feature = take_feature(&mut cur)?;
                    features.push((name, feature));
                }
                Frame::FeatureReport { session, features }
            }
            KIND_STATUS => Frame::Status {
                session: cur.take_u64()?,
                status: SessionStatus {
                    iteration: cur.take_u64()?,
                    samples_collected: cur.take_u64()?,
                    batches_trained: cur.take_u64()?,
                    last_loss: cur.take_opt_f64()?,
                    converged: cur.take_bool()?,
                    should_terminate: cur.take_bool()?,
                    front_location: cur.take_opt_u64()?,
                    predicted_value: cur.take_opt_f64()?,
                },
            },
            KIND_BUSY => Frame::Busy {
                session: cur.take_u64()?,
                depth: cur.take_u32()?,
            },
            KIND_CLOSED => Frame::Closed {
                session: cur.take_u64()?,
            },
            KIND_ERROR => Frame::ErrorReply {
                session: cur.take_u64()?,
                code: ErrorCode::from_u8(cur.take_u8()?)?,
                message: cur.take_str()?,
            },
            KIND_FEATURE_EVENT => {
                let session = cur.take_u64()?;
                let iteration = cur.take_u64()?;
                let count = cur.take_u32()? as usize;
                cur.ensure_capacity_for(count, 8)?;
                let mut features = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = cur.take_str()?;
                    let feature = take_feature(&mut cur)?;
                    features.push((name, feature));
                }
                Frame::FeatureEvent {
                    session,
                    iteration,
                    features,
                }
            }
            KIND_SUBSCRIPTION_ACK => Frame::SubscriptionAck {
                session: cur.take_u64()?,
                subscribed: cur.take_bool()?,
            },
            other => return Err(WireError::UnknownKind(other)),
        };
        cur.finish()?;
        Ok(frame)
    }
}

/// Reads one frame from a stream. Returns `Ok(None)` on a clean EOF **at a
/// frame boundary**; an EOF inside a frame is [`WireError::Truncated`].
/// `scratch` is reused across calls so a steady-state read loop does not
/// allocate for the frame body.
pub fn read_frame<R: Read>(r: &mut R, scratch: &mut Vec<u8>) -> Result<Option<Frame>, WireError> {
    let mut prefix = [0u8; 4];
    // Distinguish "no next frame" from "died mid-frame" by hand: a clean
    // shutdown ends exactly on a boundary.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(WireError::Oversized { len });
    }
    scratch.clear();
    scratch.resize(len as usize, 0);
    r.read_exact(scratch).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })?;
    // The full body arrived, so from here on `Truncated` can only mean the
    // body is shorter than its own fields claim — a malformed frame, not a
    // dead stream. Keeping the two distinct lets a server reply with a
    // protocol error and keep the (still correctly framed) connection.
    Frame::decode(scratch).map(Some).map_err(|e| match e {
        WireError::Truncated => WireError::Malformed("frame body shorter than its fields"),
        other => other,
    })
}

// ---- primitive encoders ----------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_opt_f64(buf: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(v) => {
            buf.push(1);
            put_f64(buf, v);
        }
        None => buf.push(0),
    }
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            buf.push(1);
            put_u64(buf, v);
        }
        None => buf.push(0),
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= MAX_NAME_LEN);
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_iter_param(buf: &mut Vec<u8>, p: IterParam) {
    put_u64(buf, p.begin());
    put_u64(buf, p.end());
    put_u64(buf, p.step());
}

fn put_feature_kind(buf: &mut Vec<u8>, kind: FeatureKind) {
    match kind {
        FeatureKind::Breakpoint { threshold } => {
            buf.push(0);
            put_f64(buf, threshold);
        }
        FeatureKind::DelayTime => buf.push(1),
        FeatureKind::Outliers { threshold } => {
            buf.push(2);
            put_f64(buf, threshold);
        }
    }
}

fn put_spec(buf: &mut Vec<u8>, spec: &SessionSpec) {
    put_str(buf, &spec.name);
    put_iter_param(buf, spec.spatial);
    put_iter_param(buf, spec.temporal);
    buf.push(match spec.layout {
        PredictorLayout::SpatioTemporal => 0,
        PredictorLayout::Temporal => 1,
        PredictorLayout::Spatial => 2,
    });
    put_feature_kind(buf, spec.feature);
    put_u64(buf, spec.lag);
    put_u32(buf, spec.batch_capacity as u32);
    put_u32(buf, spec.trainer.order as u32);
    match spec.trainer.optimizer {
        OptimizerKind::Sgd { learning_rate } => {
            buf.push(0);
            put_f64(buf, learning_rate);
        }
        OptimizerKind::Momentum {
            learning_rate,
            beta,
        } => {
            buf.push(1);
            put_f64(buf, learning_rate);
            put_f64(buf, beta);
        }
        OptimizerKind::Adagrad { learning_rate } => {
            buf.push(2);
            put_f64(buf, learning_rate);
        }
    }
    put_u32(buf, spec.trainer.epochs_per_batch as u32);
    put_f64(buf, spec.trainer.convergence.loss_threshold);
    put_u32(buf, spec.trainer.convergence.patience as u32);
    put_u32(buf, spec.trainer.convergence.max_batches as u32);
    match spec.retention {
        Retention::Full => buf.push(0),
        Retention::Window(n) => {
            buf.push(1);
            put_u64(buf, n as u64);
        }
    }
}

fn put_feature(buf: &mut Vec<u8>, feature: &FeatureValue) {
    match feature {
        FeatureValue::Breakpoint(b) => {
            buf.push(0);
            put_f64(buf, b.threshold_value);
            put_u64(buf, b.radius as u64);
            buf.push(b.bounded as u8);
        }
        FeatureValue::DelayTime(d) => {
            buf.push(1);
            put_f64(buf, d.delay_time);
            put_u64(buf, d.index as u64);
            put_f64(buf, d.value);
            put_f64(buf, d.gradient_drop);
        }
        FeatureValue::Outliers(o) => {
            buf.push(2);
            put_f64(buf, o.threshold);
            put_u64(buf, o.inspected as u64);
            put_u32(buf, o.outliers.len() as u32);
            for &(loc, value) in &o.outliers {
                put_u64(buf, loc as u64);
                put_f64(buf, value);
            }
        }
    }
}

// ---- checked decoder -------------------------------------------------------

/// A bounds-checked reader over one frame body. Every `take_*` either
/// yields a value or a [`WireError`]; nothing indexes past the buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn ensure(&self, n: usize) -> Result<(), WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        Ok(())
    }

    /// Rejects element counts that could not possibly fit in the remaining
    /// bytes, so a corrupt count cannot trigger a huge pre-allocation.
    fn ensure_capacity_for(&self, count: usize, min_elem_bytes: usize) -> Result<(), WireError> {
        match count.checked_mul(min_elem_bytes) {
            Some(total) => self.ensure(total),
            None => Err(WireError::Truncated),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.ensure(n)?;
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn take_bool(&mut self) -> Result<bool, WireError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("boolean must be 0 or 1")),
        }
    }

    fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    fn take_opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        Ok(if self.take_bool()? {
            Some(self.take_f64()?)
        } else {
            None
        })
    }

    fn take_opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        Ok(if self.take_bool()? {
            Some(self.take_u64()?)
        } else {
            None
        })
    }

    fn take_str(&mut self) -> Result<String, WireError> {
        let len = self.take_u32()? as usize;
        if len > MAX_NAME_LEN {
            return Err(WireError::Malformed("string length exceeds MAX_NAME_LEN"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("string is not UTF-8"))
    }

    /// A `u32`-length-prefixed opaque byte blob. The length is bounded by
    /// the frame body itself (checked before allocating), so a corrupt
    /// prefix cannot over-allocate.
    fn take_blob(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.take_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn take_iter_param(&mut self) -> Result<IterParam, WireError> {
        let begin = self.take_u64()?;
        let end = self.take_u64()?;
        let step = self.take_u64()?;
        IterParam::new(begin, end, step).map_err(|e| WireError::Invalid(e.to_string()))
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

fn take_spec(cur: &mut Cursor<'_>) -> Result<SessionSpec, WireError> {
    let name = cur.take_str()?;
    let spatial = cur.take_iter_param()?;
    let temporal = cur.take_iter_param()?;
    let layout = match cur.take_u8()? {
        0 => PredictorLayout::SpatioTemporal,
        1 => PredictorLayout::Temporal,
        2 => PredictorLayout::Spatial,
        _ => return Err(WireError::Malformed("unknown predictor layout")),
    };
    let feature = match cur.take_u8()? {
        0 => FeatureKind::Breakpoint {
            threshold: cur.take_f64()?,
        },
        1 => FeatureKind::DelayTime,
        2 => FeatureKind::Outliers {
            threshold: cur.take_f64()?,
        },
        _ => return Err(WireError::Malformed("unknown feature kind")),
    };
    let lag = cur.take_u64()?;
    let batch_capacity = cur.take_u32()? as usize;
    let order = cur.take_u32()? as usize;
    let optimizer = match cur.take_u8()? {
        0 => OptimizerKind::Sgd {
            learning_rate: cur.take_f64()?,
        },
        1 => OptimizerKind::Momentum {
            learning_rate: cur.take_f64()?,
            beta: cur.take_f64()?,
        },
        2 => OptimizerKind::Adagrad {
            learning_rate: cur.take_f64()?,
        },
        _ => return Err(WireError::Malformed("unknown optimizer kind")),
    };
    let epochs_per_batch = cur.take_u32()? as usize;
    let convergence = ConvergenceCriteria {
        loss_threshold: cur.take_f64()?,
        patience: cur.take_u32()? as usize,
        max_batches: cur.take_u32()? as usize,
    };
    let retention = match cur.take_u8()? {
        0 => Retention::Full,
        1 => Retention::Window(cur.take_u64()? as usize),
        _ => return Err(WireError::Malformed("unknown retention policy")),
    };
    Ok(SessionSpec {
        name,
        spatial,
        temporal,
        layout,
        feature,
        lag,
        batch_capacity,
        trainer: TrainerConfig {
            order,
            optimizer,
            epochs_per_batch,
            convergence,
        },
        retention,
    })
}

fn take_feature(cur: &mut Cursor<'_>) -> Result<FeatureValue, WireError> {
    Ok(match cur.take_u8()? {
        0 => FeatureValue::Breakpoint(BreakpointResult {
            threshold_value: cur.take_f64()?,
            radius: cur.take_u64()? as usize,
            bounded: cur.take_bool()?,
        }),
        1 => FeatureValue::DelayTime(DelayTimeResult {
            delay_time: cur.take_f64()?,
            index: cur.take_u64()? as usize,
            value: cur.take_f64()?,
            gradient_drop: cur.take_f64()?,
        }),
        2 => {
            let threshold = cur.take_f64()?;
            let inspected = cur.take_u64()? as usize;
            let count = cur.take_u32()? as usize;
            cur.ensure_capacity_for(count, 16)?;
            let mut outliers = Vec::with_capacity(count);
            for _ in 0..count {
                let loc = cur.take_u64()? as usize;
                let value = cur.take_f64()?;
                outliers.push((loc, value));
            }
            FeatureValue::Outliers(OutlierReport {
                threshold,
                outliers,
                inspected,
            })
        }
        _ => return Err(WireError::Malformed("unknown feature value tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 4, "length prefix covers the body");
        let decoded = Frame::decode(&buf[4..]).expect("decodes");
        assert_eq!(decoded, frame);
    }

    #[test]
    fn every_frame_kind_round_trips() {
        roundtrip(Frame::OpenSession(SessionSpec::new(
            "velocity",
            IterParam::new(1, 12, 1).unwrap(),
            IterParam::new(0, 300, 1).unwrap(),
        )));
        roundtrip(Frame::StepSamples {
            session: 7,
            iteration: 42,
            locations: vec![1, 2, 3],
            values: vec![0.5, -0.25, f64::MIN_POSITIVE],
        });
        roundtrip(Frame::Extract { session: 1 });
        roundtrip(Frame::Features { session: 2 });
        roundtrip(Frame::Poll { session: 3 });
        roundtrip(Frame::CloseSession { session: 4 });
        roundtrip(Frame::SessionOpened { session: 5 });
        roundtrip(Frame::StepAck {
            session: 5,
            iteration: 9,
            samples: 12,
            batches_trained: 3,
        });
        roundtrip(Frame::FeatureReport {
            session: 5,
            features: vec![
                (
                    "bp".into(),
                    FeatureValue::Breakpoint(BreakpointResult {
                        threshold_value: 0.25,
                        radius: 9,
                        bounded: true,
                    }),
                ),
                (
                    "dt".into(),
                    FeatureValue::DelayTime(DelayTimeResult {
                        delay_time: 31.25,
                        index: 31,
                        value: 2.5,
                        gradient_drop: 0.125,
                    }),
                ),
                (
                    "out".into(),
                    FeatureValue::Outliers(OutlierReport {
                        threshold: 1.5,
                        outliers: vec![(3, 2.0), (8, 1.75)],
                        inspected: 12,
                    }),
                ),
            ],
        });
        roundtrip(Frame::Status {
            session: 5,
            status: SessionStatus {
                iteration: 100,
                samples_collected: 1200,
                batches_trained: 75,
                last_loss: Some(1e-3),
                converged: true,
                should_terminate: false,
                front_location: Some(4),
                predicted_value: None,
            },
        });
        roundtrip(Frame::Busy {
            session: 5,
            depth: 64,
        });
        roundtrip(Frame::Closed { session: 5 });
        roundtrip(Frame::ErrorReply {
            session: 0,
            code: ErrorCode::BadSpec,
            message: "order must be positive".into(),
        });
        roundtrip(Frame::Subscribe { session: 6 });
        roundtrip(Frame::Unsubscribe { session: 6 });
        roundtrip(Frame::SubscriptionAck {
            session: 6,
            subscribed: true,
        });
        roundtrip(Frame::SubscriptionAck {
            session: 6,
            subscribed: false,
        });
        roundtrip(Frame::FeatureEvent {
            session: 6,
            iteration: 77,
            features: vec![(
                "dt".into(),
                FeatureValue::DelayTime(DelayTimeResult {
                    delay_time: 31.25,
                    index: 31,
                    value: 2.5,
                    gradient_drop: 0.125,
                }),
            )],
        });
        roundtrip(Frame::FeatureEvent {
            session: 6,
            iteration: 0,
            features: Vec::new(),
        });
        roundtrip(Frame::Snapshot { session: 9 });
        roundtrip(Frame::Restore {
            spec: SessionSpec::new(
                "velocity",
                IterParam::new(1, 12, 1).unwrap(),
                IterParam::new(0, 300, 1).unwrap(),
            ),
            data: vec![0x49, 0x53, 0x00, 0xff, 0x80],
        });
        roundtrip(Frame::SnapshotData {
            session: 9,
            data: (0..=255u8).collect(),
        });
        roundtrip(Frame::SnapshotData {
            session: 9,
            data: Vec::new(),
        });
        roundtrip(Frame::Stats { session: 11 });
        roundtrip(Frame::StatsReply {
            session: 11,
            telemetry: SessionTelemetry {
                sheds: 4,
                budget_used_ns: 123_456_789,
                budget_limit_ns: Some(150_000),
                stages: vec![
                    StageStats {
                        stage: 0,
                        count: 300,
                        total_ns: 600_000,
                        max_ns: 9_000,
                        buckets: vec![0, 0, 12, 250, 38],
                    },
                    StageStats {
                        stage: 2,
                        count: 150,
                        total_ns: 90_000_000,
                        max_ns: 2_000_000,
                        buckets: Vec::new(),
                    },
                ],
            },
        });
        roundtrip(Frame::StatsReply {
            session: 11,
            telemetry: SessionTelemetry::default(),
        });
    }

    #[test]
    fn snapshot_blob_lengths_are_bounded_by_the_body() {
        // A blob length prefix promising more bytes than the body holds
        // must error before allocating, not over-read.
        let mut buf = Vec::new();
        Frame::SnapshotData {
            session: 1,
            data: vec![1, 2, 3],
        }
        .encode(&mut buf);
        let mut body = buf[4..].to_vec();
        let len_at = 1 + 8;
        body[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&body),
            Err(WireError::Truncated | WireError::Malformed(_))
        ));
    }

    #[test]
    fn f64_bit_patterns_survive_the_wire() {
        for v in [0.0, -0.0, f64::NAN, f64::INFINITY, 1.0 + f64::EPSILON] {
            let frame = Frame::StepSamples {
                session: 1,
                iteration: 1,
                locations: vec![0],
                values: vec![v],
            };
            let mut buf = Vec::new();
            frame.encode(&mut buf);
            let Frame::StepSamples { values, .. } = Frame::decode(&buf[4..]).unwrap() else {
                panic!("wrong kind");
            };
            assert_eq!(values[0].to_bits(), v.to_bits());
        }
    }

    #[test]
    fn stream_reader_handles_eof_and_split_frames() {
        let mut bytes = Vec::new();
        Frame::Poll { session: 3 }.encode(&mut bytes);
        Frame::Closed { session: 3 }.encode(&mut bytes);
        let mut reader = bytes.as_slice();
        let mut scratch = Vec::new();
        assert_eq!(
            read_frame(&mut reader, &mut scratch).unwrap(),
            Some(Frame::Poll { session: 3 })
        );
        assert_eq!(
            read_frame(&mut reader, &mut scratch).unwrap(),
            Some(Frame::Closed { session: 3 })
        );
        assert_eq!(read_frame(&mut reader, &mut scratch).unwrap(), None);

        // EOF inside a frame body is Truncated, not a clean end.
        let mut cut = &bytes[..bytes.len() - 3];
        assert!(read_frame(&mut cut, &mut scratch).is_ok());
        assert!(matches!(
            read_frame(&mut cut, &mut scratch),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn oversized_and_zero_length_prefixes_are_rejected() {
        let mut scratch = Vec::new();
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut huge.as_slice(), &mut scratch),
            Err(WireError::Oversized { .. })
        ));
        let zero = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut zero.as_slice(), &mut scratch),
            Err(WireError::Oversized { len: 0 })
        ));
    }

    #[test]
    fn corrupt_bodies_error_without_panicking() {
        assert!(matches!(Frame::decode(&[]), Err(WireError::Truncated)));
        assert!(matches!(
            Frame::decode(&[0x7f]),
            Err(WireError::UnknownKind(0x7f))
        ));
        // StepSamples whose count promises more data than the body holds.
        let mut buf = Vec::new();
        Frame::StepSamples {
            session: 1,
            iteration: 1,
            locations: vec![1, 2],
            values: vec![0.1, 0.2],
        }
        .encode(&mut buf);
        let mut body = buf[4..].to_vec();
        let count_at = 1 + 8 + 8;
        body[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&body),
            Err(WireError::Truncated | WireError::Malformed(_))
        ));
        // A padded StepSamples body leaves the columns inconsistent with
        // their count, which the column check catches first.
        let mut padded = buf[4..].to_vec();
        padded.push(0xAA);
        assert!(matches!(
            Frame::decode(&padded),
            Err(WireError::Malformed(
                "sample columns do not match their count"
            ))
        ));
        // For fixed-layout frames trailing garbage is rejected as such.
        let mut poll = Vec::new();
        Frame::Poll { session: 7 }.encode(&mut poll);
        let mut poll_padded = poll[4..].to_vec();
        poll_padded.push(0xAA);
        assert!(matches!(
            Frame::decode(&poll_padded),
            Err(WireError::Malformed("trailing bytes after payload"))
        ));
    }
}
