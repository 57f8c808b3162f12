//! A small blocking client for the wire protocol.
//!
//! [`Client`] drives one connection over TCP or a Unix socket. Every
//! request method sends one frame and reads one reply, except the
//! pipelined [`Client::step_burst`], which keeps
//! [`Frame::Busy`]-aware retry, bounded backoff, and reply collection
//! out of callers (the load generator and the integration tests).
//!
//! Server-pushed [`Frame::FeatureEvent`] frames can interleave with
//! replies once a session is subscribed; every reply-reading path stashes
//! them as they arrive, and [`Client::take_events`] drains the stash.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use insitu::region::FeatureValue;

use crate::reactor::Stream;
use crate::wire::{read_frame, Frame, SessionSpec, SessionStatus, SessionTelemetry, WireError};

/// A server-pushed feature report, received out-of-band on a subscribed
/// connection and stashed until [`Client::take_events`] drains it.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureEvent {
    /// The subscribed session the event reports on.
    pub session: u64,
    /// The ingested iteration whose step produced these features.
    pub iteration: u64,
    /// The features, bit-identical to in-process extraction.
    pub features: Vec<(String, FeatureValue)>,
}

/// One connection to an analysis server, able to multiplex any number of
/// sessions.
pub struct Client {
    /// The connection's one socket: replies are read through this
    /// buffer, requests are written straight into the socket it wraps.
    reader: BufReader<Stream>,
    scratch_in: Vec<u8>,
    /// Requests encoded but not yet written; one write sends them all.
    outgoing: Vec<u8>,
    events: VecDeque<FeatureEvent>,
}

/// First backoff sleep after a no-progress `step_burst` round.
const BACKOFF_BASE: Duration = Duration::from_micros(50);
/// Backoff ceiling: sleeps double per no-progress round up to this.
const BACKOFF_CAP: Duration = Duration::from_millis(5);

impl Client {
    /// Connects over TCP (with Nagle disabled — the protocol is
    /// small-frame request/reply, where coalescing only adds latency).
    pub fn connect_tcp(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self::new(Stream::Tcp(stream)))
    }

    /// Connects over a Unix domain socket.
    pub fn connect_unix(path: &Path) -> std::io::Result<Self> {
        Ok(Self::new(Stream::Unix(UnixStream::connect(path)?)))
    }

    /// [`Client::connect_tcp`] with bounded retry: failed attempts back
    /// off exponentially (the same 50µs-doubling-to-5ms schedule the
    /// step path uses) with deterministic jitter, so a fleet of clients
    /// reconnecting to a restarting server spreads out instead of
    /// stampeding it. Returns the last connection error once `attempts`
    /// are exhausted.
    pub fn connect_tcp_retry(addr: SocketAddr, attempts: u32) -> std::io::Result<Self> {
        retry_connect(attempts, || Self::connect_tcp(addr))
    }

    /// [`Client::connect_unix`] with the bounded retry schedule of
    /// [`Client::connect_tcp_retry`].
    pub fn connect_unix_retry(path: &Path, attempts: u32) -> std::io::Result<Self> {
        retry_connect(attempts, || Self::connect_unix(path))
    }

    fn new(stream: Stream) -> Self {
        Self {
            reader: BufReader::new(stream),
            scratch_in: Vec::new(),
            outgoing: Vec::new(),
            events: VecDeque::new(),
        }
    }

    /// Applies a read **and** write deadline to the connection (`None`
    /// clears both): a stalled or dead server becomes a timeout error on
    /// the next blocking call instead of hanging the client forever.
    ///
    /// A call that *does* time out leaves the connection mid-frame, so
    /// don't keep using it: reconnect (see
    /// [`Client::connect_tcp_retry`]) and resurrect sessions from their
    /// last snapshot with [`Client::restore`].
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self.reader.get_ref() {
            Stream::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            Stream::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }

    /// Sends one frame without waiting for a reply.
    pub fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        frame.encode(&mut self.outgoing);
        self.write_outgoing()
    }

    /// Writes every encoded request to the socket in one go.
    fn write_outgoing(&mut self) -> Result<(), WireError> {
        let written = self.reader.get_ref().write_all(&self.outgoing);
        self.outgoing.clear();
        Ok(written?)
    }

    /// Reads the next reply frame; a server hang-up is an error here
    /// (replies are only awaited when one is due).
    pub fn recv(&mut self) -> Result<Frame, WireError> {
        read_frame(&mut self.reader, &mut self.scratch_in)?.ok_or(WireError::Truncated)
    }

    /// Reads the next *reply* frame, stashing any server-pushed
    /// [`Frame::FeatureEvent`]s that arrive ahead of it.
    fn recv_reply(&mut self) -> Result<Frame, WireError> {
        loop {
            match self.recv()? {
                Frame::FeatureEvent {
                    session,
                    iteration,
                    features,
                } => self.events.push_back(FeatureEvent {
                    session,
                    iteration,
                    features,
                }),
                reply => return Ok(reply),
            }
        }
    }

    fn request(&mut self, frame: &Frame) -> Result<Frame, WireError> {
        self.send(frame)?;
        self.recv_reply()
    }

    /// Drains every feature event received so far, in arrival order.
    ///
    /// Events accumulate whenever a reply-reading method runs past them;
    /// a quiet client can force delivery with a cheap round-trip (e.g.
    /// [`Client::poll`]) before draining.
    pub fn take_events(&mut self) -> Vec<FeatureEvent> {
        self.events.drain(..).collect()
    }

    /// Subscribes this connection to server-push feature streaming for
    /// the session.
    pub fn subscribe(&mut self, session: u64) -> Result<(), WireError> {
        match self.request(&Frame::Subscribe { session })? {
            Frame::SubscriptionAck {
                subscribed: true, ..
            } => Ok(()),
            Frame::SubscriptionAck {
                subscribed: false, ..
            } => Err(WireError::Invalid(
                "subscribe was acked as unsubscribed".into(),
            )),
            Frame::ErrorReply { message, .. } => Err(WireError::Invalid(message)),
            other => Err(unexpected(other)),
        }
    }

    /// Stops feature streaming for the session. Events already queued by
    /// the server may still arrive (and be stashed) before the ack.
    pub fn unsubscribe(&mut self, session: u64) -> Result<(), WireError> {
        match self.request(&Frame::Unsubscribe { session })? {
            Frame::SubscriptionAck {
                subscribed: false, ..
            } => Ok(()),
            Frame::SubscriptionAck {
                subscribed: true, ..
            } => Err(WireError::Invalid(
                "unsubscribe was acked as subscribed".into(),
            )),
            Frame::ErrorReply { message, .. } => Err(WireError::Invalid(message)),
            other => Err(unexpected(other)),
        }
    }

    /// Opens a session, returning its server-assigned id.
    pub fn open_session(&mut self, spec: SessionSpec) -> Result<u64, WireError> {
        match self.request(&Frame::OpenSession(spec))? {
            Frame::SessionOpened { session } => Ok(session),
            Frame::ErrorReply { message, .. } => Err(WireError::Invalid(message)),
            other => Err(unexpected(other)),
        }
    }

    /// Sends one step's samples and waits for its ack, retrying when the
    /// session is busy (which cannot happen in lock-step use; see
    /// [`Client::step_burst`] for pipelined use).
    pub fn step(
        &mut self,
        session: u64,
        iteration: u64,
        locations: &[u64],
        values: &[f64],
    ) -> Result<(), WireError> {
        loop {
            let reply = self.request(&Frame::StepSamples {
                session,
                iteration,
                locations: locations.to_vec(),
                values: values.to_vec(),
            })?;
            match reply {
                Frame::StepAck { .. } => return Ok(()),
                Frame::Busy { .. } => continue,
                Frame::ErrorReply { message, .. } => return Err(WireError::Invalid(message)),
                other => return Err(unexpected(other)),
            }
        }
    }

    /// Pipelines one step for **many sessions**: all `StepSamples` frames
    /// are written back-to-back, then all replies collected. Sessions
    /// answered [`Frame::Busy`] are retried (again as a burst) until every
    /// session has acked the step. Returns the number of `Busy` bounces —
    /// the backpressure events the burst absorbed.
    ///
    /// Retry rounds that make no progress (every pending session bounced
    /// again) sleep with bounded exponential backoff — 50µs doubling to a
    /// 5ms cap — instead of hammering an overloaded lane; any acked
    /// session resets the backoff.
    pub fn step_burst(
        &mut self,
        sessions: &[u64],
        iteration: u64,
        locations: &[u64],
        values_of: impl Fn(u64) -> Vec<f64>,
    ) -> Result<u64, WireError> {
        let mut pending: Vec<u64> = sessions.to_vec();
        let mut bounced = 0u64;
        let mut backoff = BACKOFF_BASE;
        while !pending.is_empty() {
            for &session in &pending {
                Frame::StepSamples {
                    session,
                    iteration,
                    locations: locations.to_vec(),
                    values: values_of(session),
                }
                .encode(&mut self.outgoing);
            }
            self.write_outgoing()?;
            let mut retry = Vec::new();
            for _ in 0..pending.len() {
                match self.recv_reply()? {
                    Frame::StepAck { .. } => {}
                    Frame::Busy { session, .. } => {
                        bounced += 1;
                        retry.push(session);
                    }
                    Frame::ErrorReply { message, .. } => return Err(WireError::Invalid(message)),
                    other => return Err(unexpected(other)),
                }
            }
            if retry.len() == pending.len() {
                // Nothing acked: the lane is saturated — back off before
                // re-bursting so retries don't become the load.
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_CAP);
            } else {
                backoff = BACKOFF_BASE;
            }
            pending = retry;
        }
        Ok(bounced)
    }

    /// Forces extraction and returns the session's features.
    pub fn extract(&mut self, session: u64) -> Result<Vec<(String, FeatureValue)>, WireError> {
        match self.request(&Frame::Extract { session })? {
            Frame::FeatureReport { features, .. } => Ok(features),
            Frame::ErrorReply { message, .. } => Err(WireError::Invalid(message)),
            other => Err(unexpected(other)),
        }
    }

    /// Returns the features extracted so far without forcing anything.
    pub fn features(&mut self, session: u64) -> Result<Vec<(String, FeatureValue)>, WireError> {
        match self.request(&Frame::Features { session })? {
            Frame::FeatureReport { features, .. } => Ok(features),
            Frame::ErrorReply { message, .. } => Err(WireError::Invalid(message)),
            other => Err(unexpected(other)),
        }
    }

    /// Polls the session status.
    pub fn poll(&mut self, session: u64) -> Result<SessionStatus, WireError> {
        match self.request(&Frame::Poll { session })? {
            Frame::Status { status, .. } => Ok(status),
            Frame::ErrorReply { message, .. } => Err(WireError::Invalid(message)),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the session's telemetry: per-stage latency histograms and
    /// the budget ledger (see [`SessionTelemetry`]).
    pub fn stats(&mut self, session: u64) -> Result<SessionTelemetry, WireError> {
        match self.request(&Frame::Stats { session })? {
            Frame::StatsReply { telemetry, .. } => Ok(telemetry),
            Frame::ErrorReply { message, .. } => Err(WireError::Invalid(message)),
            other => Err(unexpected(other)),
        }
    }

    /// Checkpoints the session into a self-contained blob (the engine's
    /// versioned snapshot format plus the session's stream counters).
    /// The blob outlives this connection *and* this server process:
    /// restore it anywhere with [`Client::restore`].
    pub fn snapshot(&mut self, session: u64) -> Result<Vec<u8>, WireError> {
        match self.request(&Frame::Snapshot { session })? {
            Frame::SnapshotData { data, .. } => Ok(data),
            Frame::ErrorReply { message, .. } => Err(WireError::Invalid(message)),
            other => Err(unexpected(other)),
        }
    }

    /// Resurrects a session from a [`Client::snapshot`] blob, returning
    /// its freshly assigned id. `spec` must describe the same session
    /// shape the blob was taken from; damaged blobs and mismatched specs
    /// are rejected whole (the restored session either continues
    /// bit-identically or doesn't exist).
    pub fn restore(&mut self, spec: SessionSpec, data: Vec<u8>) -> Result<u64, WireError> {
        match self.request(&Frame::Restore { spec, data })? {
            Frame::SessionOpened { session } => Ok(session),
            Frame::ErrorReply { message, .. } => Err(WireError::Invalid(message)),
            other => Err(unexpected(other)),
        }
    }

    /// Closes the session.
    pub fn close_session(&mut self, session: u64) -> Result<(), WireError> {
        match self.request(&Frame::CloseSession { session })? {
            Frame::Closed { .. } => Ok(()),
            Frame::ErrorReply { message, .. } => Err(WireError::Invalid(message)),
            other => Err(unexpected(other)),
        }
    }
}

fn retry_connect(
    attempts: u32,
    mut connect: impl FnMut() -> std::io::Result<Client>,
) -> std::io::Result<Client> {
    let mut backoff = BACKOFF_BASE;
    let mut last = std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        "connect retry needs at least one attempt",
    );
    for attempt in 0..attempts {
        match connect() {
            Ok(client) => return Ok(client),
            Err(e) => last = e,
        }
        if attempt + 1 < attempts {
            std::thread::sleep(jittered(backoff, attempt));
            backoff = (backoff * 2).min(BACKOFF_CAP);
        }
    }
    Err(last)
}

/// Scales `base` into the 75%–125% band using a xorshift hash of the
/// process id and attempt number: deterministic (no RNG dependency,
/// reproducible runs) yet distinct across the processes of a client
/// fleet, which is what decorrelates a reconnect stampede.
fn jittered(base: Duration, attempt: u32) -> Duration {
    let mut x = ((std::process::id() as u64) << 32) ^ u64::from(attempt) ^ 0x9e37_79b9_7f4a_7c15;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let nanos = base.as_nanos().min(u64::MAX as u128) as u64;
    let spread = nanos / 2;
    let jitter = if spread == 0 { 0 } else { x % (spread + 1) };
    Duration::from_nanos(nanos - nanos / 4 + jitter)
}

fn unexpected(frame: Frame) -> WireError {
    WireError::Invalid(format!("unexpected reply frame: {frame:?}"))
}
