//! The session-multiplexing server runtime.
//!
//! # Architecture
//!
//! ```text
//!  accept thread ──► reactor event threads (fixed count)
//!                        │  epoll/poll readiness, frame reassembly,
//!                        │  routing, backpressure  [crate::reactor]
//!                        ▼  one message per lane per readiness batch
//!                 worker lanes (dedicated threads, one per lane)
//!                        │  own the sessions, run the engines,
//!                        │  push subscription events
//!                        ▼  one write per connection per batch
//!                 replies through each connection's outbuf
//! ```
//!
//! Connections are **multiplexed, not threaded**: a fixed pool of
//! [`Reactor`] event threads owns every socket, so the server's thread
//! count is `O(event_threads + lanes)` whether ten connections are open
//! or ten thousand. Each decoded frame is routed by the router (running
//! on the event thread) to a **worker lane** — a dedicated thread owning
//! a disjoint set of sessions. Lanes spend their idle time blocked on
//! their command channel, so [`ServerConfig::workers`] is honored as
//! given: a small host still gets the configured lane structure, it just
//! timeslices the lanes.
//!
//! **One lane per connection.** Connections are dealt to lanes
//! round-robin in accept order, and a session opens on its connection's
//! lane and stays there until it closes, so one client's burst is served
//! by one lane and answered by one write. Other connections may address
//! the session too; their commands reach the same lane.
//!
//! **Batched hand-off.** The router collects the commands of a whole
//! reactor readiness batch per lane and hands each lane one message when
//! the batch ends (the reactor's batch-end hook), not one channel send
//! per frame.
//!
//! **Backpressure is shed-don't-stall**: every session carries an
//! inflight gauge counting `StepSamples` frames queued to its lane but
//! not yet processed. A step arriving with the gauge at
//! [`ServerConfig::inflight_limit`] is answered [`Frame::Busy`] straight
//! from the event thread and dropped — routing never blocks, the lane's
//! queue stays bounded per session, and a slow session cannot starve the
//! connection it shares with fast ones. Control frames
//! (`Extract`/`Features`/`Poll`/`CloseSession`/`Subscribe`/
//! `Unsubscribe`) bypass the gauge so a client can always drain state
//! from a busy session.
//!
//! **One write per connection per batch**: a lane queues each reply on
//! its connection's outbuf and writes the connection right after the last
//! command of the batch addressed to it, so a burst of steps from one
//! client costs one socket write ([`Server::reply_writes`] counts them)
//! and no connection waits for the commands queued behind its own.
//! Replies the router sends from the event thread (`Busy`, unknown
//! session, protocol errors) are written at the end of the readiness
//! batch, right after the hand-off. Every reply goes through the one
//! outbuf in queue order, so per-connection order is unchanged.
//!
//! **Subscriptions stream features**: a client that sends
//! [`Frame::Subscribe`] gets a [`Frame::FeatureEvent`] pushed whenever a
//! processed step changes the session's extracted features (the engine
//! extracts at convergence mid-stream), instead of polling with
//! `Features` round-trips.
//!
//! Sessions die cleanly by construction: `CloseSession` (or the owning
//! connection dying) winds the session down on its lane and the
//! [`Session`]'s engine `Drop` joins any in-flight training work.
//!
//! **Sessions survive crashes by checkpoint**: [`Frame::Snapshot`]
//! serializes a session into a self-contained blob (returned as
//! [`Frame::SnapshotData`]) that [`Frame::Restore`] turns back into a
//! live session — on this server after the connection died, or on a
//! freshly started server after the original process was killed — that
//! continues bit-identically with the original. And a session that
//! *panics* (a buggy provider, or one poisoned via [`crate::fault`])
//! takes out only itself: each lane runs its commands under
//! `catch_unwind`, evicts the poisoned session, answers
//! [`ErrorCode::Internal`], and keeps serving its other sessions.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use insitu::region::FeatureValue;

use crate::reactor::{ConnEvents, ConnHandle, Reactor, ReactorConfig, Stream};
use crate::session::Session;
use crate::wire::{ErrorCode, Frame, SessionSpec, WireError};

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Number of worker lanes, each a dedicated thread owning a disjoint
    /// set of sessions. Honored as given (minimum one): lanes block on
    /// their channel when idle, so more lanes than cores timeslice
    /// instead of deadlocking.
    pub workers: usize,
    /// Per-session cap on `StepSamples` frames queued but not yet
    /// processed; steps beyond it are shed with [`Frame::Busy`].
    pub inflight_limit: usize,
    /// Number of reactor event threads multiplexing the connections.
    pub event_threads: usize,
    /// Tear down a connection stalled **mid-frame** for this long
    /// (frame-aligned idle connections are never timed out; zero
    /// disables the sweep).
    pub idle_timeout: Duration,
    /// Per-connection cap on buffered unsent reply bytes; a peer that
    /// stops reading past it is disconnected instead of buffered
    /// without bound.
    pub outbuf_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            inflight_limit: 32,
            event_threads: 2,
            idle_timeout: Duration::from_secs(10),
            outbuf_cap: 16 << 20,
        }
    }
}

/// One request routed to a worker lane.
enum Command {
    Open {
        session: u64,
        spec: Box<SessionSpec>,
        conn: Arc<ConnHandle>,
    },
    Step {
        session: u64,
        iteration: u64,
        locations: Vec<u64>,
        values: Vec<f64>,
        inflight: Arc<AtomicUsize>,
        conn: Arc<ConnHandle>,
    },
    Extract {
        session: u64,
        conn: Arc<ConnHandle>,
    },
    Features {
        session: u64,
        conn: Arc<ConnHandle>,
    },
    Poll {
        session: u64,
        conn: Arc<ConnHandle>,
    },
    Stats {
        session: u64,
        conn: Arc<ConnHandle>,
    },
    Close {
        session: u64,
        /// `None` when the owning connection died: drop silently.
        conn: Option<Arc<ConnHandle>>,
    },
    Subscribe {
        session: u64,
        conn: Arc<ConnHandle>,
    },
    Unsubscribe {
        session: u64,
        conn: Arc<ConnHandle>,
    },
    Snapshot {
        session: u64,
        conn: Arc<ConnHandle>,
    },
    /// Resurrect a session from a snapshot blob under a freshly
    /// allocated id (the router admits it exactly like an `Open`).
    Restore {
        session: u64,
        spec: Box<SessionSpec>,
        data: Vec<u8>,
        conn: Arc<ConnHandle>,
    },
}

impl Command {
    /// The session a command addresses, for panic eviction and refusals.
    fn session_id(&self) -> u64 {
        match self {
            Command::Open { session, .. }
            | Command::Step { session, .. }
            | Command::Extract { session, .. }
            | Command::Features { session, .. }
            | Command::Poll { session, .. }
            | Command::Stats { session, .. }
            | Command::Close { session, .. }
            | Command::Subscribe { session, .. }
            | Command::Unsubscribe { session, .. }
            | Command::Snapshot { session, .. }
            | Command::Restore { session, .. } => *session,
        }
    }

    /// The connection a command replies to: the lane writes it after
    /// the last command of a run addressed to it, and its panic eviction
    /// path answers there.
    fn reply_conn(&self) -> Option<&Arc<ConnHandle>> {
        match self {
            Command::Open { conn, .. }
            | Command::Step { conn, .. }
            | Command::Extract { conn, .. }
            | Command::Features { conn, .. }
            | Command::Poll { conn, .. }
            | Command::Stats { conn, .. }
            | Command::Subscribe { conn, .. }
            | Command::Unsubscribe { conn, .. }
            | Command::Snapshot { conn, .. }
            | Command::Restore { conn, .. } => Some(conn),
            Command::Close { conn, .. } => conn.as_ref(),
        }
    }
}

/// A session as owned by its worker lane, with streaming state.
struct LaneSession {
    session: Session,
    /// Connection receiving [`Frame::FeatureEvent`] pushes, if any.
    subscriber: Option<Arc<ConnHandle>>,
    /// The feature set last pushed, so only changes generate events.
    pushed: Vec<(String, FeatureValue)>,
}

/// Routing record for one open session: the lane it lives on from
/// `Open`/`Restore` until `Close`, and its backpressure gauge.
struct Entry {
    lane: usize,
    inflight: Arc<AtomicUsize>,
}

/// State shared by the accept thread, the router, and the worker lanes.
struct Shared {
    sessions: Mutex<HashMap<u64, Entry>>,
    next_session: AtomicU64,
    running: AtomicBool,
    inflight_limit: usize,
}

/// The reactor-facing frame router: decoded frames arrive here (on the
/// event threads) and leave as lane commands or immediate replies.
struct Router {
    shared: Arc<Shared>,
    lanes: Vec<Sender<Vec<Command>>>,
}

/// What one event thread's router collects over a readiness batch: the
/// commands for each lane, handed off at the batch's end, and the
/// connections it answered itself, flushed right after.
#[derive(Default)]
struct Handoff {
    lanes: Vec<Vec<Command>>,
    replies: Replies,
}

impl Handoff {
    fn push(&mut self, lane: usize, cmd: Command) {
        if self.lanes.len() <= lane {
            self.lanes.resize_with(lane + 1, Vec::new);
        }
        self.lanes[lane].push(cmd);
    }
}

/// A running analysis server. Dropping it (or calling
/// [`Server::shutdown`]) stops accepting, closes every connection, winds
/// down every session, and joins all of its threads.
pub struct Server {
    shared: Arc<Shared>,
    router: Option<Arc<Router>>,
    reactor: Option<Arc<Reactor>>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Server {
    /// Starts a server listening on a TCP address (use port 0 to let the
    /// OS pick; read it back with [`Server::tcp_addr`]).
    pub fn bind_tcp(addr: &str, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let tcp_addr = listener.local_addr().ok();
        Self::start(Listener::Tcp(listener), tcp_addr, None, config)
    }

    /// Starts a server listening on a Unix domain socket. The socket file
    /// is unlinked when the server shuts down.
    pub fn bind_unix(path: &Path, config: ServerConfig) -> std::io::Result<Self> {
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Self::start(
            Listener::Unix(listener),
            None,
            Some(path.to_path_buf()),
            config,
        )
    }

    /// The TCP address actually bound, when listening on TCP.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Sessions moved between lanes since startup: always 0, because a
    /// session stays on its connection's lane until it closes.
    #[deprecated(note = "sessions never migrate between lanes; this always returns 0")]
    pub fn migrations(&self) -> u64 {
        0
    }

    /// Socket writes that carried replies since startup, over every
    /// connection (0 once the server has stopped).
    pub fn reply_writes(&self) -> u64 {
        self.reactor.as_ref().map_or(0, |reactor| reactor.writes())
    }

    fn start(
        listener: Listener,
        tcp_addr: Option<SocketAddr>,
        unix_path: Option<PathBuf>,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let lane_count = config.workers.max(1);

        let shared = Arc::new(Shared {
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            running: AtomicBool::new(true),
            inflight_limit: config.inflight_limit.max(1),
        });

        let mut senders = Vec::with_capacity(lane_count);
        let mut workers = Vec::with_capacity(lane_count);
        for me in 0..lane_count {
            let (tx, rx) = mpsc::channel::<Vec<Command>>();
            senders.push(tx);
            let shared_for_lane = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-lane-{me}"))
                    .spawn(move || lane_loop(rx, shared_for_lane))?,
            );
        }

        let router = Arc::new(Router {
            shared: Arc::clone(&shared),
            lanes: senders,
        });

        let reactor = Arc::new(Reactor::start(
            ReactorConfig {
                event_threads: config.event_threads,
                idle_timeout: config.idle_timeout,
                outbuf_cap: config.outbuf_cap.max(1 << 16),
            },
            Arc::clone(&router),
        )?);

        let accept = {
            let shared = Arc::clone(&shared);
            let reactor = Arc::clone(&reactor);
            std::thread::spawn(move || accept_loop(listener, shared, reactor))
        };

        Ok(Self {
            shared,
            router: Some(router),
            reactor: Some(reactor),
            accept: Some(accept),
            workers,
            tcp_addr,
            unix_path,
        })
    }

    /// Stops the server: no new connections, every live connection is
    /// closed, every session is wound down (in-flight training joined),
    /// and all threads are joined before this returns.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if !self.shared.running.swap(false, Ordering::SeqCst) {
            return;
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Tearing the reactor down closes every connection; each close
        // routes eviction for the sessions it owned while the lanes are
        // still alive to process them.
        if let Some(reactor) = self.reactor.take() {
            reactor.shutdown();
        }
        // The router is now the last holder of the lane senders:
        // dropping it disconnects the channels and the lanes exit,
        // dropping their sessions (which joins training work).
        self.router = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: Listener, shared: Arc<Shared>, reactor: Arc<Reactor>) {
    while shared.running.load(Ordering::SeqCst) {
        let accepted = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // Nagle off: frames are small and request/reply latency
                // dominates throughput.
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        match accepted {
            Ok(conn) => {
                let _ = reactor.register(conn);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

impl Router {
    /// The lane `session` lives on, if it is open.
    fn lane_of(&self, session: u64) -> Option<usize> {
        let table = self.shared.sessions.lock().expect("session table");
        table.get(&session).map(|entry| entry.lane)
    }

    /// Routes a session-addressed control command (gauge-exempt).
    fn route_control(
        &self,
        batch: &mut Handoff,
        conn: &Arc<ConnHandle>,
        session: u64,
        make: impl FnOnce(Arc<ConnHandle>) -> Command,
    ) {
        match self.lane_of(session) {
            Some(lane) => batch.push(lane, make(Arc::clone(conn))),
            None => batch.replies.send(conn, &unknown_session(session)),
        }
    }

    /// Sends `cmds` to `lane` as one message; refuses them if the lane is
    /// gone (server stopping).
    fn hand(&self, replies: &mut Replies, lane: usize, cmds: Vec<Command>) {
        if let Err(mpsc::SendError(cmds)) = self.lanes[lane].send(cmds) {
            for cmd in cmds {
                refuse(replies, cmd);
            }
        }
    }

    /// Admits a new session id into the table and queues its creating
    /// command (`Open`, or `Restore` — which is an open that also carries
    /// state) on its connection's lane.
    fn admit(
        &self,
        batch: &mut Handoff,
        conn: &Arc<ConnHandle>,
        make: impl FnOnce(u64, Arc<ConnHandle>) -> Command,
    ) {
        let session = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        let lane = (conn.id() % self.lanes.len() as u64) as usize;
        self.shared.sessions.lock().expect("session table").insert(
            session,
            Entry {
                lane,
                inflight: Arc::new(AtomicUsize::new(0)),
            },
        );
        conn.attach_session(session);
        batch.push(lane, make(session, Arc::clone(conn)));
    }

    fn handle_step(
        &self,
        batch: &mut Handoff,
        conn: &Arc<ConnHandle>,
        session: u64,
        iteration: u64,
        locations: Vec<u64>,
        values: Vec<f64>,
    ) {
        let table = self.shared.sessions.lock().expect("session table");
        let Some(entry) = table.get(&session) else {
            drop(table);
            batch.replies.send(conn, &unknown_session(session));
            return;
        };
        // Shed-don't-stall: reserve an inflight slot or bounce.
        if !try_acquire(&entry.inflight, self.shared.inflight_limit) {
            drop(table);
            let depth = self.shared.inflight_limit as u32;
            batch.replies.send(conn, &Frame::Busy { session, depth });
            return;
        }
        let (lane, inflight) = (entry.lane, Arc::clone(&entry.inflight));
        drop(table);
        batch.push(
            lane,
            Command::Step {
                session,
                iteration,
                locations,
                values,
                inflight,
                conn: Arc::clone(conn),
            },
        );
    }
}

impl ConnEvents for Router {
    type Batch = Handoff;

    fn on_frame(&self, batch: &mut Handoff, conn: &Arc<ConnHandle>, frame: Frame) {
        match frame {
            Frame::OpenSession(spec) => {
                self.admit(batch, conn, |session, conn| Command::Open {
                    session,
                    spec: Box::new(spec),
                    conn,
                });
            }
            Frame::Restore { spec, data } => {
                self.admit(batch, conn, |session, conn| Command::Restore {
                    session,
                    spec: Box::new(spec),
                    data,
                    conn,
                });
            }
            Frame::StepSamples {
                session,
                iteration,
                locations,
                values,
            } => self.handle_step(batch, conn, session, iteration, locations, values),
            Frame::Extract { session } => {
                self.route_control(batch, conn, session, |conn| Command::Extract {
                    session,
                    conn,
                });
            }
            Frame::Features { session } => {
                self.route_control(batch, conn, session, |conn| Command::Features {
                    session,
                    conn,
                });
            }
            Frame::Poll { session } => {
                self.route_control(batch, conn, session, |conn| Command::Poll { session, conn });
            }
            Frame::Stats { session } => {
                self.route_control(batch, conn, session, |conn| Command::Stats {
                    session,
                    conn,
                });
            }
            Frame::Subscribe { session } => {
                self.route_control(batch, conn, session, |conn| Command::Subscribe {
                    session,
                    conn,
                });
            }
            Frame::Unsubscribe { session } => {
                self.route_control(batch, conn, session, |conn| Command::Unsubscribe {
                    session,
                    conn,
                });
            }
            Frame::Snapshot { session } => {
                self.route_control(batch, conn, session, |conn| Command::Snapshot {
                    session,
                    conn,
                });
            }
            Frame::CloseSession { session } => {
                // The entry stays in the table until the lane has dropped
                // the session: commands racing the close keep routing to
                // its lane and resolve there, in order.
                self.route_control(batch, conn, session, |conn| Command::Close {
                    session,
                    conn: Some(conn),
                });
                conn.detach_session(session);
            }
            // Response frames arriving at the server are a peer bug.
            _ => {
                reply_error(
                    conn,
                    0,
                    ErrorCode::Protocol,
                    "response frame sent to server",
                );
                conn.close();
            }
        }
    }

    fn on_decode_error(&self, conn: &Arc<ConnHandle>, err: WireError, _fatal: bool) {
        // Fatal (unframeable prefix) or not (bad body on a framed
        // stream), the peer gets the diagnostic; on the fatal path the
        // reactor tears the connection down right after this reply.
        reply_error(conn, 0, ErrorCode::Protocol, &err.to_string());
        conn.flush();
    }

    fn on_close(&self, batch: &mut Handoff, conn: &Arc<ConnHandle>) {
        // The connection is gone: evict every session it still owned.
        for session in conn.take_sessions() {
            let Some(lane) = self.lane_of(session) else {
                continue;
            };
            batch.push(
                lane,
                Command::Close {
                    session,
                    conn: None,
                },
            );
        }
    }

    /// Hands each lane everything the batch routed to it as one message,
    /// then writes the replies the router sent itself.
    fn on_batch_end(&self, batch: &mut Handoff) {
        for (lane, cmds) in batch.lanes.iter_mut().enumerate() {
            let n = cmds.len();
            if n == 0 {
                continue;
            }
            let cmds = std::mem::replace(cmds, Vec::with_capacity(n));
            self.hand(&mut batch.replies, lane, cmds);
        }
        batch.replies.flush();
    }
}

/// Answers a command whose lane is gone.
fn refuse(replies: &mut Replies, cmd: Command) {
    if let Command::Step { inflight, .. } = &cmd {
        inflight.fetch_sub(1, Ordering::AcqRel);
    }
    if let Some(conn) = cmd.reply_conn() {
        let frame = error_frame(cmd.session_id(), ErrorCode::Internal, "server stopping");
        replies.send(conn, &frame);
    }
}

/// Reserves one inflight slot unless the gauge is at the limit.
fn try_acquire(gauge: &AtomicUsize, limit: usize) -> bool {
    let mut current = gauge.load(Ordering::Acquire);
    loop {
        if current >= limit {
            return false;
        }
        match gauge.compare_exchange_weak(current, current + 1, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => return true,
            Err(observed) => current = observed,
        }
    }
}

fn reply_error(conn: &Arc<ConnHandle>, session: u64, code: ErrorCode, msg: &str) {
    conn.send(&error_frame(session, code, msg));
}

fn error_frame(session: u64, code: ErrorCode, msg: &str) -> Frame {
    Frame::ErrorReply {
        session,
        code,
        message: msg.to_string(),
    }
}

fn unknown_session(session: u64) -> Frame {
    error_frame(session, ErrorCode::UnknownSession, "no such session")
}

/// The connections a lane has queued replies on since its last flush.
#[derive(Default)]
struct Replies(Vec<Arc<ConnHandle>>);

impl Replies {
    /// Queues `frame` on `conn` and remembers the connection for the
    /// next [`Replies::flush`].
    fn send(&mut self, conn: &Arc<ConnHandle>, frame: &Frame) {
        conn.send(frame);
        if !self.0.iter().any(|queued| Arc::ptr_eq(queued, conn)) {
            self.0.push(Arc::clone(conn));
        }
    }

    /// Writes out everything queued since the last flush: one socket
    /// write per connection, however many replies it holds.
    fn flush(&mut self) {
        for conn in self.0.drain(..) {
            conn.flush();
        }
    }
}

/// One worker lane: a dedicated thread owning its sessions outright —
/// no locking on the session hot path; the channel is the
/// synchronization.
struct Lane {
    shared: Arc<Shared>,
    sessions: HashMap<u64, LaneSession>,
    replies: Replies,
}

fn lane_loop(rx: Receiver<Vec<Command>>, shared: Arc<Shared>) {
    let mut lane = Lane {
        shared,
        sessions: HashMap::new(),
        replies: Replies::default(),
    };
    for batch in rx {
        lane.run(batch);
    }
    // Channel disconnected: the server is shutting down. Sessions drop
    // here, joining their engines' in-flight work.
}

impl Lane {
    /// Runs one hand-off batch in order. Each connection is written right
    /// after the last command of a run addressed to it, so a client's
    /// burst is answered in one write and no connection waits for the
    /// commands behind its own.
    fn run(&mut self, batch: Vec<Command>) {
        let mut batch = batch.into_iter().peekable();
        while let Some(cmd) = batch.next() {
            let conn = cmd.reply_conn().map(Arc::as_ptr);
            self.handle_isolated(cmd);
            let next = batch.peek().and_then(Command::reply_conn).map(Arc::as_ptr);
            if next.is_none() || next != conn {
                self.replies.flush();
            }
        }
    }

    /// Runs [`Lane::handle`] under `catch_unwind`, so a panicking
    /// session — a buggy provider, or one deliberately poisoned through
    /// [`crate::fault`] — takes out that one session, not the lane
    /// thread: every co-located session keeps being served. The poisoned
    /// session is evicted from the lane and the routing table (its
    /// engine's `Drop` is panic-safe) and the requesting client is told
    /// [`ErrorCode::Internal`].
    fn handle_isolated(&mut self, cmd: Command) {
        let session = cmd.session_id();
        let conn = cmd.reply_conn().cloned();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.handle(cmd)));
        if outcome.is_err() {
            self.sessions.remove(&session);
            self.shared
                .sessions
                .lock()
                .expect("session table")
                .remove(&session);
            if let Some(conn) = conn {
                conn.detach_session(session);
                self.replies.send(
                    &conn,
                    &error_frame(
                        session,
                        ErrorCode::Internal,
                        "session panicked and was evicted",
                    ),
                );
            }
        }
    }

    fn handle(&mut self, cmd: Command) {
        match cmd {
            Command::Open {
                session,
                spec,
                conn,
            } => match Session::open(&spec) {
                Ok(open) => {
                    self.sessions.insert(
                        session,
                        LaneSession {
                            session: open,
                            subscriber: None,
                            pushed: Vec::new(),
                        },
                    );
                    self.replies.send(&conn, &Frame::SessionOpened { session });
                }
                Err(message) => {
                    self.shared
                        .sessions
                        .lock()
                        .expect("session table")
                        .remove(&session);
                    conn.detach_session(session);
                    self.replies.send(
                        &conn,
                        &Frame::ErrorReply {
                            session,
                            code: ErrorCode::BadSpec,
                            message,
                        },
                    );
                }
            },
            Command::Step {
                session,
                iteration,
                locations,
                values,
                inflight,
                conn,
            } => {
                let reply = match self.sessions.get_mut(&session) {
                    Some(owned) => match owned.session.step(iteration, &locations, &values) {
                        Ok((samples, batches_trained)) => Frame::StepAck {
                            session,
                            iteration,
                            samples,
                            batches_trained,
                        },
                        Err(message) => Frame::ErrorReply {
                            session,
                            code: ErrorCode::Protocol,
                            message,
                        },
                    },
                    None => unknown_session(session),
                };
                inflight.fetch_sub(1, Ordering::AcqRel);
                self.replies.send(&conn, &reply);
                self.push_features(session, iteration);
            }
            Command::Extract { session, conn } => {
                let reply = match self.sessions.get_mut(&session) {
                    Some(owned) => Frame::FeatureReport {
                        session,
                        features: owned.session.extract(),
                    },
                    None => unknown_session(session),
                };
                self.replies.send(&conn, &reply);
            }
            Command::Features { session, conn } => {
                let reply = match self.sessions.get(&session) {
                    Some(owned) => Frame::FeatureReport {
                        session,
                        features: owned.session.features(),
                    },
                    None => unknown_session(session),
                };
                self.replies.send(&conn, &reply);
            }
            Command::Poll { session, conn } => {
                let reply = match self.sessions.get(&session) {
                    Some(owned) => Frame::Status {
                        session,
                        status: owned.session.poll(),
                    },
                    None => unknown_session(session),
                };
                self.replies.send(&conn, &reply);
            }
            Command::Stats { session, conn } => {
                let reply = match self.sessions.get(&session) {
                    Some(owned) => Frame::StatsReply {
                        session,
                        telemetry: owned.session.stats(),
                    },
                    None => unknown_session(session),
                };
                self.replies.send(&conn, &reply);
            }
            Command::Subscribe { session, conn } => match self.sessions.get_mut(&session) {
                Some(owned) => {
                    owned.subscriber = Some(Arc::clone(&conn));
                    // Reset the change tracker so a late subscriber gets
                    // a catch-up event for already-converged features.
                    owned.pushed = Vec::new();
                    let iteration = owned.session.poll().iteration;
                    self.replies.send(
                        &conn,
                        &Frame::SubscriptionAck {
                            session,
                            subscribed: true,
                        },
                    );
                    self.push_features(session, iteration);
                }
                None => {
                    self.replies.send(&conn, &unknown_session(session));
                }
            },
            Command::Unsubscribe { session, conn } => match self.sessions.get_mut(&session) {
                Some(owned) => {
                    owned.subscriber = None;
                    self.replies.send(
                        &conn,
                        &Frame::SubscriptionAck {
                            session,
                            subscribed: false,
                        },
                    );
                }
                None => {
                    self.replies.send(&conn, &unknown_session(session));
                }
            },
            Command::Snapshot { session, conn } => {
                let reply = match self.sessions.get_mut(&session) {
                    Some(owned) => Frame::SnapshotData {
                        session,
                        data: owned.session.snapshot(),
                    },
                    None => unknown_session(session),
                };
                self.replies.send(&conn, &reply);
            }
            Command::Restore {
                session,
                spec,
                data,
                conn,
            } => match Session::restore(&spec, &data) {
                Ok(restored) => {
                    self.sessions.insert(
                        session,
                        LaneSession {
                            session: restored,
                            subscriber: None,
                            pushed: Vec::new(),
                        },
                    );
                    self.replies.send(&conn, &Frame::SessionOpened { session });
                }
                Err(message) => {
                    self.shared
                        .sessions
                        .lock()
                        .expect("session table")
                        .remove(&session);
                    conn.detach_session(session);
                    self.replies.send(
                        &conn,
                        &Frame::ErrorReply {
                            session,
                            code: ErrorCode::BadSpec,
                            message,
                        },
                    );
                }
            },
            Command::Close { session, conn } => {
                // Dropping the Session winds its engine down (Drop joins
                // any in-flight training) before the reply goes out.
                let existed = self.sessions.remove(&session).is_some();
                if existed {
                    self.shared
                        .sessions
                        .lock()
                        .expect("session table")
                        .remove(&session);
                }
                if let Some(conn) = conn {
                    let reply = if existed {
                        Frame::Closed { session }
                    } else {
                        unknown_session(session)
                    };
                    self.replies.send(&conn, &reply);
                }
            }
        }
    }

    /// After a processed step (or a fresh subscription): push a
    /// [`Frame::FeatureEvent`] if this session has a subscriber and its
    /// extracted features changed since the last push.
    fn push_features(&mut self, session: u64, iteration: u64) {
        let Some(owned) = self.sessions.get_mut(&session) else {
            return;
        };
        let Some(subscriber) = &owned.subscriber else {
            return;
        };
        let features = owned.session.features();
        if features.is_empty() || features == owned.pushed {
            return;
        }
        self.replies.send(
            subscriber,
            &Frame::FeatureEvent {
                session,
                iteration,
                features: features.clone(),
            },
        );
        owned.pushed = features;
    }
}
