//! The session-multiplexing server runtime.
//!
//! # Architecture
//!
//! ```text
//!  accept thread ──► reactor event threads (fixed count)
//!                        │  epoll/poll readiness, frame reassembly,
//!                        │  routing, backpressure  [crate::reactor]
//!                        ▼
//!                 worker lanes (dedicated threads, one per lane)
//!                        │  own the sessions, run the engines,
//!                        │  push subscription events
//!                        ▼
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
//! given: a small host still gets the configured lane structure (and
//! with it testable rebalancing), it just timeslices the lanes.
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
//! **Lanes rebalance dynamically**: sessions are placed round-robin at
//! open, but workloads skew — one hot session can back its lane up while
//! others idle. The router tracks per-lane queue depth and a per-session
//! service-time EWMA; when a step finds its lane's backlog at least
//! [`ServerConfig::rebalance_depth`] deeper than the lightest lane's
//! (hysteresis, so balanced load never thrashes) and the session is past
//! its migration cooldown, the session's engine is handed to the lighter
//! lane at that step boundary. Migration is a `Migrate` → `Adopt`
//! command handoff between the lanes; commands routed to the new lane
//! before the state arrives are parked and drained in order, so
//! per-session FIFO — and therefore bit-identical extraction — is
//! preserved. [`Server::migrations`] counts completed handoffs.
//!
//! **Replies are batched per lane**: a lane queues each reply on its
//! connection's outbuf and flushes every connection it replied on when
//! its command queue runs dry (or after a bounded number of commands), so
//! a burst of steps from one client costs one socket write, not one per
//! `StepAck`. Replies the router sends from the event thread (`Busy`,
//! unknown session, protocol errors) are flushed by the reactor at the
//! end of its readiness batch. Every reply goes through the one outbuf
//! in queue order, so per-connection order is unchanged.
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

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

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
    /// Lane-rebalancing hysteresis: migrate a stepping session when its
    /// lane's queue is at least this much deeper than the lightest
    /// lane's (and at least this deep in absolute terms). Zero disables
    /// rebalancing.
    pub rebalance_depth: usize,
    /// Minimum routed steps between two migrations of the same session,
    /// so a borderline session does not ping-pong between lanes.
    pub rebalance_cooldown: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            inflight_limit: 32,
            event_threads: 2,
            idle_timeout: Duration::from_secs(10),
            outbuf_cap: 16 << 20,
            rebalance_depth: 16,
            rebalance_cooldown: 64,
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
        /// The session's service-time EWMA, updated by the lane.
        service_ns: Arc<AtomicU64>,
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
    /// Rebalancing: the receiving lane owns `session` and must hand its
    /// state to the lane behind `to` (as a [`Command::Adopt`]).
    Migrate {
        session: u64,
        to: Sender<Command>,
    },
    /// Rebalancing: the migrated session state, arriving at its new
    /// lane. Lane-to-lane, never produced by the router.
    Adopt {
        session: u64,
        state: Box<LaneSession>,
    },
}

impl Command {
    /// The session a command addresses, for the migration parking gate.
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
            | Command::Restore { session, .. }
            | Command::Migrate { session, .. }
            | Command::Adopt { session, .. } => *session,
        }
    }

    /// The connection a command would reply to, for the lane's panic
    /// eviction path.
    fn reply_conn(&self) -> Option<Arc<ConnHandle>> {
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
            | Command::Restore { conn, .. } => Some(Arc::clone(conn)),
            Command::Close { conn, .. } => conn.as_ref().map(Arc::clone),
            Command::Migrate { .. } | Command::Adopt { .. } => None,
        }
    }
}

/// A session as owned by its worker lane, with streaming state. Boxed
/// through [`Command::Adopt`] when it migrates between lanes.
struct LaneSession {
    session: Session,
    /// Connection receiving [`Frame::FeatureEvent`] pushes, if any.
    subscriber: Option<Arc<ConnHandle>>,
    /// The feature set last pushed, so only changes generate events.
    pushed: Vec<(String, FeatureValue)>,
}

/// Routing record for one open session.
struct Entry {
    lane: usize,
    inflight: Arc<AtomicUsize>,
    /// EWMA of per-step service time in nanoseconds (0 = no step
    /// measured yet; such sessions are never migrated).
    service_ns: Arc<AtomicU64>,
    /// Steps routed so far, the clock for the migration cooldown.
    steps_routed: u64,
    /// `steps_routed` at the last migration decision.
    last_migrated: u64,
    /// A `Migrate`/`Adopt` handoff is in flight: the new lane parks this
    /// session's commands until the state arrives.
    migrating: bool,
    /// `CloseSession` has been routed: no further migrations.
    closing: bool,
}

/// State shared by the accept thread, the router, and the worker lanes.
struct Shared {
    sessions: Mutex<HashMap<u64, Entry>>,
    next_session: AtomicU64,
    running: AtomicBool,
    inflight_limit: usize,
    /// Commands queued to each lane but not yet processed.
    lane_depth: Vec<AtomicUsize>,
    /// Completed lane migrations (observable via [`Server::migrations`]).
    migrations: AtomicU64,
    rebalance_depth: usize,
    rebalance_cooldown: u64,
}

/// The reactor-facing frame router: decoded frames arrive here (on the
/// event threads) and leave as lane commands or immediate replies.
struct Router {
    shared: Arc<Shared>,
    lanes: Vec<Sender<Command>>,
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

    /// Completed session-to-lighter-lane migrations since startup.
    pub fn migrations(&self) -> u64 {
        self.shared.migrations.load(Ordering::Relaxed)
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
            lane_depth: (0..lane_count).map(|_| AtomicUsize::new(0)).collect(),
            migrations: AtomicU64::new(0),
            rebalance_depth: config.rebalance_depth,
            rebalance_cooldown: config.rebalance_cooldown.max(1),
        });

        let mut senders = Vec::with_capacity(lane_count);
        let mut workers = Vec::with_capacity(lane_count);
        for me in 0..lane_count {
            let (tx, rx) = mpsc::channel::<Command>();
            senders.push(tx);
            let shared_for_lane = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-lane-{me}"))
                    .spawn(move || lane_loop(rx, shared_for_lane, me))?,
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
            Arc::clone(&router) as Arc<dyn ConnEvents>,
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
        // dropping their sessions (which joins training work). A
        // `Migrate` still queued holds a sender to its target lane, but
        // only until the owning lane drains it — the cascade terminates.
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
    /// Queues a command to a lane, keeping the depth gauge consistent.
    /// `false` means the lane is gone (server stopping).
    fn dispatch(&self, lane: usize, cmd: Command) -> bool {
        self.shared.lane_depth[lane].fetch_add(1, Ordering::AcqRel);
        if self.lanes[lane].send(cmd).is_ok() {
            return true;
        }
        self.shared.lane_depth[lane].fetch_sub(1, Ordering::AcqRel);
        false
    }

    /// Routes a session-addressed control command (gauge-exempt).
    fn route_control(
        &self,
        conn: &Arc<ConnHandle>,
        session: u64,
        make: impl FnOnce(Arc<ConnHandle>) -> Command,
    ) {
        let lane = {
            let table = self.shared.sessions.lock().expect("session table");
            match table.get(&session) {
                Some(entry) => entry.lane,
                None => {
                    reply_unknown(conn, session);
                    return;
                }
            }
        };
        if !self.dispatch(lane, make(Arc::clone(conn))) {
            reply_error(conn, session, ErrorCode::Internal, "server stopping");
        }
    }

    /// The step-boundary rebalance check. Runs with the session table
    /// locked and the entry mutably borrowed; returns the lane that must
    /// receive a `Migrate` command when the decision fires (the entry is
    /// already retargeted at that point).
    fn rebalance(&self, entry: &mut Entry) -> Option<usize> {
        let depth_gate = self.shared.rebalance_depth;
        if depth_gate == 0
            || entry.migrating
            || entry.closing
            || entry.service_ns.load(Ordering::Relaxed) == 0
            || entry.steps_routed.wrapping_sub(entry.last_migrated) < self.shared.rebalance_cooldown
        {
            return None;
        }
        let here = self.shared.lane_depth[entry.lane].load(Ordering::Relaxed);
        if here < depth_gate {
            return None;
        }
        let (best, best_depth) = self
            .shared
            .lane_depth
            .iter()
            .enumerate()
            .map(|(i, d)| (i, d.load(Ordering::Relaxed)))
            .min_by_key(|&(_, depth)| depth)?;
        // Hysteresis: only migrate across an imbalance of at least the
        // depth gate. This damps migration but does not stop it under
        // uniform load: a client's burst lands on one lane's queue before
        // the others', so momentary gaps cross the gate and sessions do
        // move between equally loaded lanes.
        if best == entry.lane || here < best_depth + depth_gate {
            return None;
        }
        let from = entry.lane;
        entry.lane = best;
        entry.migrating = true;
        entry.last_migrated = entry.steps_routed;
        Some(from)
    }

    /// Admits a new session id into the table and dispatches its
    /// creating command (`Open`, or `Restore` — which is an open that
    /// also carries state). Rolls the admission back if the lane is
    /// gone.
    fn admit(&self, conn: &Arc<ConnHandle>, make: impl FnOnce(u64, Arc<ConnHandle>) -> Command) {
        let session = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        let lane = (session as usize) % self.lanes.len();
        self.shared.sessions.lock().expect("session table").insert(
            session,
            Entry {
                lane,
                inflight: Arc::new(AtomicUsize::new(0)),
                service_ns: Arc::new(AtomicU64::new(0)),
                steps_routed: 0,
                last_migrated: 0,
                migrating: false,
                closing: false,
            },
        );
        conn.attach_session(session);
        if !self.dispatch(lane, make(session, Arc::clone(conn))) {
            self.shared
                .sessions
                .lock()
                .expect("session table")
                .remove(&session);
            conn.detach_session(session);
            reply_error(conn, 0, ErrorCode::Internal, "server stopping");
        }
    }

    fn handle_step(
        &self,
        conn: &Arc<ConnHandle>,
        session: u64,
        iteration: u64,
        locations: Vec<u64>,
        values: Vec<f64>,
    ) {
        let (target, inflight, service_ns, migrate_from) = {
            let mut table = self.shared.sessions.lock().expect("session table");
            let Some(entry) = table.get_mut(&session) else {
                drop(table);
                reply_unknown(conn, session);
                return;
            };
            entry.steps_routed += 1;
            let migrate_from = self.rebalance(entry);
            (
                entry.lane,
                Arc::clone(&entry.inflight),
                Arc::clone(&entry.service_ns),
                migrate_from,
            )
        };
        if let Some(from) = migrate_from {
            self.shared.migrations.fetch_add(1, Ordering::Relaxed);
            let to = self.lanes[target].clone();
            self.dispatch(from, Command::Migrate { session, to });
        }
        // Shed-don't-stall: reserve an inflight slot or bounce.
        if !try_acquire(&inflight, self.shared.inflight_limit) {
            conn.send(&Frame::Busy {
                session,
                depth: self.shared.inflight_limit as u32,
            });
            return;
        }
        let cmd = Command::Step {
            session,
            iteration,
            locations,
            values,
            inflight: Arc::clone(&inflight),
            service_ns,
            conn: Arc::clone(conn),
        };
        if !self.dispatch(target, cmd) {
            inflight.fetch_sub(1, Ordering::AcqRel);
            reply_error(conn, session, ErrorCode::Internal, "server stopping");
        }
    }
}

impl ConnEvents for Router {
    fn on_frame(&self, conn: &Arc<ConnHandle>, frame: Frame) {
        match frame {
            Frame::OpenSession(spec) => {
                self.admit(conn, |session, conn| Command::Open {
                    session,
                    spec: Box::new(spec),
                    conn,
                });
            }
            Frame::Restore { spec, data } => {
                self.admit(conn, |session, conn| Command::Restore {
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
            } => self.handle_step(conn, session, iteration, locations, values),
            Frame::Extract { session } => {
                self.route_control(conn, session, |conn| Command::Extract { session, conn });
            }
            Frame::Features { session } => {
                self.route_control(conn, session, |conn| Command::Features { session, conn });
            }
            Frame::Poll { session } => {
                self.route_control(conn, session, |conn| Command::Poll { session, conn });
            }
            Frame::Stats { session } => {
                self.route_control(conn, session, |conn| Command::Stats { session, conn });
            }
            Frame::Subscribe { session } => {
                self.route_control(conn, session, |conn| Command::Subscribe { session, conn });
            }
            Frame::Unsubscribe { session } => {
                self.route_control(conn, session, |conn| Command::Unsubscribe { session, conn });
            }
            Frame::Snapshot { session } => {
                self.route_control(conn, session, |conn| Command::Snapshot { session, conn });
            }
            Frame::CloseSession { session } => {
                // The entry stays in the table (marked closing) until the
                // lane has dropped the session: commands racing the close
                // keep routing to the owner and resolve there, in order.
                let lane = {
                    let mut table = self.shared.sessions.lock().expect("session table");
                    match table.get_mut(&session) {
                        Some(entry) => {
                            entry.closing = true;
                            entry.lane
                        }
                        None => {
                            drop(table);
                            reply_unknown(conn, session);
                            return;
                        }
                    }
                };
                conn.detach_session(session);
                let cmd = Command::Close {
                    session,
                    conn: Some(Arc::clone(conn)),
                };
                if !self.dispatch(lane, cmd) {
                    reply_error(conn, session, ErrorCode::Internal, "server stopping");
                }
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
    }

    fn on_close(&self, conn: &Arc<ConnHandle>) {
        // The connection is gone: evict every session it still owned.
        for session in conn.take_sessions() {
            let lane = {
                let mut table = self.shared.sessions.lock().expect("session table");
                match table.get_mut(&session) {
                    Some(entry) => {
                        entry.closing = true;
                        entry.lane
                    }
                    None => continue,
                }
            };
            self.dispatch(
                lane,
                Command::Close {
                    session,
                    conn: None,
                },
            );
        }
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

fn reply_unknown(conn: &Arc<ConnHandle>, session: u64) {
    reply_error(conn, session, ErrorCode::UnknownSession, "no such session");
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

/// Folds one observation into a service-time EWMA (α = 1/8), clamped
/// away from zero so "has been measured" stays distinguishable.
fn ewma_update(cell: &AtomicU64, sample_ns: u64) {
    let old = cell.load(Ordering::Relaxed);
    let new = if old == 0 {
        sample_ns.max(1)
    } else {
        (old - old / 8 + sample_ns / 8).max(1)
    };
    cell.store(new, Ordering::Relaxed);
}

/// Most commands a lane handles between two flushes of its replies: a
/// lane flushes when its queue runs dry, and after this many commands
/// at the latest, so one ack never waits behind an unbounded backlog
/// from other connections.
const FLUSH_EVERY: usize = 32;

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
    me: usize,
    shared: Arc<Shared>,
    sessions: HashMap<u64, LaneSession>,
    /// Commands for sessions migrating *to* this lane whose state has
    /// not arrived yet; drained in order on `Adopt`.
    parked: HashMap<u64, VecDeque<Command>>,
    replies: Replies,
}

fn lane_loop(rx: Receiver<Command>, shared: Arc<Shared>, me: usize) {
    let mut lane = Lane {
        me,
        shared,
        sessions: HashMap::new(),
        parked: HashMap::new(),
        replies: Replies::default(),
    };
    let mut batch = 0;
    loop {
        let next = match rx.try_recv() {
            Err(TryRecvError::Empty) => {
                // The queue ran dry: the batch ends before the lane blocks.
                lane.replies.flush();
                batch = 0;
                rx.recv().ok()
            }
            received => received.ok(),
        };
        let Some(cmd) = next else {
            break;
        };
        lane.receive(cmd);
        batch += 1;
        if batch == FLUSH_EVERY {
            lane.replies.flush();
            batch = 0;
        }
    }
    lane.replies.flush();
    // Channel disconnected: the server is shutting down. Sessions drop
    // here, joining their engines' in-flight work.
}

impl Lane {
    fn receive(&mut self, cmd: Command) {
        if let Command::Adopt { session, state } = cmd {
            self.adopt(session, *state);
            return;
        }
        let session = cmd.session_id();
        if !self.sessions.contains_key(&session) && self.should_park(&cmd, session) {
            self.parked.entry(session).or_default().push_back(cmd);
            return;
        }
        self.handle_isolated(cmd);
        self.shared.lane_depth[self.me].fetch_sub(1, Ordering::AcqRel);
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
        let conn = cmd.reply_conn();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.handle(cmd)));
        if outcome.is_err() {
            self.sessions.remove(&session);
            self.parked.remove(&session);
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

    /// True for session-addressed commands that outran their session's
    /// in-flight migration to this lane: they wait for the `Adopt`.
    /// `Open` creates the session and `Migrate` is only ever routed to
    /// the current owner, so neither parks.
    fn should_park(&self, cmd: &Command, session: u64) -> bool {
        if matches!(cmd, Command::Open { .. } | Command::Migrate { .. }) {
            return false;
        }
        let table = self.shared.sessions.lock().expect("session table");
        table
            .get(&session)
            .is_some_and(|e| e.lane == self.me && e.migrating)
    }

    /// Installs migrated session state and replays its parked commands
    /// in arrival order.
    fn adopt(&mut self, session: u64, state: LaneSession) {
        let still_open = {
            let mut table = self.shared.sessions.lock().expect("session table");
            match table.get_mut(&session) {
                Some(entry) if entry.lane == self.me => {
                    entry.migrating = false;
                    true
                }
                // Closed while the state was in flight: drop it here,
                // joining its in-flight work.
                _ => false,
            }
        };
        if still_open {
            self.sessions.insert(session, state);
        }
        if let Some(queue) = self.parked.remove(&session) {
            for cmd in queue {
                self.handle_isolated(cmd);
                self.shared.lane_depth[self.me].fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    fn handle(&mut self, cmd: Command) {
        match cmd {
            Command::Adopt { .. } => unreachable!("Adopt is handled in receive"),
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
                service_ns,
                conn,
            } => {
                let reply = match self.sessions.get_mut(&session) {
                    Some(owned) => {
                        let started = Instant::now();
                        let outcome = owned.session.step(iteration, &locations, &values);
                        ewma_update(
                            &service_ns,
                            started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                        );
                        match outcome {
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
                        }
                    }
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
            Command::Migrate { session, to } => {
                // Hand the state over. The `to` sender travels inside
                // the command and drops right after, so no lane ever
                // retains a sender to another lane — shutdown stays a
                // simple channel-disconnect cascade.
                if let Some(state) = self.sessions.remove(&session) {
                    let _ = to.send(Command::Adopt {
                        session,
                        state: Box::new(state),
                    });
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
