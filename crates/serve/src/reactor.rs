//! A readiness-based connection reactor with a fixed thread budget.
//!
//! The server used to spawn one blocking reader thread per connection:
//! fine at tens of sockets, hopeless at thousands. The reactor replaces
//! that with **N event threads** (N fixed at startup), each owning a
//! disjoint set of non-blocking connections in a slab and multiplexing
//! them over one [`Poller`] wait. Thread count is
//! `O(event_threads)`, independent of connection count.
//!
//! ```text
//!  accept thread ──intake──► event thread 0 ── slab of ConnState
//!                └─intake──► event thread 1 ── slab of ConnState
//!                                 │ readable: read → FrameAssembler → on_frame
//!                                 │ batch end: on_batch_end (hand-off)
//!                                 │ writable / dirty: flush ConnHandle outbuf
//!                                 ▼
//!                          ConnEvents handler (the server's router)
//! ```
//!
//! Per connection the reactor keeps a [`FrameAssembler`] — incremental
//! reassembly of `[len][kind][payload]` frames across arbitrary read
//! boundaries, with the frame-size cap enforced on the length prefix
//! *before* any body is buffered — and a [`ConnHandle`] whose outbuf any
//! thread may append replies to.
//!
//! **Readiness batches.** Each poll wait yields a batch of ready
//! connections. The event thread reads all of them, delivering every
//! frame through [`ConnEvents::on_frame`] into a per-thread
//! [`ConnEvents::Batch`], and then calls [`ConnEvents::on_batch_end`]
//! once: the handler hands the whole batch on in one go (the server sends
//! each worker lane one message per batch, not one per frame). The hook
//! runs again after the batch's flushes and the idle sweep, so the
//! closes those cause are handed on in the same loop turn.
//!
//! **Replies.** A reply is a queue operation: `send` encodes into the
//! outbuf and nothing reaches the socket until someone calls
//! [`ConnHandle::flush`], so a batch of replies costs one `write()`.
//! Every path that writes the socket — a worker's flush,
//! [`ConnHandle::close`], teardown and write readiness — writes under the
//! outbuf lock, so bytes reach the socket in queue order. A remainder the
//! socket will not take parks in the outbuf and the owning event thread
//! (woken via a self-pipe) finishes it under write interest when the peer
//! drains. A peer that stops reading past the outbuf cap is torn down
//! rather than buffered without bound; a peer that stalls *mid-frame*
//! past the idle timeout is torn down by the sweep (frame-aligned idle
//! connections are left alone — idling is not a protocol violation).
//!
//! Each connection is one descriptor: the event thread reads and the
//! flushing thread writes through the same shared socket.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::poll::{PollEvent, Poller};
use crate::wire::{Frame, WireError, MAX_FRAME_LEN};

/// Token reserved for each event thread's self-pipe waker.
const WAKER_TOKEN: usize = usize::MAX;

/// Bound on consecutive reads serviced per readiness event, so one
/// firehose connection cannot starve its slab-mates. Level-triggered
/// polling re-fires for whatever is left.
const MAX_READS_PER_EVENT: usize = 8;

/// A socket stream of either supported transport.
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix domain socket connection.
    Unix(UnixStream),
}

impl Stream {
    /// Switches the descriptor's non-blocking flag.
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(on),
            Stream::Unix(s) => s.set_nonblocking(on),
        }
    }

    /// Shuts the socket down in both directions.
    pub fn shutdown_both(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

/// Reads through a shared reference, so one descriptor serves a reader
/// and a writer on different threads.
impl Read for &Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => (&*s).read(buf),
            Stream::Unix(s) => (&*s).read(buf),
        }
    }
}

/// Writes through a shared reference (see the `Read` impl).
impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => (&*s).write(buf),
            Stream::Unix(s) => (&*s).write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => (&*s).flush(),
            Stream::Unix(s) => (&*s).flush(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self).read(buf)
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// Incremental reassembly of wire frames from arbitrary byte chunks.
///
/// The stream format is `[len:u32le][body]` where the body's first byte
/// is the frame kind. `feed` consumes a chunk of bytes wherever the
/// transport happened to split them — mid-prefix, mid-body, many frames
/// at once — and invokes the sink once per completed body with the
/// decode result.
///
/// Error discipline mirrors the blocking reader it replaces: a length
/// prefix outside `1..=`[`MAX_FRAME_LEN`] leaves the stream unframeable
/// and is returned as a **fatal** `Err` (checked before one body byte is
/// buffered, so an attacker's 4-byte prefix cannot reserve memory); a
/// body that decodes to `Err` (malformed, unknown kind) is delivered
/// through the sink as a **recoverable** per-frame error — the length
/// prefix was good, the stream is still framed.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    prefix: [u8; 4],
    prefix_filled: usize,
    body: Vec<u8>,
    /// Body length decoded from the prefix; 0 while reading the prefix.
    need: usize,
}

impl FrameAssembler {
    /// Creates an empty assembler, positioned at a frame boundary.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when some bytes of an unfinished frame have been buffered —
    /// the state in which a silent peer is *stalled* rather than idle.
    pub fn mid_frame(&self) -> bool {
        self.prefix_filled > 0 || self.need > 0
    }

    /// Consumes one chunk, invoking `sink` per completed frame body.
    /// Returns `Err` only for the fatal unframeable-prefix case; the
    /// connection should be torn down and no further bytes fed.
    pub fn feed(
        &mut self,
        mut chunk: &[u8],
        mut sink: impl FnMut(Result<Frame, WireError>),
    ) -> Result<(), WireError> {
        while !chunk.is_empty() {
            if self.need == 0 {
                let take = (4 - self.prefix_filled).min(chunk.len());
                self.prefix[self.prefix_filled..self.prefix_filled + take]
                    .copy_from_slice(&chunk[..take]);
                self.prefix_filled += take;
                chunk = &chunk[take..];
                if self.prefix_filled < 4 {
                    return Ok(());
                }
                let len = u32::from_le_bytes(self.prefix);
                if len == 0 || len > MAX_FRAME_LEN {
                    return Err(WireError::Oversized { len });
                }
                self.need = len as usize;
                self.body.clear();
                self.body.reserve(self.need);
                continue;
            }
            let take = (self.need - self.body.len()).min(chunk.len());
            self.body.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
            if self.body.len() == self.need {
                sink(Frame::decode(&self.body));
                self.need = 0;
                self.prefix_filled = 0;
            }
        }
        Ok(())
    }
}

/// How the reactor hands connection activity to the application.
///
/// Every callback runs on the event thread owning the connection; they
/// must not block for long (queue work, reply via [`ConnHandle::send`],
/// return). The reactor writes a connection only under write readiness
/// or when it is marked dirty, so a handler flushes what it queues
/// itself — typically once, at the batch end.
pub trait ConnEvents: Send + Sync + 'static {
    /// Work the callbacks collect during one readiness batch. Each event
    /// thread owns one, passed to [`ConnEvents::on_batch_end`] when the
    /// batch ends.
    type Batch: Default + Send + 'static;
    /// A complete frame arrived.
    fn on_frame(&self, batch: &mut Self::Batch, conn: &Arc<ConnHandle>, frame: Frame);
    /// A frame failed to decode. `fatal` distinguishes the unframeable
    /// length prefix (the connection is torn down right after this call;
    /// a best-effort flush delivers any reply queued here) from a bad
    /// body on a still-framed stream (the connection keeps serving).
    fn on_decode_error(&self, conn: &Arc<ConnHandle>, err: WireError, fatal: bool);
    /// The connection is gone — peer hang-up, I/O error, overflow, stall
    /// eviction, or server shutdown. Called exactly once per connection.
    fn on_close(&self, batch: &mut Self::Batch, conn: &Arc<ConnHandle>);
    /// The readiness batch ended: every frame read in it, and every close
    /// since the last call, has been delivered into `batch`.
    fn on_batch_end(&self, batch: &mut Self::Batch);
}

/// Buffered output for one connection: bytes encoded but not yet
/// accepted by the socket.
struct OutBuf {
    /// The connection's socket, shared with the event thread's read
    /// side; `None` once the connection is torn down (late sends and
    /// flushes become no-ops, and the descriptor closes with the event
    /// thread's reference).
    sock: Option<Arc<Stream>>,
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    sent: usize,
    /// Set on write error, overflow, or close request: the event thread
    /// tears the connection down at the next opportunity.
    broken: bool,
    cap: usize,
}

impl OutBuf {
    /// Pushes buffered bytes into the socket until done or `WouldBlock`,
    /// counting each write that carried bytes in `writes`. `Ok(true)`
    /// means fully drained.
    fn drain(&mut self, writes: &AtomicU64) -> io::Result<bool> {
        let Some(mut sock) = self.sock.as_deref() else {
            return Ok(true);
        };
        while self.sent < self.buf.len() {
            match sock.write(&self.buf[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.sent += n;
                    writes.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.sent = 0;
        // Keep moderate capacity for reuse, but give a spike's worth of
        // memory back rather than pinning it per connection.
        if self.buf.capacity() > (1 << 18) {
            self.buf = Vec::new();
        } else {
            self.buf.clear();
        }
        Ok(true)
    }

    fn pending(&self) -> usize {
        self.buf.len() - self.sent
    }
}

/// The shareable half of a connection: any thread (worker lanes, the
/// event thread, the accept path) may queue replies on it or request a
/// close. Cheap to clone via `Arc`; stays valid after the connection
/// dies (operations become no-ops).
pub struct ConnHandle {
    /// The connection's number within its reactor, in registration order.
    id: u64,
    token: usize,
    shard: Arc<ShardShared>,
    out: Mutex<OutBuf>,
    /// Coalesces wakeups: set while a flush request for this connection
    /// is already queued on the shard's dirty list.
    dirty: AtomicBool,
    /// Session ids opened over this connection, for eviction when it
    /// dies. Maintained by the application through
    /// [`ConnHandle::attach_session`] / [`ConnHandle::detach_session`].
    sessions: Mutex<Vec<u64>>,
}

impl ConnHandle {
    fn new(id: u64, token: usize, shard: Arc<ShardShared>, sock: Arc<Stream>, cap: usize) -> Self {
        Self {
            id,
            token,
            shard,
            out: Mutex::new(OutBuf {
                sock: Some(sock),
                buf: Vec::new(),
                sent: 0,
                broken: false,
                cap,
            }),
            dirty: AtomicBool::new(false),
            sessions: Mutex::new(Vec::new()),
        }
    }

    /// The connection's number: connections are numbered from 0 in the
    /// order they were registered with the reactor, so `id % n` deals
    /// them round-robin over `n` of anything.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Queues `frame` on the connection's outbuf. Nothing reaches the
    /// socket until [`ConnHandle::flush`], so replies queued together go
    /// out in one write, in queue order. A peer already more than the
    /// outbuf cap behind is cut instead: the frame is dropped and the
    /// owning event thread tears the connection down. Returns `false` if
    /// the connection is already gone.
    pub fn send(&self, frame: &Frame) -> bool {
        let mut out = self.out.lock().expect("conn outbuf");
        if out.sock.is_none() || out.broken {
            return false;
        }
        if out.pending() <= out.cap {
            frame.encode(&mut out.buf);
            return true;
        }
        // The peer has stopped reading: shed it rather than buffer
        // without bound.
        out.broken = true;
        drop(out);
        self.mark_dirty();
        true
    }

    /// Writes everything queued into the socket while it accepts bytes.
    /// A remainder the socket will not take (or a write error) goes to
    /// the owning event thread, which finishes it under write readiness
    /// (or tears the connection down).
    pub fn flush(&self) {
        let mut out = self.out.lock().expect("conn outbuf");
        if out.broken || out.pending() == 0 {
            return;
        }
        let drained = match out.drain(&self.shard.writes) {
            Ok(drained) => drained,
            Err(_) => {
                out.broken = true;
                false
            }
        };
        drop(out);
        if !drained {
            self.mark_dirty();
        }
    }

    /// Requests teardown: best-effort flush of anything buffered (so a
    /// final error reply usually makes it out), then the owning event
    /// thread closes the connection.
    pub fn close(&self) {
        let mut out = self.out.lock().expect("conn outbuf");
        let _ = out.drain(&self.shard.writes);
        out.broken = true;
        drop(out);
        self.mark_dirty();
    }

    /// Records a session as owned by this connection.
    pub fn attach_session(&self, session: u64) {
        self.sessions.lock().expect("conn sessions").push(session);
    }

    /// Forgets a session (closed explicitly by the client).
    pub fn detach_session(&self, session: u64) {
        self.sessions
            .lock()
            .expect("conn sessions")
            .retain(|&id| id != session);
    }

    /// Drains the owned-session list (used by the close handler to evict
    /// everything the dead connection still owned).
    pub fn take_sessions(&self) -> Vec<u64> {
        std::mem::take(&mut *self.sessions.lock().expect("conn sessions"))
    }

    fn mark_dirty(&self) {
        if !self.dirty.swap(true, Ordering::AcqRel) {
            self.shard.push_dirty(self.token);
        }
    }
}

/// State shared between a shard's event thread and everyone holding one
/// of its connection handles.
struct ShardShared {
    /// Freshly accepted sockets, with their connection numbers, awaiting
    /// admission into the slab.
    intake: Mutex<Vec<(u64, Stream)>>,
    /// Tokens whose outbufs want event-thread attention. May contain
    /// stale tokens (connection died, token reused); processing is
    /// idempotent against current slab state, so stale entries are at
    /// worst a spurious flush.
    dirty: Mutex<Vec<usize>>,
    /// Write end of the self-pipe; one byte unblocks the poll wait.
    waker: UnixStream,
    /// Socket writes that carried bytes, on this shard's connections.
    writes: AtomicU64,
}

impl ShardShared {
    fn push_dirty(&self, token: usize) {
        self.dirty.lock().expect("dirty list").push(token);
        self.wake();
    }

    fn wake(&self) {
        // Nonblocking: if the pipe is full the thread is already awake.
        let _ = (&self.waker).write(&[1]);
    }
}

/// Configuration for [`Reactor::start`].
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Number of event threads; connections are distributed round-robin.
    pub event_threads: usize,
    /// Tear down a connection stalled **mid-frame** for this long.
    /// Frame-aligned idle connections are never timed out. Zero disables
    /// the sweep.
    pub idle_timeout: Duration,
    /// Per-connection cap on buffered unsent reply bytes; a peer that
    /// falls further behind is disconnected.
    pub outbuf_cap: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            event_threads: 2,
            idle_timeout: Duration::from_secs(10),
            outbuf_cap: 16 << 20,
        }
    }
}

/// The running reactor: a fixed pool of event threads multiplexing every
/// registered connection. Dropping it (or [`Reactor::shutdown`]) tears
/// down all connections and joins the threads.
pub struct Reactor {
    shards: Vec<Arc<ShardShared>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    running: Arc<AtomicBool>,
    next: AtomicU64,
}

impl Reactor {
    /// Spawns the event threads and returns the handle used to register
    /// connections. Poller construction errors surface here, not later.
    pub fn start<E: ConnEvents>(config: ReactorConfig, events: Arc<E>) -> io::Result<Self> {
        let threads_wanted = config.event_threads.max(1);
        let running = Arc::new(AtomicBool::new(true));
        let mut shards = Vec::with_capacity(threads_wanted);
        let mut threads = Vec::with_capacity(threads_wanted);
        for i in 0..threads_wanted {
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            wake_tx.set_nonblocking(true)?;
            wake_rx.set_nonblocking(true)?;
            let mut poller = Poller::new()?;
            poller.register(wake_rx.as_raw_fd(), WAKER_TOKEN, false)?;
            let shard = Arc::new(ShardShared {
                intake: Mutex::new(Vec::new()),
                dirty: Mutex::new(Vec::new()),
                waker: wake_tx,
                writes: AtomicU64::new(0),
            });
            shards.push(Arc::clone(&shard));
            let events = Arc::clone(&events);
            let running = Arc::clone(&running);
            let cfg = config;
            let handle = std::thread::Builder::new()
                .name(format!("serve-event-{i}"))
                .spawn(move || event_loop(shard, poller, wake_rx, events, running, cfg))?;
            threads.push(handle);
        }
        Ok(Self {
            shards,
            threads: Mutex::new(threads),
            running,
            next: AtomicU64::new(0),
        })
    }

    /// Numbers a freshly accepted connection (see [`ConnHandle::id`]) and
    /// hands it to the shards round-robin. The socket is switched to
    /// non-blocking here.
    pub fn register(&self, sock: Stream) -> io::Result<()> {
        sock.set_nonblocking(true)?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[(id % self.shards.len() as u64) as usize];
        shard.intake.lock().expect("intake list").push((id, sock));
        shard.wake();
        Ok(())
    }

    /// Socket writes that carried bytes since startup, over every
    /// connection.
    pub fn writes(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.writes.load(Ordering::Relaxed))
            .sum()
    }

    /// Stops the event threads, tearing down every connection (each gets
    /// its `on_close`) and joining the threads. Idempotent.
    pub fn shutdown(&self) {
        if !self.running.swap(false, Ordering::SeqCst) {
            return;
        }
        for shard in &self.shards {
            shard.wake();
        }
        let handles = std::mem::take(&mut *self.threads.lock().expect("event threads"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-connection state owned by its event thread.
struct ConnState {
    /// The registered descriptor, shared with the handle's outbuf.
    sock: Arc<Stream>,
    asm: FrameAssembler,
    handle: Arc<ConnHandle>,
    /// Whether write interest is currently armed with the poller.
    want_write: bool,
    /// When the connection first went quiet mid-frame; `None` while at a
    /// frame boundary.
    stalled_since: Option<Instant>,
}

struct EventThread<E: ConnEvents> {
    slab: Vec<Option<ConnState>>,
    free: Vec<usize>,
    poller: Poller,
    events: Arc<E>,
    /// What the callbacks collected since the last batch end.
    batch: E::Batch,
    cfg: ReactorConfig,
}

impl<E: ConnEvents> EventThread<E> {
    fn admit(&mut self, id: u64, sock: Stream, shard: &Arc<ShardShared>) {
        let token = match self.free.pop() {
            Some(t) => t,
            None => {
                self.slab.push(None);
                self.slab.len() - 1
            }
        };
        if self
            .poller
            .register(sock.as_raw_fd(), token, false)
            .is_err()
        {
            self.free.push(token);
            return;
        }
        let sock = Arc::new(sock);
        let handle = Arc::new(ConnHandle::new(
            id,
            token,
            Arc::clone(shard),
            Arc::clone(&sock),
            self.cfg.outbuf_cap,
        ));
        self.slab[token] = Some(ConnState {
            sock,
            asm: FrameAssembler::new(),
            handle,
            want_write: false,
            stalled_since: None,
        });
    }

    /// Removes a connection: deregisters, best-effort flushes, detaches
    /// the socket from the handle (closing the descriptor when the state
    /// drops), fires `on_close`, recycles the token.
    fn teardown(&mut self, token: usize) {
        let Some(state) = self.slab.get_mut(token).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(state.sock.as_raw_fd());
        {
            let mut out = state.handle.out.lock().expect("conn outbuf");
            if !out.broken {
                let _ = out.drain(&state.handle.shard.writes);
            }
            out.sock = None;
            out.broken = true;
            out.buf = Vec::new();
            out.sent = 0;
        }
        self.events.on_close(&mut self.batch, &state.handle);
        self.free.push(token);
    }

    /// Services read readiness: bounded reads, incremental reassembly,
    /// frame dispatch, stall-clock upkeep; tears the connection down on
    /// hang-up, read error or an unframeable prefix.
    fn readable(&mut self, token: usize, scratch: &mut [u8]) {
        let Some(state) = self.slab.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        let mut dead = false;
        let mut fatal = None;
        for _ in 0..MAX_READS_PER_EVENT {
            match (&*state.sock).read(scratch) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    let handle = &state.handle;
                    let (events, batch) = (&self.events, &mut self.batch);
                    let fed = state.asm.feed(&scratch[..n], |result| match result {
                        Ok(frame) => events.on_frame(batch, handle, frame),
                        Err(err) => events.on_decode_error(handle, err, false),
                    });
                    if let Err(err) = fed {
                        fatal = Some(err);
                        break;
                    }
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        state.stalled_since = if state.asm.mid_frame() {
            state.stalled_since.or_else(|| Some(Instant::now()))
        } else {
            None
        };
        if let Some(err) = fatal {
            let handle = Arc::clone(&state.handle);
            self.events.on_decode_error(&handle, err, true);
            self.teardown(token);
        } else if dead {
            self.teardown(token);
        }
    }

    /// Services write readiness and dirty requests: drains the outbuf
    /// and keeps poller write interest in sync with whether bytes remain.
    fn flush(&mut self, token: usize) {
        let Some(state) = self.slab.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        state.handle.dirty.store(false, Ordering::Release);
        let fd = state.sock.as_raw_fd();
        let outcome = {
            let mut out = state.handle.out.lock().expect("conn outbuf");
            if out.broken {
                Err(io::ErrorKind::ConnectionAborted.into())
            } else {
                out.drain(&state.handle.shard.writes)
            }
        };
        match outcome {
            Ok(true) => {
                if state.want_write && self.poller.modify(fd, token, false).is_ok() {
                    state.want_write = false;
                }
            }
            Ok(false) => {
                if !state.want_write && self.poller.modify(fd, token, true).is_ok() {
                    state.want_write = true;
                }
            }
            Err(_) => self.teardown(token),
        }
    }

    /// Evicts connections stalled mid-frame past the idle timeout.
    fn sweep(&mut self, now: Instant) {
        if self.cfg.idle_timeout.is_zero() {
            return;
        }
        let mut expired = Vec::new();
        for (token, slot) in self.slab.iter().enumerate() {
            if let Some(state) = slot {
                if let Some(since) = state.stalled_since {
                    if now.duration_since(since) >= self.cfg.idle_timeout {
                        expired.push(token);
                    }
                }
            }
        }
        for token in expired {
            self.teardown(token);
        }
    }

    fn end_batch(&mut self) {
        self.events.on_batch_end(&mut self.batch);
    }

    fn live_tokens(&self) -> Vec<usize> {
        self.slab
            .iter()
            .enumerate()
            .filter_map(|(t, s)| s.as_ref().map(|_| t))
            .collect()
    }
}

fn event_loop<E: ConnEvents>(
    shard: Arc<ShardShared>,
    poller: Poller,
    wake_rx: UnixStream,
    events: Arc<E>,
    running: Arc<AtomicBool>,
    cfg: ReactorConfig,
) {
    let mut et = EventThread {
        slab: Vec::new(),
        free: Vec::new(),
        poller,
        events,
        batch: E::Batch::default(),
        cfg,
    };
    let mut ready: Vec<PollEvent> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    let tick = if cfg.idle_timeout.is_zero() {
        Duration::from_millis(500)
    } else {
        (cfg.idle_timeout / 4).clamp(Duration::from_millis(10), Duration::from_millis(500))
    };
    let mut last_sweep = Instant::now();
    let mut wake_rx = wake_rx;
    // Work queue reused across iterations to order reads before writes.
    let mut flush_queue: VecDeque<usize> = VecDeque::new();
    loop {
        if et.poller.wait(&mut ready, Some(tick)).is_err() {
            break;
        }
        if !running.load(Ordering::SeqCst) {
            break;
        }
        // Drain the self-pipe so it can signal again.
        if ready.iter().any(|ev| ev.token == WAKER_TOKEN) {
            let mut sink = [0u8; 64];
            while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        }
        // Admit new connections.
        let incoming = std::mem::take(&mut *shard.intake.lock().expect("intake list"));
        for (id, sock) in incoming {
            et.admit(id, sock, &shard);
        }
        // Dirty outbufs queued by writer threads.
        let dirty = std::mem::take(&mut *shard.dirty.lock().expect("dirty list"));
        flush_queue.extend(dirty);
        // Socket readiness.
        for ev in &ready {
            if ev.token == WAKER_TOKEN {
                continue;
            }
            if ev.readable {
                et.readable(ev.token, &mut scratch);
            }
            if ev.writable {
                flush_queue.push_back(ev.token);
            }
        }
        // Hand the batch's work on before writing anything, so workers
        // start while this thread flushes.
        et.end_batch();
        while let Some(token) = flush_queue.pop_front() {
            et.flush(token);
        }
        let now = Instant::now();
        if now.duration_since(last_sweep) >= tick {
            et.sweep(now);
            last_sweep = now;
        }
        // Closes from failed flushes and the sweep.
        et.end_batch();
    }
    // Shutdown (or poller failure): tear everything down so each
    // connection gets its on_close exactly once.
    for token in et.live_tokens() {
        et.teardown(token);
    }
    et.end_batch();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::SessionSpec;

    fn frame_bytes(frame: &Frame) -> Vec<u8> {
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        buf
    }

    #[test]
    fn assembler_handles_frames_split_anywhere() {
        let frames = vec![
            Frame::Poll { session: 42 },
            Frame::OpenSession(SessionSpec::new(
                "region",
                insitu::IterParam::new(1, 8, 1).unwrap(),
                insitu::IterParam::new(0, 4, 1).unwrap(),
            )),
            Frame::Closed { session: 7 },
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&frame_bytes(f));
        }
        // Feed in every fixed chunk size, including 1 byte at a time.
        for chunk in [1usize, 2, 3, 5, 7, bytes.len()] {
            let mut asm = FrameAssembler::new();
            let mut got = Vec::new();
            for piece in bytes.chunks(chunk) {
                asm.feed(piece, |r| got.push(r.expect("decode")))
                    .expect("framed stream");
            }
            assert_eq!(got.len(), frames.len(), "chunk size {chunk}");
            assert!(!asm.mid_frame());
            assert!(matches!(got[0], Frame::Poll { session: 42 }));
            assert!(matches!(got[2], Frame::Closed { session: 7 }));
        }
    }

    #[test]
    fn assembler_rejects_unframeable_prefixes_before_buffering() {
        for bad in [0u32, MAX_FRAME_LEN + 1, u32::MAX] {
            let mut asm = FrameAssembler::new();
            let mut calls = 0;
            let err = asm
                .feed(&bad.to_le_bytes(), |_| calls += 1)
                .expect_err("unframeable prefix");
            assert!(matches!(err, WireError::Oversized { .. }), "{bad}");
            assert_eq!(calls, 0);
        }
    }

    #[test]
    fn assembler_reports_bad_bodies_recoverably() {
        // A framed body with an unknown kind byte, followed by a good
        // frame: the sink sees the error, then the good frame decodes.
        let mut bytes = 2u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0x7F, 0x00]);
        bytes.extend_from_slice(&frame_bytes(&Frame::Poll { session: 9 }));
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        asm.feed(&bytes, |r| got.push(r)).expect("still framed");
        assert_eq!(got.len(), 2);
        assert!(got[0].is_err());
        assert!(matches!(got[1], Ok(Frame::Poll { session: 9 })));
        assert!(!asm.mid_frame());
    }

    #[test]
    fn assembler_tracks_mid_frame_state() {
        let bytes = frame_bytes(&Frame::Poll { session: 1 });
        let mut asm = FrameAssembler::new();
        assert!(!asm.mid_frame());
        asm.feed(&bytes[..2], |_| panic!("no frame yet"))
            .expect("framed");
        assert!(asm.mid_frame(), "mid-prefix is mid-frame");
        asm.feed(&bytes[2..6], |_| panic!("no frame yet"))
            .expect("framed");
        assert!(asm.mid_frame(), "mid-body is mid-frame");
        let mut done = 0;
        asm.feed(&bytes[6..], |r| {
            r.expect("decode");
            done += 1;
        })
        .expect("framed");
        assert_eq!(done, 1);
        assert!(!asm.mid_frame());
    }

    fn ack(session: u64) -> Frame {
        Frame::StepAck {
            session,
            iteration: session,
            samples: 1,
            batches_trained: 0,
        }
    }

    /// A handle over `sock` outside any reactor; its wakes go to a pipe
    /// nobody reads.
    fn detached(sock: UnixStream) -> (ConnHandle, Arc<ShardShared>, UnixStream) {
        let (waker, wake_rx) = UnixStream::pair().expect("waker pair");
        waker.set_nonblocking(true).expect("nonblocking waker");
        let shard = Arc::new(ShardShared {
            intake: Mutex::new(Vec::new()),
            dirty: Mutex::new(Vec::new()),
            waker,
            writes: AtomicU64::new(0),
        });
        sock.set_nonblocking(true).expect("nonblocking socket");
        let handle = ConnHandle::new(
            0,
            0,
            Arc::clone(&shard),
            Arc::new(Stream::Unix(sock)),
            1 << 20,
        );
        (handle, shard, wake_rx)
    }

    #[test]
    fn queued_replies_reach_the_peer_only_on_flush_in_queue_order() {
        let (ours, mut peer) = UnixStream::pair().expect("pair");
        peer.set_nonblocking(true).expect("nonblocking peer");
        let (conn, shard, _wake_rx) = detached(ours);
        let frames: Vec<Frame> = (0..5).map(ack).collect();
        for frame in &frames {
            assert!(conn.send(frame));
        }
        let mut buf = [0u8; 4096];
        let err = peer
            .read(&mut buf)
            .expect_err("nothing written before the flush");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);

        conn.flush();
        let n = peer.read(&mut buf).expect("flushed bytes");
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        asm.feed(&buf[..n], |r| got.push(r.expect("decode")))
            .expect("framed");
        assert_eq!(
            got, frames,
            "one flush delivers every reply, in queue order"
        );
        assert!(!asm.mid_frame());
        let err = peer.read(&mut buf).expect_err("nothing left over");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(
            shard.dirty.lock().unwrap().is_empty(),
            "a flush the socket took whole needs no event thread"
        );
    }

    /// Replies to `Poll { session }`: every third session is answered
    /// `Busy` straight from the event thread and flushed at the batch
    /// end, the rest are handed to a lane thread that acks them and
    /// flushes when its queue runs dry. Both record each reply in `order`
    /// under the lock they queue it under, so `order` is the outbuf's
    /// queue order.
    struct SplitReplies {
        lane: Mutex<std::sync::mpsc::Sender<(Arc<ConnHandle>, u64)>>,
        order: Arc<Mutex<Vec<u64>>>,
    }

    impl ConnEvents for SplitReplies {
        /// Connections answered from the event thread in this batch.
        type Batch = Vec<Arc<ConnHandle>>;

        fn on_frame(&self, answered: &mut Self::Batch, conn: &Arc<ConnHandle>, frame: Frame) {
            let Frame::Poll { session } = frame else {
                panic!("unexpected request {frame:?}");
            };
            if session % 3 == 0 {
                let mut order = self.order.lock().unwrap();
                conn.send(&Frame::Busy { session, depth: 1 });
                order.push(session);
                answered.push(Arc::clone(conn));
            } else {
                let lane = self.lane.lock().unwrap();
                lane.send((Arc::clone(conn), session)).unwrap();
            }
        }

        fn on_decode_error(&self, _: &Arc<ConnHandle>, err: WireError, _: bool) {
            panic!("unexpected decode error {err}");
        }

        fn on_close(&self, _: &mut Self::Batch, _: &Arc<ConnHandle>) {}

        fn on_batch_end(&self, answered: &mut Self::Batch) {
            for conn in answered.drain(..) {
                conn.flush();
            }
        }
    }

    #[test]
    fn event_thread_and_lane_replies_keep_their_queue_order() {
        const REQUESTS: u64 = 300;
        let (tx, rx) = std::sync::mpsc::channel::<(Arc<ConnHandle>, u64)>();
        let order = Arc::new(Mutex::new(Vec::new()));
        let lane = {
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let mut touched: Option<Arc<ConnHandle>> = None;
                loop {
                    let next = match rx.try_recv() {
                        Err(std::sync::mpsc::TryRecvError::Empty) => {
                            if let Some(conn) = touched.take() {
                                conn.flush();
                            }
                            rx.recv().ok()
                        }
                        received => received.ok(),
                    };
                    let Some((conn, session)) = next else {
                        break;
                    };
                    let mut order = order.lock().unwrap();
                    conn.send(&ack(session));
                    order.push(session);
                    touched = Some(conn);
                }
            })
        };
        let events = Arc::new(SplitReplies {
            lane: Mutex::new(tx),
            order: Arc::clone(&order),
        });
        let reactor = Reactor::start(ReactorConfig::default(), events).expect("reactor");
        let (ours, mut peer) = UnixStream::pair().expect("pair");
        reactor.register(Stream::Unix(ours)).expect("register");

        let mut requests = Vec::new();
        for session in 0..REQUESTS {
            Frame::Poll { session }.encode(&mut requests);
        }
        peer.write_all(&requests).expect("requests");
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut scratch = Vec::new();
        let wire: Vec<u64> = (0..REQUESTS)
            .map(
                |_| match crate::wire::read_frame(&mut peer, &mut scratch).expect("reply") {
                    Some(Frame::Busy { session, .. }) => {
                        assert_eq!(session % 3, 0);
                        session
                    }
                    Some(Frame::StepAck { session, .. }) => {
                        assert_ne!(session % 3, 0);
                        session
                    }
                    other => panic!("unexpected reply {other:?}"),
                },
            )
            .collect();
        reactor.shutdown();
        drop(reactor);
        lane.join().expect("lane thread");
        assert_eq!(wire, *order.lock().unwrap(), "wire order is queue order");
        let mut sorted = wire.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..REQUESTS).collect::<Vec<_>>(), "one reply each");
    }
}
