//! End-to-end tests of the serve runtime: wire-served features must be
//! bit-identical to the in-process engine under concurrent multi-session
//! load (over TCP **and** Unix sockets), backpressure must shed rather
//! than stall, protocol errors must come back as error replies, and
//! shutdown must wind every session down without hanging.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use insitu::collect::Retention;
use insitu::IterParam;
use serve::loadgen::{self, LoadgenConfig, Target};
use serve::session::Session;
use serve::wire::{ErrorCode, Frame, SessionSpec};
use serve::{Client, Server, ServerConfig};

fn unique_socket_path(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "insitu-serve-test-{}-{tag}-{n}.sock",
        std::process::id()
    ))
}

/// The acceptance property: many concurrent sessions over real sockets,
/// every session's served features equal the in-process engine's, bit for
/// bit. Runs the same loadgen the benchmark uses, in verify mode.
#[test]
fn tcp_served_features_are_bit_identical_under_concurrent_load() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind tcp");
    let target = Target::Tcp(server.tcp_addr().expect("tcp addr"));
    let config = LoadgenConfig {
        sessions: 48,
        steps: 80,
        connections: 4,
        distinct: 12,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&target, &config).expect("load run");
    assert_eq!(report.verified, config.sessions);
    server.shutdown();
}

#[test]
fn unix_served_features_are_bit_identical_under_concurrent_load() {
    let path = unique_socket_path("identity");
    let server = Server::bind_unix(&path, ServerConfig::default()).expect("bind unix");
    let config = LoadgenConfig {
        sessions: 24,
        steps: 80,
        connections: 3,
        distinct: 8,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&Target::Unix(path.clone()), &config).expect("load run");
    assert_eq!(report.verified, config.sessions);
    server.shutdown();
    assert!(!path.exists(), "socket file unlinked on shutdown");
}

/// Backpressure is shed-don't-stall: with the inflight limit at 1 and a
/// deliberately expensive session, a pipelined burst of steps must bounce
/// with `Busy` instead of queueing without bound — and every bounced step
/// can be retried to completion.
#[test]
fn overdriven_session_sheds_steps_with_busy() {
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            inflight_limit: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind tcp");
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).expect("connect");

    // An expensive session: wide spatial range and a busy trainer, so one
    // step takes long enough for the burst to pile onto the gauge.
    let mut spec = SessionSpec::new(
        "heavy",
        IterParam::new(1, 2048, 1).unwrap(),
        IterParam::new(0, 200, 1).unwrap(),
    );
    spec.lag = 5;
    spec.batch_capacity = 64;
    spec.trainer.order = 8;
    spec.trainer.epochs_per_batch = 8;
    let session = client.open_session(spec).expect("open");

    let locations: Vec<u64> = (1..=2048).collect();
    let values: Vec<f64> = locations.iter().map(|&l| (l as f64).sin()).collect();
    const BURST: u64 = 24;
    for it in 0..BURST {
        client
            .send(&Frame::StepSamples {
                session,
                iteration: it,
                locations: locations.clone(),
                values: values.clone(),
            })
            .expect("send");
    }
    let mut acked = Vec::new();
    let mut bounced = Vec::new();
    for _ in 0..BURST {
        match client.recv().expect("reply") {
            Frame::StepAck { iteration, .. } => acked.push(iteration),
            Frame::Busy { session: s, depth } => {
                assert_eq!(s, session);
                assert_eq!(depth, 1);
                bounced.push(());
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert_eq!(acked.len() + bounced.len(), BURST as usize);
    assert!(
        !bounced.is_empty(),
        "a 24-step pipelined burst at inflight_limit=1 must shed at least once"
    );
    // Shed steps are retryable: the lock-step path waits out the Busy.
    for it in BURST..BURST + 4 {
        client
            .step(session, it, &locations, &values)
            .expect("retry");
    }
    client.close_session(session).expect("close");
    server.shutdown();
}

/// Protocol-level error paths: unknown sessions, bad specs, and malformed
/// frames each produce their error reply (and a malformed frame hangs up
/// the connection, since the stream can no longer be framed).
#[test]
fn error_paths_reply_with_typed_errors() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind tcp");
    let addr = server.tcp_addr().unwrap();

    let mut client = Client::connect_tcp(addr).expect("connect");
    // Unknown session.
    client.send(&Frame::Poll { session: 999 }).expect("send");
    match client.recv().expect("reply") {
        Frame::ErrorReply { session, code, .. } => {
            assert_eq!(session, 999);
            assert_eq!(code, ErrorCode::UnknownSession);
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    // A spec the core library rejects (zero epochs per batch).
    let mut bad = SessionSpec::new(
        "bad",
        IterParam::new(1, 4, 1).unwrap(),
        IterParam::new(0, 10, 1).unwrap(),
    );
    bad.trainer.epochs_per_batch = 0;
    assert!(client.open_session(bad).is_err());
    // Mismatched columns are caught at decode time (the frame encodes one
    // count for both columns, so a mismatch leaves the body inconsistent
    // with itself): protocol error, but the stream is still framed — the
    // connection and the session both live on.
    let spec = SessionSpec::new(
        "ok",
        IterParam::new(1, 4, 1).unwrap(),
        IterParam::new(0, 10, 1).unwrap(),
    );
    let session = client.open_session(spec).expect("open");
    client
        .send(&Frame::StepSamples {
            session,
            iteration: 0,
            locations: vec![1, 2, 3],
            values: vec![0.5],
        })
        .expect("send");
    match client.recv().expect("reply") {
        Frame::ErrorReply {
            session: s, code, ..
        } => {
            assert_eq!(s, 0, "decode-level errors cannot name a session");
            assert_eq!(code, ErrorCode::Protocol);
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    assert!(
        client.poll(session).is_ok(),
        "session survived the bad step"
    );
    // Closing twice: the second close is an unknown session.
    client.close_session(session).expect("close");
    assert!(client.close_session(session).is_err());
    server.shutdown();
}

/// Dropping the server with sessions still open must not hang: readers
/// are woken, lanes drain, engines shut down.
#[test]
fn shutdown_with_open_sessions_does_not_hang() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind tcp");
    let addr = server.tcp_addr().unwrap();
    let mut client = Client::connect_tcp(addr).expect("connect");
    let spec = SessionSpec::new(
        "abandoned",
        IterParam::new(1, 8, 1).unwrap(),
        IterParam::new(0, 100, 1).unwrap(),
    );
    let session = client.open_session(spec).expect("open");
    let locations: Vec<u64> = (1..=8).collect();
    let values = vec![1.0; 8];
    client.step(session, 0, &locations, &values).expect("step");
    drop(server); // Drop, not shutdown(): the Drop path must also wind down.
                  // The connection is now dead; the next request errors instead of
                  // blocking forever.
    assert!(client.poll(session).is_err());
}

/// Sessions opened on a connection die with it: a second connection can
/// never address them, and the server stays healthy for new work.
#[test]
fn connection_death_evicts_its_sessions() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind tcp");
    let addr = server.tcp_addr().unwrap();
    let orphan = {
        let mut dying = Client::connect_tcp(addr).expect("connect");
        let spec = SessionSpec::new(
            "dying",
            IterParam::new(1, 4, 1).unwrap(),
            IterParam::new(0, 10, 1).unwrap(),
        );
        dying.open_session(spec).expect("open")
        // `dying` drops here, closing the socket.
    };
    // Give the reader thread a moment to evict.
    let mut other = Client::connect_tcp(addr).expect("connect");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match other.poll(orphan) {
            Err(_) => break, // evicted
            Ok(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Ok(_) => panic!("orphaned session still addressable after 5s"),
        }
    }
    // The server still serves new sessions.
    let spec = SessionSpec::new(
        "fresh",
        IterParam::new(1, 4, 1).unwrap(),
        IterParam::new(0, 10, 1).unwrap(),
    );
    let fresh = other.open_session(spec).expect("open");
    other.close_session(fresh).expect("close");
    server.shutdown();
}

/// A connection stalled **mid-frame** past the idle timeout is evicted;
/// a frame-aligned idle connection — a simulation between solver phases
/// — survives arbitrarily long.
#[test]
fn mid_frame_stalls_are_evicted_but_frame_aligned_idle_survives() {
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Duration::from_millis(150),
            ..ServerConfig::default()
        },
    )
    .expect("bind tcp");
    let addr = server.tcp_addr().unwrap();

    // The frame-aligned idler: a healthy session that will go quiet for
    // well past the timeout.
    let mut idler = Client::connect_tcp(addr).expect("connect");
    let spec = SessionSpec::new(
        "idler",
        IterParam::new(1, 4, 1).unwrap(),
        IterParam::new(0, 10, 1).unwrap(),
    );
    let session = idler.open_session(spec).expect("open");

    // The staller: two bytes of a length prefix, then silence.
    let mut staller = std::net::TcpStream::connect(addr).expect("connect raw");
    staller.write_all(&[0x10, 0x00]).expect("partial prefix");
    staller
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut sink = [0u8; 16];
    match staller.read(&mut sink) {
        Ok(0) => {}  // clean FIN from the sweep's teardown
        Err(_) => {} // or a reset — either proves the eviction
        Ok(n) => panic!("server sent {n} bytes to a stalled connection"),
    }

    // Far past the timeout, the frame-aligned connection still serves.
    std::thread::sleep(Duration::from_millis(400));
    assert!(
        idler.poll(session).is_ok(),
        "frame-aligned idle connection must never be timed out"
    );
    idler.close_session(session).expect("close");
    server.shutdown();
}

/// A peer that stops reading its replies is disconnected once its
/// outbuf cap is exceeded — bounded buffering, never OOM — and its
/// sessions are evicted like any other connection death. Runs over a
/// Unix socket, whose kernel buffers are small and fixed; TCP loopback
/// autotuning can absorb many megabytes before any pressure reaches
/// the server's outbuf.
#[test]
fn slow_readers_are_disconnected_at_the_outbuf_cap() {
    let path = unique_socket_path("slow-reader");
    let server = Server::bind_unix(
        &path,
        ServerConfig {
            outbuf_cap: 64 << 10,
            ..ServerConfig::default()
        },
    )
    .expect("bind unix");

    let mut slow = Client::connect_unix(&path).expect("connect");
    let spec = SessionSpec::new(
        "slow",
        IterParam::new(1, 4, 1).unwrap(),
        IterParam::new(0, 10, 1).unwrap(),
    );
    let orphan = slow.open_session(spec).expect("open");

    // Flood requests without ever reading a reply. The socket pair
    // absorbs a couple hundred KiB of replies; past that the server's
    // outbuf grows to the cap and the connection is torn down, which
    // surfaces here as a send error. The flood is sized so its replies
    // could never fit under the cap plus the kernel buffers, so an
    // error is the only way this loop ends early — and the eviction
    // check below is the authoritative pass/fail either way.
    const FLOOD: usize = 60_000;
    for _ in 0..FLOOD {
        if slow.send(&Frame::Poll { session: orphan }).is_err() {
            break;
        }
    }

    // The dead connection's session is evicted; the server stays healthy.
    let mut other = Client::connect_unix(&path).expect("connect");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match other.poll(orphan) {
            Err(_) => break,
            Ok(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Ok(_) => panic!("slow reader's session still addressable after 10s"),
        }
    }
    let fresh = other
        .open_session(SessionSpec::new(
            "fresh",
            IterParam::new(1, 4, 1).unwrap(),
            IterParam::new(0, 10, 1).unwrap(),
        ))
        .expect("open");
    other.close_session(fresh).expect("close");
    server.shutdown();
}

/// A session driven with a deep pipeline keeps per-session FIFO: every
/// ack comes back in step order and the served features stay
/// bit-identical to the in-process engine fed the same stream.
#[test]
fn pipelined_session_acks_in_order_and_matches_reference() {
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            inflight_limit: 32,
            ..ServerConfig::default()
        },
    )
    .expect("bind tcp");
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).expect("connect");

    let spec = || {
        let mut spec = SessionSpec::new(
            "hot",
            IterParam::new(1, 8, 1).unwrap(),
            IterParam::new(0, 600, 1).unwrap(),
        );
        spec.lag = 10;
        spec.retention = Retention::Window(64);
        spec
    };
    let session = client.open_session(spec()).expect("open");

    // Drive the session with a sliding window of 8 pipelined steps: deep
    // enough that several steps share a lane hand-off, shallow enough
    // (< inflight_limit) that no step is ever shed — shedding would break
    // the step order and the bit-identity this test pins.
    const STEPS: u64 = 600;
    const WINDOW: u64 = 8;
    let locations: Vec<u64> = (1..=8).collect();
    let values_at = |it: u64| -> Vec<f64> {
        locations
            .iter()
            .map(|&l| loadgen::pulse_value(1, it, l))
            .collect()
    };
    let mut next_send = 0u64;
    let mut acked = 0u64;
    while acked < STEPS {
        while next_send < STEPS && next_send - acked < WINDOW {
            client
                .send(&Frame::StepSamples {
                    session,
                    iteration: next_send,
                    locations: locations.clone(),
                    values: values_at(next_send),
                })
                .expect("send");
            next_send += 1;
        }
        match client.recv().expect("reply") {
            Frame::StepAck { iteration, .. } => {
                assert_eq!(iteration, acked, "acks must come back in step order");
                acked += 1;
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    let served = client.extract(session).expect("extract");

    // The in-process reference fed the identical stream.
    let mut reference = Session::open(&spec()).expect("reference open");
    for it in 0..STEPS {
        reference
            .step(it, &locations, &values_at(it))
            .expect("reference step");
    }
    assert_eq!(
        served,
        reference.extract(),
        "pipelining perturbed the served features"
    );
    client.close_session(session).expect("close");
    server.shutdown();
}

/// The subscription lifecycle: subscribe streams a change-log of feature
/// events, unsubscribe stops it, and a late subscriber gets one
/// catch-up event for already-converged features.
#[test]
fn subscriptions_stream_convergence_and_unsubscribe_stops_the_stream() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind tcp");
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).expect("connect");
    let mut spec = SessionSpec::new(
        "streamed",
        IterParam::new(1, 8, 1).unwrap(),
        IterParam::new(0, 400, 1).unwrap(),
    );
    spec.lag = 10;
    spec.retention = Retention::Window(64);
    let session = client.open_session(spec).expect("open");
    client.subscribe(session).expect("subscribe");
    assert!(client.take_events().is_empty(), "no features, no events");

    let locations: Vec<u64> = (1..=8).collect();
    for it in 0..200u64 {
        let values: Vec<f64> = locations
            .iter()
            .map(|&l| loadgen::pulse_value(3, it, l))
            .collect();
        client.step(session, it, &locations, &values).expect("step");
    }
    // The push for the final step trails that step's ack on the wire; a
    // poll round-trip flushes it into the stash before we compare.
    let mut events = client.take_events();
    client.poll(session).expect("poll");
    events.extend(client.take_events());
    assert!(
        !events.is_empty(),
        "200 steps of a travelling pulse never changed the features"
    );
    assert!(
        events.windows(2).all(|w| w[0].iteration < w[1].iteration),
        "events must arrive in iteration order"
    );
    for event in &events {
        assert_eq!(event.session, session);
        assert!(!event.features.is_empty());
    }
    // The last event is the session's current feature state.
    assert_eq!(
        events.last().unwrap().features,
        client.features(session).expect("features"),
    );

    // After unsubscribing, further steps push nothing.
    client.unsubscribe(session).expect("unsubscribe");
    client.take_events(); // discard anything queued before the ack
    for it in 200..300u64 {
        let values: Vec<f64> = locations
            .iter()
            .map(|&l| loadgen::pulse_value(3, it, l))
            .collect();
        client.step(session, it, &locations, &values).expect("step");
    }
    assert!(
        client.take_events().is_empty(),
        "unsubscribed sessions must not push"
    );

    // Re-subscribing late yields one catch-up event at the current
    // iteration (the features converged long ago).
    client.subscribe(session).expect("resubscribe");
    let status = client.poll(session).expect("poll");
    let catch_up = client.take_events();
    assert_eq!(
        catch_up.len(),
        1,
        "late subscriber gets exactly one catch-up"
    );
    assert_eq!(catch_up[0].iteration, status.iteration);
    client.close_session(session).expect("close");
    server.shutdown();
}

/// The connections ≫ client-threads path and subscribe-verify mode of
/// the load generator, together: every session on its own connection,
/// a few threads driving them, every per-session event stream checked
/// against the in-process engine's change-log.
#[test]
fn loadgen_verifies_event_streams_with_multiplexed_connections() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind tcp");
    let config = LoadgenConfig {
        sessions: 16,
        steps: 200,
        connections: 16,
        client_threads: 3,
        distinct: 5,
        subscribe: true,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&Target::Tcp(server.tcp_addr().unwrap()), &config).expect("load run");
    assert_eq!(report.verified, config.sessions);
    assert_eq!(report.connections, 16);
    assert_eq!(report.client_threads, 3);
    assert!(
        report.feature_events > 0,
        "a 200-step pulse workload must push feature events"
    );
    server.shutdown();
}

/// Session ids are per-server-lifetime unique, and a windowed retention
/// session streams far past its window with bounded history — the
/// memory-bound claim behind thousand-session runs.
#[test]
fn windowed_sessions_stream_far_past_their_window() {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind tcp");
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).expect("connect");
    let mut spec = SessionSpec::new(
        "windowed",
        IterParam::new(1, 8, 1).unwrap(),
        IterParam::new(0, 5000, 1).unwrap(),
    );
    spec.retention = Retention::Window(32);
    spec.lag = 10;
    let session = client.open_session(spec).expect("open");
    let locations: Vec<u64> = (1..=8).collect();
    for it in 0..2000u64 {
        let values: Vec<f64> = locations
            .iter()
            .map(|&l| loadgen::pulse_value(3, it, l))
            .collect();
        client.step(session, it, &locations, &values).expect("step");
    }
    let status = client.poll(session).expect("poll");
    assert_eq!(status.iteration, 1999);
    assert_eq!(status.samples_collected, 2000 * 8);
    client.close_session(session).expect("close");
    server.shutdown();
}

type Features = Vec<(String, insitu::region::FeatureValue)>;

/// The traffic of the burst tests below: loadgen sessions of `bursts`
/// steps, session `at` of a connection replaying pulse seed `at % 8`.
fn burst_config(bursts: u64) -> LoadgenConfig {
    LoadgenConfig {
        steps: bursts,
        ..LoadgenConfig::default()
    }
}

fn burst_values(config: &LoadgenConfig, at: usize, it: u64) -> Vec<f64> {
    (1..=config.locations as u64)
        .map(|l| loadgen::pulse_value((at % 8) as u64, it, l))
        .collect()
}

/// Opens `sessions` sessions on `client` for `bursts` steps each.
fn open_bursts(client: &mut Client, sessions: usize, bursts: u64) -> Vec<u64> {
    (0..sessions)
        .map(|_| {
            client
                .open_session(burst_config(bursts).session_spec())
                .expect("open")
        })
        .collect()
}

/// Steps `ids` through every burst, then returns their features.
fn step_bursts(client: &mut Client, ids: &[u64], bursts: u64) -> Vec<Features> {
    let config = burst_config(bursts);
    let locations: Vec<u64> = (1..=config.locations as u64).collect();
    for it in 0..bursts {
        let bounced = client
            .step_burst(ids, it, &locations, |session| {
                let at = ids.iter().position(|&s| s == session).expect("own session");
                burst_values(&config, at, it)
            })
            .expect("burst");
        assert_eq!(
            bounced, 0,
            "one step a session never reaches the inflight limit"
        );
    }
    ids.iter()
        .map(|&id| client.extract(id).expect("extract"))
        .collect()
}

/// Checks every session against an in-process session fed its stream.
fn assert_bursts_match_references(served: &[Features], bursts: u64) {
    let config = burst_config(bursts);
    let locations: Vec<u64> = (1..=config.locations as u64).collect();
    for (at, got) in served.iter().enumerate() {
        let mut reference = Session::open(&config.session_spec()).expect("reference open");
        for it in 0..bursts {
            reference
                .step(it, &locations, &burst_values(&config, at, it))
                .expect("reference step");
        }
        assert_eq!(
            *got,
            reference.extract(),
            "session {at} differs from its reference"
        );
    }
}

/// Two connections stepping identical bursts on a two-lane server, each
/// connection's sessions on its own lane: every session equals its
/// in-process reference.
#[test]
fn bursts_from_two_connections_match_references() {
    const SESSIONS: usize = 32;
    const BURSTS: u64 = 240;
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind tcp");
    let addr = server.tcp_addr().expect("tcp addr");
    let served: Vec<Vec<Features>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect_tcp(addr).expect("connect");
                    let ids = open_bursts(&mut client, SESSIONS, BURSTS);
                    step_bursts(&mut client, &ids, BURSTS)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    server.shutdown();
    for features in &served {
        assert_bursts_match_references(features, BURSTS);
    }
}

/// A burst from one connection is served by its one lane and answered by
/// one socket write.
#[test]
fn a_burst_on_one_connection_is_answered_in_one_write() {
    const SESSIONS: usize = 32;
    const BURSTS: u64 = 200;
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind tcp");
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).expect("connect");
    // Each open is a round trip of its own: count from the first burst.
    let ids = open_bursts(&mut client, SESSIONS, BURSTS);
    let before = server.reply_writes();
    let served = step_bursts(&mut client, &ids, BURSTS);
    // The extracts are `SESSIONS` more lock-step replies.
    let writes = server.reply_writes() - before - SESSIONS as u64;
    let per_burst = writes as f64 / BURSTS as f64;
    assert!(
        per_burst <= 1.25,
        "{writes} reply writes for {BURSTS} bursts ({per_burst:.2} a burst)"
    );
    server.shutdown();
    assert_bursts_match_references(&served, BURSTS);
}

/// Other connections may address a session that one connection owns and
/// is stepping. Three more connections keep polling the owner's sessions
/// while it bursts: every poll must find its session (none may come back
/// `UnknownSession`), and the polls must not perturb the served features.
#[test]
fn sessions_polled_from_other_connections_stay_addressable() {
    const SESSIONS: usize = 32;
    const BURSTS: u64 = 240;
    const POLLERS: usize = 3;
    /// Stops the pollers however stepping ends: a failed step must not
    /// leave the scope waiting on them forever.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(false, Ordering::Relaxed);
        }
    }
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind tcp");
    let addr = server.tcp_addr().expect("tcp addr");
    let mut owner = Client::connect_tcp(addr).expect("connect");
    let ids = open_bursts(&mut owner, SESSIONS, BURSTS);
    let stepping = AtomicBool::new(true);
    let served = std::thread::scope(|scope| {
        let pollers: Vec<_> = (0..POLLERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect_tcp(addr).expect("connect");
                    let mut polls = 0u64;
                    // Four pipelined polls a session per round: the
                    // poller's event thread routes many in one readiness
                    // batch, interleaved on the lane with the owner's
                    // steps.
                    let round = 4 * ids.len();
                    while stepping.load(Ordering::Relaxed) {
                        for &session in ids.iter().cycle().take(round) {
                            client.send(&Frame::Poll { session }).expect("send poll");
                        }
                        for _ in 0..round {
                            match client.recv().expect("poll reply") {
                                Frame::Status { .. } => polls += 1,
                                other => panic!("a poll of a live session got {other:?}"),
                            }
                        }
                    }
                    polls
                })
            })
            .collect();
        let stop = StopOnDrop(&stepping);
        let served = step_bursts(&mut owner, &ids, BURSTS);
        drop(stop);
        for poller in pollers {
            assert!(poller.join().expect("poller") > 0, "a poller never polled");
        }
        served
    });
    server.shutdown();
    assert_bursts_match_references(&served, BURSTS);
}
