//! The proxy-workload load generator behind the `loadgen` binary.
//!
//! Replays a travelling-pulse workload — the same shape the proxy
//! applications feed the in-process engine — over many concurrent
//! sessions of a running server, measuring sustained session-steps per
//! second. Each session is assigned one of a small set of *distinct*
//! workload seeds; in verify mode the features served over the wire are
//! compared against an in-process engine fed the identical stream, so a
//! load run doubles as a bit-identity check under real concurrency.
//!
//! Sessions run with [`Retention::Window`], which is what bounds a
//! session's memory when it streams indefinitely: the sample history is a
//! fixed ring, the mini-batch pool recycles, and the trainer state is
//! O(model order) — so thousands of concurrent sessions hold steady-state
//! memory proportional to `sessions × window`, not `sessions × steps`.

use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use insitu::collect::Retention;
use insitu::region::FeatureValue;
use insitu::telemetry::Histogram;
use insitu::IterParam;

use crate::client::Client;
use crate::fault::{self, FaultPlan};
use crate::session::Session;
use crate::wire::{SessionSpec, SessionTelemetry, StageStats};

/// Where the target server listens.
#[derive(Debug, Clone)]
pub enum Target {
    /// A TCP address.
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Target {
    fn connect(&self) -> std::io::Result<Client> {
        match self {
            Target::Tcp(addr) => Client::connect_tcp(*addr),
            Target::Unix(path) => Client::connect_unix(path),
        }
    }
}

/// Workload shape and scale.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent sessions to open.
    pub sessions: usize,
    /// Steps to stream into every session.
    pub steps: u64,
    /// Locations sampled per step (the spatial characteristic is
    /// `1..=locations`).
    pub locations: usize,
    /// Client connections to spread the sessions over.
    pub connections: usize,
    /// Distinct workload seeds; session `s` replays seed `s % distinct`.
    pub distinct: usize,
    /// Sample-history window bounding per-session memory.
    pub window: usize,
    /// Compare every session's served features against an in-process
    /// engine fed the identical stream.
    pub verify: bool,
    /// Threads driving the connections; `0` means one thread per
    /// connection. With fewer threads than connections each thread
    /// drives its group of connections round-robin within every
    /// iteration — how a handful of client threads exercises thousands
    /// of server connections (the connections ≫ threads rung).
    pub client_threads: usize,
    /// Subscribe every session and (in verify mode) check the
    /// server-pushed [`FeatureEvent`](crate::client::FeatureEvent)
    /// change-log against the in-process engine's, event for event.
    pub subscribe: bool,
    /// Fetch every session's telemetry (`Stats` frames) before closing
    /// and aggregate a fleet-wide per-stage latency table into
    /// [`LoadgenReport::stats`].
    pub stats: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            sessions: 64,
            steps: 120,
            locations: 8,
            connections: 4,
            distinct: 16,
            window: 64,
            verify: true,
            client_threads: 0,
            subscribe: false,
            stats: false,
        }
    }
}

impl LoadgenConfig {
    /// The session spec every loadgen session opens (seed-independent;
    /// the seed varies the sample values, not the analysis).
    pub fn session_spec(&self) -> SessionSpec {
        let mut spec = SessionSpec::new(
            "loadgen",
            IterParam::new(1, self.locations as u64, 1).expect("valid spatial range"),
            IterParam::new(0, self.steps.max(1) - 1, 1).expect("valid temporal range"),
        );
        spec.lag = 10;
        spec.retention = Retention::Window(self.window);
        spec
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Sessions that ran.
    pub sessions: usize,
    /// Connections the sessions were spread over (after clamping).
    pub connections: usize,
    /// Client threads that drove the connections (after resolving the
    /// `0 = thread-per-connection` default).
    pub client_threads: usize,
    /// Steps streamed into each session.
    pub steps: u64,
    /// Wall-clock nanoseconds of the stepping phase (opens, extraction
    /// and closes excluded).
    pub elapsed_ns: u128,
    /// Sustained throughput: `sessions * steps / elapsed`.
    pub session_steps_per_sec: f64,
    /// `Busy` bounces absorbed — how often backpressure shed a step.
    pub busy_bounces: u64,
    /// Sessions whose served features matched the in-process reference
    /// exactly (only populated in verify mode).
    pub verified: usize,
    /// Server-pushed feature events received (only populated when
    /// [`LoadgenConfig::subscribe`] is set).
    pub feature_events: u64,
    /// Fleet-wide per-stage latency aggregate, merged from every
    /// session's `Stats` reply (only populated when
    /// [`LoadgenConfig::stats`] is set).
    pub stats: Option<FleetStats>,
}

/// A fleet-wide telemetry aggregate: every session's per-stage latency
/// statistics merged bucket-by-bucket, so the table loadgen prints
/// describes the whole run rather than one lucky session.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Sessions whose telemetry was merged in.
    pub sessions: usize,
    /// Total overload sheds across the fleet.
    pub sheds: u64,
    /// Cumulative measured pipeline cost across the fleet, in ns.
    pub budget_used_ns: u64,
    /// Merged per-stage statistics, in stage-discriminant order.
    pub stages: Vec<StageStats>,
}

impl FleetStats {
    /// Folds one session's telemetry into the aggregate.
    pub fn absorb(&mut self, telemetry: &SessionTelemetry) {
        self.sessions += 1;
        self.sheds += telemetry.sheds;
        self.budget_used_ns += telemetry.budget_used_ns;
        for stage in &telemetry.stages {
            self.merge_stage(stage);
        }
    }

    /// Merges another aggregate (e.g. from a different client thread).
    pub fn merge(&mut self, other: &FleetStats) {
        self.sessions += other.sessions;
        self.sheds += other.sheds;
        self.budget_used_ns += other.budget_used_ns;
        for stage in &other.stages {
            self.merge_stage(stage);
        }
    }

    fn merge_stage(&mut self, stage: &StageStats) {
        match self.stages.iter_mut().find(|s| s.stage == stage.stage) {
            Some(merged) => {
                merged.count += stage.count;
                merged.total_ns += stage.total_ns;
                merged.max_ns = merged.max_ns.max(stage.max_ns);
                if merged.buckets.len() < stage.buckets.len() {
                    merged.buckets.resize(stage.buckets.len(), 0);
                }
                for (slot, &bucket) in merged.buckets.iter_mut().zip(&stage.buckets) {
                    *slot += bucket;
                }
            }
            None => {
                self.stages.push(stage.clone());
                self.stages.sort_by_key(|s| s.stage);
            }
        }
    }

    /// Renders the fleet stage-latency table the `--stats` smoke prints.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet telemetry: {} sessions, {} sheds, {:.3} ms total pipeline cost\n",
            self.sessions,
            self.sheds,
            self.budget_used_ns as f64 / 1e6
        ));
        out.push_str(&format!(
            "{:<10} {:>10} {:>12} {:>12} {:>12} {:>12}\n",
            "stage", "events", "mean us", "p50 us", "p99 us", "max us"
        ));
        // Quantiles follow `Histogram::quantile_ns`: a bucket bound, clamped
        // to the stage's max.
        let quantile_us = |stage: &StageStats, q: f64| {
            Histogram::quantile_of_buckets(&stage.buckets, stage.max_ns, q) as f64 / 1e3
        };
        for stage in &self.stages {
            let name =
                insitu::telemetry::Stage::from_u8(stage.stage).map_or("unknown", |s| s.name());
            let mean_us = if stage.count == 0 {
                0.0
            } else {
                stage.total_ns as f64 / stage.count as f64 / 1e3
            };
            out.push_str(&format!(
                "{:<10} {:>10} {:>12.2} {:>12.2} {:>12.2} {:>12.2}\n",
                name,
                stage.count,
                mean_us,
                quantile_us(stage, 0.50),
                quantile_us(stage, 0.99),
                stage.max_ns as f64 / 1e3,
            ));
        }
        out
    }
}

/// Runs the workload against a server hosted **in this process** on an
/// ephemeral TCP port: binds, runs, shuts the server down (joining every
/// session), and returns the report. This is the path the benchmark and
/// smoke binaries use — no external daemon to coordinate.
pub fn run_self_hosted(
    config: &LoadgenConfig,
    server: crate::server::ServerConfig,
) -> Result<LoadgenReport, String> {
    let hosted =
        crate::server::Server::bind_tcp("127.0.0.1:0", server).map_err(|e| e.to_string())?;
    let addr = hosted.tcp_addr().ok_or("server has no TCP address")?;
    let report = run(&Target::Tcp(addr), config);
    hosted.shutdown();
    report
}

/// Like [`run_self_hosted`], but over a Unix-domain socket on a fresh
/// temp path — the CI smoke uses both entry points so each transport's
/// accept/register/teardown path stays exercised.
pub fn run_self_hosted_unix(
    config: &LoadgenConfig,
    server: crate::server::ServerConfig,
) -> Result<LoadgenReport, String> {
    let path = std::env::temp_dir().join(format!(
        "insitu-loadgen-{}-{:x}.sock",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos())
    ));
    let hosted = crate::server::Server::bind_unix(&path, server).map_err(|e| e.to_string())?;
    let report = run(&Target::Unix(path), config);
    hosted.shutdown();
    report
}

/// Renders the `BENCH_service.json` artifact for a ladder: one case per
/// rung, each given as its repeated runs. A case records the run with the
/// median session-steps/sec, the repeat count, and the slowest and the
/// fastest run's rate as its spread.
///
/// # Panics
///
/// If a rung has no runs.
pub fn render_json(workload: &LoadgenConfig, rungs: &[Vec<LoadgenReport>]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n");
    json.push_str(
        "  \"benchmark\": \"wire-served session multiplexing, sustained session-steps/sec\",\n",
    );
    json.push_str(&format!(
        "  \"workload\": {{\"steps\": {}, \"locations\": {}, \"window\": {}, \"distinct\": {}, \"verify\": {}}},\n",
        workload.steps, workload.locations, workload.window, workload.distinct, workload.verify
    ));
    json.push_str(&format!("  \"available_parallelism\": {cores},\n"));
    json.push_str(
        "  \"note\": \"recorded on the host named by the parallelism field above; each case \
         is the median of its repeats, with the slowest and fastest run's rate; on a 1-core \
         host the ladder is concurrency-starved and perf_smoke skips its service-throughput \
         floor instead of comparing against it\",\n",
    );
    json.push_str(&format!(
        "  \"kernels\": \"{}\",\n",
        insitu::kernels::active()
    ));
    json.push_str("  \"cases\": [\n");
    for (i, runs) in rungs.iter().enumerate() {
        let mut sorted: Vec<&LoadgenReport> = runs.iter().collect();
        sorted.sort_by(|a, b| a.session_steps_per_sec.total_cmp(&b.session_steps_per_sec));
        let (Some(slowest), Some(fastest)) = (sorted.first(), sorted.last()) else {
            panic!("rung {i} has no runs");
        };
        let r = sorted[sorted.len() / 2];
        json.push_str(&format!(
            "    {{\"sessions\": {}, \"connections\": {}, \"client_threads\": {}, \"elapsed_ns\": {}, \"busy_bounces\": {}, \"verified\": {}, \"repeats\": {}, \"steps_per_sec\": {:.1}, \"steps_per_sec_min\": {:.1}, \"steps_per_sec_max\": {:.1}}}{}\n",
            r.sessions,
            r.connections,
            r.client_threads,
            r.elapsed_ns,
            r.busy_bounces,
            r.verified,
            runs.len(),
            r.session_steps_per_sec,
            slowest.session_steps_per_sec,
            fastest.session_steps_per_sec,
            if i + 1 < rungs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// What one chaos run survived. Every count is a fault the run both
/// injected and proved recovery from; `verified` is the end-state check
/// that survival was *bit-identical* to an undisturbed run, not merely
/// "didn't crash".
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Sessions that were killed, resurrected (twice) and verified.
    pub sessions: usize,
    /// Steps each session's stream spanned, interruptions included.
    pub steps: u64,
    /// Abrupt connection deaths survived via snapshot/restore.
    pub connection_kills: usize,
    /// Full server-process replacements survived via snapshot/restore.
    pub server_restarts: usize,
    /// Damaged snapshot blobs (truncated, bit-flipped) the server
    /// rejected whole instead of restoring silently-wrong state.
    pub hostile_rejections: usize,
    /// Deliberately poisoned sessions evicted with a typed error while
    /// their lane kept serving.
    pub evicted: usize,
    /// Sessions whose post-chaos features matched the uninterrupted
    /// in-process reference bit for bit.
    pub verified: usize,
}

/// The chaos harness: one deterministic gauntlet of every fault the
/// robustness layer claims to survive, run against a server hosted in
/// this process.
///
/// The session streams are interrupted at two step boundaries: first the
/// client connection is killed abruptly (sessions evicted server-side,
/// resurrected from snapshots over a retried reconnect), then the whole
/// server is torn down and replaced (only the blobs survive). Between
/// resurrections the fresh server is attacked with a mid-frame-truncated
/// connection, an unframeable-garbage connection, damaged snapshot
/// blobs, and a session poisoned to panic mid-step — each of which must
/// be contained (torn down / rejected / evicted) without disturbing the
/// real sessions. Finally every surviving session's features must equal
/// the uninterrupted in-process reference exactly.
///
/// The poisoned-session leg arms the process-global [`crate::fault`]
/// plan for a session name only this harness uses, and disarms it
/// before returning.
pub fn run_chaos(
    config: &LoadgenConfig,
    server: crate::server::ServerConfig,
) -> Result<ChaosReport, String> {
    assert!(config.sessions > 0 && config.steps >= 3);
    let distinct = config.distinct.clamp(1, config.sessions);
    let references: Vec<Reference> = (0..distinct as u64)
        .map(|seed| reference_run(config, seed))
        .collect::<Result<_, _>>()?;
    let locations: Vec<u64> = (1..=config.locations as u64).collect();
    let seeds: Vec<u64> = (0..config.sessions)
        .map(|s| (s % distinct) as u64)
        .collect();
    let deadline = Some(Duration::from_secs(60));

    let first =
        crate::server::Server::bind_tcp("127.0.0.1:0", server).map_err(|e| e.to_string())?;
    let addr = first.tcp_addr().ok_or("server has no TCP address")?;
    let mut client = Client::connect_tcp(addr).map_err(|e| e.to_string())?;
    client.set_timeout(deadline).map_err(|e| e.to_string())?;
    let mut ids = Vec::with_capacity(config.sessions);
    for _ in 0..config.sessions {
        ids.push(
            client
                .open_session(config.session_spec())
                .map_err(|e| e.to_string())?,
        );
    }

    let first_cut = config.steps / 3;
    let second_cut = 2 * config.steps / 3;
    chaos_drive(&mut client, &ids, &seeds, &locations, 0..first_cut)?;

    // Fault: the client connection dies abruptly with sessions live
    // (server-side they are evicted). Resurrect over a retried
    // reconnect.
    let blobs = chaos_snapshot(&mut client, &ids)?;
    drop(client);
    let mut client = Client::connect_tcp_retry(addr, 64).map_err(|e| e.to_string())?;
    client.set_timeout(deadline).map_err(|e| e.to_string())?;
    ids = chaos_restore(&mut client, config, &blobs)?;

    chaos_drive(&mut client, &ids, &seeds, &locations, first_cut..second_cut)?;

    // Fault: the whole server process is replaced; only the blobs
    // survive the crash.
    let blobs = chaos_snapshot(&mut client, &ids)?;
    drop(client);
    first.shutdown();
    let second =
        crate::server::Server::bind_tcp("127.0.0.1:0", server).map_err(|e| e.to_string())?;
    let addr = second.tcp_addr().ok_or("server has no TCP address")?;
    let mut client = Client::connect_tcp_retry(addr, 64).map_err(|e| e.to_string())?;
    client.set_timeout(deadline).map_err(|e| e.to_string())?;

    // Hostile connections: a frame truncated mid-body, then an
    // unframeable byte stream. Both are sacrificial — the server tears
    // them down; the proof that nothing else was disturbed is that the
    // real restores below succeed.
    {
        let mut raw = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
        raw.write_all(&[64, 0, 0, 0, 0x02, 1, 2, 3])
            .map_err(|e| e.to_string())?;
        drop(raw);
        let mut raw = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let _ = raw.write_all(&[0xff; 16]);
        drop(raw);
    }

    // Hostile blobs: truncated and bit-flipped snapshots must be
    // rejected whole.
    let mut hostile_rejections = 0;
    let mut truncated = blobs[0].clone();
    truncated.truncate(truncated.len() / 2);
    if client.restore(config.session_spec(), truncated).is_err() {
        hostile_rejections += 1;
    } else {
        return Err("a truncated snapshot blob was restored".into());
    }
    let mut corrupt = blobs[0].clone();
    let at = corrupt.len() / 2;
    corrupt[at] ^= 0x20;
    if client.restore(config.session_spec(), corrupt).is_err() {
        hostile_rejections += 1;
    } else {
        return Err("a bit-flipped snapshot blob was restored".into());
    }

    // A poisoned session: panics mid-step, must be evicted with a typed
    // error while the connection (and everything else) keeps working.
    // The panic is deliberate, so its backtrace is noise: silence the
    // hook for the duration of this leg.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    fault::arm(FaultPlan {
        panic_session: Some("chaos-poison".into()),
        ..FaultPlan::default()
    });
    let mut poison_spec = config.session_spec();
    poison_spec.name = "chaos-poison".into();
    let doomed = client
        .open_session(poison_spec)
        .map_err(|e| e.to_string())?;
    let values: Vec<f64> = locations.iter().map(|&l| pulse_value(0, 0, l)).collect();
    let evicted = match client.step(doomed, 0, &locations, &values) {
        Err(_) if client.poll(doomed).is_err() => 1,
        _ => {
            fault::disarm();
            std::panic::set_hook(default_hook);
            return Err("the poisoned session was not evicted".into());
        }
    };
    fault::disarm();
    std::panic::set_hook(default_hook);

    // Resurrect the real sessions on the replacement server and finish
    // the streams.
    ids = chaos_restore(&mut client, config, &blobs)?;
    chaos_drive(
        &mut client,
        &ids,
        &seeds,
        &locations,
        second_cut..config.steps,
    )?;

    let mut verified = 0;
    for (at, &id) in ids.iter().enumerate() {
        let features = client.extract(id).map_err(|e| e.to_string())?;
        if features == references[seeds[at] as usize].features {
            verified += 1;
        } else {
            return Err(format!(
                "session {id} (seed {}) diverged from the uninterrupted reference after chaos",
                seeds[at]
            ));
        }
        client.close_session(id).map_err(|e| e.to_string())?;
    }
    second.shutdown();
    Ok(ChaosReport {
        sessions: config.sessions,
        steps: config.steps,
        connection_kills: 1,
        server_restarts: 1,
        hostile_rejections,
        evicted,
        verified,
    })
}

fn chaos_drive(
    client: &mut Client,
    ids: &[u64],
    seeds: &[u64],
    locations: &[u64],
    range: std::ops::Range<u64>,
) -> Result<(), String> {
    for it in range {
        for (at, &id) in ids.iter().enumerate() {
            let values: Vec<f64> = locations
                .iter()
                .map(|&l| pulse_value(seeds[at], it, l))
                .collect();
            client
                .step(id, it, locations, &values)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn chaos_snapshot(client: &mut Client, ids: &[u64]) -> Result<Vec<Vec<u8>>, String> {
    ids.iter()
        .map(|&id| client.snapshot(id).map_err(|e| e.to_string()))
        .collect()
}

fn chaos_restore(
    client: &mut Client,
    config: &LoadgenConfig,
    blobs: &[Vec<u8>],
) -> Result<Vec<u64>, String> {
    blobs
        .iter()
        .map(|blob| {
            client
                .restore(config.session_spec(), blob.clone())
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The travelling-pulse sample value for one (seed, iteration, location).
/// A front crosses the domain at a seed-dependent speed, which makes the
/// delay-time feature land at seed-dependent iterations — distinct seeds
/// really are distinct workloads.
pub fn pulse_value(seed: u64, iteration: u64, location: u64) -> f64 {
    let speed = 0.06 + 0.01 * (seed % 7) as f64;
    let offset = (seed % 5) as f64;
    ((iteration as f64) * speed - location as f64 - offset).tanh() + 1.0
}

/// Runs the workload against `target`. Returns an error string suitable
/// for process exit on connection or protocol failures.
///
/// Three barrier-separated phases keep the measurement honest: every
/// connection first opens (and, in subscribe mode, subscribes) its
/// sessions, then all client threads step their connections in
/// lockstep-started (but individually free-running) bursts — only this
/// phase is timed — then features are extracted, verified and the
/// sessions closed.
pub fn run(target: &Target, config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    assert!(config.sessions > 0 && config.steps > 0);
    let connections = config.connections.clamp(1, config.sessions);
    let threads = if config.client_threads == 0 {
        connections
    } else {
        config.client_threads.clamp(1, connections)
    };
    let distinct = config.distinct.clamp(1, config.sessions);

    // In-process references, one per distinct seed, computed up front so
    // the timed phase measures only the wire path.
    let references: Vec<Reference> = if config.verify {
        (0..distinct as u64)
            .map(|seed| reference_run(config, seed))
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };

    // One extra party: the main thread, which brackets the stepping phase
    // with the two barriers to time it.
    let opened = Barrier::new(threads + 1);
    let stepped = Barrier::new(threads + 1);
    let mut elapsed_ns = 0u128;

    let results: Vec<Result<(u64, usize, u64, FleetStats), String>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for thread_index in 0..threads {
            let conn_lo =
                thread_index * (connections / threads) + thread_index.min(connections % threads);
            let conn_count =
                connections / threads + usize::from(thread_index < connections % threads);
            let (target, references) = (&*target, &references);
            let (opened, stepped) = (&opened, &stepped);
            handles.push(scope.spawn(move || {
                drive_group(
                    target,
                    config,
                    conn_lo,
                    conn_count,
                    connections,
                    distinct,
                    references,
                    opened,
                    stepped,
                )
            }));
        }
        opened.wait();
        let started = Instant::now();
        stepped.wait();
        elapsed_ns = started.elapsed().as_nanos();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen thread"))
            .collect()
    });

    let mut busy_bounces = 0;
    let mut verified = 0;
    let mut feature_events = 0;
    let mut fleet = FleetStats::default();
    for result in results {
        let (bounced, ok, events, stats) = result?;
        busy_bounces += bounced;
        verified += ok;
        feature_events += events;
        fleet.merge(&stats);
    }
    let session_steps = (config.sessions as u64 * config.steps) as f64;
    Ok(LoadgenReport {
        sessions: config.sessions,
        connections,
        client_threads: threads,
        steps: config.steps,
        elapsed_ns,
        session_steps_per_sec: session_steps / (elapsed_ns.max(1) as f64 / 1e9),
        busy_bounces,
        verified,
        feature_events,
        stats: config.stats.then_some(fleet),
    })
}

/// Everything a seed's wire sessions are checked against: the final
/// extracted features, and — in subscribe mode — the change-log of
/// feature events a subscribed connection must observe (one entry per
/// step whose non-forcing features differed from the last entry, which
/// is exactly the server's push condition).
struct Reference {
    features: Vec<(String, FeatureValue)>,
    events: Vec<(u64, Vec<(String, FeatureValue)>)>,
}

fn reference_run(config: &LoadgenConfig, seed: u64) -> Result<Reference, String> {
    let mut session = Session::open(&config.session_spec())?;
    let locations: Vec<u64> = (1..=config.locations as u64).collect();
    let mut values = vec![0.0; locations.len()];
    let mut events: Vec<(u64, Vec<(String, FeatureValue)>)> = Vec::new();
    for it in 0..config.steps {
        for (slot, &l) in values.iter_mut().zip(&locations) {
            *slot = pulse_value(seed, it, l);
        }
        session.step(it, &locations, &values)?;
        if config.subscribe {
            let now = session.features();
            if !now.is_empty() && events.last().is_none_or(|(_, last)| last != &now) {
                events.push((it, now));
            }
        }
    }
    Ok(Reference {
        features: session.extract(),
        events,
    })
}

/// One connection a client thread drives, with its sessions and their
/// global workload indices (which determine the seeds).
struct Conn {
    client: Client,
    sessions: Vec<u64>,
    seeds: Vec<u64>,
}

#[allow(clippy::too_many_arguments)]
fn drive_group(
    target: &Target,
    config: &LoadgenConfig,
    conn_lo: usize,
    conn_count: usize,
    connections: usize,
    distinct: usize,
    references: &[Reference],
    opened: &Barrier,
    stepped: &Barrier,
) -> Result<(u64, usize, u64, FleetStats), String> {
    // The session count and global base index of connection `c`: sessions
    // are dealt out as evenly as possible, in connection order, so the
    // seed mix is stable whatever the connection and thread counts.
    let sessions_of =
        |c: usize| config.sessions / connections + usize::from(c < config.sessions % connections);
    let base_of =
        |c: usize| c * (config.sessions / connections) + c.min(config.sessions % connections);

    // Whatever happens, both barriers must be reached or the other
    // threads (and the timing thread) would deadlock.
    let setup = (|| -> Result<Vec<Conn>, String> {
        let mut conns = Vec::with_capacity(conn_count);
        for c in conn_lo..conn_lo + conn_count {
            let mut client = target.connect().map_err(|e| e.to_string())?;
            let count = sessions_of(c);
            let mut sessions = Vec::with_capacity(count);
            let mut seeds = Vec::with_capacity(count);
            for i in 0..count {
                let id = client
                    .open_session(config.session_spec())
                    .map_err(|e| e.to_string())?;
                if config.subscribe {
                    client.subscribe(id).map_err(|e| e.to_string())?;
                }
                sessions.push(id);
                seeds.push(((base_of(c) + i) % distinct) as u64);
            }
            conns.push(Conn {
                client,
                sessions,
                seeds,
            });
        }
        Ok(conns)
    })();
    opened.wait();
    let mut conns = match setup {
        Ok(ready) => ready,
        Err(e) => {
            stepped.wait();
            return Err(e);
        }
    };

    let locations: Vec<u64> = (1..=config.locations as u64).collect();
    let stepping = (|| -> Result<u64, String> {
        let mut bounced = 0;
        for it in 0..config.steps {
            for conn in &mut conns {
                let (sessions, seeds) = (&conn.sessions, &conn.seeds);
                bounced += conn
                    .client
                    .step_burst(sessions, it, &locations, |session| {
                        let at = sessions.iter().position(|&s| s == session).unwrap_or(0);
                        let seed = seeds[at];
                        locations
                            .iter()
                            .map(|&l| pulse_value(seed, it, l))
                            .collect()
                    })
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(bounced)
    })();
    stepped.wait();
    let bounced = stepping?;

    let mut verified = 0;
    let mut feature_events = 0u64;
    let mut fleet = FleetStats::default();
    for conn in &mut conns {
        for (at, &session) in conn.sessions.iter().enumerate() {
            let features = conn.client.extract(session).map_err(|e| e.to_string())?;
            if config.verify {
                let seed = conn.seeds[at] as usize;
                if features == references[seed].features {
                    verified += 1;
                } else {
                    return Err(format!(
                        "session {session} (seed {seed}) diverged from the in-process reference"
                    ));
                }
            }
            if config.stats {
                let telemetry = conn.client.stats(session).map_err(|e| e.to_string())?;
                fleet.absorb(&telemetry);
            }
            conn.client
                .close_session(session)
                .map_err(|e| e.to_string())?;
        }
        if config.subscribe {
            // Every step's push precedes that session's extract reply on
            // the wire, so by now the stash holds the complete event
            // stream for each of this connection's sessions.
            let events = conn.client.take_events();
            feature_events += events.len() as u64;
            if config.verify {
                for (at, &session) in conn.sessions.iter().enumerate() {
                    let observed: Vec<(u64, Vec<(String, FeatureValue)>)> = events
                        .iter()
                        .filter(|e| e.session == session)
                        .map(|e| (e.iteration, e.features.clone()))
                        .collect();
                    let expected = &references[conn.seeds[at] as usize].events;
                    if &observed != expected {
                        return Err(format!(
                            "session {session} (seed {}) pushed {} feature events, expected {} — \
                             the server-push change-log diverged from the in-process engine",
                            conn.seeds[at],
                            observed.len(),
                            expected.len(),
                        ));
                    }
                }
            }
        }
    }
    Ok((bounced, verified, feature_events, fleet))
}
