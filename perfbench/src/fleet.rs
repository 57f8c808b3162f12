//! The served-fleet workload: a self-hosted TCP server driven closed-loop
//! by one client thread per core, each stepping its sessions through
//! `step_burst` and checkpointing them. Every session's features are
//! checked against an in-process reference.
//!
//! The traffic is `LoadgenConfig::default()`, the shape of the repository's
//! own `loadgen`: 64 sessions of 120 steps over 8 locations, dealt from 16
//! distinct pulse streams, with lag 10 and `Window(64)`. Its sessions are
//! split evenly over one connection per client thread. Each session is
//! checkpointed where `loadgen::run_chaos` checkpoints its fleet: after a
//! third and after two thirds of its steps.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use insitu::region::FeatureValue;
use serve::loadgen::{pulse_value, LoadgenConfig};
use serve::session::Session;
use serve::{Client, Frame, Server, ServerConfig, SessionSpec};

use crate::layers;
use crate::report::Report;
use crate::stats::{self, median, ns_since, pct, per, percentile, Calibration};
use crate::Opts;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// Bursts a window of the step-latency percentiles needs: a p99 with ten
/// samples beyond it.
const WINDOW_BURSTS: usize = 1_000;

/// The `loadgen` traffic every run replays.
fn traffic() -> LoadgenConfig {
    LoadgenConfig::default()
}

fn steps() -> u64 {
    traffic().steps
}

/// Whether every session is checkpointed once step `it` is done.
fn checkpoint_after(it: u64) -> bool {
    let done = it + 1;
    done == steps() / 3 || done == 2 * steps() / 3
}

/// Session lifetimes per summary window.
fn window_rounds() -> usize {
    WINDOW_BURSTS.div_ceil(steps() as usize)
}

fn locations() -> Vec<u64> {
    (1..=traffic().locations as u64).collect()
}

fn values(seed: u64, iteration: u64, locations: &[u64]) -> Vec<f64> {
    locations
        .iter()
        .map(|&l| pulse_value(seed, iteration, l))
        .collect()
}

type Features = Vec<(String, FeatureValue)>;

/// One in-process session replaying a pulse stream: its features, the
/// nanoseconds spent in `Session::step`, and in-process checkpoint times.
fn replay(
    spec: &SessionSpec,
    seed: u64,
    checkpoints: &mut Vec<f64>,
) -> Result<(Features, u64), String> {
    let mut session = Session::open(spec)?;
    let locations = locations();
    let mut step_ns = 0;
    for it in 0..steps() {
        let values = values(seed, it, &locations);
        let t = Instant::now();
        black_box(session.step(it, &locations, &values)?);
        step_ns += ns_since(t);
        if checkpoint_after(it) {
            let t = Instant::now();
            black_box(session.snapshot());
            checkpoints.push(ns_since(t) as f64);
        }
    }
    Ok((session.extract(), step_ns))
}

/// What one client thread measured. Bursts are summarised window by
/// window as they arrive, so the benchmark's own memory stays flat however
/// fast the fleet runs.
#[derive(Default)]
struct Driven {
    bursts: usize,
    /// Per window of [`window_rounds`] lifetimes: the median and p99 burst
    /// round trip, in ns.
    window_p50_ns: Vec<f64>,
    window_p99_ns: Vec<f64>,
    session_steps: u64,
    /// Mean round trip per session-step of each session lifetime, in µs.
    round_step_us: Vec<f64>,
    /// Session-steps per second of each session lifetime.
    round_rates: Vec<f64>,
    /// The whole process's CPU time per session-step of each round, over
    /// the calibration's CPU time on this thread right after it, in %.
    round_overhead_pct: Vec<f64>,
    /// Server-side pipeline nanoseconds, summed over every session.
    engine_ns: u64,
    checkpoints: usize,
    /// Median checkpoint round trip of each lifetime, in ns.
    round_checkpoint_ns: Vec<f64>,
    checkpoint_bytes: u64,
    busy: u64,
    attempted: u64,
    failed: u64,
    /// A mid-stream checkpoint of the thread's first session: the blob, the
    /// step it resumes from, and the session's pulse seed.
    blob: Option<(Vec<u8>, u64, u64)>,
}

/// The client threads' lock-step rounds. Each round is a session lifetime
/// on every thread, then a calibration on every thread with the server
/// idle, then one thread's decision whether another round starts. The
/// process CPU clock is read between two barriers, where no thread works.
struct Rounds {
    barrier: Barrier,
    stop: AtomicBool,
    deadline: Instant,
    /// Fewest rounds, whatever `--seconds` says.
    min_rounds: usize,
}

impl Rounds {
    /// The process CPU clock once every thread has reached this point.
    fn quiet_cpu_ns(&self) -> u64 {
        self.barrier.wait();
        let cpu = stats::process_cpu_ns();
        self.barrier.wait();
        cpu
    }

    /// Ends round `round` (counted from 1). Returns whether every thread
    /// stops, and the process CPU clock the next round starts from. A
    /// failed thread stops them all.
    fn finish(&self, round: usize, failed: bool) -> (bool, u64) {
        if failed {
            self.stop.store(true, Ordering::Relaxed);
        }
        if self.barrier.wait().is_leader()
            && round >= self.min_rounds
            && Instant::now() >= self.deadline
        {
            self.stop.store(true, Ordering::Relaxed);
        }
        let cpu = stats::process_cpu_ns();
        self.barrier.wait();
        (self.stop.load(Ordering::Relaxed), cpu)
    }
}

/// One client thread: lock-step rounds until the fleet stops.
fn drive(
    addr: SocketAddr,
    seeds: &[u64],
    references: &[(u64, Features)],
    spec: &SessionSpec,
    rounds: &Rounds,
) -> Result<Driven, String> {
    let mut client = connect(addr).and_then(|client| {
        let calibration = Calibration::new().map_err(|e| e.to_string())?;
        Ok((client, calibration))
    });
    let mut out = Driven::default();
    let mut window_ns = Vec::new();
    let mut error = None;
    let fleet_steps = (traffic().sessions as u64 * steps()) as f64;
    let mut cpu = rounds.quiet_cpu_ns();
    for round in 1.. {
        let lifetime = match &mut client {
            Ok((client, _)) => lifetime(client, seeds, references, spec, &mut out, &mut window_ns),
            Err(e) => Err(e.clone()),
        };
        let lived = rounds.quiet_cpu_ns() - cpu;
        let calibrated = match &mut client {
            Ok((_, calibration)) => calibration.cpu_ns().map_err(|e| e.to_string()),
            Err(e) => Err(e.clone()),
        };
        match lifetime.and(calibrated) {
            Ok(calibration) => out
                .round_overhead_pct
                .push(pct(per(lived as f64, fleet_steps), calibration as f64)),
            Err(e) => error = Some(e),
        }
        if round % window_rounds() == 0 && error.is_none() {
            // No early return here: the other threads wait at the barrier.
            window_ns.sort_by(f64::total_cmp);
            match (percentile(&window_ns, 0.5), percentile(&window_ns, 0.99)) {
                (Some(p50), Some(p99)) => {
                    out.window_p50_ns.push(p50);
                    out.window_p99_ns.push(p99);
                }
                _ => error = Some("window too small for a p99".into()),
            }
            window_ns.clear();
        }
        let (stop, next) = rounds.finish(round, error.is_some());
        if stop {
            break;
        }
        cpu = next;
    }
    error.map_or(Ok(out), Err)
}

/// One session lifetime on `client`: open, step with checkpoints, read
/// back telemetry, check every session against its reference, close.
fn lifetime(
    client: &mut Client,
    seeds: &[u64],
    references: &[(u64, Features)],
    spec: &SessionSpec,
    out: &mut Driven,
    window_ns: &mut Vec<f64>,
) -> Result<(), String> {
    let locations = locations();
    let sessions = open(client, spec, seeds.len())?;
    let mut round_ns = 0;
    let mut checkpoints = Vec::new();
    for it in 0..steps() {
        let t = Instant::now();
        let bounced = client
            .step_burst(&sessions, it, &locations, |session| {
                let at = sessions.iter().position(|&s| s == session).unwrap_or(0);
                values(seeds[at], it, &locations)
            })
            .map_err(|e| e.to_string())?;
        let ns = ns_since(t);
        window_ns.push(ns as f64);
        round_ns += ns;
        out.busy += bounced;
        out.attempted += sessions.len() as u64 + bounced;
        out.failed += bounced;
        if checkpoint_after(it) {
            for (&session, &seed) in sessions.iter().zip(seeds) {
                let t = Instant::now();
                let blob = client.snapshot(session).map_err(|e| e.to_string())?;
                checkpoints.push(ns_since(t) as f64);
                out.checkpoint_bytes += blob.len() as u64;
                out.attempted += 1;
                if out.blob.is_none() {
                    out.blob = Some((blob, it + 1, seed));
                }
            }
        }
    }
    let session_steps = steps() * sessions.len() as u64;
    for &session in &sessions {
        out.engine_ns += client
            .stats(session)
            .map_err(|e| e.to_string())?
            .budget_used_ns;
        out.attempted += 1;
    }
    out.session_steps += session_steps;
    out.bursts += steps() as usize;
    out.round_step_us
        .push(round_ns as f64 / session_steps as f64 / 1e3);
    out.round_rates
        .push(per(session_steps as f64, round_ns as f64 / 1e9));
    out.checkpoints += checkpoints.len();
    out.round_checkpoint_ns.push(median(&checkpoints));
    for (&session, &seed) in sessions.iter().zip(seeds) {
        let features = client.extract(session).map_err(|e| e.to_string())?;
        out.attempted += 1;
        if references.iter().all(|(s, f)| *s != seed || *f != features) {
            out.failed += 1;
            eprintln!("served session {session} (pulse seed {seed}) differs from its reference");
        }
        client.close_session(session).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    let mut client = Client::connect_tcp(addr).map_err(|e| e.to_string())?;
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    Ok(client)
}

fn open(client: &mut Client, spec: &SessionSpec, count: usize) -> Result<Vec<u64>, String> {
    (0..count)
        .map(|_| client.open_session(spec.clone()).map_err(|e| e.to_string()))
        .collect()
}

/// A bound server, and every client connected with its sessions open.
type OpenFleet = (Server, Vec<(Client, Vec<u64>)>);

/// One timed set-up: bind the server, connect every client and open the
/// whole fleet.
fn set_up(opts: &Opts, spec: &SessionSpec, fleet: &[Vec<u64>]) -> Result<OpenFleet, String> {
    let config = ServerConfig {
        workers: opts.nproc,
        event_threads: opts.nproc.min(2),
        ..ServerConfig::default()
    };
    let server = Server::bind_tcp("127.0.0.1:0", config).map_err(|e| e.to_string())?;
    let addr = server.tcp_addr().ok_or("server has no TCP address")?;
    let mut clients = Vec::with_capacity(fleet.len());
    for seeds in fleet {
        let mut client = connect(addr)?;
        let sessions = open(&mut client, spec, seeds.len())?;
        clients.push((client, sessions));
    }
    Ok((server, clients))
}

/// Runs the served-fleet workload and reports its metrics.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let traffic = traffic();
    let spec = traffic.session_spec();
    let base = stats::mix(opts.seed) % 1_000;
    let pulse_seeds: Vec<u64> = (0..traffic.distinct as u64).map(|d| base + d).collect();
    // Session `s` of the fleet replays stream `s % distinct`, on client
    // `s % clients`.
    let clients = opts.nproc.min(traffic.sessions);
    let fleet: Vec<Vec<u64>> = (0..clients)
        .map(|t| {
            (t..traffic.sessions)
                .step_by(clients)
                .map(|s| pulse_seeds[s % traffic.distinct])
                .collect()
        })
        .collect();

    let mut references = Vec::with_capacity(pulse_seeds.len());
    for &seed in &pulse_seeds {
        let (features, _) = replay(&spec, seed, &mut Vec::new())?;
        references.push((seed, features));
    }

    // Set-up, repeated and timed alone in process CPU time, which counts
    // the server's threads too. Closing the sessions, which client threads
    // cannot share, and shutting down an earlier server are not timed.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            previous.shutdown();
        }
        let started = stats::process_cpu_ns();
        let (bound, open) = set_up(opts, &spec, &fleet)?;
        setups.push((stats::process_cpu_ns() - started) as f64 / 1e9);
        for (mut client, sessions) in open {
            for session in sessions {
                client.close_session(session).map_err(|e| e.to_string())?;
            }
        }
        server = Some(bound);
    }
    let server = server.ok_or("no set-up ran")?;
    let addr = server.tcp_addr().ok_or("server has no TCP address")?;
    report.set("setup_s", median(&setups));
    report.samples("setup_s", setups.len());

    let rounds = Rounds {
        barrier: Barrier::new(clients),
        stop: AtomicBool::new(false),
        deadline: Instant::now() + opts.duration(),
        min_rounds: window_rounds(),
    };
    let driven: Vec<Result<Driven, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .iter()
            .map(|seeds| {
                let (references, spec, rounds) = (&references, &spec, &rounds);
                scope.spawn(move || drive(addr, seeds, references, spec, rounds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let migrations = server.migrations();
    server.shutdown();
    let driven: Vec<Driven> = driven.into_iter().collect::<Result<_, _>>()?;

    let gather = |f: &dyn Fn(&Driven) -> &Vec<f64>| -> Vec<f64> {
        driven.iter().flat_map(|d| f(d).iter().copied()).collect()
    };
    let round_step_us = gather(&|d| &d.round_step_us);
    let bursts: usize = driven.iter().map(|d| d.bursts).sum();
    let checkpoints: usize = driven.iter().map(|d| d.checkpoints).sum();
    for d in &driven {
        report.attempted += d.attempted;
        report.failed += d.failed;
    }

    if !opts.trace {
        // CPU per session-step over the calibration, each pair taken in one
        // round so host drift cancels, summarised as the median round.
        let overhead = gather(&|d| &d.round_overhead_pct);
        report.set("overhead_pct", median(&overhead));
        report.samples("overhead_pct", overhead.len());
        report.set("peak_rss_mb", stats::status_mb("VmHWM"));

        // Ungated: the same lifetimes in absolute terms, as best-quartile
        // windows.
        let ungated = &mut report.ungated;
        ungated.push(("insitu_us_per_step", stats::low_quartile(&round_step_us)));
        let rate: f64 = driven
            .iter()
            .map(|d| stats::high_quartile(&d.round_rates))
            .sum();
        ungated.push(("sim_steps_per_s", rate));
        let low_us = |v: Vec<f64>| stats::low_quartile(&v) / 1e3;
        ungated.push(("step_p50_us", low_us(gather(&|d| &d.window_p50_ns))));
        ungated.push(("step_p99_us", low_us(gather(&|d| &d.window_p99_ns))));
        ungated.push((
            "checkpoint_p50_us",
            low_us(gather(&|d| &d.round_checkpoint_ns)),
        ));
        for name in ["step_p50_us", "step_p99_us"] {
            report.samples(name, bursts);
        }
        report.samples("checkpoint_p50_us", checkpoints);
        return Ok(report);
    }

    // The in-process baseline, timed after the fleet has stopped: every
    // pulse stream replayed through a bare `Session`, which must also
    // reproduce its reference.
    let mut inproc_checkpoints = Vec::new();
    let mut inproc_ns = Vec::new();
    let baseline_until = Instant::now() + opts.duration() / 10;
    while inproc_ns.len() < 5 || Instant::now() < baseline_until {
        let mut ns = 0;
        for (seed, reference) in &references {
            let (features, step_ns) = replay(&spec, *seed, &mut inproc_checkpoints)?;
            ns += step_ns;
            report.attempted += 1;
            if features != *reference {
                report.failed += 1;
                eprintln!("in-process replay of pulse seed {seed} is not deterministic");
            }
        }
        inproc_ns.push(per(ns as f64, (steps() as usize * references.len()) as f64));
    }
    let served_step_ns = median(&round_step_us) * 1e3;
    let session_steps: u64 = driven.iter().map(|d| d.session_steps).sum();
    let engine_step_ns = per(
        driven.iter().map(|d| d.engine_ns).sum::<u64>() as f64,
        session_steps as f64,
    );

    // Traced: the single layers the served step crosses.
    let locations = locations();
    let request = Frame::StepSamples {
        session: 1,
        iteration: 1,
        locations: locations.clone(),
        values: values(0, 1, &locations),
    };
    let ack = Frame::StepAck {
        session: 1,
        iteration: 1,
        samples: locations.len() as u64,
        batches_trained: 1,
    };
    let (request_encode, request_decode) = layers::codec_ns(&request);
    let (ack_encode, ack_decode) = layers::codec_ns(&ack);
    report.set("wire.encode_ns_per_frame", request_encode);
    report.set("wire.decode_ns_per_frame", request_decode);
    report.set("session.step_ns", median(&inproc_ns));
    report.set(
        "server.busy_bounces",
        driven.iter().map(|d| d.busy).sum::<u64>() as f64,
    );
    report.set("server.migrations", migrations as f64);
    report.set(
        "server.residual_ns_per_step",
        served_step_ns - engine_step_ns - request_encode - request_decode - ack_encode - ack_decode,
    );
    report.set(
        "snapshot.bytes_per_session",
        per(
            driven.iter().map(|d| d.checkpoint_bytes).sum::<u64>() as f64,
            checkpoints as f64,
        ),
    );
    report.set("snapshot.encode_us", median(&inproc_checkpoints) / 1e3);
    report.samples("snapshot.encode_us", inproc_checkpoints.len());

    // Resurrect each thread's mid-stream checkpoint in process, finish its
    // stream, and check it lands on the reference.
    let mut restores = Vec::new();
    for (blob, from, seed) in driven.iter().filter_map(|d| d.blob.as_ref()) {
        let (from, seed) = (*from, *seed);
        let t = Instant::now();
        let mut session = Session::restore(&spec, blob)?;
        restores.push(ns_since(t) as f64);
        for it in from..steps() {
            session.step(it, &locations, &values(seed, it, &locations))?;
        }
        report.attempted += 1;
        if references
            .iter()
            .all(|(s, f)| *s != seed || *f != session.extract())
        {
            report.failed += 1;
            eprintln!("a restored checkpoint did not finish on its reference");
        }
    }
    report.set("snapshot.restore_us", median(&restores) / 1e3);
    layers::kernels(spec.batch_capacity, &mut report);
    Ok(report)
}
