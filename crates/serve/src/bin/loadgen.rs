//! The load generator: replays a travelling-pulse proxy workload over
//! many concurrent wire sessions and reports sustained session-steps/sec.
//!
//! ```text
//! loadgen [--tcp ADDR | --unix PATH]        target a running server
//!         [--self-unix]                     self-host over a Unix socket
//!         [--sessions N] [--steps N] [--connections N]
//!         [--client-threads N]              0 = thread per connection
//!         [--locations N] [--distinct N] [--window N]
//!         [--subscribe]                     verify server-push streaming
//!         [--stats]                         print the fleet stage-latency table
//!         [--no-verify]                     skip the bit-identity check
//!         [--ladder]                        run the 64/256/1024 ladder
//!         [--json PATH]                     write the BENCH_service.json
//!         [--idle-smoke N]                  thread-budget smoke: N idle conns
//!         [--chaos]                         run the fault-injection gauntlet
//! ```
//!
//! `--chaos` self-hosts a server and runs the full chaos gauntlet
//! ([`loadgen::run_chaos`](serve::loadgen::run_chaos)): sessions are
//! killed with their connection, the whole server is replaced, hostile
//! frames and damaged snapshot blobs are thrown at it, and a poisoned
//! session is panicked mid-step — then every resurrected session must
//! produce features bit-identical to an uninterrupted run.
//!
//! With no target flag the server is hosted in-process on an ephemeral
//! port, which is also how `bench_service` records `BENCH_service.json`
//! (three runs a rung, plus the connections ≫ threads rung); `--json`
//! writes one run a rung in the same format:
//!
//! ```text
//! cargo run --release -p serve --bin loadgen -- --ladder --json service.json
//! ```
//!
//! `--idle-smoke N` is the fixed-thread-count proof: it self-hosts a
//! server, parks N frame-less connections on it, and asserts (via
//! `/proc/self/task`) that the process thread count did not grow — the
//! reactor multiplexes every socket onto its fixed event threads — while
//! a probe session keeps round-tripping.
//!
//! Exits non-zero if any session's wire-served features diverge from the
//! in-process engine fed the identical stream.

use serve::loadgen::{
    render_json, run, run_chaos, run_self_hosted, run_self_hosted_unix, LoadgenConfig,
    LoadgenReport, Target,
};
use serve::{Client, Server, ServerConfig};

fn main() {
    let mut config = LoadgenConfig::default();
    let mut target: Option<Target> = None;
    let mut self_unix = false;
    let mut ladder = false;
    let mut json: Option<String> = None;
    let mut idle_smoke: Option<usize> = None;
    let mut chaos = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--tcp" => {
                let addr = value("--tcp");
                let addr = addr
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--tcp: not an address: {addr}")));
                target = Some(Target::Tcp(addr));
            }
            "--unix" => target = Some(Target::Unix(value("--unix").into())),
            "--self-unix" => self_unix = true,
            "--sessions" => config.sessions = parse(&value("--sessions"), "--sessions"),
            "--steps" => config.steps = parse(&value("--steps"), "--steps") as u64,
            "--connections" => config.connections = parse(&value("--connections"), "--connections"),
            "--client-threads" => {
                config.client_threads = parse(&value("--client-threads"), "--client-threads")
            }
            "--locations" => config.locations = parse(&value("--locations"), "--locations"),
            "--distinct" => config.distinct = parse(&value("--distinct"), "--distinct"),
            "--window" => config.window = parse(&value("--window"), "--window"),
            "--subscribe" => config.subscribe = true,
            "--stats" => config.stats = true,
            "--no-verify" => config.verify = false,
            "--ladder" => ladder = true,
            "--json" => json = Some(value("--json")),
            "--idle-smoke" => idle_smoke = Some(parse(&value("--idle-smoke"), "--idle-smoke")),
            "--chaos" => chaos = true,
            "--help" | "-h" => {
                println!(
                    "usage: loadgen [--tcp ADDR | --unix PATH | --self-unix] [--sessions N] \
                     [--steps N] [--connections N] [--client-threads N] [--locations N] \
                     [--distinct N] [--window N] [--subscribe] [--stats] [--no-verify] \
                     [--ladder] [--json PATH] [--idle-smoke N] [--chaos]"
                );
                return;
            }
            other => fail(&format!("unknown argument: {other}")),
        }
    }

    if let Some(conns) = idle_smoke {
        run_idle_smoke(conns);
        return;
    }

    if chaos {
        // Chaos is lock-step and self-hosted by design: the point is the
        // fault choreography, not throughput, so the defaults are small.
        let mut case = config.clone();
        case.sessions = case.sessions.min(16);
        let report = run_chaos(&case, ServerConfig::default()).unwrap_or_else(|e| fail(&e));
        println!(
            "chaos: {} sessions x {} steps survived {} connection kill(s) and {} server \
             restart(s); {} damaged blobs rejected, {} poisoned session(s) evicted, \
             {}/{} sessions verified bit-identical",
            report.sessions,
            report.steps,
            report.connection_kills,
            report.server_restarts,
            report.hostile_rejections,
            report.evicted,
            report.verified,
            report.sessions,
        );
        if report.verified != report.sessions {
            fail("chaos verification incomplete");
        }
        return;
    }

    let ladder_sessions: Vec<usize> = if ladder {
        vec![64, 256, 1024]
    } else {
        vec![config.sessions]
    };

    let mut reports: Vec<LoadgenReport> = Vec::new();
    for sessions in ladder_sessions {
        let mut case = config.clone();
        case.sessions = sessions;
        case.connections = config.connections.clamp(1, sessions);
        let report = match &target {
            Some(target) => run(target, &case),
            None if self_unix => run_self_hosted_unix(&case, ServerConfig::default()),
            None => run_self_hosted(&case, ServerConfig::default()),
        }
        .unwrap_or_else(|e| fail(&e));
        println!(
            "sessions {:>5} x steps {:>4}: {:>12.1} session-steps/sec \
             ({} busy bounces, {} verified, {} events, {:.2} s)",
            report.sessions,
            report.steps,
            report.session_steps_per_sec,
            report.busy_bounces,
            report.verified,
            report.feature_events,
            report.elapsed_ns as f64 / 1e9,
        );
        if let Some(stats) = &report.stats {
            print!("{}", stats.render_table());
        }
        if config.verify && report.verified != report.sessions {
            fail(&format!(
                "verification incomplete: {}/{} sessions matched the in-process reference",
                report.verified, report.sessions
            ));
        }
        reports.push(report);
    }

    if let Some(path) = json {
        let rungs: Vec<Vec<LoadgenReport>> = reports.into_iter().map(|r| vec![r]).collect();
        let rendered = render_json(&config, &rungs);
        std::fs::write(&path, &rendered).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        println!("{rendered}");
    }
}

/// Counts this process's threads via `/proc/self/task`; `None` off-Linux.
fn thread_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

/// The fixed-thread-count smoke: park `conns` idle connections on a
/// self-hosted server and prove the thread budget is O(event threads +
/// lanes), independent of the connection count.
fn run_idle_smoke(conns: usize) {
    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default())
        .unwrap_or_else(|e| fail(&format!("bind failed: {e}")));
    let addr = server.tcp_addr().expect("tcp addr");

    // Warm every thread the server will ever need: a live session that
    // has stepped (lanes, engine pool, event threads all touched).
    let mut probe =
        Client::connect_tcp(addr).unwrap_or_else(|e| fail(&format!("probe connect: {e}")));
    let spec = LoadgenConfig::default().session_spec();
    let session = probe
        .open_session(spec)
        .unwrap_or_else(|e| fail(&format!("probe open: {e}")));
    let locations: Vec<u64> = (1..=8).collect();
    let values = vec![1.0; locations.len()];
    probe
        .step(session, 0, &locations, &values)
        .unwrap_or_else(|e| fail(&format!("probe step: {e}")));

    let Some(before) = thread_count() else {
        println!("idle-smoke: /proc/self/task unavailable, skipping");
        return;
    };

    let mut idle = Vec::with_capacity(conns);
    for i in 0..conns {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => idle.push(s),
            Err(e) => fail(&format!("idle connection {i}: {e}")),
        }
    }
    // Let the accept loop drain its backlog into the reactor, with the
    // probe proving the server stays responsive throughout.
    for _ in 0..10 {
        probe
            .poll(session)
            .unwrap_or_else(|e| fail(&format!("probe poll under idle load: {e}")));
        std::thread::sleep(std::time::Duration::from_millis(30));
    }

    let after = thread_count().expect("/proc/self/task disappeared");
    println!(
        "idle-smoke: {} idle connections, {before} threads before, {after} after",
        idle.len()
    );
    if after > before {
        fail(&format!(
            "thread count grew with idle connections: {before} -> {after} \
             (the reactor must multiplex, not spawn)"
        ));
    }

    // A fresh connection still gets served behind the idle herd.
    let mut fresh =
        Client::connect_tcp(addr).unwrap_or_else(|e| fail(&format!("fresh connect: {e}")));
    let fresh_session = fresh
        .open_session(LoadgenConfig::default().session_spec())
        .unwrap_or_else(|e| fail(&format!("fresh open: {e}")));
    fresh
        .close_session(fresh_session)
        .unwrap_or_else(|e| fail(&format!("fresh close: {e}")));
    probe
        .close_session(session)
        .unwrap_or_else(|e| fail(&format!("probe close: {e}")));
    drop(idle);
    server.shutdown();
    println!("idle-smoke: ok");
}

fn parse(text: &str, what: &str) -> usize {
    text.parse()
        .unwrap_or_else(|_| fail(&format!("{what}: not a number: {text}")))
}

fn fail(message: &str) -> ! {
    eprintln!("loadgen: {message}");
    std::process::exit(1);
}
