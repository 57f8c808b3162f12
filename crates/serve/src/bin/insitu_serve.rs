//! The analysis server daemon.
//!
//! ```text
//! insitu-serve [--tcp ADDR] [--unix PATH] [--workers N] [--inflight N]
//!              [--event-threads N] [--idle-timeout-ms N]
//! ```
//!
//! Listens on TCP (default `127.0.0.1:7407`) or a Unix socket and serves
//! analysis sessions until killed. `--workers` sets the worker lane
//! count (each lane is a dedicated thread), `--inflight` sets the
//! per-session backpressure limit, `--event-threads` sizes the reactor
//! that multiplexes every connection, `--idle-timeout-ms` bounds how
//! long a connection may stall mid-frame (0 disables the sweep).

use serve::{Server, ServerConfig};

fn main() {
    let mut tcp: Option<String> = None;
    let mut unix: Option<std::path::PathBuf> = None;
    let mut config = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--tcp" => tcp = Some(value("--tcp")),
            "--unix" => unix = Some(value("--unix").into()),
            "--workers" => config.workers = parse(&value("--workers"), "--workers"),
            "--inflight" => config.inflight_limit = parse(&value("--inflight"), "--inflight"),
            "--event-threads" => {
                config.event_threads = parse(&value("--event-threads"), "--event-threads")
            }
            "--idle-timeout-ms" => {
                config.idle_timeout = std::time::Duration::from_millis(parse(
                    &value("--idle-timeout-ms"),
                    "--idle-timeout-ms",
                ) as u64)
            }
            "--help" | "-h" => {
                println!(
                    "usage: insitu-serve [--tcp ADDR] [--unix PATH] [--workers N] [--inflight N] \
                     [--event-threads N] [--idle-timeout-ms N]"
                );
                return;
            }
            other => fail(&format!("unknown argument: {other}")),
        }
    }

    let server = match (&tcp, &unix) {
        (Some(_), Some(_)) => fail("pass either --tcp or --unix, not both"),
        (None, Some(path)) => Server::bind_unix(path, config),
        (addr, None) => {
            let addr = addr.as_deref().unwrap_or("127.0.0.1:7407");
            Server::bind_tcp(addr, config)
        }
    }
    .unwrap_or_else(|e| fail(&format!("bind failed: {e}")));

    match (server.tcp_addr(), &unix) {
        (Some(addr), _) => println!("insitu-serve: listening on tcp {addr}"),
        (None, Some(path)) => println!("insitu-serve: listening on unix {}", path.display()),
        _ => {}
    }
    // Serve until the process is killed; sessions die with their sockets.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn parse(text: &str, what: &str) -> usize {
    text.parse()
        .unwrap_or_else(|_| fail(&format!("{what}: not a number: {text}")))
}

fn fail(message: &str) -> ! {
    eprintln!("insitu-serve: {message}");
    std::process::exit(2);
}
