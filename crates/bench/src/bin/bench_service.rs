//! Regenerates `BENCH_service.json`: sustained sessions×steps per second
//! through the `serve` wire protocol, over a ladder of concurrent-session
//! counts ending at the thousand-session acceptance scale.
//!
//! Every rung runs in verify mode — each session's wire-served features
//! are compared bit for bit against an in-process engine fed the
//! identical stream — so a recorded number is also a correctness proof.
//! Each rung runs three times and is recorded as the median run with the
//! slowest and fastest rate. `BENCH_QUICK=1` runs the short ladder once
//! for CI smoke. Run from the
//! workspace root:
//!
//! ```text
//! cargo run --release -p bench --bin bench_service
//! ```

use bench::service;

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok();
    let (json, reports) = match service::run_ladder(quick) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("bench_service: {e}");
            std::process::exit(1);
        }
    };
    std::fs::write(service::ARTIFACT, &json)
        .unwrap_or_else(|e| panic!("write {}: {e}", service::ARTIFACT));
    println!("{json}");
    for r in reports.iter().flatten() {
        println!(
            "sessions {:>5}: {:>10.0} steps/sec, {:>4} busy bounces, {} verified",
            r.sessions, r.session_steps_per_sec, r.busy_bounces, r.verified
        );
    }
}
