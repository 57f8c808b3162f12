//! The service benchmark: sustained sessions×steps/sec through the
//! `serve` wire protocol, self-hosted on an ephemeral TCP port.
//!
//! This module owns the *scale* of the benchmark — the session ladder and
//! the artifact path — while `serve::loadgen` owns the workload and the
//! `BENCH_service.json` format (its renderer is also what `perf_smoke`'s
//! floor reparses). Every rung runs in verify mode, so the recorded
//! numbers are simultaneously a bit-identity proof: a rung whose served
//! features diverge from the in-process engine is an error, not a data
//! point.

use serve::loadgen::{self, LoadgenConfig, LoadgenReport};
use serve::ServerConfig;

/// The artifact this benchmark regenerates.
pub const ARTIFACT: &str = "BENCH_service.json";

/// Concurrent-session rungs. The top rung is the acceptance scale: a
/// thousand-session run with windowed retention and bounded memory.
pub const LADDER: [usize; 3] = [64, 256, 1024];

/// The quick ladder (`BENCH_QUICK=1`) for CI smoke runs.
pub const QUICK_LADDER: [usize; 2] = [16, 64];

/// The connections ≫ threads rung appended after the ladder: this many
/// sessions, each on its **own connection**, multiplexed onto the
/// reactor's fixed event threads and driven by [`MUX_CLIENT_THREADS`]
/// client threads. The rung exists to price connection multiplexing
/// itself — thousands of sockets must not mean thousands of server
/// threads, nor a throughput collapse.
pub const MUX_SESSIONS: usize = 4096;

/// Client threads driving the multiplexed rung's connections.
pub const MUX_CLIENT_THREADS: usize = 32;

/// Runs of each rung in the full ladder; the artifact records their
/// median and spread.
pub const REPEATS: usize = 3;

/// The workload every rung replays (sessions count varies per rung).
pub fn workload() -> LoadgenConfig {
    LoadgenConfig {
        steps: 120,
        locations: 8,
        connections: 4,
        distinct: 16,
        window: 64,
        verify: true,
        ..LoadgenConfig::default()
    }
}

/// Runs one rung of the ladder against a self-hosted server.
pub fn run_rung(sessions: usize) -> Result<LoadgenReport, String> {
    let config = LoadgenConfig {
        sessions,
        ..workload()
    };
    loadgen::run_self_hosted(&config, ServerConfig::default())
}

/// Runs the connections ≫ threads rung: one connection per session,
/// multiplexed onto the default (two) event threads. `sessions` is
/// scaled down for quick runs.
pub fn run_mux_rung(sessions: usize, client_threads: usize) -> Result<LoadgenReport, String> {
    let config = LoadgenConfig {
        sessions,
        connections: sessions,
        client_threads,
        ..workload()
    };
    loadgen::run_self_hosted(&config, ServerConfig::default())
}

/// Runs the full ladder (or the quick one) plus the multiplexed rung,
/// each rung [`REPEATS`] times (once when quick), and returns the
/// rendered artifact alongside every rung's runs.
pub fn run_ladder(quick: bool) -> Result<(String, Vec<Vec<LoadgenReport>>), String> {
    let rungs: &[usize] = if quick { &QUICK_LADDER } else { &LADDER };
    let repeats = if quick { 1 } else { REPEATS };
    let repeat = |run: &dyn Fn() -> Result<LoadgenReport, String>| -> Result<Vec<_>, String> {
        (0..repeats).map(|_| run()).collect()
    };
    let mut reports = Vec::with_capacity(rungs.len() + 1);
    for &sessions in rungs {
        reports.push(repeat(&|| run_rung(sessions))?);
    }
    if quick {
        reports.push(repeat(&|| run_mux_rung(128, 8))?);
    } else {
        reports.push(repeat(&|| run_mux_rung(MUX_SESSIONS, MUX_CLIENT_THREADS))?);
    }
    Ok((loadgen::render_json(&workload(), &reports), reports))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_rung_verifies_over_the_wire() {
        let config = LoadgenConfig {
            sessions: 6,
            steps: 30,
            connections: 2,
            distinct: 3,
            ..workload()
        };
        let report =
            loadgen::run_self_hosted(&config, ServerConfig::default()).expect("self-hosted run");
        assert_eq!(report.verified, 6);
        assert_eq!(report.steps, 30);
        assert!(report.session_steps_per_sec > 0.0);
    }

    #[test]
    fn the_artifact_records_one_case_per_rung() {
        let workload = workload();
        let run = |sessions: usize, rate: f64| LoadgenReport {
            sessions,
            connections: workload.connections,
            client_threads: workload.connections,
            steps: workload.steps,
            elapsed_ns: 1_000_000,
            session_steps_per_sec: rate,
            busy_bounces: 0,
            verified: sessions,
            feature_events: 0,
            stats: None,
        };
        let rungs: Vec<Vec<LoadgenReport>> = LADDER
            .iter()
            .map(|&sessions| {
                vec![
                    run(sessions, 900.0),
                    run(sessions, 1200.0),
                    run(sessions, 1000.0),
                ]
            })
            .collect();
        let json = loadgen::render_json(&workload, &rungs);
        let cases: Vec<&str> = json
            .lines()
            .filter(|line| line.contains("\"steps_per_sec\":"))
            .collect();
        assert_eq!(cases.len(), LADDER.len());
        for case in cases {
            assert!(case.contains("\"repeats\": 3"), "{case}");
            assert!(
                case.contains("\"steps_per_sec\": 1000.0,"),
                "median: {case}"
            );
            assert!(case.contains("\"steps_per_sec_min\": 900.0,"), "{case}");
            assert!(case.contains("\"steps_per_sec_max\": 1200.0}"), "{case}");
        }
        assert!(json.contains("\"available_parallelism\":"));
    }
}
