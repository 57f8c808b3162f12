//! Regenerates `BENCH_history.json`: wall-clock comparison of the
//! map-based (pre-refactor `BTreeMap` of interleaved row tuples) sample
//! store and the library's step-major store (one iteration stamp and one
//! contiguous row per step, incremental statistics) over the same
//! record+extract workload. The artifact keeps its field names: `slot_ns`
//! is the library store's time.
//!
//! The two stores are arithmetically identical (`bench::histref`'s tests
//! prove bitwise-equal extracted features and training losses), so the
//! speedup is purely the storage layout: one row append per step instead
//! of a tree walk per sample, index arithmetic instead of binary searches
//! over interleaved pairs, and incrementally maintained peak/latest
//! profiles instead of per-extraction rescans. Run from the workspace
//! root:
//!
//! ```text
//! cargo run --release -p bench --bin bench_history
//! ```

use bench::report::{JsonObj, JsonReport};
use bench::{histref, median_ns};

struct Measurement {
    locations: u64,
    map_ns_per_run: f64,
    slot_ns_per_run: f64,
    samples: usize,
}

fn main() {
    let runs = if std::env::var("BENCH_QUICK").is_ok() {
        5
    } else {
        15
    };
    let iterations = 200;
    let mut measurements = Vec::new();
    for &locations in &[10u64, 40, 150] {
        let workload = histref::workload(locations, iterations);
        // Refuse to time stores that do not agree bit for bit.
        let digest = histref::assert_pipelines_agree(&workload);
        let map_ns_per_run = median_ns(runs, || {
            histref::run_map_pipeline(&workload);
        });
        let slot_ns_per_run = median_ns(runs, || {
            histref::run_slot_pipeline(&workload);
        });
        measurements.push(Measurement {
            locations,
            map_ns_per_run,
            slot_ns_per_run,
            samples: digest.samples,
        });
    }

    let mut report = JsonReport::new("sample+record+extract, map-based vs step-major history")
        .obj(
            "workload",
            JsonObj::new()
                .uint("iterations", iterations)
                .uint("order", histref::WORKLOAD_ORDER as u64)
                .uint("lag", histref::WORKLOAD_LAG)
                .ratio("breakpoint_threshold", histref::WORKLOAD_THRESHOLD),
        )
        .uint("timed_runs_per_case", runs as u64)
        .available_parallelism()
        .kernels();
    for m in &measurements {
        report.case(
            JsonObj::new()
                .uint("locations", m.locations)
                .uint("samples", m.samples as u64)
                .ns("map_ns", m.map_ns_per_run)
                .ns("slot_ns", m.slot_ns_per_run)
                .ratio("speedup", m.map_ns_per_run / m.slot_ns_per_run),
        );
    }
    let json = report.write("BENCH_history.json");
    println!("{json}");
    for m in &measurements {
        println!(
            "locations {:>4}: map {:>10.0} ns, slot {:>10.0} ns, speedup {:.2}x",
            m.locations,
            m.map_ns_per_run,
            m.slot_ns_per_run,
            m.map_ns_per_run / m.slot_ns_per_run
        );
    }
}
