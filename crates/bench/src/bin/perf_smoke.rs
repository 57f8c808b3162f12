//! CI perf-regression wall: re-measures the recorded layout/scaling/service
//! benchmarks at reduced sizes and fails if any measured number drops below
//! **50 % of the value committed** in the corresponding `BENCH_*.json`:
//!
//! * `BENCH_history.json` — map-based vs slot-indexed sample store, plus
//!   the store-side `"kernel_speedup"` row (windowed peak re-scan),
//! * `BENCH_columnar.json` — row-oriented vs columnar mini-batches, plus
//!   the training-side `"kernel_speedup"` rows (scalar vs dispatched
//!   `insitu::kernels`),
//! * `BENCH_service.json` — wire-served session throughput (steps/sec),
//! * `BENCH_snapshot.json` — checkpoint serialize/restore throughput (MB/s).
//!
//! Two absolute ceilings ride along: telemetry-on at most 1.05× telemetry-off,
//! and background training at most 1.25× inline, on the same pulse engine.
//!
//! Kernel floors are only enforced when this host's dispatch matches the
//! recorded `"kernels"` string — a scalar or NEON host cannot be held to
//! an AVX2 recording (same skip idiom as the core-count guards below).
//!
//! The floor is derived from the committed artifact (geometric mean of its
//! per-case speedups, or the matching rung's throughput), not hard-coded,
//! so improving a benchmark raises the bar automatically and CI noise has
//! 2× headroom before a false alarm. Each measured pipeline pair is
//! verified bit-identical before timing, exactly like the full benchmark
//! bins. Run from the workspace root:
//!
//! ```text
//! cargo run --release -p bench --bin perf_smoke
//! ```

use bench::{histref, kernelbench, median_ns, rowref, service, snapbench};
use insitu::engine::EngineConfig;
use parsim::ThreadPool;

/// Fraction of the committed speedup a reduced-size re-measurement must
/// retain.
const FLOOR: f64 = 0.5;

/// Timed runs per measured case (reduced; the committed artifacts use 15).
const RUNS: usize = 5;

/// Extracts every `"<key>": <number>` value from a committed
/// `BENCH_*.json` (the offline serde stand-in has no deserializer, and the
/// files are hand-rolled flat JSON with one case per line, so a scan is
/// exact).
fn committed_values(path: &str, key: &str) -> Vec<f64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: not readable ({e}); run the benchmark bin first"));
    let mut values = Vec::new();
    let needle = format!("\"{key}\":");
    let mut rest = text.as_str();
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        let value: f64 = rest[..end]
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("{path}: malformed {key} ({e})"));
        values.push(value);
        rest = &rest[end..];
    }
    assert!(!values.is_empty(), "{path}: no {key} entries found");
    values
}

fn committed_speedups(path: &str) -> Vec<f64> {
    committed_values(path, "speedup")
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Extracts the `"available_parallelism": <n>` an artifact records.
/// Unlike the history/columnar ratios (same-thread layout comparisons,
/// machine-independent), throughput depends on core count — the floor is
/// only a meaningful bound on machines with at least as many cores as the
/// recording host.
fn committed_parallelism(path: &str) -> usize {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: not readable ({e}); run the benchmark bin first"));
    let needle = "\"available_parallelism\":";
    let pos = text
        .find(needle)
        .unwrap_or_else(|| panic!("{path}: no available_parallelism entry"));
    let rest = &text[pos + needle.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{path}: malformed available_parallelism ({e})"))
}

/// Extracts the `"kernels": "<dispatch>"` string an artifact records.
/// Kernel speedups are instruction-set-relative: a floor recorded under
/// `"avx2"` says nothing about a host that dispatches `"scalar"`, so the
/// caller skips the check when the strings differ.
fn committed_kernels(path: &str) -> String {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: not readable ({e}); run the benchmark bin first"));
    let needle = "\"kernels\": \"";
    let pos = text
        .find(needle)
        .unwrap_or_else(|| panic!("{path}: no kernels entry; re-record the artifact"));
    let rest = &text[pos + needle.len()..];
    let end = rest
        .find('"')
        .unwrap_or_else(|| panic!("{path}: unterminated kernels entry"));
    rest[..end].to_string()
}

struct Check {
    name: &'static str,
    committed: f64,
    measured: f64,
    unit: &'static str,
}

impl Check {
    fn floor(&self) -> f64 {
        self.committed * FLOOR
    }

    fn passed(&self) -> bool {
        self.measured >= self.floor()
    }
}

/// Map-based vs slot-indexed sample store. The location ladder matches the
/// committed artifact's cases exactly (only iterations and runs are
/// reduced), so the measured geomean is compared like for like and the
/// 2× floor headroom is real.
fn measure_history() -> f64 {
    let mut speedups = Vec::new();
    for &locations in &[10u64, 40, 150] {
        let workload = histref::workload(locations, 120);
        histref::assert_pipelines_agree(&workload);
        let map_ns = median_ns(RUNS, || {
            histref::run_map_pipeline(&workload);
        });
        let slot_ns = median_ns(RUNS, || {
            histref::run_slot_pipeline(&workload);
        });
        speedups.push(map_ns / slot_ns);
    }
    geomean(&speedups)
}

/// Row-oriented vs columnar mini-batches, on the committed location ladder.
fn measure_columnar() -> f64 {
    let mut speedups = Vec::new();
    for &locations in &[10u64, 40, 150] {
        let workload = rowref::workload(locations, 120);
        let (row_batches, row_loss) = rowref::run_row_pipeline(&workload);
        let (col_batches, col_loss) = rowref::run_columnar_pipeline(&workload);
        assert_eq!(row_batches, col_batches, "paths must consume equal batches");
        assert_eq!(
            row_loss.to_bits(),
            col_loss.to_bits(),
            "paths must be arithmetically identical"
        );
        let row_ns = median_ns(RUNS, || {
            rowref::run_row_pipeline(&workload);
        });
        let col_ns = median_ns(RUNS, || {
            rowref::run_columnar_pipeline(&workload);
        });
        speedups.push(row_ns / col_ns);
    }
    geomean(&speedups)
}

/// Telemetry must be close to free. The stage clocks are a handful of
/// monotonic reads per step, so an engine with an armed recorder may cost
/// at most 5 % over the identical untimed pipeline. Unlike the committed
/// floors above this is an absolute ratio, not derived from an artifact:
/// the contract is "telemetry on ≈ telemetry off" on every host.
const TELEMETRY_CEILING: f64 = 1.05;

/// Background training must not cost more wall time than inline: it may
/// hand a batch to a worker only when that is cheaper than training it in
/// place, so on the same pulse engine the background leg stays within 25 %
/// of the inline one. Absolute, like the telemetry ceiling.
const BACKGROUND_CEILING: f64 = 1.25;

/// Drives the tightest loop telemetry touches — a pure in-process engine,
/// 256 locations × 200 iterations — under `config` (with the stage clocks
/// pinned on or off by `timed`), returning the terminal features so the
/// caller can verify two legs bit-identical before timing either.
fn run_pulse_leg(
    mut config: EngineConfig,
    timed: bool,
) -> Vec<(String, insitu::region::FeatureValue)> {
    use insitu::engine::Engine;
    use insitu::extract::FeatureKind;
    use insitu::model::{ConvergenceCriteria, OptimizerKind, TrainerConfig};
    use insitu::region::AnalysisSpec;
    use insitu::IterParam;

    let spec = AnalysisSpec::builder()
        .name("pulse")
        .provider(|domain: &Vec<f64>, loc: usize| domain.get(loc).copied().unwrap_or(0.0))
        .spatial(IterParam::new(1, 256, 1).expect("valid spatial range"))
        .temporal(IterParam::new(0, 10_000, 1).expect("valid temporal range"))
        .feature(FeatureKind::Breakpoint { threshold: 0.05 })
        .lag(5)
        .batch_capacity(64)
        .trainer(TrainerConfig {
            order: 3,
            optimizer: OptimizerKind::Sgd { learning_rate: 0.1 },
            epochs_per_batch: 4,
            convergence: ConvergenceCriteria {
                loss_threshold: 0.0,
                patience: usize::MAX,
                max_batches: 0,
            },
        })
        .build()
        .expect("valid spec");

    config.telemetry.enabled = Some(timed);
    let mut engine: Engine<Vec<f64>> = Engine::with_config(config);
    let region = engine.add_region("pulse").expect("region");
    engine.add_analysis(region, spec).expect("analysis");

    let mut domain = vec![0.0f64; 260];
    for iteration in 0..200u64 {
        let step = engine.step(iteration);
        let front = iteration as f64 * 0.3;
        for (loc, v) in domain.iter_mut().enumerate() {
            let x = loc as f64;
            *v = 10.0 / (1.0 + x) * (-((x - front) * (x - front)) / 40.0).exp();
        }
        step.complete(&domain);
    }
    engine.drain();
    engine.extract_now(region).expect("extract");
    engine.status(region).expect("status").features.clone()
}

/// Interleaved pairs behind the two absolute ceilings.
const PAIRS: usize = 21;

/// Wall-clock ratio `candidate / base`: the median of per-pair ratios over
/// interleaved pairs, so host drift between the legs cancels. The order
/// alternates, so neither leg always inherits the other's warm caches.
fn paired_ratio<T>(base: impl Fn() -> T, candidate: impl Fn() -> T) -> f64 {
    let wall_ns = |leg: &dyn Fn() -> T| {
        let start = std::time::Instant::now();
        leg();
        start.elapsed().as_nanos() as f64
    };
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let base_ns = wall_ns(&base);
                wall_ns(&candidate) / base_ns
            } else {
                let candidate_ns = wall_ns(&candidate);
                candidate_ns / wall_ns(&base)
            }
        })
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    ratios[PAIRS / 2]
}

/// Telemetry-on vs telemetry-off wall-clock ratio (on/off; 1.0 = free).
fn measure_telemetry_ratio() -> f64 {
    let leg = |timed| run_pulse_leg(EngineConfig::inline(), timed);
    assert_eq!(
        leg(false),
        leg(true),
        "the stage clocks must not change what the pipeline computes"
    );
    paired_ratio(|| leg(false), || leg(true))
}

/// Background vs inline wall-clock ratio on the untimed pulse engine
/// (background/inline; 1.0 = same cost). Both legs include the final
/// drain, so work left on the worker is paid for.
fn measure_background_ratio() -> f64 {
    let pool = ThreadPool::serial();
    let inline = || run_pulse_leg(EngineConfig::inline(), false);
    let background = || run_pulse_leg(EngineConfig::background(pool.clone()), false);
    assert_eq!(
        inline(),
        background(),
        "background training must compute what inline training computes"
    );
    paired_ratio(inline, background)
}

fn main() {
    let mut checks = vec![
        Check {
            name: "history (BENCH_history.json)",
            committed: geomean(&committed_speedups("BENCH_history.json")),
            measured: measure_history(),
            unit: "x",
        },
        Check {
            name: "columnar (BENCH_columnar.json)",
            committed: geomean(&committed_speedups("BENCH_columnar.json")),
            measured: measure_columnar(),
            unit: "x",
        },
    ];
    // Kernel floors: only comparable when this host resolves the same
    // dispatch the artifact was recorded under (an AVX2 speedup is not a
    // bound for a scalar or NEON host). The committed geomean spans the
    // training rows (columnar artifact) and the store row (history
    // artifact), re-measured on the same shapes via `bench::kernelbench`.
    let active = insitu::kernels::active();
    for (artifact, measure) in [
        (
            "BENCH_columnar.json",
            kernelbench::measure_training_kernels as fn(usize) -> Vec<kernelbench::KernelCase>,
        ),
        ("BENCH_history.json", kernelbench::measure_history_kernels),
    ] {
        let recorded = committed_kernels(artifact);
        if recorded == active {
            let speedups: Vec<f64> = measure(RUNS).iter().map(|c| c.speedup()).collect();
            checks.push(Check {
                name: match artifact {
                    "BENCH_columnar.json" => "kernels/train (BENCH_columnar.json)",
                    _ => "kernels/store (BENCH_history.json)",
                },
                committed: geomean(&committed_values(artifact, "kernel_speedup")),
                measured: geomean(&speedups),
                unit: "x",
            });
        } else {
            println!(
                "kernels ({artifact})   skipped: this host dispatches \"{active}\" \
                 vs \"{recorded}\" when recorded — kernel floor not comparable; \
                 re-record the artifact on matching hardware to re-arm it"
            );
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The service floor is throughput on real threads and sockets:
    // hold this host to the committed steps/sec only when it has at least
    // as many cores as the recording host. The measured rung is the
    // committed ladder's first (smallest) one, compared like for like, and
    // runs in verify mode — a throughput number from diverging features
    // would be meaningless.
    let recorded_service_cores = committed_parallelism(service::ARTIFACT);
    if cores >= recorded_service_cores {
        let committed = committed_values(service::ARTIFACT, "steps_per_sec")[0];
        let sessions = service::LADDER[0];
        // One warm-up rung, then the measured one — the same warm-then-time
        // discipline `median_ns` applies to the layout checks.
        service::run_rung(sessions)
            .unwrap_or_else(|e| panic!("{}: service warm-up failed: {e}", service::ARTIFACT));
        let report = service::run_rung(sessions)
            .unwrap_or_else(|e| panic!("{}: service rung failed: {e}", service::ARTIFACT));
        assert_eq!(
            report.verified, sessions,
            "wire-served features diverged from the in-process engine"
        );
        checks.push(Check {
            name: "service (BENCH_service.json)",
            committed,
            measured: report.session_steps_per_sec,
            unit: " steps/s",
        });
    } else {
        println!(
            "service (BENCH_service.json)     skipped: {cores} cores here vs \
             {recorded_service_cores} when recorded — throughput floor not \
             comparable; re-record BENCH_service.json to re-arm it"
        );
    }

    // Snapshot serialize/restore throughput is absolute MB/s on a single
    // thread — like the service floor, only held on hosts at least as
    // provisioned as the recording one. The measurement path is the same
    // one `bench_snapshot` uses (restore verified bit-identical before
    // anything is timed), at the reduced workload size.
    let recorded_snapshot_cores = committed_parallelism(snapbench::ARTIFACT);
    if cores >= recorded_snapshot_cores {
        let workload = snapbench::workload(512, 80);
        let m = snapbench::measure(&workload, RUNS);
        checks.push(Check {
            name: "snapshot (BENCH_snapshot.json)",
            committed: committed_values(snapbench::ARTIFACT, "snapshot_mb_per_sec")[0],
            measured: m.snapshot_mb_per_sec(),
            unit: " MB/s",
        });
        checks.push(Check {
            name: "restore (BENCH_snapshot.json)",
            committed: committed_values(snapbench::ARTIFACT, "restore_mb_per_sec")[0],
            measured: m.restore_mb_per_sec(),
            unit: " MB/s",
        });
    } else {
        println!(
            "snapshot (BENCH_snapshot.json)   skipped: {cores} cores here vs \
             {recorded_snapshot_cores} when recorded — throughput floor not \
             comparable; re-record BENCH_snapshot.json to re-arm it"
        );
    }

    // Telemetry overhead and background placement: absolute ceilings, not
    // committed floors — "arming the stage clocks is free within noise" and
    // "background training never costs more than inline" hold on every
    // host, so there is nothing machine-specific to skip on.
    let telemetry_ratio = measure_telemetry_ratio();
    let background_ratio = measure_background_ratio();

    let mut failed = false;
    for check in &checks {
        let verdict = if check.passed() { "ok" } else { "REGRESSED" };
        println!(
            "{:<32} committed {:>9.3}{u}  floor {:>9.3}{u}  measured {:>9.3}{u}  {}",
            check.name,
            check.committed,
            check.floor(),
            check.measured,
            verdict,
            u = check.unit,
        );
        failed |= !check.passed();
    }
    let telemetry_ok = telemetry_ratio <= TELEMETRY_CEILING;
    println!(
        "{:<32} ceiling   {TELEMETRY_CEILING:>9.3}x  measured {telemetry_ratio:>9.3}x  {}",
        "telemetry overhead (on vs off)",
        if telemetry_ok { "ok" } else { "REGRESSED" },
    );
    if !telemetry_ok {
        eprintln!(
            "perf-smoke: telemetry-on cost {telemetry_ratio:.3}x the untimed pipeline \
             (ceiling {TELEMETRY_CEILING}x) — the stage clocks are no longer near-free"
        );
    }
    failed |= !telemetry_ok;
    let background_ok = background_ratio <= BACKGROUND_CEILING;
    println!(
        "{:<32} ceiling   {BACKGROUND_CEILING:>9.3}x  measured {background_ratio:>9.3}x  {}",
        "background vs inline training",
        if background_ok { "ok" } else { "REGRESSED" },
    );
    if !background_ok {
        eprintln!(
            "perf-smoke: background training cost {background_ratio:.3}x inline \
             (ceiling {BACKGROUND_CEILING}x) — batches are handed off when \
             training them in place is cheaper"
        );
    }
    failed |= !background_ok;
    if failed {
        eprintln!(
            "perf-smoke: a measured value fell below {}x of its committed \
             BENCH_*.json number — a layout/service win has regressed",
            FLOOR
        );
        std::process::exit(1);
    }
    println!("perf-smoke: all measurements within {FLOOR}x of the committed artifacts");
}
