//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lulesh-inline|lulesh-sharded|wd-merger|serve-fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) prints the per-layer ones. Every output is checked
//! before any number is reported. The last line of standard output is the
//! result object; the line before it records the host, the sample count
//! behind each summarised metric, and the ungated metrics. See
//! `perfbench/README.md`.

mod fleet;
mod layers;
mod proxy;
mod report;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use report::{Report, END_TO_END, PER_LAYER, UNGATED};

/// The command line, checked.
pub struct Opts {
    workload: String,
    /// Seeds the workload's inputs.
    pub seed: u64,
    seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Cores available to this process.
    pub nproc: usize,
}

impl Opts {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => trace = Some(number()? != 0),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(0),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        })
    }

    /// How long the measured phase runs.
    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

fn run(opts: &Opts) -> Result<Report, String> {
    match opts.workload.as_str() {
        "lulesh-inline" => proxy::run(proxy::Proxy::LuleshInline, opts),
        "lulesh-sharded" => proxy::run(proxy::Proxy::LuleshSharded, opts),
        "wd-merger" => proxy::run(proxy::Proxy::WdMerger, opts),
        "serve-fleet" => fleet::run(opts),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let opts = match Opts::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    let catalogue = if opts.trace {
        report.set("host.nproc", opts.nproc as f64);
        report.set(
            "failed_pct",
            stats::failed_pct(report.attempted, report.failed),
        );
        report
            .metrics
            .retain(|(name, _)| PER_LAYER.iter().any(|(n, _)| n == name));
        PER_LAYER
    } else {
        report
            .metrics
            .retain(|(name, _)| END_TO_END.iter().any(|(n, _)| n == name));
        END_TO_END
    };
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(name, count)| format!("\"{name}\": {count}"))
        .collect();
    let ungated: Vec<String> = report
        .ungated
        .iter()
        .filter_map(|&(name, value)| {
            let (_, unit) = UNGATED.iter().find(|(n, _)| *n == name)?;
            Some(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"kernels\": \"{}\", \"samples\": {{{}}}, \"ungated\": {{{}}}}}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.nproc,
        insitu::kernels::active(),
        samples.join(", "),
        ungated.join(", ")
    );
    match report.result_line(catalogue, !opts.trace) {
        Ok(line) => {
            println!("{line}");
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            ExitCode::FAILURE
        }
    }
}
