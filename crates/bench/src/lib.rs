//! `bench` — the experiment harness.
//!
//! One function per table/figure of the paper's evaluation section, plus
//! ablation studies of the design choices (see [`ablation`]). Each function
//! runs the relevant proxy simulation(s), drives the `insitu` analysis
//! library the same way the paper's integration does, and returns
//! plain-data row structs that the `src/bin/*` binaries print.
//!
//! Every curve fit (Tables I, V and VI, Figures 4 and 7, the ablations) is
//! an `Engine` analysis cut at its training fraction and scored by
//! [`fitting::FitRun`]; Figure 7 returns a [`fitting::Reconstruction`] per
//! variable. Only Table II's peak-profile extrapolation trains outside it.
//!
//! | paper artifact | function |
//! |----------------|----------|
//! | Table I        | [`lulesh_exp::fit_error_table`] |
//! | Figure 4       | [`lulesh_exp::lag_sweep`] |
//! | Table II       | [`lulesh_exp::breakpoint_table`] |
//! | Figure 5       | [`lulesh_exp::velocity_profiles`] |
//! | Table III      | [`lulesh_exp::overhead_table`] |
//! | Table IV       | [`lulesh_exp::early_termination_table`] |
//! | Table V        | [`wd_exp::fit_error_table`] |
//! | Figure 7       | [`wd_exp::curve_fit_series`] |
//! | Figure 8       | [`wd_exp::normalized_series`] |
//! | Table VI       | [`wd_exp::delay_time_table`] |
//! | Table VII      | [`wd_exp::overhead_table`] |
//! | headline       | [`summary::headline`] |

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fitting;
pub mod histref;
pub mod kernelbench;
pub mod lulesh_exp;
pub mod report;
pub mod rowref;
pub mod service;
pub mod snapbench;
pub mod summary;
pub mod table;
pub mod wd_exp;

/// `quick` when `BENCH_QUICK` is set (the CI-sized run of a table or
/// figure binary), `full` otherwise.
pub fn quick_or<T>(quick: T, full: T) -> T {
    if std::env::var("BENCH_QUICK").is_ok() {
        quick
    } else {
        full
    }
}

/// Median wall-clock nanoseconds of `runs` executions of `f`, after one
/// warm-up execution — the one timing discipline shared by every
/// `BENCH_*.json`-producing binary **and** by `perf_smoke`'s floor
/// comparison (they must measure the same way for the comparison to mean
/// anything).
pub fn median_ns<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    samples[samples.len() / 2]
}
