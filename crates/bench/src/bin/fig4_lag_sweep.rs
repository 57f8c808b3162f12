//! Regenerates Figure 4: curve-fitting error at location 10 for lag values
//! 50 and 100 over 40/60/80 % of total iterations (LULESH proxy, size 30).

use bench::lulesh_exp::lag_sweep;
use bench::table::{fmt_pct, TextTable};

fn main() {
    let size = bench::quick_or(16, 30);
    let location = 10.min(size / 2);
    let lags: Vec<usize> = if size >= 30 {
        vec![50, 100]
    } else {
        vec![10, 20]
    };
    let rows = lag_sweep(size, location, &lags);
    let mut table = TextTable::new(vec!["lag", "40% iters", "60% iters", "80% iters"]);
    for &lag in &lags {
        let cell = |fraction: f64| {
            rows.iter()
                .find(|r| r.lag == lag && (r.fraction - fraction).abs() < 1e-9)
                .map_or_else(|| "-".into(), |r| fmt_pct(r.error_rate_percent))
        };
        table.add_row(vec![lag.to_string(), cell(0.4), cell(0.6), cell(0.8)]);
    }
    println!("Figure 4 — curve-fitting error at location {location} vs lag, domain size {size}");
    println!("{table}");
    if rows.len() < 3 * lags.len() {
        println!("-: the AR lags reach back past the training cut; no mini-batch trains");
    }
}
