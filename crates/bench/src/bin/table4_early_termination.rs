//! Regenerates Table IV: early-termination performance of the LULESH proxy
//! for identifying the material break-point under various thresholds.

use bench::lulesh_exp::early_termination_table;
use bench::table::{fmt_f, fmt_pct, fmt_radius, TextTable};

fn main() {
    let sizes: Vec<usize> = bench::quick_or(vec![20], vec![30, 60, 90]);
    let thresholds = [0.1, 0.2, 0.5, 0.75, 1.0, 2.0, 5.0, 10.0, 20.0];
    let rows = early_termination_table(&sizes, &thresholds);
    let mut table = TextTable::new(vec![
        "size",
        "threshold(%)",
        "radius",
        "iterations",
        "% of full iters",
        "time (s)",
        "% of full time",
    ]);
    for row in &rows {
        table.add_row(vec![
            row.size.to_string(),
            fmt_f(row.threshold_percent, 2),
            row.radius
                .map_or_else(|| "-".into(), |r| fmt_radius(r, row.bounded)),
            format!("{} ({})", row.iterations, row.full_iterations),
            fmt_pct(row.iteration_percent()),
            fmt_f(row.seconds, 4),
            fmt_pct(row.time_percent()),
        ]);
    }
    println!("Table IV — early termination when identifying the break-point");
    println!("{table}");
}
