//! Regenerates Table II: derived break-point radius vs. the simulation's
//! ground truth across velocity thresholds (LULESH proxy, size 30).

use bench::lulesh_exp::breakpoint_table;
use bench::table::{fmt_f, fmt_radius, TextTable};

fn main() {
    let size = bench::quick_or(20, 30);
    let thresholds = [0.1, 0.2, 0.5, 0.75, 1.0, 2.0, 5.0, 10.0, 20.0];
    let rows = breakpoint_table(size, &thresholds, 0.4, (size / 3).max(10));
    let mut table = TextTable::new(vec![
        "threshold(%)",
        "from sim.",
        "feat. extraction",
        "difference",
        "error(%)",
    ]);
    for row in &rows {
        table.add_row(vec![
            fmt_f(row.threshold_percent, 2),
            row.from_simulation.to_string(),
            fmt_radius(row.from_extraction, row.bounded),
            row.difference.to_string(),
            fmt_f(row.error_percent(), 2),
        ]);
    }
    println!("Table II — derived radius of break-point, domain size {size}");
    println!("{table}");
}
