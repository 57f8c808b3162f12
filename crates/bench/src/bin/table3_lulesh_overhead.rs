//! Regenerates Table III: LULESH execution time with and without in-situ
//! feature extraction across domain sizes and MPI rank counts.

use bench::lulesh_exp::overhead_table;
use bench::table::{fmt_f, fmt_pct, TextTable};

fn main() {
    let (sizes, ranks): (Vec<usize>, Vec<usize>) = bench::quick_or(
        (vec![20, 30], vec![1, 8]),
        (vec![30, 60, 90], vec![1, 8, 27]),
    );
    let rows = overhead_table(&sizes, &ranks);
    let mut table = TextTable::new(vec![
        "size",
        "MPIxOMP",
        "origin (s)",
        "non-stop (s)",
        "overhead (s)",
        "overhead (%)",
    ]);
    for row in &rows {
        table.add_row(vec![
            row.size.to_string(),
            row.config.clone(),
            fmt_f(row.origin_seconds, 4),
            fmt_f(row.nonstop_seconds, 4),
            fmt_f(row.overhead_seconds(), 4),
            fmt_pct(row.overhead_percent()),
        ]);
    }
    println!("Table III — LULESH execution time and feature-extraction overhead");
    println!("{table}");
}
