//! Regenerates Table VII: wdmerger execution time (original, with feature
//! extraction, with early termination), overhead and acceleration across
//! resolutions and MPI × OpenMP configurations.

use bench::table::{fmt_f, fmt_pct, TextTable};
use bench::wd_exp::overhead_table;

fn main() {
    let (resolutions, configs): (Vec<usize>, Vec<(usize, usize)>) = bench::quick_or(
        (vec![16, 32], vec![(8, 1), (8, 2)]),
        (
            vec![16, 32, 48],
            vec![(8, 1), (8, 2), (8, 4), (16, 1), (16, 2), (32, 1)],
        ),
    );
    let rows = overhead_table(&resolutions, &configs, 0.5);
    let mut table = TextTable::new(vec![
        "resolution",
        "MPIxOMP",
        "orig (s)",
        "no-stop (s)",
        "ovh (%)",
        "stop (s)",
        "acc (%)",
    ]);
    for row in &rows {
        table.add_row(vec![
            row.resolution.to_string(),
            row.config.clone(),
            fmt_f(row.origin_seconds, 4),
            fmt_f(row.nonstop_seconds, 4),
            fmt_pct(row.overhead_percent()),
            fmt_f(row.stop_seconds, 4),
            fmt_pct(row.acceleration_percent()),
        ]);
    }
    println!("Table VII — wdmerger execution time, overhead and acceleration");
    println!("{table}");
}
