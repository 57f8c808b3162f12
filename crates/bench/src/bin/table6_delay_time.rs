//! Regenerates Table VI: the derived delay time of thermonuclear detonation
//! per diagnostic variable, compared to the value obtained from the full
//! simulation dataset.

use bench::table::{fmt_f, fmt_pct, TextTable};
use bench::wd_exp::delay_time_table;

fn main() {
    let resolution = bench::quick_or(16, 32);
    let rows = delay_time_table(resolution, 0.25);
    let mut table = TextTable::new(vec![
        "diagnostic var.",
        "from sim.",
        "feat. extraction",
        "difference",
        "error(%)",
    ]);
    for row in &rows {
        table.add_row(vec![
            row.variable.name().to_string(),
            fmt_f(row.from_simulation, 3),
            fmt_f(row.from_extraction, 3),
            fmt_f(row.difference(), 3),
            fmt_pct(row.error_percent()),
        ]);
    }
    println!("Table VI — derived delay-time of thermonuclear detonation, resolution {resolution}");
    println!("{table}");
}
