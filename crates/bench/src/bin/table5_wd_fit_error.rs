//! Regenerates Table V: curve-fitting error rates (%) for the four WD
//! diagnostic variables using training data from 10/25/50 % of the total
//! iterations (resolution 32).

use bench::table::{fmt_pct, TextTable};
use bench::wd_exp::fit_error_table;

fn main() {
    let resolution = bench::quick_or(16, 32);
    let fractions = [0.10, 0.25, 0.50];
    let rows = fit_error_table(resolution, &fractions);
    let mut table = TextTable::new(vec!["diagnostic var.", "10%", "25%", "50%"]);
    // One row per variable, its cells in fraction order.
    for cells in rows.chunks(fractions.len()) {
        let mut row = vec![cells[0].variable.name().to_string()];
        row.extend(cells.iter().map(|r| fmt_pct(r.error_rate_percent)));
        table.add_row(row);
    }
    println!("Table V — error rates of curve-fitting (%), wdmerger resolution {resolution}");
    println!("{table}");
}
