//! Regenerates Table I: curve-fitting error rates (%) for velocity by
//! location interval and training fraction (LULESH proxy, domain size 30,
//! lag 50).

use bench::lulesh_exp::fit_error_table;
use bench::table::{fmt_pct, TextTable};

fn main() {
    let size = bench::quick_or(16, 30);
    let lag = 50.min(size);
    let rows = fit_error_table(size, lag);
    let mut table = TextTable::new(vec![
        "locations".to_string(),
        "40% iters".to_string(),
        "60% iters".to_string(),
        "80% iters".to_string(),
    ]);
    // One row per interval, its cells at 40/60/80 %.
    for cells in rows.chunks(3) {
        let (begin, end) = cells[0].interval;
        let mut row = vec![format!("({begin}, {end})")];
        row.extend(cells.iter().map(|r| fmt_pct(r.error_rate_percent)));
        table.add_row(row);
    }
    println!(
        "Table I — error rates of curve-fitting (%) for velocity, domain size {size}, lag {lag}"
    );
    println!("{table}");
}
