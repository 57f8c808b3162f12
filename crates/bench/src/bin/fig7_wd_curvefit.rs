//! Regenerates Figure 7: predicted vs. real curves for the four WD
//! diagnostic variables using 25 % of the total iterations for training.

use bench::table::{fmt_f, fmt_pct, TextTable};
use bench::wd_exp::curve_fit_series;

fn main() {
    let resolution = bench::quick_or(16, 32);
    let series = curve_fit_series(resolution, 0.25);
    println!("Figure 7 — curve-fitting (pred vs real) at 25% training, resolution {resolution}");
    let mut table = TextTable::new(vec!["diagnostic var.", "points", "error rate", "accuracy"]);
    for (variable, outcome) in &series {
        table.add_row(vec![
            variable.name().to_string(),
            outcome.predicted.len().to_string(),
            fmt_pct(outcome.error_rate_percent),
            fmt_pct(outcome.accuracy_percent()),
        ]);
    }
    println!("{table}");
    println!("series (iteration: pred/real), one line per variable:");
    for (variable, outcome) in &series {
        let stride = (outcome.predicted.len() / 15).max(1);
        let mut line = format!("{:<12}: ", variable.name());
        for k in (0..outcome.predicted.len()).step_by(stride) {
            line.push_str(&format!(
                "{}:{}/{} ",
                outcome.iterations[k],
                fmt_f(outcome.predicted[k], 3),
                fmt_f(outcome.actual[k], 3)
            ));
        }
        println!("{line}");
    }
}
