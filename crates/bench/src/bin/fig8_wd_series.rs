//! Regenerates Figure 8: the normalized diagnostic series (temperature,
//! angular momentum, mass, energy) over timesteps, whose inflection points
//! indicate the detonation.

use bench::table::fmt_f;
use bench::wd_exp::normalized_series;
use insitu::extract::DelayTimeExtractor;

fn main() {
    let resolution = bench::quick_or(16, 32);
    let series = normalized_series(resolution);
    println!("Figure 8 — normalized diagnostic variables over timesteps, resolution {resolution}");
    let extractor = DelayTimeExtractor::new();
    for (variable, times, values) in &series {
        let inflection = extractor
            .extract(times, values)
            .map(|r| format!("{:.2}", r.delay_time))
            .unwrap_or_else(|_| "-".into());
        let stride = (values.len() / 20).max(1);
        let mut line = format!("{:<12} (inflection @ {inflection}): ", variable.name());
        for k in (0..values.len()).step_by(stride) {
            line.push_str(&format!("{}:{} ", times[k] as u64, fmt_f(values[k], 2)));
        }
        println!("{line}");
    }
}
