//! Regenerates Figure 5: the velocity distribution over timesteps at
//! locations 1–10 (LULESH proxy, size 30). Prints a down-sampled series per
//! location plus the per-location peak, which is the quantity the
//! break-point thresholds are applied to.

use bench::lulesh_exp::velocity_profiles;
use bench::table::{fmt_f, TextTable};

fn main() {
    let size = bench::quick_or(16, 30);
    let locations: Vec<usize> = (1..=10.min(size)).collect();
    let profiles = velocity_profiles(size, &locations);
    println!("Figure 5 — velocity over timesteps at locations 1..=10, domain size {size}");
    let mut table = TextTable::new(vec![
        "location",
        "samples",
        "peak velocity",
        "final velocity",
    ]);
    for (loc, pairs) in &profiles {
        let peak = pairs.iter().map(|(_, v)| v.abs()).fold(0.0_f64, f64::max);
        let last = pairs.last().map(|(_, v)| *v).unwrap_or(0.0);
        table.add_row(vec![
            loc.to_string(),
            pairs.len().to_string(),
            fmt_f(peak, 4),
            fmt_f(last, 4),
        ]);
    }
    println!("{table}");
    // Down-sampled series (every ~5% of the run) for plotting.
    println!("series (iteration: velocity), one line per location:");
    for (loc, pairs) in &profiles {
        let stride = (pairs.len() / 20).max(1);
        let mut line = format!("loc {loc:>2}: ");
        for (t, v) in pairs.iter().step_by(stride) {
            line.push_str(&format!("{t:.0}:{v:.3} "));
        }
        println!("{line}");
    }
}
