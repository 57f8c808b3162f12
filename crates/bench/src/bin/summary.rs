//! Prints the headline accuracy and overhead ranges (the paper's abstract
//! quotes 94.44 %–99.60 % accuracy and 0.11 %–4.95 % overhead).

use bench::summary::headline;
use bench::table::fmt_pct;

fn main() {
    let (size, resolution) = bench::quick_or((16, 16), (30, 32));
    let h = headline(size, resolution);
    println!("Headline — feature-extraction accuracy and simulation overhead");
    println!(
        "accuracy: {} .. {}",
        fmt_pct(h.min_accuracy_percent),
        fmt_pct(h.max_accuracy_percent)
    );
    println!(
        "overhead: {} .. {}",
        fmt_pct(h.min_overhead_percent),
        fmt_pct(h.max_overhead_percent)
    );
}
