//! Ablation: AR model order and lag vs. curve-fitting error (extends the
//! paper's Figure 4).

use bench::ablation::{self, lag_order_sweep};

fn main() {
    let size = bench::quick_or(16, 30);
    let rows = lag_order_sweep(size, 8.min(size / 2), &[1, 2, 3, 5], &[1, 10, 25, 50, 100]);
    println!("Ablation — AR order x lag (LULESH velocity, size {size})");
    println!("{}", ablation::table("configuration", &rows));
}
