//! Ablation: mini-batch size vs. curve-fitting error and number of updates.

use bench::ablation::{self, minibatch_sweep};

fn main() {
    let size = bench::quick_or(16, 30);
    let rows = minibatch_sweep(size, 8.min(size / 2), &[4, 8, 16, 32, 64]);
    println!("Ablation — mini-batch size (LULESH velocity, size {size})");
    println!("{}", ablation::table("configuration", &rows));
}
