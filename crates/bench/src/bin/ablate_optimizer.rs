//! Ablation: optimizer family (SGD / momentum / Adagrad) vs. curve-fitting
//! error on the same mini-batch stream.

use bench::ablation::{self, optimizer_sweep};

fn main() {
    let size = bench::quick_or(16, 30);
    let rows = optimizer_sweep(size, 8.min(size / 2));
    println!("Ablation — optimizer family (LULESH velocity, size {size})");
    println!("{}", ablation::table("optimizer", &rows));
}
