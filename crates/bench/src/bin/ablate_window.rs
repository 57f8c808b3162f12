//! Ablation: spatial sampling window vs. curve-fitting error (generalizes
//! the paper's Table I).

use bench::ablation::{self, window_sweep};

fn main() {
    let size = bench::quick_or(16, 30);
    let third = size / 3;
    let windows = [
        (1, third),
        (third, 2 * third),
        (2 * third, size - 1),
        (1, size - 1),
    ];
    let rows = window_sweep(size, &windows, 0.4);
    println!("Ablation — spatial sampling window at 40% training (size {size})");
    println!("{}", ablation::table("window", &rows));
}
