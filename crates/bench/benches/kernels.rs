//! Criterion micro-bench: each dispatched `insitu::kernels` hot loop,
//! scalar versus every SIMD dispatch the host offers. This is the
//! per-kernel companion to the committed pipeline benches
//! (`BENCH_columnar.json` carries the enforced numbers); run it to see
//! where a new kernel's cycles go.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use insitu::kernels::{self, Kernels};

/// Deterministic xorshift64* fill, matching the identity test's generator.
fn fill(seed: u64, buf: &mut [f64]) {
    let mut x = seed | 1;
    for v in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *v = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    }
}

fn candidates() -> Vec<&'static Kernels> {
    kernels::candidates()
}

fn bench_affine(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/affine");
    group.sample_size(40);
    for order in [3usize, 8] {
        let mut coeffs = vec![0.0; order];
        let mut inputs = vec![0.0; order];
        fill(3, &mut coeffs);
        fill(4, &mut inputs);
        for k in candidates() {
            group.bench_function(format!("{}_order{order}", k.name()), |b| {
                b.iter(|| k.affine(black_box(0.5), black_box(&coeffs), black_box(&inputs)));
            });
        }
    }
    group.finish();
}

fn bench_grad_and_loss(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/grad_epoch");
    group.sample_size(40);
    let order = 3;
    for rows in [16usize, 256] {
        let mut inputs = vec![0.0; rows * order];
        let mut targets = vec![0.0; rows];
        let mut coeffs = vec![0.0; order];
        fill(5, &mut inputs);
        fill(6, &mut targets);
        fill(7, &mut coeffs);
        for k in candidates() {
            group.bench_function(format!("{}_rows{rows}", k.name()), |b| {
                let mut grads = vec![0.0; order + 1];
                let mut lanes = vec![0.0; 4 * (order + 1)];
                b.iter(|| {
                    k.grad_epoch(
                        black_box(&inputs),
                        black_box(&targets),
                        0.1,
                        black_box(&coeffs),
                        &mut grads,
                        &mut lanes,
                    );
                });
            });
            group.bench_function(format!("loss_{}_rows{rows}", k.name()), |b| {
                b.iter(|| k.loss_sum(black_box(&inputs), black_box(&targets), 0.1, &coeffs));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_affine, bench_grad_and_loss);
criterion_main!(benches);
