//! Outside-timed calls into single layers at the workloads' shapes: the
//! dispatched kernel rows, a pool job round trip, and the wire codec.

use std::hint::black_box;
use std::time::Instant;

use parsim::ThreadPool;
use serve::Frame;

use crate::report::Report;
use crate::stats::{median, ns_since};

/// AR order of every workload's trainer.
const ORDER: usize = 3;

/// Timing repeats; each layer reports the median repeat.
const REPEATS: usize = 7;

/// Median over [`REPEATS`] of `reps` calls' mean nanoseconds per call.
fn time_calls(reps: usize, mut call: impl FnMut()) -> f64 {
    let mut means = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let started = Instant::now();
        for _ in 0..reps {
            call();
        }
        means.push(ns_since(started) as f64 / reps as f64);
    }
    median(&means)
}

/// Times the dispatched training kernels on a batch of `rows` rows of the
/// workloads' AR order, with each kernel's computed bytes per row.
pub fn kernels(rows: usize, report: &mut Report) {
    let k = insitu::kernels::select();
    let inputs: Vec<f64> = (0..rows * ORDER).map(|i| (i as f64 * 0.37).sin()).collect();
    let targets: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.61).cos()).collect();
    let coeffs = [0.5, -0.25, 0.125];
    let mut grads = [0.0; ORDER + 1];
    let mut lanes = [0.0; 4 * (ORDER + 1)];
    let reps = 20_000;
    let per_row = |ns: f64| ns / rows as f64;

    let grad = time_calls(reps, || {
        k.grad_epoch(
            black_box(&inputs),
            black_box(&targets),
            0.1,
            &coeffs,
            &mut grads,
            &mut lanes,
        );
        black_box(&grads);
    });
    let loss = time_calls(reps, || {
        black_box(k.loss_sum(black_box(&inputs), black_box(&targets), 0.1, &coeffs));
    });
    let mut values = inputs.clone();
    let transform = time_calls(reps, || {
        k.transform(black_box(&mut values), 0.01, 1.0);
    });
    let row_bytes = ((ORDER + 1) * std::mem::size_of::<f64>()) as f64;
    report.set("kernels.grad_epoch_ns_per_row", per_row(grad));
    report.set("kernels.grad_epoch_bytes_per_row", row_bytes);
    report.set("kernels.loss_sum_ns_per_row", per_row(loss));
    report.set("kernels.loss_sum_bytes_per_row", row_bytes);
    report.set(
        "kernels.transform_ns_per_value",
        transform / values.len() as f64,
    );
    // Each value is read and written back.
    report.set(
        "kernels.transform_bytes_per_value",
        2.0 * std::mem::size_of::<f64>() as f64,
    );
}

/// Median nanoseconds to hand a trivial job to the pool and join it.
pub fn spawn_join_ns(pool: &ThreadPool) -> f64 {
    time_calls(2_000, || {
        black_box(pool.spawn_job(|| black_box(1u64)).join());
    })
}

/// Nanoseconds to encode and to decode one frame: `(encode, decode)`.
pub fn codec_ns(frame: &Frame) -> (f64, f64) {
    let mut buf = Vec::new();
    let encode = time_calls(20_000, || {
        buf.clear();
        black_box(frame).encode(&mut buf);
        black_box(&buf);
    });
    // The body is the frame without its 4-byte length prefix.
    let decode = time_calls(20_000, || {
        black_box(Frame::decode(black_box(&buf[4..])).is_ok());
    });
    (encode, decode)
}
