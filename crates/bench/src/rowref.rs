//! Row-oriented reference pipeline for the layout benchmarks.
//!
//! A faithful recreation of the pipeline as it existed **before** the
//! columnar struct-of-arrays refactor: one `Vec<f64>` heap allocation per
//! training row at assembly time, batches as `Vec<BatchRow>`, and a trainer
//! whose kernel re-boxes every row (`Vec<(Vec<f64>, f64)>`) and
//! reallocates its gradient/parameter buffers every epoch. The arithmetic
//! is identical to [`insitu::model::IncrementalTrainer`] — verified bitwise
//! by this module's tests — so the `row` vs `columnar` benchmarks measure
//! exactly the memory-layout difference, nothing else.
//!
//! Kept out of the library's public story on purpose: this exists only so
//! `benches/collection.rs` and `src/bin/bench_columnar.rs` can quantify
//! what the refactor bought (recorded in `BENCH_columnar.json`).

use insitu::collect::{BatchAssembler, PredictorLayout, SampleHistory};
use insitu::kernels::{self, hsum4, Kernels};
use insitu::model::{Optimizer, OptimizerKind};
use insitu::IterParam;

/// One supervised training row, as the pre-refactor pipeline stored it:
/// an owned predictor vector per row.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// Predictor values (one heap allocation per row — the point of the
    /// comparison).
    pub inputs: Vec<f64>,
    /// The target value.
    pub target: f64,
}

/// Running mean/variance identical to `insitu::model::OnlineScaler`
/// (re-stated here so the row trainer is self-contained).
#[derive(Debug, Clone, Default)]
struct Scaler {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Scaler {
    fn update(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
    }

    fn std_dev(&self) -> f64 {
        if self.count < 2 {
            return 1.0;
        }
        let var = self.m2 / self.count as f64;
        if var <= 1e-30 {
            1.0
        } else {
            var.sqrt()
        }
    }

    fn transform(&self, value: f64) -> f64 {
        (value - self.mean) / self.std_dev()
    }
}

/// The pre-refactor row-oriented trainer: per-row `Vec` predictors in, a
/// freshly allocated `Vec<(Vec<f64>, f64)>` of scaled rows per batch, and
/// per-epoch gradient/parameter allocations — arithmetically identical to
/// the columnar [`IncrementalTrainer`](insitu::model::IncrementalTrainer).
#[derive(Debug)]
pub struct RowTrainer {
    order: usize,
    epochs_per_batch: usize,
    intercept: f64,
    coefficients: Vec<f64>,
    optimizer: Box<dyn Optimizer>,
    input_scaler: Scaler,
    target_scaler: Scaler,
    batches: usize,
    last_loss: f64,
}

impl RowTrainer {
    /// Creates a trainer with the persistence initialization the library
    /// uses.
    pub fn new(order: usize, optimizer: OptimizerKind, epochs_per_batch: usize) -> Self {
        let mut coefficients = vec![0.0; order];
        coefficients[0] = 1.0;
        Self {
            order,
            epochs_per_batch,
            intercept: 0.0,
            coefficients,
            optimizer: optimizer.build(order + 1),
            input_scaler: Scaler::default(),
            target_scaler: Scaler::default(),
            batches: 0,
            last_loss: f64::INFINITY,
        }
    }

    /// Number of batches consumed.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Loss of the most recent batch.
    pub fn last_loss(&self) -> f64 {
        self.last_loss
    }

    fn predict_scaled(&self, inputs: &[f64]) -> f64 {
        kernels::scalar().affine(self.intercept, &self.coefficients, inputs)
    }

    /// One gradient-descent update over a row-oriented batch — the
    /// pre-refactor memory layout (per-row `Vec`s, per-epoch allocations),
    /// on the library's canonical 4-lane reduction tree (element `i` of a
    /// reduction accumulates into lane `i & 3`, rows into lane `row & 3`,
    /// lanes combine as [`hsum4`]) so the losses stay bit-identical to the
    /// columnar trainer's kernel path.
    pub fn train_batch(&mut self, rows: &[BatchRow]) -> f64 {
        for row in rows {
            for &x in &row.inputs {
                self.input_scaler.update(x);
            }
            self.target_scaler.update(row.target);
        }
        let scaled: Vec<(Vec<f64>, f64)> = rows
            .iter()
            .map(|row| {
                (
                    row.inputs
                        .iter()
                        .map(|&x| self.input_scaler.transform(x))
                        .collect(),
                    self.target_scaler.transform(row.target),
                )
            })
            .collect();

        let dim = self.order + 1;
        const MAX_GRADIENT_NORM: f64 = 2.0;
        // Input energy: the flat sum-of-squares over the concatenated
        // predictors, element index running across row boundaries exactly
        // like the columnar kernel's contiguous column (zero-padded tail
        // group included).
        let mut energy_lanes = [0.0f64; 4];
        let mut flat_index = 0usize;
        for (inputs, _) in &scaled {
            for &x in inputs {
                energy_lanes[flat_index & 3] += x * x;
                flat_index += 1;
            }
        }
        if !flat_index.is_multiple_of(4) {
            for lane in energy_lanes.iter_mut().skip(flat_index % 4) {
                *lane += 0.0 * 0.0;
            }
        }
        let input_energy = 1.0 + hsum4(energy_lanes) / scaled.len() as f64;
        for _ in 0..self.epochs_per_batch {
            // Lane-major gradient scratch: component k's four row lanes at
            // [4k .. 4k+4], mirroring the kernel's layout.
            let mut lanes = vec![0.0f64; 4 * dim];
            let mut params = Vec::with_capacity(dim);
            params.push(self.intercept);
            params.extend_from_slice(&self.coefficients);
            for (r, (inputs, target)) in scaled.iter().enumerate() {
                let residual = self.predict_scaled(inputs) - target;
                let r2 = 2.0 * residual;
                let lane = r & 3;
                lanes[lane] += r2;
                for (k, &x) in inputs.iter().enumerate() {
                    lanes[4 * (k + 1) + lane] += r2 * x;
                }
            }
            let mut grads = vec![0.0; dim];
            for (k, grad) in grads.iter_mut().enumerate() {
                *grad = hsum4(lanes[4 * k..4 * k + 4].try_into().expect("lane group"));
            }
            let scale = 1.0 / (scaled.len() as f64 * input_energy);
            grads.iter_mut().for_each(|g| *g *= scale);
            let norm = kernels::scalar().sum_squares(&grads).sqrt();
            if norm > MAX_GRADIENT_NORM {
                let shrink = MAX_GRADIENT_NORM / norm;
                grads.iter_mut().for_each(|g| *g *= shrink);
            }
            self.optimizer.step(&mut params, &grads);
            self.intercept = params[0];
            self.coefficients.copy_from_slice(&params[1..]);
        }

        let mut loss_lanes = [0.0f64; 4];
        for (r, (inputs, target)) in scaled.iter().enumerate() {
            let d = self.predict_scaled(inputs) - target;
            loss_lanes[r & 3] += d * d;
        }
        let loss = hsum4(loss_lanes) / scaled.len() as f64;
        self.batches += 1;
        self.last_loss = loss;
        loss
    }
}

/// The shared assemble+train workload both layouts run: a pre-recorded
/// pulse history plus the spatio-temporal assembler over it.
pub struct LayoutWorkload {
    /// The recorded samples.
    pub history: SampleHistory,
    /// The row builder.
    pub assembler: BatchAssembler,
    /// Iterations to assemble batches for.
    pub iterations: Vec<u64>,
    /// The sampled locations (the spatial characteristic, enumerated).
    pub locations: Vec<usize>,
    /// AR order.
    pub order: usize,
    /// Mini-batch fill threshold.
    pub batch_capacity: usize,
}

/// Standard workload parameters shared by the bench and the JSON bin.
pub const WORKLOAD_ORDER: usize = 3;
/// Mini-batch capacity of the standard workload.
pub const WORKLOAD_BATCH: usize = 16;
/// Gradient-descent epochs per batch of the standard workload.
pub const WORKLOAD_EPOCHS: usize = 4;

/// Builds the standard workload: `locations` sampled locations over
/// `iterations` iterations of a travelling decaying pulse.
pub fn workload(locations: u64, iterations: u64) -> LayoutWorkload {
    let spatial = IterParam::new(1, locations, 1).expect("valid spatial range");
    let temporal = IterParam::new(0, iterations, 1).expect("valid temporal range");
    let mut history = SampleHistory::new(spatial);
    let mut row = Vec::with_capacity(locations as usize);
    for it in 0..=iterations {
        row.clear();
        row.extend((1..=locations).map(|loc| {
            let x = loc as f64;
            let front = it as f64 * 0.1;
            10.0 / (1.0 + x) * (-((x - front) * (x - front)) / 50.0).exp()
        }));
        history.record_step(it, &row);
    }
    LayoutWorkload {
        history,
        assembler: BatchAssembler::new(
            WORKLOAD_ORDER,
            5,
            PredictorLayout::SpatioTemporal,
            spatial,
            temporal,
        ),
        iterations: (0..=iterations).collect(),
        locations: spatial.iter().map(|loc| loc as usize).collect(),
        order: WORKLOAD_ORDER,
        batch_capacity: WORKLOAD_BATCH,
    }
}

/// Drives the workload through the **row-oriented** pipeline: per-row
/// `Vec` assembly (a fresh predictor `Vec` per row), `Vec<BatchRow>`
/// batches drained by reallocation, row trainer. Returns
/// `(batches, last_loss)`.
pub fn run_row_pipeline(w: &LayoutWorkload) -> (usize, f64) {
    let mut trainer = RowTrainer::new(
        w.order,
        OptimizerKind::Sgd {
            learning_rate: 0.05,
        },
        WORKLOAD_EPOCHS,
    );
    let mut batch: Vec<BatchRow> = Vec::with_capacity(w.batch_capacity);
    for &iteration in &w.iterations {
        for &loc in &w.locations {
            let Some(target) = w.history.value_at(loc, iteration) else {
                continue;
            };
            // One fresh predictor vector per row: exactly the per-row
            // allocation this reference pipeline exists to recreate.
            let mut inputs = vec![0.0; w.order];
            if w.assembler
                .write_predictors_for(&w.history, loc, iteration, &mut inputs)
                .is_some()
            {
                batch.push(BatchRow { inputs, target });
            }
        }
        if batch.len() >= w.batch_capacity {
            trainer.train_batch(&batch);
            // The pre-refactor `MiniBatch::drain` returned the backing
            // vector and restarted from an empty one.
            batch = Vec::with_capacity(w.batch_capacity);
        }
    }
    (trainer.batches(), trainer.last_loss())
}

/// Drives the same workload through the **columnar** pipeline: predictors
/// written straight into the recycled
/// [`MiniBatch`](insitu::collect::MiniBatch), contiguous-slice trainer.
/// Pinned to the scalar kernels so the row-vs-columnar rows measure the
/// memory layout alone. Returns `(batches, last_loss)`.
pub fn run_columnar_pipeline(w: &LayoutWorkload) -> (usize, f64) {
    run_columnar_pipeline_with(w, kernels::scalar())
}

/// The columnar pipeline on the host's dispatched SIMD kernels —
/// `bench_columnar`'s end-to-end scalar-vs-dispatched comparison.
pub fn run_columnar_pipeline_dispatched(w: &LayoutWorkload) -> (usize, f64) {
    run_columnar_pipeline_with(w, kernels::select())
}

/// The columnar pipeline on an explicit kernel set.
pub fn run_columnar_pipeline_with(w: &LayoutWorkload, kernels: &'static Kernels) -> (usize, f64) {
    use insitu::collect::BatchPool;
    use insitu::model::{ConvergenceCriteria, IncrementalTrainer, TrainerConfig};

    let mut trainer = IncrementalTrainer::with_kernels(
        TrainerConfig {
            order: w.order,
            optimizer: OptimizerKind::Sgd {
                learning_rate: 0.05,
            },
            epochs_per_batch: WORKLOAD_EPOCHS,
            convergence: ConvergenceCriteria::default(),
        },
        kernels,
    )
    .expect("valid trainer configuration");
    let mut pool = BatchPool::new(w.order, w.batch_capacity);
    let mut batch = pool.acquire();
    for &iteration in &w.iterations {
        w.assembler
            .append_rows_for_iteration(&w.history, iteration, &mut batch);
        if batch.is_full() {
            trainer.train_batch(&batch).expect("orders match");
            let full = std::mem::replace(&mut batch, pool.acquire());
            pool.release(full);
        }
    }
    let summary = trainer.summary();
    (summary.batches, summary.last_loss)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatched_pipeline_matches_the_scalar_pipeline() {
        let w = workload(20, 200);
        let (scalar_batches, scalar_loss) = run_columnar_pipeline(&w);
        let (simd_batches, simd_loss) = run_columnar_pipeline_dispatched(&w);
        assert_eq!(scalar_batches, simd_batches, "batch cadence must agree");
        assert_eq!(
            scalar_loss.to_bits(),
            simd_loss.to_bits(),
            "dispatched loss {simd_loss:e} != scalar loss {scalar_loss:e}"
        );
    }

    #[test]
    fn row_reference_is_bit_identical_to_the_columnar_trainer() {
        // The comparison is only fair if both pipelines do the same math:
        // identical batch counts and bit-identical final losses.
        for locations in [10u64, 40] {
            let w = workload(locations, 300);
            let (row_batches, row_loss) = run_row_pipeline(&w);
            let (col_batches, col_loss) = run_columnar_pipeline(&w);
            assert_eq!(row_batches, col_batches, "batch cadence must agree");
            assert!(row_batches > 10);
            assert_eq!(
                row_loss.to_bits(),
                col_loss.to_bits(),
                "row-reference loss {row_loss:e} != columnar loss {col_loss:e}"
            );
        }
    }
}
