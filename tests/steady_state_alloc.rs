//! Counting-allocator proof that the steady-state step performs **zero
//! per-row heap allocations** across the whole pipeline: sample, record,
//! assemble, train, **and extract**.
//!
//! A global allocator counts every `alloc`/`realloc`. Two engines run the
//! same scenario at an 8× different row rate (8 vs 64 training rows per
//! iteration) with the mini-batch capacity scaled proportionally, so both
//! consume the **same number of batches** per window. Every window step
//! additionally forces a feature extraction (`extract_now`), which reads
//! the history's incrementally-maintained peak profile as a borrowed
//! slice — if extraction rescanned or gathered the per-location series
//! (as the original map-based store did), its allocations would scale
//! with the location count. If any stage — sample, record, assemble, train,
//! extract — allocated per row, the larger configuration would allocate
//! more; the test asserts the steady-state allocation count of a 100-step
//! window is *identical* for both sizes, in Inline and Background training
//! modes alike. (A small per-step / per-batch constant — the step report,
//! the extracted-feature status entry, the background job boxes — is
//! allowed; scaling with rows is not.)
//!
//! A `Retention::Window` leg runs the same scenario on a bounded history
//! and re-samples every iteration with a lowered domain: the history
//! compacts its rows every window, and each same-iteration overwrite that
//! lowers a column's peak rescans that column — neither may allocate.
//!
//! Keep this file to a **single test**: the counter is process-global, so
//! concurrently running tests would perturb each other's windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use insitu::collect::Retention;
use insitu::engine::{Engine, EngineConfig, TrainingMode};
use insitu::extract::FeatureKind;
use insitu::model::{ConvergenceCriteria, OptimizerKind, TrainerConfig};
use insitu::region::AnalysisSpec;
use insitu::telemetry::StepBudget;
use insitu::IterParam;
use parsim::{ParallelConfig, ThreadPool};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A toy domain: an outward-travelling decaying pulse.
struct Pulse {
    values: Vec<f64>,
}

impl Pulse {
    fn advance(&mut self, iteration: u64) {
        let front = iteration as f64 * 0.05;
        for (loc, v) in self.values.iter_mut().enumerate() {
            let x = loc as f64;
            *v = 10.0 / (1.0 + x) * (-((x - front) * (x - front)) / 50.0).exp();
        }
    }
}

const ORDER: usize = 3;
const WARMUP_STEPS: u64 = 200;
const WINDOW_STEPS: u64 = 100;

/// Runs warm-up, then measures the allocations of a `WINDOW_STEPS`-step
/// steady-state window. `locations` controls the row rate; the batch
/// capacity scales with it so every configuration trains the same number
/// of batches per window. With `telemetry` the stage-event recorder is armed AND a 1 ns
/// `DeferExtraction` budget keeps the engine permanently overloaded, so
/// every window step records stage events *and* a shed decision — all of
/// which must stay allocation-free. With `windowed` the history keeps a
/// [`Retention::Window`] and every iteration is sampled twice, the second
/// time from a halved domain (a peak-lowering overwrite).
fn window_allocations(locations: u64, mode: TrainingMode, telemetry: bool, windowed: bool) -> u64 {
    let rows_per_iteration = (locations as usize) - ORDER;
    let pool = ThreadPool::new(ParallelConfig::new(2, 2).unwrap());
    let mut config = match mode {
        TrainingMode::Inline => EngineConfig::inline(),
        TrainingMode::Background => EngineConfig::background(pool),
    };
    if telemetry {
        config.telemetry.enabled = Some(true);
        config.budget = Some(StepBudget::new(std::time::Duration::from_nanos(1)));
    }
    let mut engine: Engine<Pulse> = Engine::with_config(config);
    let region = engine.add_region("steady").unwrap();
    let spec = AnalysisSpec::builder()
        .name("velocity")
        .provider(|d: &Pulse, loc: usize| d.values.get(loc).copied().unwrap_or(0.0))
        .spatial(IterParam::new(1, locations, 1).unwrap())
        .temporal(IterParam::new(0, 1_000_000, 1).unwrap())
        .feature(FeatureKind::Breakpoint { threshold: 0.05 })
        .lag(5)
        .retention(if windowed {
            Retention::Window(16)
        } else {
            Retention::Full
        })
        // One batch every two iterations, at every size (a windowed
        // iteration is sampled, and its rows assembled, twice).
        .batch_capacity(2 * rows_per_iteration * (1 + usize::from(windowed)))
        .trainer(TrainerConfig {
            order: ORDER,
            optimizer: OptimizerKind::Sgd {
                learning_rate: 0.05,
            },
            epochs_per_batch: 4,
            // Never converge: keeps the window in the collection/training
            // regime (extraction would clone features into the status).
            convergence: ConvergenceCriteria {
                loss_threshold: 0.0,
                patience: usize::MAX,
                max_batches: 0,
            },
        })
        .build()
        .unwrap();
    engine.add_analysis(region, spec).unwrap();

    let mut domain = Pulse {
        values: vec![0.0; locations as usize + 4],
    };
    let mut step = |engine: &mut Engine<Pulse>, it: u64| {
        domain.advance(it);
        engine.step(it).complete(&domain);
        if windowed {
            for v in &mut domain.values {
                *v *= 0.5;
            }
            engine.step(it).complete(&domain);
        }
    };
    for it in 0..WARMUP_STEPS {
        step(&mut engine, it);
    }
    // Settle all in-flight background work so the window only contains the
    // window's own batches.
    engine.drain();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for it in WARMUP_STEPS..WARMUP_STEPS + WINDOW_STEPS {
        step(&mut engine, it);
        // Force the extract stage every step: the break-point extraction
        // reads the borrowed incremental peak profile, so its cost must not
        // scale with the location count either.
        engine.extract_now(region).unwrap();
    }
    engine.drain();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    // The window must have actually exercised training and extraction.
    let status = engine.status(region).unwrap();
    let batches = status.batches_trained;
    assert!(
        batches * 2 >= (WARMUP_STEPS + WINDOW_STEPS) as usize - 10,
        "scenario must train a batch every two steps, got {batches}"
    );
    assert!(
        status.feature("velocity").is_some(),
        "the per-step extract_now must have extracted the breakpoint"
    );
    if telemetry {
        // The 1 ns budget must have overloaded every post-warm-up step, so
        // the window recorded shed events too.
        assert!(
            engine.shed_steps() >= WARMUP_STEPS + WINDOW_STEPS - 1,
            "the 1 ns budget must shed continuously, shed {} of {} steps",
            engine.shed_steps(),
            WARMUP_STEPS + WINDOW_STEPS
        );
        let analysis = engine.analysis_id(region, 0).unwrap();
        let recorder = engine.telemetry(analysis).unwrap();
        assert!(recorder.sheds() > 0);
        assert!(recorder.histogram(insitu::telemetry::Stage::Sample).count() > 0);
    }
    allocations
}

#[test]
fn steady_state_allocations_do_not_scale_with_rows() {
    // Right after spawning this test's thread, the test harness books it
    // (a few allocations on its own thread). A discarded first run keeps
    // that bookkeeping out of every measured window.
    window_allocations(8 + ORDER as u64, TrainingMode::Inline, false, false);

    // 8 rows/iteration vs 64 rows/iteration — an 8× difference in the
    // per-row work (800 vs 6400 rows per window). If any stage allocated
    // per row, the large window would allocate thousands more times than
    // the small one.
    for mode in [TrainingMode::Inline, TrainingMode::Background] {
        let small = window_allocations(8 + ORDER as u64, mode, false, false);
        let large = window_allocations(64 + ORDER as u64, mode, false, false);
        if mode == TrainingMode::Inline {
            // Single-threaded and fully deterministic: the counts must be
            // *identical* despite the 8× row-rate difference.
            assert_eq!(
                small, large,
                "Inline: steady-state allocations scale with the row count \
                 ({small} for 8 rows/step vs {large} for 64 rows/step over \
                 {WINDOW_STEPS} steps) — a per-row allocation crept back \
                 into the pipeline"
            );
        } else {
            // Background workers reclaim jobs at timing-dependent moments,
            // and the job channel allocates its message blocks on a
            // timing-dependent schedule, so the counts jitter by a few tens
            // of allocations per window (in either direction). What must
            // NOT happen is row scaling: the large window pushes 5600 more
            // rows through the pipeline than the small one, so even one
            // allocation per row would add ≥ 5600. Allow less than 2 % of
            // that as jitter headroom.
            assert!(
                large <= small + WINDOW_STEPS,
                "Background: steady-state allocations scale with the row \
                 count ({small} for 8 rows/step vs {large} for 64 rows/step \
                 over {WINDOW_STEPS} steps)"
            );
        }
        // And the constant itself stays a small per-step/per-batch cost
        // (step report + the extracted-feature status entries the per-step
        // extract_now rebuilds + job plumbing), nowhere near one allocation
        // per row (6400 rows flow through the large window).
        assert!(
            small <= 10 * WINDOW_STEPS,
            "{mode:?}: {small} allocations over {WINDOW_STEPS} steps is more \
             than a small per-step constant"
        );
    }

    // Telemetry legs: the recorder is armed (256-event ring, stage
    // histograms) AND a 1 ns DeferExtraction budget sheds every step, so
    // each window step records sample/assemble/train events plus a shed
    // event. Recording must be exactly as allocation-free as not
    // recording: the Inline counts stay *identical* across the 8× row-rate
    // difference, and Background stays within the same jitter headroom as
    // its untimed counterpart.
    for mode in [TrainingMode::Inline, TrainingMode::Background] {
        let small = window_allocations(8 + ORDER as u64, mode, true, false);
        let large = window_allocations(64 + ORDER as u64, mode, true, false);
        if mode == TrainingMode::Inline {
            assert_eq!(
                small, large,
                "telemetry {mode:?}: steady-state allocations scale with the \
                 row count with the recorder armed ({small} for 8 rows/step \
                 vs {large} for 64 rows/step over {WINDOW_STEPS} steps)"
            );
        } else {
            assert!(
                large <= small + WINDOW_STEPS,
                "telemetry {mode:?}: steady-state allocations scale with the \
                 row count with the recorder armed ({small} vs {large} over \
                 {WINDOW_STEPS} steps)"
            );
        }
        assert!(
            small <= 10 * WINDOW_STEPS,
            "telemetry {mode:?}: {small} allocations over {WINDOW_STEPS} \
             steps is more than a small per-step constant — telemetry \
             recording must not allocate"
        );
    }
    // Windowed legs: a bounded history that compacts its rows every window
    // and rescans a column whenever a same-iteration overwrite lowers its
    // peak. Both are steady-state work and must be as allocation-free as
    // the unbounded store's appends.
    for mode in [TrainingMode::Inline, TrainingMode::Background] {
        let small = window_allocations(8 + ORDER as u64, mode, false, true);
        let large = window_allocations(64 + ORDER as u64, mode, false, true);
        if mode == TrainingMode::Inline {
            assert_eq!(
                small, large,
                "windowed {mode:?}: steady-state allocations scale with the \
                 row count ({small} for 8 rows/step vs {large} for 64 \
                 rows/step over {WINDOW_STEPS} steps)"
            );
        } else {
            assert!(
                large <= small + WINDOW_STEPS,
                "windowed {mode:?}: steady-state allocations scale with the \
                 row count ({small} vs {large} over {WINDOW_STEPS} steps)"
            );
        }
        assert!(
            small <= 20 * WINDOW_STEPS,
            "windowed {mode:?}: {small} allocations over {WINDOW_STEPS} \
             steps (two engine steps each) is more than a small per-step \
             constant"
        );
    }
}
