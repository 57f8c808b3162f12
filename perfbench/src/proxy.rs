//! The proxy workloads: the paper's in-situ integration on the LULESH and
//! wdmerger proxies, timed from outside around `sim.step()` and the engine
//! calls, with features checked against references before anything is
//! reported.

use std::hint::black_box;
use std::time::Instant;

use insitu::collect::Retention;
use insitu::engine::{AnalysisId, Engine, EngineConfig, RegionId, TrainingMode};
use insitu::extract::FeatureKind;
use insitu::model::TrainerConfig;
use insitu::region::{AnalysisSpec, ExitAction, FeatureValue};
use insitu::telemetry::Stage;
use insitu::IterParam;
use lulesh::{LuleshConfig, LuleshSim};
use parsim::{ParallelConfig, ThreadPool};
use simkit::decomposition::BlockDecomposition;
use simkit::index::Extents;
use wdmerger::{DiagnosticVariable, WdMergerConfig, WdMergerSim};

use crate::layers;
use crate::report::Report;
use crate::stats::{self, median, ns_since, pct, per, percentile};
use crate::Opts;

/// The four stage clocks a step report carries, in reconciliation order.
const STAGES: [Stage; 4] = [Stage::Sample, Stage::Assemble, Stage::Train, Stage::Extract];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// Checkpoints taken of each run's final engine state.
const CHECKPOINTS_PER_RUN: usize = 4;

/// Fewest measured runs, whatever `--seconds` says: a first decile with
/// ten runs beyond it. Runs also continue until one [`STEP_WINDOW`] of
/// steps is in, so every reported percentile has its samples.
const MIN_RUNS: usize = 20;

/// The largest |extracted − ground truth| ÷ ground truth a run may show,
/// in %: the tolerance the repository's own delay-time test allows.
const MAX_FEATURE_ERROR_PCT: f64 = 25.0;

/// Steps per window of the step-latency percentiles: a p99 with 44
/// samples beyond it, about two seconds of LULESH.
const STEP_WINDOW: usize = 4_400;

/// Checkpoints per window of the checkpoint median.
const CHECKPOINT_WINDOW: usize = 24;

/// LULESH domain edge (the paper's size 30).
const LULESH_SIZE: usize = 30;

/// wdmerger grid resolution.
const WD_RESOLUTION: usize = 32;

/// Which proxy workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proxy {
    /// Unsharded inline engine on LULESH.
    LuleshInline,
    /// Two ownership shards plus background training on LULESH.
    LuleshSharded,
    /// Four delay-time analyses with the inline train fan-out on wdmerger.
    WdMerger,
}

/// One simulation as the benchmark drives it.
trait Sim: Sized {
    fn advance(&mut self);
    fn finished(&self) -> bool;
    fn iteration(&self) -> u64;
    /// Mean |extracted − ground truth| ÷ ground truth over the features, %.
    fn feature_error_pct(&self, features: &[(String, FeatureValue)]) -> Option<f64>;
}

impl Sim for LuleshSim {
    fn advance(&mut self) {
        black_box(self.step());
    }
    fn finished(&self) -> bool {
        self.done()
    }
    fn iteration(&self) -> u64 {
        LuleshSim::iteration(self)
    }
    fn feature_error_pct(&self, features: &[(String, FeatureValue)]) -> Option<f64> {
        let truth = self.diagnostics().breakpoint_radius(0.05) as f64;
        let (_, feature) = features.iter().find(|(name, _)| name == "velocity")?;
        (truth > 0.0).then(|| (feature.scalar() - truth).abs() / truth * 100.0)
    }
}

impl Sim for WdMergerSim {
    fn advance(&mut self) {
        self.step();
    }
    fn finished(&self) -> bool {
        self.done()
    }
    fn iteration(&self) -> u64 {
        self.step_count()
    }
    fn feature_error_pct(&self, features: &[(String, FeatureValue)]) -> Option<f64> {
        let truth = self.diagnostics().ground_truth_delay_time()?;
        let errors: Option<Vec<f64>> = DiagnosticVariable::all()
            .iter()
            .map(|v| {
                let (_, feature) = features.iter().find(|(name, _)| name == v.name())?;
                Some((feature.scalar() - truth).abs() / truth * 100.0)
            })
            .collect();
        let errors = errors?;
        (truth > 0.0).then(|| errors.iter().sum::<f64>() / errors.len() as f64)
    }
}

/// An engine with its region and analyses registered.
struct Armed<S> {
    engine: Engine<S>,
    region: RegionId,
    analyses: Vec<AnalysisId>,
}

fn lulesh_sim(seed: u64) -> LuleshSim {
    let mut config = LuleshConfig::with_edge_elems(LULESH_SIZE);
    // The seed perturbs the calibrated blast energy by at most 0.1 %.
    config.initial_energy *= 1.0 + 1e-3 * stats::unit(seed);
    LuleshSim::new(config)
}

fn wd_sim(seed: u64) -> WdMergerSim {
    let mut config = WdMergerConfig::with_resolution(WD_RESOLUTION);
    // The seed perturbs the calibrated accretion heating by at most 0.1 %.
    config.accretion_heating *= 1.0 + 1e-3 * stats::unit(seed);
    WdMergerSim::new(config)
}

fn arm<S>(
    mut config: EngineConfig,
    traced: bool,
    specs: Vec<AnalysisSpec<S>>,
) -> Result<Armed<S>, String> {
    config.telemetry.enabled = Some(traced);
    let mut engine = Engine::with_config(config);
    let region = engine.add_region("bench").map_err(|e| e.to_string())?;
    let analyses = specs
        .into_iter()
        .map(|spec| engine.add_analysis(region, spec).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(Armed {
        engine,
        region,
        analyses,
    })
}

/// The velocity break-point analysis of the paper's Fig. 2 integration.
fn lulesh_spec() -> Result<AnalysisSpec<LuleshSim>, String> {
    let spatial = IterParam::new(1, (LULESH_SIZE - 1) as u64, 1).map_err(|e| e.to_string())?;
    let temporal = IterParam::new(1, 1500, 1).map_err(|e| e.to_string())?;
    AnalysisSpec::builder()
        .name("velocity")
        .provider(|s: &LuleshSim, loc: usize| s.velocity_at(loc))
        .spatial(spatial)
        .temporal(temporal)
        .feature(FeatureKind::Breakpoint { threshold: 0.05 })
        .lag(5)
        .batch_capacity(16)
        .trainer(TrainerConfig::default())
        .retention(Retention::Window(64))
        .exit(ExitAction::Continue)
        .build()
        .map_err(|e| e.to_string())
}

fn lulesh_engine(
    sharded: bool,
    pool: &ThreadPool,
    traced: bool,
) -> Result<Armed<LuleshSim>, String> {
    let config = if sharded {
        // The LULESH-style cubic split over 8 ranks: the radial line
        // crosses one sub-cube boundary, so it spans two ownership shards.
        let decomposition =
            BlockDecomposition::new(Extents::cubic(LULESH_SIZE), 8).map_err(|e| e.to_string())?;
        let mut config = EngineConfig::sharded(decomposition, pool.clone());
        config.training_mode = TrainingMode::Background;
        config
    } else {
        EngineConfig::inline()
    };
    arm(config, traced, vec![lulesh_spec()?])
}

fn wd_engine(pool: &ThreadPool, traced: bool) -> Result<Armed<WdMergerSim>, String> {
    let steps = WdMergerConfig::with_resolution(WD_RESOLUTION).steps;
    let specs = DiagnosticVariable::all()
        .into_iter()
        .map(|v| bench::wd_exp::wd_analysis_spec(v, steps, ExitAction::Continue))
        .collect();
    arm(EngineConfig::inline_parallel(pool.clone()), traced, specs)
}

/// Everything one instrumented simulation run measured.
#[derive(Debug, Default, Clone)]
struct Run {
    steps: u64,
    solver_ns: u64,
    /// The solver thread's on-CPU time in `sim.step()`, and in the engine
    /// calls including the final drain and extraction.
    solver_cpu_ns: u64,
    insitu_cpu_ns: u64,
    /// Outside-timed `step(..).complete(..)` calls, summed.
    call_ns: u64,
    drain_ns: u64,
    extract_ns: u64,
    wall_ns: u64,
    stage_ns: [u64; 4],
    /// Steps whose stage clocks summed past the outside-timed call.
    unreconciled: u64,
    samples: u64,
    rows: u64,
    batches: u64,
    batches_to_converge: f64,
    final_loss: f64,
    extract_calls: u64,
    shard_fanouts: u64,
    train_fanouts: u64,
    /// CPU time of the solver thread and of every pool thread from the
    /// first step to the final extraction, read from `schedstat`.
    main_cpu_ns: u64,
    offthread_cpu_ns: u64,
    features: Vec<(String, FeatureValue)>,
    feature_error_pct: Option<f64>,
    checkpoint_ns: Vec<u64>,
    snapshot_bytes: usize,
    restore_ns: Option<u64>,
    /// Whether the restored checkpoint extracted the run's features.
    restore_ok: bool,
}

impl Run {
    fn insitu_ns(&self) -> u64 {
        self.call_ns + self.drain_ns + self.extract_ns
    }
}

/// The batch count after which the trainer's convergence rule first held.
fn batches_to_converge(trainer: &insitu::model::IncrementalTrainer) -> f64 {
    let rule = trainer.config().convergence;
    let mut streak = 0;
    for (i, &loss) in trainer.loss_history().iter().enumerate() {
        streak = if loss <= rule.loss_threshold {
            streak + 1
        } else {
            0
        };
        if streak >= rule.patience || (rule.max_batches > 0 && i + 1 >= rule.max_batches) {
            return (i + 1) as f64;
        }
    }
    0.0
}

/// One instrumented run: the solver loop with the engine attached, then
/// drain, extraction and checkpoints. Each step's engine call time goes to
/// `calls`, in ns.
fn instrumented<S: Sim>(
    mut sim: S,
    make: &dyn Fn(bool) -> Result<Armed<S>, String>,
    traced: bool,
    calls: &mut Vec<f64>,
) -> Result<Run, String> {
    let mut armed = make(traced)?;
    let main_tid = stats::current_tid();
    let cpu_before = stats::thread_cpu_ns();
    let mut run = Run::default();
    let started = Instant::now();
    let mut cpu = stats::own_cpu_ns();
    while !sim.finished() {
        let t0 = Instant::now();
        sim.advance();
        let t1 = Instant::now();
        let cpu_solved = stats::own_cpu_ns();
        let report = armed.engine.step(sim.iteration()).complete(&sim);
        let call = u64::try_from((Instant::now() - t1).as_nanos()).unwrap_or(u64::MAX);
        let solver = u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
        let cpu_called = stats::own_cpu_ns();
        run.solver_cpu_ns += cpu_solved - cpu;
        run.insitu_cpu_ns += cpu_called - cpu_solved;
        cpu = cpu_called;
        run.solver_ns += solver;
        run.call_ns += call;
        calls.push(call as f64);
        if traced {
            let mut sum = 0;
            for (slot, &stage) in run.stage_ns.iter_mut().zip(&STAGES) {
                let ns = report.stage_nanos(stage);
                *slot += ns;
                sum += ns;
            }
            run.unreconciled += u64::from(sum > call);
        }
        black_box(report);
        run.steps += 1;
    }
    let t = Instant::now();
    armed.engine.drain();
    run.drain_ns = ns_since(t);
    let t = Instant::now();
    armed
        .engine
        .extract_now(armed.region)
        .map_err(|e| e.to_string())?;
    run.extract_ns = ns_since(t);
    run.wall_ns = ns_since(started);
    run.insitu_cpu_ns += stats::own_cpu_ns() - cpu;
    (run.main_cpu_ns, run.offthread_cpu_ns) =
        stats::cpu_split(&cpu_before, &stats::thread_cpu_ns(), main_tid);

    let engine = &armed.engine;
    let status = engine
        .status(armed.region)
        .ok_or("region vanished")?
        .clone();
    run.samples = status.samples_collected as u64;
    run.batches = status.batches_trained as u64;
    run.final_loss = status.last_loss.unwrap_or(0.0);
    run.shard_fanouts = engine.parallel_shard_fanouts();
    run.train_fanouts = engine.parallel_train_fanouts();
    let mut converge = Vec::new();
    for &analysis in &armed.analyses {
        if let Some(trainer) = engine.trainer(analysis) {
            run.rows += trainer.summary().rows as u64;
            converge.push(batches_to_converge(trainer));
        }
        if let Some(recorder) = engine.telemetry(analysis) {
            run.extract_calls += recorder.histogram(Stage::Extract).count();
        }
    }
    run.batches_to_converge = median(&converge);
    run.feature_error_pct = sim.feature_error_pct(&status.features);
    run.features = status.features;

    let mut blob = Vec::new();
    for _ in 0..CHECKPOINTS_PER_RUN {
        let t = Instant::now();
        blob = armed.engine.snapshot();
        run.checkpoint_ns.push(ns_since(t));
    }
    run.snapshot_bytes = blob.len();
    if traced {
        let mut restored = make(false)?;
        let t = Instant::now();
        restored.engine.restore(&blob).map_err(|e| e.to_string())?;
        run.restore_ns = Some(ns_since(t));
        restored
            .engine
            .extract_now(restored.region)
            .map_err(|e| e.to_string())?;
        run.restore_ok = restored
            .engine
            .status(restored.region)
            .is_some_and(|s| s.features == run.features);
    }
    Ok(run)
}

/// The plain simulation, no engine attached: its wall time in ns.
fn plain<S: Sim>(mut sim: S) -> u64 {
    let started = Instant::now();
    while !sim.finished() {
        sim.advance();
    }
    ns_since(started)
}

/// Runs one proxy workload and reports its metrics.
pub fn run(proxy: Proxy, opts: &Opts) -> Result<Report, String> {
    let seed = opts.seed;
    match proxy {
        Proxy::LuleshInline | Proxy::LuleshSharded => {
            let sharded = proxy == Proxy::LuleshSharded;
            Driver {
                sim: &|| lulesh_sim(seed),
                engine: &|pool, traced| lulesh_engine(sharded, pool, traced),
                twin: sharded
                    .then_some(&|pool: &ThreadPool, traced| lulesh_engine(false, pool, traced)),
                solver_layer: "lulesh.step_us",
                uses_pool: sharded,
                batch_rows: 16,
            }
            .drive(opts)
        }
        Proxy::WdMerger => Driver {
            sim: &|| wd_sim(seed),
            engine: &wd_engine,
            twin: None,
            solver_layer: "wdmerger.step_us",
            uses_pool: true,
            batch_rows: 8,
        }
        .drive(opts),
    }
}

type EngineFn<'a, S> = &'a dyn Fn(&ThreadPool, bool) -> Result<Armed<S>, String>;

/// One proxy workload's builders and shape.
struct Driver<'a, S> {
    sim: &'a dyn Fn() -> S,
    engine: EngineFn<'a, S>,
    /// A second configuration whose features must equal the workload's.
    twin: Option<EngineFn<'a, S>>,
    solver_layer: &'static str,
    /// Whether the engine fans work out across the pool.
    uses_pool: bool,
    /// Rows per training batch, the kernels' row shape.
    batch_rows: usize,
}

impl<S: Sim> Driver<'_, S> {
    fn drive(&self, opts: &Opts) -> Result<Report, String> {
        let mut report = Report::default();

        // Set-up, repeated and timed alone in process CPU time: the pool,
        // the simulation and the armed engine a run starts from. Tear-down
        // is not timed. The last set-up's pool serves the measured phase.
        let mut setups = Vec::with_capacity(SETUPS);
        let mut pool = None;
        for _ in 0..SETUPS {
            drop(pool.take());
            let started = stats::process_cpu_ns();
            let built =
                ThreadPool::new(ParallelConfig::new(1, opts.nproc).map_err(|e| e.to_string())?);
            let sim = (self.sim)();
            let armed = (self.engine)(&built, false)?;
            setups.push((stats::process_cpu_ns() - started) as f64 / 1e9);
            drop((sim, armed));
            pool = Some(built);
        }
        let pool = pool.ok_or("no set-up ran")?;
        report.set("setup_s", median(&setups));
        report.samples("setup_s", setups.len());

        // The reference features, computed with the stage clocks armed so
        // every untraced run is also a traced-vs-untraced identity check.
        // A twin configuration must extract the same features.
        let make = |traced| (self.engine)(&pool, traced);
        let reference = instrumented((self.sim)(), &make, true, &mut Vec::new())?.features;
        report.attempted += 1;
        if reference.is_empty() {
            report.failed += 1;
            eprintln!("the reference run extracted no features");
        }
        if let Some(twin) = self.twin {
            let make = |traced| twin(&pool, traced);
            let features = instrumented((self.sim)(), &make, false, &mut Vec::new())?.features;
            report.attempted += 1;
            if features != reference {
                report.failed += 1;
                eprintln!("the twin configuration's features differ from the reference");
            }
        }

        if opts.trace {
            self.traced(opts, &pool, &reference, &mut report)?;
        } else {
            self.untraced(opts, &pool, &reference, &mut report)?;
        }
        Ok(report)
    }

    /// Counts a run as failed unless it extracted the reference features,
    /// and those lie within [`MAX_FEATURE_ERROR_PCT`] of ground truth.
    fn check(&self, run: &Run, reference: &[(String, FeatureValue)], report: &mut Report) {
        report.attempted += 1;
        if run.features != reference {
            report.failed += 1;
            eprintln!("a run's features differ from the set-up reference");
        } else if run
            .feature_error_pct
            .is_none_or(|e| e > MAX_FEATURE_ERROR_PCT)
        {
            report.failed += 1;
            eprintln!(
                "feature error {:?} % exceeds the tolerance",
                run.feature_error_pct
            );
        }
    }

    fn untraced(
        &self,
        opts: &Opts,
        pool: &ThreadPool,
        reference: &[(String, FeatureValue)],
        report: &mut Report,
    ) -> Result<(), String> {
        let make = |traced| (self.engine)(pool, traced);
        let mut calls = Vec::new();
        let mut runs = Vec::new();
        let deadline = Instant::now() + opts.duration();
        while runs.len() < MIN_RUNS || calls.len() < STEP_WINDOW || Instant::now() < deadline {
            let run = instrumented((self.sim)(), &make, false, &mut calls)?;
            self.check(&run, reference, report);
            runs.push(run);
        }

        // The in-situ work's CPU time (the solver thread's in engine calls
        // plus the pool threads') over the solver thread's CPU time in the
        // solver, each taken within one run so host drift cancels,
        // summarised as the first-decile run; see `README.md`.
        let per_run = |f: &dyn Fn(&Run) -> f64| runs.iter().map(f).collect::<Vec<_>>();
        let mut ratios = per_run(&|r| {
            pct(
                (r.insitu_cpu_ns + r.offthread_cpu_ns) as f64,
                r.solver_cpu_ns as f64,
            )
        });
        ratios.sort_by(f64::total_cmp);
        let overhead = percentile(&ratios, 0.1).ok_or("too few runs for a first decile")?;
        report.set("overhead_pct", overhead);
        report.samples("overhead_pct", runs.len());
        report.set("peak_rss_mb", stats::status_mb("VmHWM"));

        // Ungated: the same runs in absolute terms, as best-quartile
        // windows.
        let checkpoints: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.checkpoint_ns.iter().map(|&ns| ns as f64))
            .collect();
        let insitu_us = per_run(&|r| per(r.insitu_ns() as f64, r.steps as f64) / 1e3);
        let rates = per_run(&|r| per(r.steps as f64, r.wall_ns as f64 / 1e9));
        report
            .ungated
            .push(("insitu_us_per_step", stats::low_quartile(&insitu_us)));
        report
            .ungated
            .push(("sim_steps_per_s", stats::high_quartile(&rates)));
        set_windowed(report, "step_p50_us", &calls, STEP_WINDOW, 0.5)?;
        set_windowed(report, "step_p99_us", &calls, STEP_WINDOW, 0.99)?;
        set_windowed(
            report,
            "checkpoint_p50_us",
            &checkpoints,
            CHECKPOINT_WINDOW,
            0.5,
        )?;
        Ok(())
    }

    fn traced(
        &self,
        opts: &Opts,
        pool: &ThreadPool,
        reference: &[(String, FeatureValue)],
        report: &mut Report,
    ) -> Result<(), String> {
        let make = |traced| (self.engine)(pool, traced);
        // Rounds of plain, untraced and traced runs, interleaved so drift
        // in the host hits all three alike.
        let (mut plains, mut untraced, mut traced) = (Vec::new(), Vec::new(), Vec::new());
        let mut calls = Vec::new();
        let deadline = Instant::now() + opts.duration();
        while traced.len() < MIN_RUNS || calls.len() < STEP_WINDOW || Instant::now() < deadline {
            plains.push(plain((self.sim)()) as f64);
            let run = instrumented((self.sim)(), &make, false, &mut Vec::new())?;
            self.check(&run, reference, report);
            untraced.push(run);
            let run = instrumented((self.sim)(), &make, true, &mut calls)?;
            self.check(&run, reference, report);
            report.attempted += 2;
            report.failed += u64::from(!run.restore_ok) + u64::from(run.unreconciled > 0);
            if run.unreconciled > 0 {
                eprintln!(
                    "{} steps' stage clocks exceed the outside-timed call",
                    run.unreconciled
                );
            }
            traced.push(run);
        }
        calls.sort_by(f64::total_cmp);

        let sum = |runs: &[Run], f: &dyn Fn(&Run) -> u64| runs.iter().map(f).sum::<u64>() as f64;
        let n = traced.len() as f64;
        let steps = sum(&traced, &|r| r.steps);
        let stage = |i: usize| sum(&traced, &|r| r.stage_ns[i]);
        let call_ns = sum(&traced, &|r| r.call_ns);

        report.set("collect.samples", per(sum(&traced, &|r| r.samples), n));
        report.set(
            "collect.sample_ns_per_sample",
            per(stage(0), sum(&traced, &|r| r.samples)),
        );
        report.set(
            "collect.assemble_ns_per_row",
            per(stage(1), sum(&traced, &|r| r.rows)),
        );
        // The reconciliation row: the four stage clocks plus the
        // unattributed remainder add back to the outside-timed call.
        report.set("engine.call_ns_per_step", per(call_ns, steps));
        report.set("engine.sample_ns_per_step", per(stage(0), steps));
        report.set("engine.assemble_ns_per_step", per(stage(1), steps));
        report.set("engine.train_ns_per_step", per(stage(2), steps));
        report.set("engine.extract_ns_per_step", per(stage(3), steps));
        let attributed: f64 = (0..4).map(stage).sum();
        report.set(
            "engine.unattributed_ns_per_step",
            per(call_ns - attributed, steps),
        );
        let p = |q| percentile(&calls, q).ok_or("too few steps for a percentile");
        report.set("engine.step_ns_p50", p(0.5)?);
        report.set("engine.step_ns_p99", p(0.99)?);
        report.samples("engine.step_ns_p99", calls.len());
        report.set(
            "engine.shard_fanout_steps",
            per(sum(&traced, &|r| r.shard_fanouts), n),
        );
        report.set(
            "engine.train_fanout_steps",
            per(sum(&traced, &|r| r.train_fanouts), n),
        );
        report.set(
            "engine.drain_us",
            per(sum(&traced, &|r| r.drain_ns), n) / 1e3,
        );
        report.set(
            "engine.offthread_cpu_pct",
            pct(
                sum(&traced, &|r| r.offthread_cpu_ns),
                sum(&traced, &|r| r.main_cpu_ns),
            ),
        );
        if self.uses_pool {
            report.set("parsim.spawn_join_ns", layers::spawn_join_ns(pool));
        }
        report.set(
            "model.train_ns_per_batch",
            per(stage(2), sum(&traced, &|r| r.batches)),
        );
        report.set("model.batches", per(sum(&traced, &|r| r.batches), n));
        report.set(
            "model.batches_to_converge",
            median(
                &traced
                    .iter()
                    .map(|r| r.batches_to_converge)
                    .collect::<Vec<_>>(),
            ),
        );
        report.set(
            "model.final_loss",
            traced.last().map_or(0.0, |r| r.final_loss),
        );
        let errors: Vec<f64> = traced.iter().filter_map(|r| r.feature_error_pct).collect();
        report.set("feature_error_pct", median(&errors));
        layers::kernels(self.batch_rows, report);
        report.set(
            "extract.ns_per_call",
            per(stage(3), sum(&traced, &|r| r.extract_calls)),
        );
        report.set(
            self.solver_layer,
            per(
                sum(&untraced, &|r| r.solver_ns),
                sum(&untraced, &|r| r.steps),
            ) / 1e3,
        );
        let insitu_us = |runs: &[Run]| {
            median(
                &runs
                    .iter()
                    .map(|r| per(r.insitu_ns() as f64, r.steps as f64) / 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        let (with, without) = (insitu_us(&traced), insitu_us(&untraced));
        report.set("telemetry.overhead_pct", pct(with - without, without));
        // The paper's Table III/VII definition: the instrumented run's wall
        // time over the plain run's, differenced per interleaved pair,
        // signed and never clamped.
        let paper: Vec<f64> = plains
            .iter()
            .zip(&untraced)
            .map(|(&plain, run)| pct(run.wall_ns as f64 - plain, plain))
            .collect();
        let (q1, p50, q3) = stats::quartiles(&paper);
        report.set("paper.overhead_pct_p50", p50);
        report.set("paper.overhead_pct_q1", q1);
        report.set("paper.overhead_pct_q3", q3);
        report.samples("paper.overhead_pct_p50", paper.len());
        report.set(
            "snapshot.bytes_per_session",
            per(sum(&traced, &|r| r.snapshot_bytes as u64), n),
        );
        let checkpoints = sorted(traced.iter().flat_map(|r| r.checkpoint_ns.iter().copied()));
        report.set("snapshot.encode_us", median(&checkpoints) / 1e3);
        let restores: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.restore_ns)
            .map(|ns| ns as f64)
            .collect();
        report.set("snapshot.restore_us", median(&restores) / 1e3);
        for name in [
            "collect.samples",
            "engine.call_ns_per_step",
            "telemetry.overhead_pct",
        ] {
            report.samples(name, traced.len());
        }
        Ok(())
    }
}

/// Records the `q`-quantile of nanosecond `samples` in µs, taken per
/// window of `window` consecutive samples and summarised as the
/// best-quartile window.
fn set_windowed(
    report: &mut Report,
    name: &'static str,
    samples: &[f64],
    window: usize,
    q: f64,
) -> Result<(), String> {
    let value = stats::windowed(samples, window, q)
        .ok_or(format!("too few samples for {name}: {}", samples.len()))?;
    report.ungated.push((name, value / 1e3));
    report.samples(name, samples.len());
    Ok(())
}

fn sorted(values: impl Iterator<Item = u64>) -> Vec<f64> {
    let mut values: Vec<f64> = values.map(|v| v as f64).collect();
    values.sort_by(f64::total_cmp);
    values
}
