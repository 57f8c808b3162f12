//! OpenMP-like fork-join data parallelism.
//!
//! The proxy simulations express their per-element work as
//! "apply this closure to every index in `0..n`" — exactly the shape of an
//! `#pragma omp parallel for`. [`ThreadPool`] executes such loops with
//! scoped threads (no `unsafe`) and also offers a map-reduce variant for the
//! global reductions (minimum timestep, total energy) that dominate the
//! applications' collective use.
//!
//! In addition to the fork-join loops, the pool can launch long-lived
//! asynchronous jobs through [`ThreadPool::spawn_job`], which returns a
//! [`JobHandle`] that can be polled without blocking or joined to retrieve
//! the result. The in-situ engine uses this to move model training off the
//! simulation thread. Jobs run on a small set of persistent worker threads
//! bounded by the pool's configured worker count, so a `ParallelConfig`
//! tuned to limit interference with the simulation is actually honoured.
//!
//! The fork-join side stays deliberately simple: loop workers are spawned
//! per call using `std::thread::scope`. For the coarse-grained loops of the
//! proxy applications (thousands to millions of elements per call) the
//! spawn cost is negligible compared to the loop body, and keeping that
//! path stateless avoids any shared-queue contention that would distort the
//! overhead measurements.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread;

use crate::config::ParallelConfig;

/// A fork-join executor bound to a [`ParallelConfig`].
///
/// ```
/// use parsim::{ParallelConfig, ThreadPool};
///
/// let pool = ThreadPool::new(ParallelConfig::new(2, 2).unwrap());
/// let mut data = vec![0.0_f64; 1000];
/// pool.for_each_mut(&mut data, |i, v| *v = i as f64);
/// assert_eq!(data[999], 999.0);
/// let sum = pool.map_reduce(1000, |i| i as f64, 0.0, |a, b| a + b);
/// assert_eq!(sum, 499_500.0);
/// ```
#[derive(Debug, Clone)]
pub struct ThreadPool {
    config: ParallelConfig,
    /// Persistent job workers, created lazily on the first
    /// [`ThreadPool::spawn_job`]. The `Arc` wraps the `OnceLock` itself so
    /// every clone of the pool — whenever it was made — shares one worker
    /// set and the configured budget holds across clones.
    jobs: Arc<OnceLock<JobRunner>>,
}

impl ThreadPool {
    /// Creates a pool that will use `config.effective_workers()` threads.
    pub fn new(config: ParallelConfig) -> Self {
        Self {
            config,
            jobs: Arc::new(OnceLock::new()),
        }
    }

    /// A serial pool (one worker).
    pub fn serial() -> Self {
        Self::new(ParallelConfig::serial())
    }

    /// The configuration the pool was created with.
    pub fn config(&self) -> ParallelConfig {
        self.config
    }

    /// Number of worker threads used for parallel sections.
    pub fn workers(&self) -> usize {
        self.config.effective_workers()
    }

    /// Applies `f(index, &mut element)` to every element of the slice,
    /// splitting the slice into contiguous chunks across workers.
    pub fn for_each_mut<T, F>(&self, data: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let workers = self.workers();
        if workers <= 1 || data.len() < 2 * workers {
            for (i, item) in data.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let chunk = data.len().div_ceil(workers);
        let f = &f;
        thread::scope(|scope| {
            for (c, slice) in data.chunks_mut(chunk).enumerate() {
                let base = c * chunk;
                scope.spawn(move || {
                    for (offset, item) in slice.iter_mut().enumerate() {
                        f(base + offset, item);
                    }
                });
            }
        });
    }

    /// Computes `fold(map(0), map(1), ..., map(n-1))` in parallel, where
    /// `fold` must be associative and `identity` its neutral element.
    pub fn map_reduce<R, M, F>(&self, n: usize, map: M, identity: R, fold: F) -> R
    where
        R: Send + Clone,
        M: Fn(usize) -> R + Sync,
        F: Fn(R, R) -> R + Sync + Send,
    {
        let workers = self.workers();
        if workers <= 1 || n < 2 * workers {
            let mut acc = identity;
            for i in 0..n {
                acc = fold(acc, map(i));
            }
            return acc;
        }
        let chunk = n.div_ceil(workers);
        let map = &map;
        let fold = &fold;
        let partials: Vec<R> = thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                let identity = identity.clone();
                handles.push(scope.spawn(move || {
                    let mut acc = identity;
                    for i in start..end {
                        acc = fold(acc, map(i));
                    }
                    acc
                }));
                start = end;
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        partials.into_iter().fold(identity, fold)
    }

    /// Parallel minimum of `map(i)` over `0..n`; returns `f64::INFINITY`
    /// when `n == 0`. This is the reduction LULESH uses for its timestep
    /// control.
    pub fn min_reduce<M>(&self, n: usize, map: M) -> f64
    where
        M: Fn(usize) -> f64 + Sync,
    {
        self.map_reduce(n, map, f64::INFINITY, f64::min)
    }

    /// Parallel sum of `map(i)` over `0..n`.
    pub fn sum_reduce<M>(&self, n: usize, map: M) -> f64
    where
        M: Fn(usize) -> f64 + Sync,
    {
        self.map_reduce(n, map, 0.0, |a, b| a + b)
    }

    /// Enqueues `job` on the pool's persistent job workers and returns a
    /// handle that can be polled ([`JobHandle::is_finished`]) or joined
    /// ([`JobHandle::join`]). Unlike the fork-join loops, the caller keeps
    /// running while the job executes — this is the primitive behind the
    /// in-situ engine's background training mode.
    ///
    /// A job is not free: boxing it, queueing it and waking a worker costs
    /// on the order of 10 µs before the job starts (about 13 µs on a
    /// 2-vCPU x86-64 host). Work shorter than that is cheaper to run on the
    /// calling thread, which is why the engine hands a batch off only when
    /// its measured train time exceeds the measured hand-off.
    ///
    /// At most `workers()` jobs run concurrently; excess jobs queue in FIFO
    /// order, so a `ParallelConfig` sized to bound interference with the
    /// simulation thread is honoured.
    pub fn spawn_job<T, F>(&self, job: F) -> JobHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let runner = self.jobs.get_or_init(|| JobRunner::new(self.workers()));
        let state = Arc::new(JobState {
            outcome: Mutex::new(JobOutcome::Pending),
            done: Condvar::new(),
        });
        let shared = Arc::clone(&state);
        runner
            .sender
            .send(Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(job));
                let mut outcome = shared.outcome.lock().expect("job state poisoned");
                *outcome = match result {
                    Ok(value) => JobOutcome::Done(value),
                    Err(_) => JobOutcome::Panicked,
                };
                shared.done.notify_all();
            }))
            .expect("job workers exited while the pool was alive");
        JobHandle { state }
    }
}

/// A queued unit of work for the persistent job workers.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The persistent worker threads behind [`ThreadPool::spawn_job`]: a shared
/// FIFO queue drained by `workers` threads. Workers exit when every pool
/// clone holding the runner is dropped (the channel disconnects).
struct JobRunner {
    sender: mpsc::Sender<Job>,
}

impl std::fmt::Debug for JobRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobRunner").finish_non_exhaustive()
    }
}

impl JobRunner {
    fn new(workers: usize) -> Self {
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        for _ in 0..workers.max(1) {
            let receiver = Arc::clone(&receiver);
            thread::spawn(move || loop {
                // The guard is dropped as soon as `recv` returns, so other
                // workers can pick up jobs while this one runs.
                let job = receiver.lock().expect("job queue poisoned").recv();
                match job {
                    Ok(job) => job(),
                    Err(_) => break,
                }
            });
        }
        Self { sender }
    }
}

enum JobOutcome<T> {
    Pending,
    Done(T),
    Panicked,
}

struct JobState<T> {
    outcome: Mutex<JobOutcome<T>>,
    done: Condvar,
}

/// A handle to an asynchronous job launched by [`ThreadPool::spawn_job`].
pub struct JobHandle<T> {
    state: Arc<JobState<T>>,
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> JobHandle<T> {
    /// Whether the job has run to completion (non-blocking).
    pub fn is_finished(&self) -> bool {
        !matches!(
            *self.state.outcome.lock().expect("job state poisoned"),
            JobOutcome::Pending
        )
    }

    /// Blocks until the job completes and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if the job itself panicked.
    pub fn join(self) -> T {
        let mut outcome = self.state.outcome.lock().expect("job state poisoned");
        while matches!(*outcome, JobOutcome::Pending) {
            outcome = self.state.done.wait(outcome).expect("job state poisoned");
        }
        match std::mem::replace(&mut *outcome, JobOutcome::Pending) {
            JobOutcome::Done(value) => value,
            JobOutcome::Panicked => panic!("background job panicked"),
            JobOutcome::Pending => unreachable!("loop above waits for completion"),
        }
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(workers: usize) -> ThreadPool {
        ThreadPool::new(ParallelConfig::new(workers, 1).unwrap())
    }

    #[test]
    fn for_each_mut_touches_every_element() {
        for workers in [1, 2, 4, 8] {
            let p = pool(workers);
            let mut data = vec![0_u64; 10_001];
            p.for_each_mut(&mut data, |i, v| *v = i as u64 + 1);
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
        }
    }

    #[test]
    fn map_reduce_sum_matches_closed_form() {
        for workers in [1, 3, 6] {
            let p = pool(workers);
            let n = 12_345;
            let sum = p.sum_reduce(n, |i| i as f64);
            assert_eq!(sum, (n * (n - 1) / 2) as f64);
        }
    }

    #[test]
    fn min_reduce_finds_global_minimum() {
        let p = pool(4);
        let min = p.min_reduce(1000, |i| ((i as f64) - 617.0).abs() + 3.0);
        assert_eq!(min, 3.0);
        assert_eq!(p.min_reduce(0, |_| 1.0), f64::INFINITY);
    }

    #[test]
    fn small_inputs_fall_back_to_serial_path() {
        let p = pool(16);
        let mut data = vec![1.0; 3];
        p.for_each_mut(&mut data, |_, v| *v *= 2.0);
        assert_eq!(data, vec![2.0, 2.0, 2.0]);
        assert_eq!(p.map_reduce(2, |i| i, 0, |a, b| a + b), 1);
    }

    #[test]
    fn workers_respects_configuration() {
        let p = ThreadPool::serial();
        assert_eq!(p.workers(), 1);
        let p = pool(2);
        assert!(p.workers() >= 1 && p.workers() <= 2);
    }

    #[test]
    fn spawned_jobs_run_to_completion_and_return_results() {
        let p = pool(2);
        let handle = p.spawn_job(|| (0..1000u64).sum::<u64>());
        assert_eq!(handle.join(), 499_500);
    }

    #[test]
    fn job_handles_poll_without_blocking() {
        let p = pool(2);
        let (tx, rx) = mpsc::channel::<()>();
        let handle = p.spawn_job(move || rx.recv().is_ok());
        assert!(!handle.is_finished());
        tx.send(()).unwrap();
        assert!(handle.join());
    }

    #[test]
    fn pool_clones_share_one_worker_set_and_budget() {
        // Clone BEFORE the first spawn_job: both clones must still share the
        // single configured worker, so a job submitted through the clone
        // queues behind the blocking job submitted through the original.
        let a = pool(1);
        let b = a.clone();
        let (tx, rx) = mpsc::channel::<()>();
        let blocking = a.spawn_job(move || rx.recv().is_ok());
        let queued = b.spawn_job(|| 7u64);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !queued.is_finished(),
            "the clone must not get its own workers"
        );
        tx.send(()).unwrap();
        assert!(blocking.join());
        assert_eq!(queued.join(), 7);
    }

    #[test]
    fn excess_jobs_queue_behind_the_worker_budget_and_all_complete() {
        let p = pool(2);
        let handles: Vec<_> = (0..16u64).map(|i| p.spawn_job(move || i * i)).collect();
        let results: Vec<u64> = handles.into_iter().map(JobHandle::join).collect();
        assert_eq!(results, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_propagates_at_join_without_killing_the_workers() {
        let p = pool(1);
        let bad = p.spawn_job(|| panic!("boom"));
        let joined = std::panic::catch_unwind(AssertUnwindSafe(|| bad.join()));
        assert!(joined.is_err(), "panic must propagate to join()");
        // The single worker survived the panic and still runs new jobs.
        let good = p.spawn_job(|| 41 + 1);
        assert_eq!(good.join(), 42);
    }
}
