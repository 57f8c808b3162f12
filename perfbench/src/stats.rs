//! The benchmark's own arithmetic and host probes: percentiles, the failure
//! share, per-thread CPU time read from `/proc/self/task/*/schedstat`, the
//! thread and process CPU clocks, and a fixed calibration computation.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// The fewest samples that must lie beyond a percentile before it is
/// reported: a p99 needs 1000 samples, a median 20.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The median of a set of per-run values (mean of the middle pair for an
/// even count). Unlike [`percentile`] this summarises a handful of whole
/// runs, so it carries no sample-count floor.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, interpolated the way
/// Python's `statistics.quantiles(values, n=4)` does (the "exclusive"
/// method); a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0], sorted[0]),
        n => {
            let at = |q: f64| {
                let m = (n + 1) as f64 * q;
                let j = (m.floor() as usize).clamp(1, n - 1);
                let delta = m - j as f64;
                sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
            };
            let mid = if n % 2 == 1 {
                sorted[n / 2]
            } else {
                (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
            };
            (at(0.25), mid, at(0.75))
        }
    }
}

/// The first quartile of per-window values: the best-quartile window of
/// a lower-is-better timing.
///
/// Co-tenant load on a shared host slows whole stretches of a run by up to
/// half; it only ever adds time. Summarising by a good window rather than
/// the median keeps a reading repeatable, for absolute timings and for
/// ratios taken within one window alike.
pub fn low_quartile(values: &[f64]) -> f64 {
    quartiles(values).0
}

/// The third quartile of per-window values: the best-quartile window of a
/// higher-is-better rate.
pub fn high_quartile(values: &[f64]) -> f64 {
    quartiles(values).2
}

/// The `q`-quantile of each window of `window` consecutive samples (a
/// shorter tail is dropped), summarised by [`low_quartile`]. `None` when
/// no window is complete or `window` is too small for the percentile.
pub fn windowed(samples: &[f64], window: usize, q: f64) -> Option<f64> {
    let per_window: Option<Vec<f64>> = samples
        .chunks_exact(window.max(1))
        .map(|chunk| {
            let mut chunk = chunk.to_vec();
            chunk.sort_by(f64::total_cmp);
            percentile(&chunk, q)
        })
        .collect();
    let per_window = per_window?;
    (!per_window.is_empty()).then(|| low_quartile(&per_window))
}

/// Entries in the calibration's table: 256 KiB, an L2-sized working set.
const CALIBRATION_TABLE: usize = 1 << 15;

/// Table updates per calibration.
const CALIBRATION_ROUNDS: usize = 1 << 17;

/// Loopback round trips per calibration, each a 64-byte message and its
/// echo.
const CALIBRATION_MESSAGES: usize = 512;

/// A fixed calibration computation that no change to the repository's
/// crates can move: chained splitmix64 steps scattered into an L2-sized
/// table, and small messages echoed over a loopback TCP pair, the mix of
/// user-space work and socket calls a served step makes. It is the
/// reference step of a workload with no solver, timed in the same window
/// as the work it is set against, so host drift cancels from the ratio.
pub struct Calibration {
    near: TcpStream,
    far: TcpStream,
}

impl Calibration {
    /// Connects the loopback pair.
    pub fn new() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let near = TcpStream::connect(listener.local_addr()?)?;
        let (far, _) = listener.accept()?;
        near.set_nodelay(true)?;
        far.set_nodelay(true)?;
        Ok(Self { near, far })
    }

    /// On-CPU nanoseconds of one calibration on the calling thread.
    pub fn cpu_ns(&mut self) -> std::io::Result<u64> {
        // Filled with ones, not zeros, so its pages are touched before
        // timing.
        let mut table = vec![1u64; CALIBRATION_TABLE];
        let mut message = [7u8; 64];
        let started = own_cpu_ns();
        let mut x = 0;
        for _ in 0..CALIBRATION_ROUNDS {
            x = mix(x);
            table[x as usize % CALIBRATION_TABLE] ^= x;
        }
        for _ in 0..CALIBRATION_MESSAGES {
            self.near.write_all(&message)?;
            self.far.read_exact(&mut message)?;
            self.far.write_all(&message)?;
            self.near.read_exact(&mut message)?;
        }
        std::hint::black_box((&table, &message));
        Ok(own_cpu_ns() - started)
    }
}

/// Failed operations as a percentage of those attempted.
pub fn failed_pct(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        100.0
    } else {
        failed as f64 / attempted as f64 * 100.0
    }
}

/// A ratio as a percentage, 0 when the base is empty.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole * 100.0
    } else {
        0.0
    }
}

/// A total divided by a count, 0 for an empty count.
pub fn per(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

/// Nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The on-CPU nanoseconds in a `schedstat` line (`run_ns wait_ns slices`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// On-CPU nanoseconds of every thread of this process, keyed by thread id.
pub fn thread_cpu_ns() -> Vec<(u32, u64)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut threads: Vec<(u32, u64)> = tasks
        .filter_map(|task| {
            let task = task.ok()?;
            let tid = task.file_name().to_str()?.parse().ok()?;
            let text = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
            Some((tid, parse_schedstat(&text)?))
        })
        .collect();
    threads.sort_unstable();
    threads
}

/// CPU time of the calling (solver) thread and of every other thread,
/// accumulated between two [`thread_cpu_ns`] readings. Threads that exit in
/// between are lost, so this counts persistent workers only.
pub fn cpu_split(before: &[(u32, u64)], after: &[(u32, u64)], main_tid: u32) -> (u64, u64) {
    let mut main = 0;
    let mut others = 0;
    for &(tid, ns) in after {
        let start = before
            .iter()
            .find(|&&(t, _)| t == tid)
            .map_or(0, |&(_, s)| s);
        let delta = ns.saturating_sub(start);
        if tid == main_tid {
            main += delta;
        } else {
            others += delta;
        }
    }
    (main, others)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` from
/// `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec`, and both
    // clock ids are constants every Linux kernel supports.
    let status = unsafe { clock_gettime(clock, &mut time) };
    if status != 0 {
        return 0;
    }
    u64::try_from(time.tv_sec).unwrap_or(0) * 1_000_000_000
        + u64::try_from(time.tv_nsec).unwrap_or(0)
}

/// On-CPU nanoseconds of the calling thread so far. Unlike wall time it
/// stops while the thread blocks, so it leaves out time spent waiting for
/// another thread's core to be scheduled, and, on a guest that accounts
/// steal time, time the host ran something else.
pub fn own_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// On-CPU nanoseconds of every thread of this process so far, including
/// threads that have exited.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// The kernel thread id of the calling thread, read from `/proc`.
pub fn current_tid() -> u32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or_else(std::process::id)
}

/// The value of a `kB` field of `/proc/self/status`, in MB.
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| parse_status_kb(&text, field))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_status_kb(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A small deterministic generator for seed-derived inputs (splitmix64).
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed-derived value in `[-1, 1)`.
pub fn unit(seed: u64) -> f64 {
    (mix(seed) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), Some(10.0));
        assert_eq!(percentile(&values, 0.55), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(990.0));
        assert_eq!(percentile(&many[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        assert_eq!(median(&[4.0, -2.0]), 1.0);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn windowed_percentiles_take_the_best_quartile_window() {
        // Four windows of 20 samples whose medians are 10, 20, 30 and 40.
        let samples: Vec<f64> = (1..=4)
            .flat_map(|w| (1..=20).map(move |i| f64::from(w * 10 - 10 + i)))
            .collect();
        // statistics.quantiles([10, 20, 30, 40], n=4)[0] == 12.5
        assert_eq!(windowed(&samples, 20, 0.5), Some(12.5));
        // A window too small for the percentile is refused, not guessed.
        assert_eq!(windowed(&samples, 20, 0.99), None);
        assert_eq!(windowed(&samples[..19], 20, 0.5), None);
        assert_eq!(low_quartile(&[4.0, 3.0, 2.0, 1.0]), 1.25);
        assert_eq!(high_quartile(&[4.0, 3.0, 2.0, 1.0]), 3.75);
    }

    #[test]
    fn failure_share_counts_against_attempts() {
        assert_eq!(failed_pct(200, 0), 0.0);
        assert_eq!(failed_pct(200, 3), 1.5);
        assert_eq!(failed_pct(0, 0), 100.0);
        assert_eq!(pct(1.0, 0.0), 0.0);
        assert_eq!(per(10.0, 4.0), 2.5);
        assert_eq!(per(10.0, 0.0), 0.0);
    }

    #[test]
    fn schedstat_lines_parse_to_cpu_nanoseconds() {
        assert_eq!(parse_schedstat("123456789 4567 89\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("garbage 1 2"), None);
        let own = thread_cpu_ns();
        assert!(own.iter().any(|&(tid, _)| tid == current_tid()));
    }

    #[test]
    fn own_cpu_time_advances_with_work_but_not_with_sleep() {
        let start = own_cpu_ns();
        assert!(start > 0);
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = own_cpu_ns() - start;
        let busy = Instant::now();
        while busy.elapsed().as_millis() < 50 {
            std::hint::black_box(mix(busy.elapsed().as_nanos() as u64));
        }
        let worked = own_cpu_ns() - start - slept;
        assert!(slept < 25_000_000, "sleeping used {slept} ns of CPU");
        assert!(worked > slept, "work used {worked} ns, sleep {slept} ns");
    }

    #[test]
    fn cpu_split_separates_the_calling_thread_from_workers() {
        let before = [(10, 100), (11, 50)];
        let after = [(10, 400), (11, 80), (12, 20)];
        assert_eq!(cpu_split(&before, &after, 10), (300, 50));
    }

    #[test]
    fn status_fields_parse_in_kilobytes() {
        let text = "Name:\tperfbench\nVmHWM:\t  20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kb(text, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kb(text, "VmPeak"), None);
    }

    #[test]
    fn seed_derived_values_repeat_and_stay_in_range() {
        assert_eq!(mix(7), mix(7));
        assert_ne!(mix(7), mix(8));
        for seed in 0..1000 {
            let u = unit(seed);
            assert!((-1.0..1.0).contains(&u));
        }
    }
}
