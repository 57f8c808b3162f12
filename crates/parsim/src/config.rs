//! Parallel run configuration (ranks × threads).

use crate::error::{Error, Result};

/// An MPI-rank × OpenMP-thread configuration such as `8×2`.
///
/// ```
/// use parsim::ParallelConfig;
///
/// let config = ParallelConfig::new(8, 4).unwrap();
/// assert_eq!(config.total_workers(), 32);
/// assert_eq!(config.label(), "8x4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    ranks: usize,
    threads_per_rank: usize,
}

impl ParallelConfig {
    /// Creates a configuration of `ranks` simulated MPI ranks, each running
    /// `threads_per_rank` OpenMP-like threads.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if either count is zero.
    pub fn new(ranks: usize, threads_per_rank: usize) -> Result<Self> {
        if ranks == 0 {
            return Err(Error::InvalidConfig {
                what: "rank count must be positive".into(),
            });
        }
        if threads_per_rank == 0 {
            return Err(Error::InvalidConfig {
                what: "thread count must be positive".into(),
            });
        }
        Ok(Self {
            ranks,
            threads_per_rank,
        })
    }

    /// A single-rank, single-thread configuration.
    pub fn serial() -> Self {
        Self {
            ranks: 1,
            threads_per_rank: 1,
        }
    }

    /// Number of simulated MPI ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Number of OpenMP-like threads per rank.
    pub fn threads_per_rank(&self) -> usize {
        self.threads_per_rank
    }

    /// Total logical workers (`ranks * threads_per_rank`).
    pub fn total_workers(&self) -> usize {
        self.ranks * self.threads_per_rank
    }

    /// Number of real OS threads to use on this machine: the logical worker
    /// count capped at the available parallelism so oversubscribed
    /// configurations from the paper's tables still run sensibly on smaller
    /// hosts.
    pub fn effective_workers(&self) -> usize {
        let available = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.total_workers().min(available).max(1)
    }

    /// Whether the rank count is a perfect cube, which LULESH requires.
    pub fn is_cubic_rank_count(&self) -> bool {
        let c = (self.ranks as f64).cbrt().round() as usize;
        c * c * c == self.ranks
    }

    /// The `RxT` label used in the paper's tables (e.g. `"8x2"`).
    pub fn label(&self) -> String {
        format!("{}x{}", self.ranks, self.threads_per_rank)
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::serial()
    }
}

impl std::fmt::Display for ParallelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_configurations() {
        let c = ParallelConfig::new(27, 1).unwrap();
        assert_eq!(c.ranks(), 27);
        assert_eq!(c.threads_per_rank(), 1);
        assert_eq!(c.total_workers(), 27);
        assert!(c.is_cubic_rank_count());
        assert_eq!(c.to_string(), "27x1");
    }

    #[test]
    fn zero_counts_are_rejected() {
        assert!(ParallelConfig::new(0, 1).is_err());
        assert!(ParallelConfig::new(1, 0).is_err());
    }

    #[test]
    fn serial_is_default() {
        assert_eq!(ParallelConfig::default(), ParallelConfig::serial());
        assert_eq!(ParallelConfig::serial().total_workers(), 1);
    }

    #[test]
    fn effective_workers_never_exceeds_request_or_zero() {
        let c = ParallelConfig::new(1024, 4).unwrap();
        let eff = c.effective_workers();
        assert!(eff >= 1);
        assert!(eff <= c.total_workers());
        let s = ParallelConfig::serial();
        assert_eq!(s.effective_workers(), 1);
    }

    #[test]
    fn cubic_detection() {
        assert!(ParallelConfig::new(1, 1).unwrap().is_cubic_rank_count());
        assert!(ParallelConfig::new(8, 1).unwrap().is_cubic_rank_count());
        assert!(ParallelConfig::new(27, 1).unwrap().is_cubic_rank_count());
        assert!(!ParallelConfig::new(16, 1).unwrap().is_cubic_rank_count());
    }
}
