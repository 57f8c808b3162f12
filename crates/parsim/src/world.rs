//! The simulated rank world and its collective operations.
//!
//! A [`World`] plays the role of `MPI_COMM_WORLD`: it knows how many ranks
//! exist, executes collectives on values held in-process, and charges each
//! collective's cost to an internal communication timer through the
//! [`CostModel`]. The in-situ region API uses `broadcast` to keep every rank
//! updated on the threshold-detection status (predicted value, wave-front
//! rank, termination flag), which is exactly the traffic whose overhead the
//! paper's Table III measures.

use std::sync::Mutex;

use crate::config::ParallelConfig;
use crate::cost::CostModel;
use crate::error::{Error, Result};
use crate::threadpool::ThreadPool;

/// Record of one collective operation, kept for overhead attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveRecord {
    /// Which collective ran.
    pub kind: CollectiveKind,
    /// Payload size in bytes per rank.
    pub bytes: usize,
    /// Modelled cost in seconds.
    pub seconds: f64,
}

/// The collective operations supported by the simulated world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// One-to-all broadcast.
    Broadcast,
    /// All-to-all reduction.
    AllReduce,
    /// Synchronization barrier.
    Barrier,
    /// Nearest-neighbour halo exchange.
    HaloExchange,
}

#[derive(Debug, Default)]
struct CommLedger {
    seconds: f64,
    records: Vec<CollectiveRecord>,
}

/// A simulated `MPI_COMM_WORLD`.
///
/// ```
/// use parsim::{ParallelConfig, World};
///
/// let world = World::new(ParallelConfig::new(4, 1).unwrap());
/// let sums = world.allreduce_sum(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert!(sums.iter().all(|&s| (s - 10.0).abs() < 1e-12));
/// ```
#[derive(Debug)]
pub struct World {
    config: ParallelConfig,
    cost: CostModel,
    pool: ThreadPool,
    ledger: Mutex<CommLedger>,
}

impl World {
    /// Creates a world with the default [`CostModel`].
    pub fn new(config: ParallelConfig) -> Self {
        Self::with_cost_model(config, CostModel::default())
    }

    /// Creates a world with an explicit cost model.
    pub fn with_cost_model(config: ParallelConfig, cost: CostModel) -> Self {
        Self {
            config,
            cost,
            pool: ThreadPool::new(config),
            ledger: Mutex::new(CommLedger::default()),
        }
    }

    /// The rank × thread configuration of this world.
    pub fn config(&self) -> ParallelConfig {
        self.config
    }

    /// Number of simulated ranks.
    pub fn size(&self) -> usize {
        self.config.ranks()
    }

    /// The communication cost model in use.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// The fork-join thread pool sized for this world's configuration.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Total modelled communication time accumulated so far, in seconds.
    pub fn communication_seconds(&self) -> f64 {
        self.ledger.lock().expect("ledger mutex poisoned").seconds
    }

    /// Number of collective operations executed so far.
    pub fn collective_count(&self) -> usize {
        self.ledger
            .lock()
            .expect("ledger mutex poisoned")
            .records
            .len()
    }

    /// A copy of the per-collective ledger for detailed attribution.
    pub fn collective_records(&self) -> Vec<CollectiveRecord> {
        self.ledger
            .lock()
            .expect("ledger mutex poisoned")
            .records
            .clone()
    }

    /// Clears the accumulated communication time and ledger.
    pub fn reset_communication(&self) {
        let mut ledger = self.ledger.lock().expect("ledger mutex poisoned");
        ledger.seconds = 0.0;
        ledger.records.clear();
    }

    fn charge(&self, kind: CollectiveKind, bytes: usize, seconds: f64) {
        let mut ledger = self.ledger.lock().expect("ledger mutex poisoned");
        ledger.seconds += seconds;
        ledger.records.push(CollectiveRecord {
            kind,
            bytes,
            seconds,
        });
    }

    /// Broadcasts `value` from `root` to every rank and returns the
    /// per-rank received values (all clones of `value`).
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a valid rank; use [`World::try_broadcast`]
    /// for a fallible variant.
    pub fn broadcast<T: Clone>(&self, root: usize, value: T) -> Vec<T> {
        self.try_broadcast(root, value)
            .expect("broadcast root must be a valid rank")
    }

    /// Fallible variant of [`World::broadcast`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownRank`] if `root` is outside the world.
    pub fn try_broadcast<T: Clone>(&self, root: usize, value: T) -> Result<Vec<T>> {
        if root >= self.size() {
            return Err(Error::UnknownRank {
                rank: root,
                world_size: self.size(),
            });
        }
        let bytes = std::mem::size_of::<T>();
        let seconds = self.cost.broadcast_seconds(self.size(), bytes);
        self.charge(CollectiveKind::Broadcast, bytes, seconds);
        Ok(vec![value; self.size()])
    }

    /// All-reduce (sum) of one `f64` contribution per rank; every rank
    /// receives the global sum.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongContribution`] if the slice length differs from
    /// the world size.
    pub fn allreduce_sum(&self, contributions: &[f64]) -> Result<Vec<f64>> {
        self.allreduce_with(contributions, 0.0, |a, b| a + b)
    }

    /// All-reduce (minimum) of one `f64` contribution per rank. LULESH uses
    /// this for the globally stable timestep.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongContribution`] if the slice length differs from
    /// the world size.
    pub fn allreduce_min(&self, contributions: &[f64]) -> Result<Vec<f64>> {
        self.allreduce_with(contributions, f64::INFINITY, f64::min)
    }

    fn allreduce_with(
        &self,
        contributions: &[f64],
        identity: f64,
        fold: impl Fn(f64, f64) -> f64,
    ) -> Result<Vec<f64>> {
        if contributions.len() != self.size() {
            return Err(Error::WrongContribution {
                got: contributions.len(),
                expected: self.size(),
            });
        }
        let bytes = std::mem::size_of::<f64>();
        let seconds = self.cost.allreduce_seconds(self.size(), bytes);
        self.charge(CollectiveKind::AllReduce, bytes, seconds);
        let global = contributions.iter().copied().fold(identity, fold);
        Ok(vec![global; self.size()])
    }

    /// Synchronization barrier across all ranks (modelled cost only).
    pub fn barrier(&self) {
        let seconds = self.cost.barrier_seconds(self.size());
        self.charge(CollectiveKind::Barrier, 0, seconds);
    }

    /// Charges the cost of one face halo exchange in which every rank sends
    /// `bytes_per_face` bytes to `neighbors` neighbours. The proxy
    /// applications call this once per iteration to model the traffic the
    /// real codes would generate.
    pub fn halo_exchange(&self, neighbors: usize, bytes_per_face: usize) {
        let seconds = self.cost.halo_exchange_seconds(neighbors, bytes_per_face);
        self.charge(CollectiveKind::HaloExchange, bytes_per_face, seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(ranks: usize) -> World {
        World::new(ParallelConfig::new(ranks, 1).unwrap())
    }

    #[test]
    fn broadcast_reaches_every_rank() {
        let w = world(8);
        let got = w.broadcast(3, 7.5_f64);
        assert_eq!(got.len(), 8);
        assert!(got.iter().all(|&v| v == 7.5));
        assert!(w.communication_seconds() > 0.0);
        assert_eq!(w.collective_count(), 1);
    }

    #[test]
    fn broadcast_from_invalid_root_errors() {
        let w = world(4);
        assert!(w.try_broadcast(4, 1_u8).is_err());
    }

    #[test]
    fn allreduce_sum_and_min() {
        let w = world(4);
        let sums = w.allreduce_sum(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(sums.iter().all(|&s| (s - 10.0).abs() < 1e-12));
        let mins = w.allreduce_min(&[3.0, -1.0, 2.0, 8.0]).unwrap();
        assert!(mins.iter().all(|&m| m == -1.0));
    }

    #[test]
    fn allreduce_rejects_wrong_contribution_count() {
        let w = world(4);
        assert!(w.allreduce_sum(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn single_rank_world_has_zero_cost_collectives() {
        let w = world(1);
        w.broadcast(0, 1_u32);
        w.barrier();
        assert_eq!(w.communication_seconds(), 0.0);
        assert_eq!(w.collective_count(), 2);
    }

    #[test]
    fn reset_clears_ledger() {
        let w = world(8);
        w.broadcast(0, [0_u8; 64]);
        w.halo_exchange(6, 4096);
        assert!(w.communication_seconds() > 0.0);
        w.reset_communication();
        assert_eq!(w.communication_seconds(), 0.0);
        assert_eq!(w.collective_count(), 0);
    }

    #[test]
    fn more_ranks_cost_more_per_broadcast() {
        let small = world(2);
        let large = world(32);
        small.broadcast(0, 0_u64);
        large.broadcast(0, 0_u64);
        assert!(large.communication_seconds() > small.communication_seconds());
    }
}
