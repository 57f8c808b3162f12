//! Alpha–beta communication cost model.
//!
//! Collectives on the simulated ranks have no real network footprint, so
//! their cost is charged analytically: a point-to-point message of `b` bytes
//! costs `alpha + b / bandwidth` seconds, and tree-based collectives over
//! `p` ranks pay `ceil(log2 p)` rounds of that. The default constants are in
//! the range of a commodity InfiniBand-class interconnect and can be
//! overridden for sensitivity studies.

/// Latency/bandwidth model for simulated communication.
///
/// ```
/// use parsim::CostModel;
///
/// let model = CostModel::default();
/// let one = model.point_to_point_seconds(8);
/// let bcast = model.broadcast_seconds(8, 8);
/// assert!(bcast >= one);
/// assert_eq!(model.broadcast_seconds(1, 8), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message latency in seconds.
    pub latency_seconds: f64,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bytes_per_second: f64,
}

impl CostModel {
    /// Creates a model from explicit latency and bandwidth.
    pub fn new(latency_seconds: f64, bandwidth_bytes_per_second: f64) -> Self {
        Self {
            latency_seconds: latency_seconds.max(0.0),
            bandwidth_bytes_per_second: bandwidth_bytes_per_second.max(1.0),
        }
    }

    /// A model with zero cost, used when communication time should be
    /// excluded from an experiment.
    pub fn free() -> Self {
        Self {
            latency_seconds: 0.0,
            bandwidth_bytes_per_second: f64::MAX,
        }
    }

    /// Cost of one point-to-point message of `bytes` bytes.
    pub fn point_to_point_seconds(&self, bytes: usize) -> f64 {
        self.latency_seconds + bytes as f64 / self.bandwidth_bytes_per_second
    }

    /// Number of communication rounds in a binomial tree over `ranks` ranks.
    fn tree_rounds(ranks: usize) -> u32 {
        if ranks <= 1 {
            0
        } else {
            usize::BITS - (ranks - 1).leading_zeros()
        }
    }

    /// Cost of broadcasting `bytes` bytes from one root to `ranks` ranks
    /// (binomial tree).
    pub fn broadcast_seconds(&self, ranks: usize, bytes: usize) -> f64 {
        f64::from(Self::tree_rounds(ranks)) * self.point_to_point_seconds(bytes)
    }

    /// Cost of an all-reduce of `bytes` bytes across `ranks` ranks
    /// (reduce + broadcast trees).
    pub fn allreduce_seconds(&self, ranks: usize, bytes: usize) -> f64 {
        2.0 * self.broadcast_seconds(ranks, bytes)
    }

    /// Cost of a barrier across `ranks` ranks (zero-payload all-reduce).
    pub fn barrier_seconds(&self, ranks: usize) -> f64 {
        self.allreduce_seconds(ranks, 0)
    }

    /// Cost of a face halo exchange where every rank sends `bytes` bytes to
    /// each of `neighbors` neighbours; exchanges with distinct neighbours
    /// proceed concurrently, so the cost is that of the largest per-rank
    /// message sequence.
    pub fn halo_exchange_seconds(&self, neighbors: usize, bytes: usize) -> f64 {
        neighbors as f64 * self.point_to_point_seconds(bytes)
    }
}

impl Default for CostModel {
    /// Latency 2 µs, bandwidth 10 GB/s — commodity cluster interconnect.
    fn default() -> Self {
        Self {
            latency_seconds: 2.0e-6,
            bandwidth_bytes_per_second: 10.0e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_collectives_are_free() {
        let m = CostModel::default();
        assert_eq!(m.broadcast_seconds(1, 1024), 0.0);
        assert_eq!(m.allreduce_seconds(1, 1024), 0.0);
        assert_eq!(m.barrier_seconds(1), 0.0);
    }

    #[test]
    fn broadcast_cost_grows_logarithmically() {
        let m = CostModel::new(1.0, 1e12);
        // latency-dominated: cost ≈ rounds
        assert!((m.broadcast_seconds(2, 8) - 1.0).abs() < 1e-6);
        assert!((m.broadcast_seconds(4, 8) - 2.0).abs() < 1e-6);
        assert!((m.broadcast_seconds(8, 8) - 3.0).abs() < 1e-6);
        assert!((m.broadcast_seconds(9, 8) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn allreduce_is_twice_broadcast() {
        let m = CostModel::default();
        assert!((m.allreduce_seconds(16, 64) - 2.0 * m.broadcast_seconds(16, 64)).abs() < 1e-15);
    }

    #[test]
    fn bandwidth_term_scales_with_bytes() {
        let m = CostModel::new(0.0, 1e6);
        assert!((m.point_to_point_seconds(1_000_000) - 1.0).abs() < 1e-9);
        assert!((m.halo_exchange_seconds(3, 1_000_000) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn free_model_costs_nothing_measurable() {
        let m = CostModel::free();
        assert!(m.broadcast_seconds(1024, 1 << 20) < 1e-9);
    }

    #[test]
    fn negative_inputs_are_clamped() {
        let m = CostModel::new(-1.0, -5.0);
        assert_eq!(m.latency_seconds, 0.0);
        assert!(m.bandwidth_bytes_per_second >= 1.0);
    }
}
