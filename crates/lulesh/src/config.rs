//! Configuration of the Sedov-blast proxy.

use parsim::ParallelConfig;

/// Configuration of a [`LuleshSim`](crate::LuleshSim) run.
///
/// The defaults are calibrated so that the paper's three domain sizes
/// (30, 60, 90) produce iteration counts, shock coverage and velocity decay
/// in the same regime as LULESH 2.0 (≈ 930 iterations at size 30, shock
/// front reaching ≈ 80 % of the domain radius by the end of the run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LuleshConfig {
    /// Number of elements along one edge of the cubic domain (the paper's
    /// "domain size": 30, 60 or 90).
    pub edge_elems: usize,
    /// Total blast energy deposited in the innermost zone at t = 0.
    pub initial_energy: f64,
    /// Initial mass density of the undisturbed material.
    pub initial_density: f64,
    /// Ideal-gas adiabatic index.
    pub gamma: f64,
    /// Courant factor for the stable-timestep computation.
    pub courant: f64,
    /// Maximum relative growth of the timestep between iterations.
    pub dt_growth: f64,
    /// Simulation end time.
    pub end_time: f64,
    /// Hard cap on the number of iterations (safety net).
    pub max_iterations: u64,
    /// Linear artificial-viscosity coefficient.
    pub viscosity_linear: f64,
    /// Quadratic artificial-viscosity coefficient.
    pub viscosity_quadratic: f64,
    /// Whether to run the (expensive) 3D element-field update each
    /// iteration. Disabling it keeps the physics identical but removes the
    /// size³ work term; the overhead experiments always keep it on.
    pub update_element_fields: bool,
    /// Rank × thread configuration for the simulated parallel runtime.
    pub parallel: ParallelConfig,
}

/// Simulation end time that lets the Sedov shock front reach roughly 83 % of
/// the domain radius, matching the coverage the paper reports for its runs
/// (Sedov scaling: the front position grows like `t^(2/5)`, so the end time
/// grows like `size^(5/2)`).
pub fn sedov_end_time(edge_elems: usize) -> f64 {
    9.3e-5 * (edge_elems as f64).powf(2.5)
}

impl LuleshConfig {
    /// The default configuration for a given domain edge size, with the end
    /// time chosen by [`sedov_end_time`] so the blast covers the same
    /// fraction of the domain at every size.
    pub fn with_edge_elems(edge_elems: usize) -> Self {
        let edge_elems = edge_elems.max(4);
        Self {
            edge_elems,
            end_time: sedov_end_time(edge_elems),
            ..Self::default()
        }
    }

    /// Sets the parallel configuration (builder style).
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Sets the end time (builder style).
    pub fn with_end_time(mut self, end_time: f64) -> Self {
        self.end_time = end_time.max(0.0);
        self
    }

    /// Disables the 3D element-field update (builder style); used by tests
    /// that only care about the radial physics.
    pub fn without_element_fields(mut self) -> Self {
        self.update_element_fields = false;
        self
    }

    /// Number of radial zones (equal to the edge element count, so a
    /// "location id" in the paper's sense is a radial shell index in element
    /// units).
    pub fn radial_zones(&self) -> usize {
        self.edge_elems
    }

    /// Total number of 3D elements (`edge³`).
    pub fn total_elements(&self) -> usize {
        self.edge_elems * self.edge_elems * self.edge_elems
    }
}

impl Default for LuleshConfig {
    fn default() -> Self {
        Self {
            edge_elems: 30,
            initial_energy: 3.948_746e7,
            initial_density: 1.0,
            gamma: 1.4,
            courant: 0.25,
            dt_growth: 1.1,
            end_time: sedov_end_time(30),
            max_iterations: 20_000,
            viscosity_linear: 0.06,
            viscosity_quadratic: 2.0,
            update_element_fields: true,
            parallel: ParallelConfig::serial(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_baseline() {
        let c = LuleshConfig::default();
        assert_eq!(c.edge_elems, 30);
        assert_eq!(c.total_elements(), 27_000);
        assert_eq!(c.radial_zones(), 30);
        assert!(c.update_element_fields);
    }

    #[test]
    fn builder_style_setters() {
        let c = LuleshConfig::with_edge_elems(60)
            .with_end_time(5.0)
            .without_element_fields()
            .with_parallel(ParallelConfig::new(8, 2).unwrap());
        assert_eq!(c.edge_elems, 60);
        assert_eq!(c.end_time, 5.0);
        assert!(!c.update_element_fields);
        assert_eq!(c.parallel.ranks(), 8);
    }

    #[test]
    fn tiny_domains_are_clamped() {
        let c = LuleshConfig::with_edge_elems(1);
        assert!(c.edge_elems >= 4);
    }
}
