//! Configuration of the white-dwarf merger proxy.

use parsim::ParallelConfig;

/// Configuration of a [`WdMergerSim`](crate::WdMergerSim) run.
///
/// Masses are in solar masses, lengths in solar radii, temperatures in units
/// of 10⁹ K, and time in "diagnostic timesteps" (one per iteration, the unit
/// of the paper's delay-time axis). Rates are expressed per timestep. The
/// defaults are calibrated so the detonation occurs near timestep 30 of a
/// ~110-step run, matching the regime of the paper's Figure 8 and Table VI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WdMergerConfig {
    /// Grid resolution per axis (the paper's 16, 32 or 48).
    pub resolution: usize,
    /// Number of diagnostic timesteps to simulate.
    pub steps: u64,
    /// ODE substeps per diagnostic timestep (stability of the explicit
    /// integration).
    pub substeps: usize,
    /// Mass of the primary (accreting) white dwarf.
    pub primary_mass: f64,
    /// Mass of the secondary (donor) white dwarf.
    pub secondary_mass: f64,
    /// Initial orbital separation, in solar radii.
    pub initial_separation: f64,
    /// Strength of the orbital-decay term (gravitational waves + tidal
    /// dissipation), per timestep.
    pub orbital_decay: f64,
    /// Mass-transfer rate coefficient once the donor overflows its Roche
    /// lobe, per timestep.
    pub mass_transfer_rate: f64,
    /// Temperature rise of the primary per unit accreted mass (10⁹ K per
    /// solar mass).
    pub accretion_heating: f64,
    /// Radiative/neutrino cooling rate of the primary, per timestep.
    pub cooling_rate: f64,
    /// Central temperature at which carbon ignites (10⁹ K).
    pub ignition_temperature: f64,
    /// Specific nuclear energy released by the detonation (arbitrary energy
    /// units per solar mass of fuel).
    pub nuclear_energy_release: f64,
    /// Fraction of the released nuclear energy that unbinds mass.
    pub ejection_efficiency: f64,
    /// Duration of the detonation transient, in timesteps.
    pub detonation_duration: f64,
    /// Ambient temperature floor (10⁹ K).
    pub floor_temperature: f64,
    /// Rank × thread configuration for the simulated parallel runtime.
    pub parallel: ParallelConfig,
}

impl WdMergerConfig {
    /// The default configuration at a given grid resolution.
    pub fn with_resolution(resolution: usize) -> Self {
        Self {
            resolution: resolution.max(8),
            ..Self::default()
        }
    }

    /// Sets the parallel configuration (builder style).
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Sets the number of diagnostic timesteps (builder style).
    pub fn with_steps(mut self, steps: u64) -> Self {
        self.steps = steps.max(10);
        self
    }

    /// Total number of grid cells (`resolution³`).
    pub fn total_cells(&self) -> usize {
        self.resolution * self.resolution * self.resolution
    }
}

impl Default for WdMergerConfig {
    fn default() -> Self {
        Self {
            resolution: 32,
            steps: 110,
            substeps: 20,
            primary_mass: 0.90,
            secondary_mass: 0.60,
            initial_separation: 0.05,
            orbital_decay: 4.5e-8,
            mass_transfer_rate: 1.4,
            accretion_heating: 55.0,
            cooling_rate: 0.015,
            ignition_temperature: 0.7,
            nuclear_energy_release: 8.0,
            ejection_efficiency: 0.12,
            detonation_duration: 6.0,
            floor_temperature: 0.01,
            parallel: ParallelConfig::serial(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_baseline_resolution() {
        let c = WdMergerConfig::default();
        assert_eq!(c.resolution, 32);
        assert_eq!(c.total_cells(), 32_768);
        assert!(c.primary_mass > c.secondary_mass);
        assert!(c.primary_mass + c.secondary_mass > 1.44);
    }

    #[test]
    fn builder_setters() {
        let c = WdMergerConfig::with_resolution(48)
            .with_steps(200)
            .with_parallel(ParallelConfig::new(16, 2).unwrap());
        assert_eq!(c.resolution, 48);
        assert_eq!(c.steps, 200);
        assert_eq!(c.parallel.ranks(), 16);
    }

    #[test]
    fn degenerate_inputs_are_clamped() {
        assert!(WdMergerConfig::with_resolution(1).resolution >= 8);
        assert!(WdMergerConfig::default().with_steps(0).steps >= 10);
    }
}
