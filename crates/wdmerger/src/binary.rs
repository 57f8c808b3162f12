//! The reduced-order binary evolution model.
//!
//! The state captures the chain of stages Castro's `wdmerger` problem goes
//! through — inspiral, Roche-lobe overflow, accretion heating, carbon
//! ignition, detonation and mass ejection — as a small explicit ODE system.
//! Each call to [`BinaryState::advance`] integrates one diagnostic timestep
//! with the configured number of substeps.

use crate::config::WdMergerConfig;
use crate::wd::{chandrasekhar_mass, orbital_angular_momentum, roche_lobe_radius, wd_radius};

/// Which stage of the merger the system is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergerPhase {
    /// Detached binary, orbit shrinking through gravitational-wave and tidal
    /// losses.
    Inspiral,
    /// The secondary overflows its Roche lobe and the primary accretes.
    MassTransfer,
    /// Carbon has ignited; the detonation transient is releasing energy and
    /// ejecting mass.
    Detonation,
    /// The transient is over; the remnant evolves quiescently.
    Remnant,
}

/// The dynamical state of the binary (plus the thermal state of the primary
/// and the bookkeeping of the detonation).
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryState {
    /// Primary (accretor) mass, solar masses.
    pub primary_mass: f64,
    /// Secondary (donor) mass, solar masses.
    pub secondary_mass: f64,
    /// Orbital separation, solar radii.
    pub separation: f64,
    /// Central temperature of the primary, 10⁹ K.
    pub temperature: f64,
    /// Cumulative released energy (gravitational + nuclear), model units.
    pub released_energy: f64,
    /// Cumulative ejected (unbound) mass, solar masses.
    pub ejected_mass: f64,
    /// Cumulative mass accreted by the primary, solar masses.
    pub accreted_mass: f64,
    /// Remaining nuclear fuel available to the detonation, solar masses.
    pub fuel: f64,
    /// Current phase.
    pub phase: MergerPhase,
    /// Simulation time (diagnostic timesteps) at which ignition occurred.
    pub ignition_time: Option<f64>,
    /// Time elapsed since ignition, timesteps.
    time_since_ignition: f64,
    /// Current simulation time, timesteps.
    time: f64,
}

impl BinaryState {
    /// The initial state for a configuration.
    pub fn initial(config: &WdMergerConfig) -> Self {
        Self {
            primary_mass: config.primary_mass,
            secondary_mass: config.secondary_mass,
            separation: config.initial_separation,
            temperature: config.floor_temperature,
            released_energy: 0.0,
            ejected_mass: 0.0,
            accreted_mass: 0.0,
            fuel: config.primary_mass,
            phase: MergerPhase::Inspiral,
            ignition_time: None,
            time_since_ignition: 0.0,
            time: 0.0,
        }
    }

    /// Current simulation time in diagnostic timesteps.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Total bound mass of the system (everything not yet ejected).
    pub fn bound_mass(&self) -> f64 {
        (self.primary_mass + self.secondary_mass - self.ejected_mass).max(0.0)
    }

    /// Total angular momentum: orbital momentum of the surviving binary plus
    /// a remnant term after coalescence. Ejected mass carries its specific
    /// angular momentum away, which is what produces the post-detonation
    /// slow decline the paper tracks.
    pub fn angular_momentum(&self) -> f64 {
        let orbital = orbital_angular_momentum(
            self.primary_mass,
            self.secondary_mass.max(1e-3),
            self.separation,
        );
        // Ejecta remove angular momentum roughly in proportion to the mass
        // lost (coefficient chosen inside the orbital scale).
        let carried = 0.3 * self.ejected_mass * orbital.max(1e-9) / self.bound_mass().max(1e-9);
        (orbital - carried).max(0.0)
    }

    /// Radius of the donor's Roche lobe at the current separation.
    pub fn donor_roche_lobe(&self) -> f64 {
        roche_lobe_radius(self.secondary_mass, self.primary_mass, self.separation)
    }

    /// Whether the donor currently overflows its Roche lobe.
    pub fn is_overflowing(&self) -> bool {
        wd_radius(self.secondary_mass) > self.donor_roche_lobe()
    }

    /// Whether the detonation has been triggered.
    pub fn detonated(&self) -> bool {
        self.ignition_time.is_some()
    }

    /// Advances the state by one diagnostic timestep.
    pub fn advance(&mut self, config: &WdMergerConfig) {
        let substeps = config.substeps.max(1);
        let dt = 1.0 / substeps as f64;
        for _ in 0..substeps {
            self.substep(config, dt);
        }
        self.time += 1.0;
    }

    fn substep(&mut self, config: &WdMergerConfig, dt: f64) {
        match self.phase {
            MergerPhase::Inspiral | MergerPhase::MassTransfer => {
                self.pre_detonation_substep(config, dt)
            }
            MergerPhase::Detonation | MergerPhase::Remnant => {
                self.post_ignition_substep(config, dt)
            }
        }
    }

    fn pre_detonation_substep(&mut self, config: &WdMergerConfig, dt: f64) {
        // Orbital decay (gravitational waves + tidal dissipation), with the
        // characteristic runaway as the separation shrinks.
        let a = self.separation.max(1e-4);
        self.separation = (a - config.orbital_decay / (a * a * a) * dt).max(1e-4);

        // Roche-lobe overflow and accretion.
        let donor_radius = wd_radius(self.secondary_mass);
        let lobe = self.donor_roche_lobe();
        if donor_radius > lobe && self.secondary_mass > 0.05 {
            self.phase = MergerPhase::MassTransfer;
            let depth = ((donor_radius - lobe) / donor_radius).clamp(0.0, 1.0);
            let transfer = config.mass_transfer_rate * depth * depth * depth * dt;
            let transfer = transfer.min(self.secondary_mass - 0.05);
            self.secondary_mass -= transfer;
            self.primary_mass += transfer;
            self.accreted_mass += transfer;
            // Gravitational energy of the accreted material heats the
            // primary and shows up in the released-energy diagnostic.
            let specific = self.primary_mass / wd_radius(self.primary_mass).max(1e-4);
            self.released_energy += 0.02 * transfer * specific / 100.0;
            self.temperature += config.accretion_heating * transfer;
        }

        // Cooling toward the floor temperature.
        self.temperature -=
            config.cooling_rate * (self.temperature - config.floor_temperature) * dt;
        self.temperature = self.temperature.max(config.floor_temperature);

        // Ignition criterion: central carbon ignition by temperature, or by
        // reaching the Chandrasekhar limit.
        if self.temperature >= config.ignition_temperature
            || self.primary_mass >= chandrasekhar_mass() - 1e-3
        {
            self.phase = MergerPhase::Detonation;
            self.ignition_time = Some(self.time + 1.0 - 0.5);
            self.time_since_ignition = 0.0;
        }
    }

    fn post_ignition_substep(&mut self, config: &WdMergerConfig, dt: f64) {
        self.time_since_ignition += dt;
        let duration = config.detonation_duration.max(1e-3);
        if self.time_since_ignition <= duration && self.fuel > 1e-3 {
            self.phase = MergerPhase::Detonation;
            // Burn fuel at a rate that tapers off over the transient.
            let progress = self.time_since_ignition / duration;
            let burn = (self.fuel / duration) * (1.0 - 0.5 * progress) * dt;
            let burn = burn.min(self.fuel);
            self.fuel -= burn;
            self.released_energy += config.nuclear_energy_release * burn;
            // The runaway keeps heating the remnant, but far more slowly
            // than the pre-ignition accretion spike: the paper's "slowdown
            // increment of temperature".
            self.temperature += 1.5 * burn;
            // Part of the released energy unbinds material.
            self.ejected_mass += config.ejection_efficiency * burn;
        } else {
            self.phase = MergerPhase::Remnant;
            // Quiescent remnant: slow radiative losses, a trickle of late
            // ejecta, no further nuclear release.
            self.temperature -=
                0.3 * config.cooling_rate * (self.temperature - config.floor_temperature) * dt;
            self.ejected_mass += 1.0e-4 * dt;
        }
        // The surviving binary is essentially merged: the separation keeps
        // shrinking slowly toward contact.
        self.separation = (self.separation * (1.0 - 0.02 * dt)).max(1e-4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evolve(config: &WdMergerConfig, steps: u64) -> BinaryState {
        let mut state = BinaryState::initial(config);
        for _ in 0..steps {
            state.advance(config);
        }
        state
    }

    #[test]
    fn initial_state_is_detached_and_cold() {
        let config = WdMergerConfig::default();
        let s = BinaryState::initial(&config);
        assert_eq!(s.phase, MergerPhase::Inspiral);
        assert!(!s.detonated());
        assert!(s.temperature < 0.1);
        assert_eq!(s.bound_mass(), config.primary_mass + config.secondary_mass);
    }

    #[test]
    fn orbit_shrinks_during_inspiral() {
        let config = WdMergerConfig::default();
        let s = evolve(&config, 5);
        assert!(s.separation < config.initial_separation);
    }

    #[test]
    fn the_system_eventually_detonates() {
        let config = WdMergerConfig::default();
        let s = evolve(&config, config.steps);
        assert!(s.detonated(), "default configuration must detonate");
        let ignition = s.ignition_time.unwrap();
        assert!(
            ignition > 5.0 && ignition < config.steps as f64 - 20.0,
            "ignition at {ignition} should leave room for the post-detonation evolution"
        );
        assert!(s.ejected_mass > 0.0);
        assert!(s.released_energy > 0.0);
    }

    #[test]
    fn mass_transfer_moves_mass_from_donor_to_primary() {
        let config = WdMergerConfig::default();
        let s = evolve(&config, 40);
        assert!(s.accreted_mass > 0.0);
        assert!(s.secondary_mass < config.secondary_mass);
        assert!(s.primary_mass > config.primary_mass);
        // Mass transfer itself conserves total mass (only ejection removes it).
        let total = s.primary_mass + s.secondary_mass;
        let expected = config.primary_mass + config.secondary_mass;
        assert!((total - expected).abs() <= s.ejected_mass + 1e-9 + expected * 1e-12);
    }

    #[test]
    fn angular_momentum_decreases_monotonically_overall() {
        let config = WdMergerConfig::default();
        let mut state = BinaryState::initial(&config);
        let j0 = state.angular_momentum();
        for _ in 0..config.steps {
            state.advance(&config);
        }
        assert!(state.angular_momentum() < j0);
    }

    #[test]
    fn bound_mass_plateaus_then_decreases() {
        let config = WdMergerConfig::default();
        let mut state = BinaryState::initial(&config);
        let mut masses = Vec::new();
        for _ in 0..config.steps {
            state.advance(&config);
            masses.push(state.bound_mass());
        }
        let ignition = state.ignition_time.unwrap() as usize;
        // Before ignition the bound mass is (exactly) conserved.
        assert!((masses[ignition.saturating_sub(3)] - masses[0]).abs() < 1e-9);
        // After the transient it has clearly decreased.
        assert!(masses[masses.len() - 1] < masses[0] - 1e-3);
    }

    #[test]
    fn temperature_rise_slows_after_ignition() {
        let config = WdMergerConfig::default();
        let mut state = BinaryState::initial(&config);
        let mut temps = Vec::new();
        for _ in 0..config.steps {
            state.advance(&config);
            temps.push(state.temperature);
        }
        let ignition = state.ignition_time.unwrap() as usize;
        let pre_rate = temps[ignition - 1] - temps[ignition - 3];
        let post_index = (ignition + 15).min(temps.len() - 1);
        let post_rate = temps[post_index] - temps[post_index - 2];
        assert!(
            post_rate < pre_rate,
            "temperature should rise more slowly after ignition ({post_rate} vs {pre_rate})"
        );
    }
}
