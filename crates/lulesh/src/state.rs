//! The radial Lagrangian state of the Sedov blast.

use crate::config::LuleshConfig;

/// Minimum specific internal energy of the undisturbed material (a small
/// positive floor keeps the sound speed finite ahead of the shock).
pub(crate) const ENERGY_FLOOR: f64 = 1.0e-6;

/// The spherically symmetric Lagrangian state: staggered radial mesh with
/// velocities on nodes and thermodynamic quantities on zones.
///
/// Node `i` sits at radius `node_r[i]`; zone `j` spans nodes `j` and `j+1`.
/// All lengths are measured in initial element widths, so "radius 22" means
/// the same thing as the paper's "radius of 22 out of 30 units".
#[derive(Debug, Clone, PartialEq)]
pub struct RadialState {
    /// Node radii (length `zones + 1`).
    pub node_r: Vec<f64>,
    /// Node radial velocities (length `zones + 1`).
    pub node_u: Vec<f64>,
    /// Zone masses (length `zones`), fixed for the whole run (Lagrangian).
    pub zone_mass: Vec<f64>,
    /// Zone densities.
    pub zone_rho: Vec<f64>,
    /// Zone specific internal energies.
    pub zone_e: Vec<f64>,
    /// Zone pressures.
    pub zone_p: Vec<f64>,
    /// Zone artificial viscosities.
    pub zone_q: Vec<f64>,
}

impl RadialState {
    /// Builds the initial Sedov state for a configuration: uniform density,
    /// material at rest, the blast energy deposited in the innermost zone.
    pub fn sedov_initial(config: &LuleshConfig) -> Self {
        let zones = config.radial_zones();
        let node_r: Vec<f64> = (0..=zones).map(|i| i as f64).collect();
        let node_u = vec![0.0; zones + 1];
        let mut zone_mass = Vec::with_capacity(zones);
        let mut zone_rho = Vec::with_capacity(zones);
        let mut zone_e = Vec::with_capacity(zones);
        for j in 0..zones {
            let volume = shell_volume(node_r[j], node_r[j + 1]);
            zone_mass.push(config.initial_density * volume);
            zone_rho.push(config.initial_density);
            zone_e.push(ENERGY_FLOOR);
        }
        // Deposit the blast energy in the innermost zone (specific energy =
        // total energy / zone mass), as LULESH does for the Sedov problem.
        zone_e[0] = config.initial_energy / zone_mass[0];
        let mut state = Self {
            node_r,
            node_u,
            zone_mass,
            zone_rho,
            zone_e,
            zone_p: vec![0.0; zones],
            zone_q: vec![0.0; zones],
        };
        state.update_pressure(config.gamma);
        state
    }

    /// Number of zones.
    pub fn zones(&self) -> usize {
        self.zone_mass.len()
    }

    /// Recomputes densities from the current node positions (Lagrangian mass
    /// conservation).
    pub fn update_density(&mut self) {
        for j in 0..self.zones() {
            let volume = shell_volume(self.node_r[j], self.node_r[j + 1]).max(1e-12);
            self.zone_rho[j] = self.zone_mass[j] / volume;
        }
    }

    /// Recomputes pressures from the ideal-gas equation of state
    /// `p = (γ − 1) ρ e`.
    pub fn update_pressure(&mut self, gamma: f64) {
        for j in 0..self.zones() {
            self.zone_p[j] = (gamma - 1.0) * self.zone_rho[j] * self.zone_e[j].max(0.0);
        }
    }

    /// Adiabatic sound speed of a zone.
    pub fn sound_speed(&self, zone: usize, gamma: f64) -> f64 {
        let p = self.zone_p[zone].max(0.0);
        let rho = self.zone_rho[zone].max(1e-12);
        (gamma * p / rho).sqrt()
    }

    /// Total kinetic + internal energy (a conserved quantity up to boundary
    /// work and viscous dissipation into heat, which stays inside the sum).
    pub fn total_energy(&self) -> f64 {
        let mut total = 0.0;
        for j in 0..self.zones() {
            // Zone kinetic energy from the mean of its node velocities.
            let u = 0.5 * (self.node_u[j] + self.node_u[j + 1]);
            total += self.zone_mass[j] * (self.zone_e[j] + 0.5 * u * u);
        }
        total
    }

    /// Radial velocity of the node at integer radius `location` (element
    /// units); 0 outside the mesh. This is the diagnostic variable the
    /// paper's `td_var_provider` returns for LULESH.
    pub fn velocity_at(&self, location: usize) -> f64 {
        self.node_u.get(location).copied().unwrap_or(0.0)
    }

    /// Radius of the shock front: the position of the node with the largest
    /// outward velocity.
    pub fn shock_front_radius(&self) -> f64 {
        let mut best = 0usize;
        for i in 1..self.node_u.len() {
            if self.node_u[i] > self.node_u[best] {
                best = i;
            }
        }
        self.node_r[best]
    }
}

/// Volume of a spherical shell between two radii.
pub(crate) fn shell_volume(r_inner: f64, r_outer: f64) -> f64 {
    let f = 4.0 / 3.0 * std::f64::consts::PI;
    f * (r_outer.powi(3) - r_inner.powi(3)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> LuleshConfig {
        LuleshConfig::with_edge_elems(20)
    }

    #[test]
    fn sedov_initial_state_is_consistent() {
        let c = config();
        let s = RadialState::sedov_initial(&c);
        assert_eq!(s.zones(), 20);
        assert_eq!(s.node_r.len(), 21);
        // Material at rest, uniform density.
        assert!(s.node_u.iter().all(|&u| u == 0.0));
        assert!(s.zone_rho.iter().all(|&r| (r - 1.0).abs() < 1e-12));
        // All the blast energy is in the innermost zone.
        assert!(s.zone_e[0] > 1e3);
        assert!(s.zone_e[1..].iter().all(|&e| e == ENERGY_FLOOR));
        // Pressure follows the EOS.
        assert!(s.zone_p[0] > s.zone_p[5]);
    }

    #[test]
    fn density_recovers_after_node_motion() {
        let c = config();
        let mut s = RadialState::sedov_initial(&c);
        // Compress the first zone by moving its outer node inward.
        s.node_r[1] = 0.5;
        s.update_density();
        assert!(s.zone_rho[0] > 1.0);
        assert!(s.zone_rho[1] < 1.0);
        // Mass is unchanged.
        let v0 = shell_volume(s.node_r[0], s.node_r[1]);
        assert!((s.zone_rho[0] * v0 - s.zone_mass[0]).abs() < 1e-9);
    }

    #[test]
    fn sound_speed_positive_in_hot_zone() {
        let c = config();
        let s = RadialState::sedov_initial(&c);
        assert!(s.sound_speed(0, c.gamma) > 0.0);
        assert!(s.sound_speed(10, c.gamma) >= 0.0);
    }

    #[test]
    fn total_energy_equals_deposited_energy_initially() {
        let c = config();
        let s = RadialState::sedov_initial(&c);
        let expected = c.initial_energy + ENERGY_FLOOR * (s.total_mass_minus_first());
        let relative = (s.total_energy() - expected).abs() / expected;
        assert!(relative < 1e-9);
    }

    impl RadialState {
        fn total_mass_minus_first(&self) -> f64 {
            self.zone_mass[1..].iter().sum()
        }
    }

    #[test]
    fn shell_volume_matches_sphere() {
        let v = shell_volume(0.0, 2.0);
        assert!((v - 4.0 / 3.0 * std::f64::consts::PI * 8.0).abs() < 1e-12);
        assert_eq!(shell_volume(2.0, 1.0), 0.0);
    }

    #[test]
    fn velocity_at_out_of_range_is_zero() {
        let s = RadialState::sedov_initial(&config());
        assert_eq!(s.velocity_at(100), 0.0);
    }
}
