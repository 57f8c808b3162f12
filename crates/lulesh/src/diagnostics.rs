//! Radial diagnostics recorded during a run.
//!
//! The paper's Figure 5 plots the velocity at locations 1–10 over all
//! timesteps, and Table II needs the "ground truth" break-point radius,
//! which requires the per-location peak velocity over the whole run and the
//! velocity initiated by the blast at the point of contact. The diagnostics
//! recorder keeps exactly that state, updated once per iteration.

use simkit::series::TimeSeries;

use crate::state::RadialState;

/// One recorded `(iteration, velocity)` pair for a location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VelocityRecord {
    /// Iteration at which the velocity was observed.
    pub iteration: u64,
    /// Observed radial velocity.
    pub velocity: f64,
}

/// Accumulates per-location velocity series, per-location peaks, and the
/// initial blast velocity.
#[derive(Debug, Clone, Default)]
pub struct RadialDiagnostics {
    /// Velocity time series per radial location (index = location id).
    series: Vec<TimeSeries>,
    /// Per-location peak |velocity| over the run.
    peaks: Vec<f64>,
    /// Largest |velocity| ever observed at the innermost moving node — the
    /// "velocity initiated by the blast at the point of contact".
    initial_blast_velocity: f64,
    /// Number of iterations recorded.
    iterations: u64,
}

impl RadialDiagnostics {
    /// Creates a recorder for `locations` radial locations (0..locations).
    pub fn new(locations: usize) -> Self {
        Self {
            series: (0..locations)
                .map(|loc| TimeSeries::new(format!("velocity@{loc}")))
                .collect(),
            peaks: vec![0.0; locations],
            initial_blast_velocity: 0.0,
            iterations: 0,
        }
    }

    /// Number of tracked locations.
    pub fn locations(&self) -> usize {
        self.series.len()
    }

    /// Number of iterations recorded so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Records the state after one iteration.
    pub fn record(&mut self, iteration: u64, state: &RadialState) {
        for loc in 0..self.series.len() {
            let v = state.velocity_at(loc);
            self.series[loc].push(iteration as f64, v);
            let magnitude = v.abs();
            if magnitude > self.peaks[loc] {
                self.peaks[loc] = magnitude;
            }
        }
        // The blast's contact velocity: track the innermost moving node
        // (node 1; node 0 is pinned at the origin).
        let contact = state.velocity_at(1).abs();
        if contact > self.initial_blast_velocity {
            self.initial_blast_velocity = contact;
        }
        self.iterations += 1;
    }

    /// The velocity time series of a location, if tracked.
    pub fn series_at(&self, location: usize) -> Option<&TimeSeries> {
        self.series.get(location)
    }

    /// Per-location peak |velocity| profile as `(location, peak)` pairs,
    /// skipping location 0 (the pinned centre node).
    pub fn peak_profile(&self) -> Vec<(usize, f64)> {
        self.peaks
            .iter()
            .enumerate()
            .skip(1)
            .map(|(loc, &peak)| (loc, peak))
            .collect()
    }

    /// Peak |velocity| observed at a location (0 if not tracked).
    pub fn peak_at(&self, location: usize) -> f64 {
        self.peaks.get(location).copied().unwrap_or(0.0)
    }

    /// The blast's initial contact velocity (the reference for the paper's
    /// percentage thresholds).
    pub fn initial_blast_velocity(&self) -> f64 {
        self.initial_blast_velocity
    }

    /// Ground-truth break-point radius for a threshold expressed as a
    /// fraction of the initial blast velocity: the smallest location whose
    /// peak velocity stayed below the threshold (locations beyond it are the
    /// "safe zone"). Returns the last tracked location if every location
    /// exceeded the threshold.
    pub fn breakpoint_radius(&self, threshold_fraction: f64) -> usize {
        let threshold = threshold_fraction.max(0.0) * self.initial_blast_velocity;
        for (loc, &peak) in self.peaks.iter().enumerate().skip(1) {
            if peak < threshold {
                return loc;
            }
        }
        self.peaks.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LuleshConfig;
    use crate::state::RadialState;
    use crate::step;

    fn run_with_diagnostics(zones: usize, steps: u64) -> RadialDiagnostics {
        let config = LuleshConfig::with_edge_elems(zones).without_element_fields();
        let mut state = RadialState::sedov_initial(&config);
        let mut diag = RadialDiagnostics::new(zones);
        let mut time = 0.0;
        let mut dt = 0.0;
        for it in 0..steps {
            let r = step::step(&mut state, &config, time, dt);
            time = r.time;
            dt = r.dt;
            diag.record(it, &state);
        }
        diag
    }

    #[test]
    fn records_one_series_per_location() {
        let diag = run_with_diagnostics(16, 50);
        assert_eq!(diag.locations(), 16);
        assert_eq!(diag.iterations(), 50);
        assert_eq!(diag.series_at(3).unwrap().len(), 50);
        assert!(diag.series_at(16).is_none());
    }

    #[test]
    fn peak_velocity_decreases_with_radius() {
        let diag = run_with_diagnostics(24, 700);
        // Wave attenuation: the peak near the origin exceeds the peak at the
        // outer locations it has reached.
        assert!(diag.peak_at(2) > diag.peak_at(12));
        assert!(diag.peak_at(2) > diag.peak_at(20));
        assert!(diag.initial_blast_velocity() > 0.0);
    }

    #[test]
    fn breakpoint_radius_shrinks_with_threshold() {
        let diag = run_with_diagnostics(30, 900);
        let r_low = diag.breakpoint_radius(0.001);
        let r_mid = diag.breakpoint_radius(0.05);
        let r_high = diag.breakpoint_radius(0.20);
        assert!(r_high <= r_mid, "20% radius {r_high} vs 5% radius {r_mid}");
        assert!(r_mid <= r_low, "5% radius {r_mid} vs 0.1% radius {r_low}");
        assert!(r_high >= 1);
    }

    #[test]
    fn peak_profile_skips_pinned_centre() {
        let diag = run_with_diagnostics(10, 50);
        let profile = diag.peak_profile();
        assert_eq!(profile.len(), 9);
        assert_eq!(profile[0].0, 1);
    }

    #[test]
    fn early_velocity_drop_near_origin() {
        // The paper highlights the rapid drop of velocity during early
        // stages at inner locations: after the shock passes, the velocity at
        // location 2 falls well below its peak.
        let diag = run_with_diagnostics(24, 700);
        let series = diag.series_at(2).unwrap();
        let peak = diag.peak_at(2);
        let last = series.last().unwrap().abs();
        assert!(
            last < peak * 0.8,
            "velocity should decay after the shock passes"
        );
    }
}
