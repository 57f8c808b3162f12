//! The four diagnostic series and their ground-truth delay times.

use simkit::series::TimeSeries;

use crate::binary::BinaryState;

/// The diagnostic variables the paper extracts for the WD-merger case study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticVariable {
    /// Central temperature of the primary.
    Temperature,
    /// Total angular momentum of the system.
    AngularMomentum,
    /// Total bound mass of the system.
    Mass,
    /// Cumulative released (gravitational + nuclear) energy.
    Energy,
}

impl DiagnosticVariable {
    /// All four variables, in the order the paper lists them.
    pub fn all() -> [DiagnosticVariable; 4] {
        [
            DiagnosticVariable::Temperature,
            DiagnosticVariable::AngularMomentum,
            DiagnosticVariable::Mass,
            DiagnosticVariable::Energy,
        ]
    }

    /// Short name used in tables and reports.
    pub fn name(&self) -> &'static str {
        match self {
            DiagnosticVariable::Temperature => "temperature",
            DiagnosticVariable::AngularMomentum => "a.momentum",
            DiagnosticVariable::Mass => "mass",
            DiagnosticVariable::Energy => "energy",
        }
    }

    /// Index used when the variables are addressed as "locations" by the
    /// in-situ provider (the paper samples them on the area crossing the
    /// domain origin; the reduced-order model exposes them as four global
    /// series).
    pub fn location(&self) -> usize {
        match self {
            DiagnosticVariable::Temperature => 0,
            DiagnosticVariable::AngularMomentum => 1,
            DiagnosticVariable::Mass => 2,
            DiagnosticVariable::Energy => 3,
        }
    }

    /// The variable corresponding to a provider location, if any.
    pub fn from_location(location: usize) -> Option<Self> {
        Self::all().into_iter().find(|v| v.location() == location)
    }
}

impl std::fmt::Display for DiagnosticVariable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Time series of the four diagnostics plus the simulation's own record of
/// when ignition happened (the ground-truth delay time).
#[derive(Debug, Clone, Default)]
pub struct WdDiagnostics {
    temperature: TimeSeries,
    angular_momentum: TimeSeries,
    mass: TimeSeries,
    energy: TimeSeries,
    ignition_time: Option<f64>,
    steps: u64,
}

impl WdDiagnostics {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self {
            temperature: TimeSeries::new("temperature"),
            angular_momentum: TimeSeries::new("a.momentum"),
            mass: TimeSeries::new("mass"),
            energy: TimeSeries::new("energy"),
            ignition_time: None,
            steps: 0,
        }
    }

    /// Records the state after one diagnostic timestep.
    pub fn record(&mut self, step: u64, state: &BinaryState) {
        let t = step as f64;
        self.temperature.push(t, state.temperature);
        self.angular_momentum.push(t, state.angular_momentum());
        self.mass.push(t, state.bound_mass());
        self.energy.push(t, state.released_energy);
        if self.ignition_time.is_none() {
            self.ignition_time = state.ignition_time;
        }
        self.steps += 1;
    }

    /// Number of recorded timesteps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The series of one diagnostic variable.
    pub fn series(&self, variable: DiagnosticVariable) -> &TimeSeries {
        match variable {
            DiagnosticVariable::Temperature => &self.temperature,
            DiagnosticVariable::AngularMomentum => &self.angular_momentum,
            DiagnosticVariable::Mass => &self.mass,
            DiagnosticVariable::Energy => &self.energy,
        }
    }

    /// The value of a diagnostic at a recorded timestep, if present.
    pub fn value_at(&self, variable: DiagnosticVariable, step: u64) -> Option<f64> {
        self.series(variable).value_at(step as f64)
    }

    /// The latest value of a diagnostic, if any step has been recorded.
    pub fn latest(&self, variable: DiagnosticVariable) -> Option<f64> {
        self.series(variable).last()
    }

    /// The simulation's own record of the detonation time (from the
    /// ignition criterion), if it happened.
    pub fn ground_truth_delay_time(&self) -> Option<f64> {
        self.ignition_time
    }

    /// All four series standardized to zero mean / unit variance, the
    /// normalization used by the paper's Figure 8.
    pub fn normalized_series(&self) -> Vec<(DiagnosticVariable, TimeSeries)> {
        DiagnosticVariable::all()
            .into_iter()
            .map(|v| (v, self.series(v).standardized()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WdMergerConfig;

    fn recorded(steps: u64) -> WdDiagnostics {
        let config = WdMergerConfig::default();
        let mut state = BinaryState::initial(&config);
        let mut diag = WdDiagnostics::new();
        for step in 0..steps {
            state.advance(&config);
            diag.record(step, &state);
        }
        diag
    }

    #[test]
    fn records_all_four_series() {
        let diag = recorded(50);
        assert_eq!(diag.steps(), 50);
        for v in DiagnosticVariable::all() {
            assert_eq!(diag.series(v).len(), 50);
            assert!(diag.latest(v).is_some());
        }
    }

    #[test]
    fn location_round_trip() {
        for v in DiagnosticVariable::all() {
            assert_eq!(DiagnosticVariable::from_location(v.location()), Some(v));
        }
        assert_eq!(DiagnosticVariable::from_location(7), None);
        assert_eq!(DiagnosticVariable::Temperature.to_string(), "temperature");
    }

    #[test]
    fn ground_truth_delay_time_is_recorded_after_detonation() {
        let full = recorded(WdMergerConfig::default().steps);
        let delay = full.ground_truth_delay_time().unwrap();
        assert!(delay > 5.0);
        assert!(delay < WdMergerConfig::default().steps as f64);
        let early = recorded(5);
        assert!(early.ground_truth_delay_time().is_none());
    }

    #[test]
    fn diagnostics_have_the_papers_qualitative_shapes() {
        let config = WdMergerConfig::default();
        let diag = recorded(config.steps);
        let delay = diag.ground_truth_delay_time().unwrap() as usize;

        // Temperature and energy rise overall.
        let temp = diag.series(DiagnosticVariable::Temperature).values();
        assert!(temp[temp.len() - 1] > temp[0]);
        let energy = diag.series(DiagnosticVariable::Energy).values();
        assert!(energy[energy.len() - 1] > energy[0]);

        // Angular momentum decreases overall.
        let j = diag.series(DiagnosticVariable::AngularMomentum).values();
        assert!(j[j.len() - 1] < j[0]);

        // Mass is flat before the detonation and lower afterwards.
        let mass = diag.series(DiagnosticVariable::Mass).values();
        assert!((mass[delay.saturating_sub(3)] - mass[0]).abs() < 1e-9);
        assert!(mass[mass.len() - 1] < mass[0]);
    }

    #[test]
    fn normalized_series_have_zero_mean() {
        let diag = recorded(80);
        for (_, series) in diag.normalized_series() {
            let mean: f64 = series.values().iter().sum::<f64>() / series.len() as f64;
            assert!(mean.abs() < 1e-9);
        }
    }
}
