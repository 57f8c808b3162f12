//! Analysis specifications.

use crate::collect::{PredictorLayout, Retention};
use crate::error::{Error, Result};
use crate::extract::FeatureKind;
use crate::model::TrainerConfig;
use crate::params::IterParam;
use crate::provider::VarProvider;

/// The data-analysis method applied to collected samples. The framework
/// currently supports curve fitting with the auto-regressive model, matching
/// the paper's `'Curve_Fitting'` constant; the enum leaves room for the
/// threshold-only and future methods without breaking the API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum AnalysisMethod {
    /// Fit the collected samples with the auto-regressive model (default).
    #[default]
    CurveFitting,
    /// Track raw values against the threshold without fitting a model.
    ThresholdOnly,
}

/// What the analysis should do once its goal is reached — the paper's
/// `if_simulation_will_terminate` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExitAction {
    /// Keep simulating; the analysis only reports.
    #[default]
    Continue,
    /// Request early termination of the simulation once the model has
    /// converged and the feature has been extracted.
    TerminateSimulation,
}

/// A complete description of one in-situ analysis: where to sample, how to
/// model, what to extract, and what to do when done.
pub struct AnalysisSpec<D: ?Sized> {
    pub(crate) name: String,
    pub(crate) provider: Box<dyn VarProvider<D> + Send + Sync>,
    pub(crate) spatial: IterParam,
    pub(crate) temporal: IterParam,
    pub(crate) method: AnalysisMethod,
    pub(crate) feature: FeatureKind,
    pub(crate) layout: PredictorLayout,
    pub(crate) lag: u64,
    pub(crate) batch_capacity: usize,
    pub(crate) trainer: TrainerConfig,
    pub(crate) exit: ExitAction,
    pub(crate) retention: Retention,
}

impl<D: ?Sized> std::fmt::Debug for AnalysisSpec<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisSpec")
            .field("name", &self.name)
            .field("spatial", &self.spatial)
            .field("temporal", &self.temporal)
            .field("method", &self.method)
            .field("feature", &self.feature)
            .field("layout", &self.layout)
            .field("lag", &self.lag)
            .field("batch_capacity", &self.batch_capacity)
            .field("trainer", &self.trainer)
            .field("exit", &self.exit)
            .field("retention", &self.retention)
            .finish_non_exhaustive()
    }
}

impl<D: ?Sized> AnalysisSpec<D> {
    /// Starts building a specification.
    pub fn builder() -> AnalysisSpecBuilder<D> {
        AnalysisSpecBuilder::new()
    }

    /// The analysis name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The spatial sampling characteristic.
    pub fn spatial(&self) -> IterParam {
        self.spatial
    }

    /// The temporal sampling characteristic.
    pub fn temporal(&self) -> IterParam {
        self.temporal
    }

    /// The configured feature.
    pub fn feature(&self) -> FeatureKind {
        self.feature
    }

    /// The configured exit action.
    pub fn exit(&self) -> ExitAction {
        self.exit
    }

    /// The configured sample-history retention policy.
    pub fn retention(&self) -> Retention {
        self.retention
    }
}

/// Builder for [`AnalysisSpec`].
///
/// Only the provider, spatial and temporal characteristics are mandatory;
/// everything else has defaults matching the paper's LULESH configuration
/// (curve fitting, spatio-temporal layout, order-3 AR model, lag 50,
/// mini-batches of 16 rows, keep simulating when done).
pub struct AnalysisSpecBuilder<D: ?Sized> {
    name: String,
    provider: Option<Box<dyn VarProvider<D> + Send + Sync>>,
    spatial: Option<IterParam>,
    temporal: Option<IterParam>,
    method: AnalysisMethod,
    feature: FeatureKind,
    layout: PredictorLayout,
    lag: u64,
    batch_capacity: usize,
    trainer: TrainerConfig,
    exit: ExitAction,
    retention: Retention,
}

impl<D: ?Sized> std::fmt::Debug for AnalysisSpecBuilder<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisSpecBuilder")
            .field("name", &self.name)
            .field("has_provider", &self.provider.is_some())
            .field("spatial", &self.spatial)
            .field("temporal", &self.temporal)
            .finish_non_exhaustive()
    }
}

impl<D: ?Sized> Default for AnalysisSpecBuilder<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: ?Sized> AnalysisSpecBuilder<D> {
    /// Creates a builder with the default configuration.
    pub fn new() -> Self {
        Self {
            name: "analysis".to_string(),
            provider: None,
            spatial: None,
            temporal: None,
            method: AnalysisMethod::CurveFitting,
            feature: FeatureKind::DelayTime,
            layout: PredictorLayout::SpatioTemporal,
            lag: 50,
            batch_capacity: 16,
            trainer: TrainerConfig::default(),
            exit: ExitAction::Continue,
            retention: Retention::Full,
        }
    }

    /// Names the analysis (used in reports).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the diagnostic-variable provider (the paper's
    /// `td_var_provider`). Closures `Fn(&D, usize) -> f64` work directly.
    pub fn provider<P>(mut self, provider: P) -> Self
    where
        P: VarProvider<D> + Send + Sync + 'static,
    {
        self.provider = Some(Box::new(provider));
        self
    }

    /// Sets the spatial sampling characteristic.
    pub fn spatial(mut self, spatial: IterParam) -> Self {
        self.spatial = Some(spatial);
        self
    }

    /// Sets the temporal sampling characteristic.
    pub fn temporal(mut self, temporal: IterParam) -> Self {
        self.temporal = Some(temporal);
        self
    }

    /// Sets the data-analysis method.
    pub fn method(mut self, method: AnalysisMethod) -> Self {
        self.method = method;
        self
    }

    /// Sets the feature to extract.
    pub fn feature(mut self, feature: FeatureKind) -> Self {
        self.feature = feature;
        self
    }

    /// Sets the predictor layout of the AR model.
    pub fn layout(mut self, layout: PredictorLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Sets the time-step lag (in iterations).
    pub fn lag(mut self, lag: u64) -> Self {
        self.lag = lag;
        self
    }

    /// Sets the mini-batch capacity: the row count at which a batch is
    /// handed to the trainer. It is a lower bound, not a batch size: an
    /// iteration's rows are never split across batches, so a batch closes
    /// on the first iteration that brings it to `capacity` rows or more
    /// (at capacity 16, iterations of 29 rows each train on 29-row batches).
    pub fn batch_capacity(mut self, capacity: usize) -> Self {
        self.batch_capacity = capacity;
        self
    }

    /// Sets the trainer hyper-parameters (model order, optimizer, epochs,
    /// convergence criteria).
    pub fn trainer(mut self, trainer: TrainerConfig) -> Self {
        self.trainer = trainer;
        self
    }

    /// Sets the exit action (early termination or keep running).
    pub fn exit(mut self, exit: ExitAction) -> Self {
        self.exit = exit;
        self
    }

    /// Sets the sample-history retention policy (default
    /// [`Retention::Full`]). [`Retention::Window`] bounds per-location
    /// memory for analyses that run for the whole simulation; the window is
    /// widened to the AR model's lagged reach if the requested one is too
    /// small to assemble batches.
    ///
    /// Choose the window with the feature in mind: break-point and outlier
    /// extraction read the incremental peak profile, which covers evicted
    /// samples, so windowing never changes their result. Delay-time
    /// extraction ranks inflections over the **retained** series only — a
    /// window turns it into a "regime change within the last `n` samples"
    /// analysis, which misses a knee that has already been evicted.
    pub fn retention(mut self, retention: Retention) -> Self {
        self.retention = retention;
        self
    }

    /// Finalizes the specification.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IncompleteSpec`] if the provider, spatial or temporal
    /// characteristic is missing, and [`Error::InvalidHyperParameter`] if the
    /// batch capacity is zero or the trainer configuration is invalid.
    pub fn build(self) -> Result<AnalysisSpec<D>> {
        let provider = self.provider.ok_or(Error::IncompleteSpec {
            missing: "provider",
        })?;
        let spatial = self.spatial.ok_or(Error::IncompleteSpec {
            missing: "spatial characteristic",
        })?;
        let temporal = self.temporal.ok_or(Error::IncompleteSpec {
            missing: "temporal characteristic",
        })?;
        if self.batch_capacity == 0 {
            return Err(Error::InvalidHyperParameter {
                name: "batch_capacity",
                what: "must be positive".into(),
            });
        }
        self.trainer.validate()?;
        Ok(AnalysisSpec {
            name: self.name,
            provider,
            spatial,
            temporal,
            method: self.method,
            feature: self.feature,
            layout: self.layout,
            lag: self.lag,
            batch_capacity: self.batch_capacity,
            trainer: self.trainer,
            exit: self.exit,
            retention: self.retention,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_requires_provider_and_ranges() {
        let missing_provider = AnalysisSpecBuilder::<Vec<f64>>::new()
            .spatial(IterParam::single(0))
            .temporal(IterParam::single(0))
            .build();
        assert!(matches!(
            missing_provider,
            Err(Error::IncompleteSpec {
                missing: "provider"
            })
        ));

        let missing_spatial = AnalysisSpecBuilder::<Vec<f64>>::new()
            .provider(|d: &Vec<f64>, loc: usize| d[loc])
            .temporal(IterParam::single(0))
            .build();
        assert!(missing_spatial.is_err());
    }

    #[test]
    fn builder_applies_defaults_and_overrides() {
        let spec = AnalysisSpec::<Vec<f64>>::builder()
            .name("velocity")
            .provider(|d: &Vec<f64>, loc: usize| d[loc])
            .spatial(IterParam::new(6, 10, 1).unwrap())
            .temporal(IterParam::new(50, 373, 10).unwrap())
            .feature(FeatureKind::Breakpoint { threshold: 0.05 })
            .lag(50)
            .exit(ExitAction::TerminateSimulation)
            .build()
            .unwrap();
        assert_eq!(spec.name(), "velocity");
        assert_eq!(spec.exit(), ExitAction::TerminateSimulation);
        assert_eq!(spec.spatial().len(), 5);
        assert!(matches!(spec.feature(), FeatureKind::Breakpoint { .. }));
        assert!(format!("{spec:?}").contains("velocity"));
    }

    #[test]
    fn builder_reports_each_missing_mandatory_field() {
        // The three mandatory fields are reported in a fixed priority order:
        // provider, then spatial, then temporal.
        let missing_temporal = AnalysisSpecBuilder::<Vec<f64>>::new()
            .provider(|d: &Vec<f64>, loc: usize| d[loc])
            .spatial(IterParam::single(0))
            .build();
        assert!(matches!(
            missing_temporal,
            Err(Error::IncompleteSpec {
                missing: "temporal characteristic"
            })
        ));

        let missing_spatial = AnalysisSpecBuilder::<Vec<f64>>::new()
            .provider(|d: &Vec<f64>, loc: usize| d[loc])
            .temporal(IterParam::single(0))
            .build();
        assert!(matches!(
            missing_spatial,
            Err(Error::IncompleteSpec {
                missing: "spatial characteristic"
            })
        ));

        let nothing = AnalysisSpecBuilder::<Vec<f64>>::new().build();
        assert!(matches!(
            nothing,
            Err(Error::IncompleteSpec {
                missing: "provider"
            })
        ));
    }

    #[test]
    fn builder_rejects_zero_epochs_per_batch() {
        let bad = AnalysisSpec::<Vec<f64>>::builder()
            .provider(|d: &Vec<f64>, loc: usize| d[loc])
            .spatial(IterParam::single(1))
            .temporal(IterParam::single(1))
            .trainer(TrainerConfig {
                epochs_per_batch: 0,
                ..TrainerConfig::default()
            })
            .build();
        assert!(matches!(
            bad,
            Err(Error::InvalidHyperParameter {
                name: "epochs_per_batch",
                ..
            })
        ));
    }

    #[test]
    fn builder_error_messages_name_the_offending_parameter() {
        let zero_batch = AnalysisSpec::<Vec<f64>>::builder()
            .provider(|d: &Vec<f64>, loc: usize| d[loc])
            .spatial(IterParam::single(1))
            .temporal(IterParam::single(1))
            .batch_capacity(0)
            .build()
            .unwrap_err();
        assert!(zero_batch.to_string().contains("batch_capacity"));

        let zero_order = AnalysisSpec::<Vec<f64>>::builder()
            .provider(|d: &Vec<f64>, loc: usize| d[loc])
            .spatial(IterParam::single(1))
            .temporal(IterParam::single(1))
            .trainer(TrainerConfig {
                order: 0,
                ..TrainerConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(zero_order.to_string().contains("order"));
    }

    #[test]
    fn invalid_hyper_parameters_are_rejected() {
        let zero_batch = AnalysisSpec::<Vec<f64>>::builder()
            .provider(|d: &Vec<f64>, loc: usize| d[loc])
            .spatial(IterParam::single(1))
            .temporal(IterParam::single(1))
            .batch_capacity(0)
            .build();
        assert!(zero_batch.is_err());

        let bad_trainer = AnalysisSpec::<Vec<f64>>::builder()
            .provider(|d: &Vec<f64>, loc: usize| d[loc])
            .spatial(IterParam::single(1))
            .temporal(IterParam::single(1))
            .trainer(TrainerConfig {
                order: 0,
                ..TrainerConfig::default()
            })
            .build();
        assert!(bad_trainer.is_err());
    }
}
