//! What one workload run hands back to the command line, and the metric
//! catalogue `BENCHMARK.json` declares.

use std::fmt::Write as _;

/// Every end-to-end metric, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("overhead_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Metrics an untraced run prints on the detail line beside the result,
/// `(name, unit)`: measured on the same runs but too sensitive to co-tenant
/// load on a shared host to gate (see `README.md`).
pub const UNGATED: &[(&str, &str)] = &[
    ("insitu_us_per_step", "us"),
    ("sim_steps_per_s", "1/s"),
    ("step_p50_us", "us"),
    ("step_p99_us", "us"),
    ("checkpoint_p50_us", "us"),
];

/// Every per-layer metric, printed by a traced run: `(name, unit)`. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("failed_pct", "%"),
    ("feature_error_pct", "%"),
    ("collect.samples", "count"),
    ("collect.sample_ns_per_sample", "ns"),
    ("collect.assemble_ns_per_row", "ns"),
    ("engine.call_ns_per_step", "ns"),
    ("engine.sample_ns_per_step", "ns"),
    ("engine.assemble_ns_per_step", "ns"),
    ("engine.train_ns_per_step", "ns"),
    ("engine.extract_ns_per_step", "ns"),
    ("engine.unattributed_ns_per_step", "ns"),
    ("engine.step_ns_p50", "ns"),
    ("engine.step_ns_p99", "ns"),
    ("engine.shard_fanout_steps", "count"),
    ("engine.train_fanout_steps", "count"),
    ("engine.drain_us", "us"),
    ("engine.offthread_cpu_pct", "%"),
    ("parsim.spawn_join_ns", "ns"),
    ("model.train_ns_per_batch", "ns"),
    ("model.batches", "count"),
    ("model.batches_to_converge", "count"),
    ("model.final_loss", "mse"),
    ("kernels.grad_epoch_ns_per_row", "ns"),
    ("kernels.grad_epoch_bytes_per_row", "B"),
    ("kernels.loss_sum_ns_per_row", "ns"),
    ("kernels.loss_sum_bytes_per_row", "B"),
    ("kernels.transform_ns_per_value", "ns"),
    ("kernels.transform_bytes_per_value", "B"),
    ("extract.ns_per_call", "ns"),
    ("lulesh.step_us", "us"),
    ("wdmerger.step_us", "us"),
    ("telemetry.overhead_pct", "%"),
    ("paper.overhead_pct_p50", "%"),
    ("paper.overhead_pct_q1", "%"),
    ("paper.overhead_pct_q3", "%"),
    ("snapshot.bytes_per_session", "B"),
    ("snapshot.encode_us", "us"),
    ("snapshot.restore_us", "us"),
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.decode_ns_per_frame", "ns"),
    ("session.step_ns", "ns"),
    ("server.busy_bounces", "count"),
    ("server.migrations", "count"),
    ("server.residual_ns_per_step", "ns"),
];

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (runs or requests, per workload).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced wrong output.
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: Vec<(&'static str, f64)>,
    /// How many samples stand behind each summarised metric.
    pub samples: Vec<(&'static str, usize)>,
    /// Values for the detail line (see [`UNGATED`]).
    pub ungated: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records the sample count behind a metric.
    pub fn samples(&mut self, name: &'static str, count: usize) {
        self.samples.push((name, count));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result line: every metric of `catalogue`, in order. End-to-end
    /// metrics must all be present; absent per-layer metrics read 0.
    pub fn result_line(
        &self,
        catalogue: &[(&str, &str)],
        required: bool,
    ) -> Result<String, String> {
        if let Some((name, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
        {
            return Err(format!("metric {name} is not in the catalogue"));
        }
        let mut metrics = String::new();
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let value = match self.value(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric {name} is not finite: {v}")),
                None if required => return Err(format!("metric {name} was not measured")),
                None => 0.0,
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_the_catalogue_in_order() {
        let mut report = Report {
            attempted: 4,
            ..Report::default()
        };
        report.set("b", 2.5);
        report.set("a", 1.0);
        let line = report.result_line(&[("a", "s"), ("b", "%")], true).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.0, \"unit\": \"s\"}, \"b\": {\"value\": 2.5, \"unit\": \"%\"}}}"
        );
    }

    #[test]
    fn missing_and_unknown_metrics_are_refused() {
        let mut report = Report::default();
        report.set("a", 1.0);
        assert!(report.result_line(&[("a", "s"), ("b", "s")], true).is_err());
        assert!(report.result_line(&[("a", "s"), ("b", "s")], false).is_ok());
        assert!(report.result_line(&[("b", "s")], false).is_err());
        report.set("a", f64::NAN);
        assert!(report.result_line(&[("a", "s")], true).is_err());
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .chain(UNGATED)
            .map(|&(name, _)| name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
