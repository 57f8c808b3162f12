//! Hand-rolled JSON rendering for the `BENCH_*.json` artifacts (the
//! workspace builds offline with no JSON serializer, so every benchmark
//! binary used to carry its own string-pasting loop — this module is that
//! loop, written once).
//!
//! The layout is the one `perf_smoke` greps: top-level fields in
//! insertion order, then a `"cases"` array with one object per line, so
//! scans for keys like `"speedup":` or `"steps_per_sec":` see exactly one
//! match per case.

/// An ordered JSON object rendered inline: `{"locations": 10, "speedup": 1.250}`.
#[derive(Debug, Default, Clone)]
pub struct JsonObj {
    parts: Vec<String>,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// An unsigned integer field.
    #[must_use]
    pub fn uint(mut self, key: &str, value: u64) -> Self {
        self.parts.push(format!("\"{key}\": {value}"));
        self
    }

    /// A nanosecond (or other whole-number) timing field, rendered with
    /// no fractional digits.
    #[must_use]
    pub fn ns(mut self, key: &str, value: f64) -> Self {
        self.parts.push(format!("\"{key}\": {value:.0}"));
        self
    }

    /// A ratio field (speedups, rates), rendered with three fractional
    /// digits — the precision `perf_smoke` reparses.
    #[must_use]
    pub fn ratio(mut self, key: &str, value: f64) -> Self {
        self.parts.push(format!("\"{key}\": {value:.3}"));
        self
    }

    /// A boolean field.
    #[must_use]
    pub fn boolean(mut self, key: &str, value: bool) -> Self {
        self.parts.push(format!("\"{key}\": {value}"));
        self
    }

    /// A string field (the value must not need JSON escaping — artifact
    /// strings are fixed identifiers like kernel-case names).
    #[must_use]
    pub fn string(mut self, key: &str, value: &str) -> Self {
        self.parts.push(format!("\"{key}\": \"{value}\""));
        self
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.parts.join(", "))
    }
}

/// A `BENCH_*.json` report: ordered header fields plus a `"cases"` array.
#[derive(Debug)]
pub struct JsonReport {
    fields: Vec<(String, String)>,
    cases: Vec<JsonObj>,
}

impl JsonReport {
    /// Starts a report; `benchmark` becomes the leading `"benchmark"`
    /// field identifying the artifact.
    pub fn new(benchmark: &str) -> Self {
        Self {
            fields: vec![("benchmark".to_string(), format!("\"{benchmark}\""))],
            cases: Vec::new(),
        }
    }

    /// A nested-object header field (conventionally `"workload"`).
    #[must_use]
    pub fn obj(mut self, key: &str, value: JsonObj) -> Self {
        self.fields.push((key.to_string(), value.render()));
        self
    }

    /// An unsigned-integer header field.
    #[must_use]
    pub fn uint(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// A whole-number timing header field.
    #[must_use]
    pub fn ns(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.to_string(), format!("{value:.0}")));
        self
    }

    /// A ratio/rate header field, three fractional digits like
    /// [`JsonObj::ratio`].
    #[must_use]
    pub fn ratio(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.to_string(), format!("{value:.3}")));
        self
    }

    /// A string header field (same no-escaping convention as
    /// [`JsonObj::string`]).
    #[must_use]
    pub fn string(mut self, key: &str, value: &str) -> Self {
        self.fields.push((key.to_string(), format!("\"{value}\"")));
        self
    }

    /// Records the host's `available_parallelism` — the field `perf_smoke`
    /// checks before holding a parallelism-sensitive number to its floor.
    #[must_use]
    pub fn available_parallelism(self) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.uint("available_parallelism", cores as u64)
    }

    /// Records which `insitu::kernels` dispatch produced the numbers — the
    /// field `perf_smoke` compares against its own host's dispatch before
    /// holding kernel speedups to their floor (a scalar host cannot be
    /// measured against an AVX2 recording).
    #[must_use]
    pub fn kernels(self) -> Self {
        self.string("kernels", insitu::kernels::active())
    }

    /// Appends one case row.
    pub fn case(&mut self, case: JsonObj) {
        self.cases.push(case);
    }

    /// Renders the whole report.
    pub fn render(&self) -> String {
        let mut json = String::from("{\n");
        for (key, value) in &self.fields {
            json.push_str(&format!("  \"{key}\": {value},\n"));
        }
        json.push_str("  \"cases\": [\n");
        for (i, case) in self.cases.iter().enumerate() {
            let comma = if i + 1 < self.cases.len() { "," } else { "" };
            json.push_str(&format!("    {}{comma}\n", case.render()));
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Renders, writes the artifact to `path`, and returns the JSON (the
    /// binaries print it so a CI log always holds the recorded numbers).
    pub fn write(&self, path: &str) -> String {
        let json = self.render();
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_the_artifact_layout() {
        let mut report = JsonReport::new("demo")
            .obj("workload", JsonObj::new().uint("iterations", 200))
            .uint("timed_runs_per_case", 5);
        report.case(JsonObj::new().uint("locations", 10).ratio("speedup", 1.25));
        report.case(JsonObj::new().uint("locations", 40).ratio("speedup", 2.0));
        let json = report.render();
        assert_eq!(
            json,
            "{\n  \"benchmark\": \"demo\",\n  \"workload\": {\"iterations\": 200},\n  \
             \"timed_runs_per_case\": 5,\n  \"cases\": [\n    \
             {\"locations\": 10, \"speedup\": 1.250},\n    \
             {\"locations\": 40, \"speedup\": 2.000}\n  ]\n}\n"
        );
    }

    #[test]
    fn one_case_per_line_keeps_key_scans_unambiguous() {
        let mut report = JsonReport::new("demo");
        for i in 0..3 {
            report.case(JsonObj::new().ratio("speedup", f64::from(i)));
        }
        let json = report.render();
        let hits = json
            .lines()
            .filter(|line| line.contains("\"speedup\":"))
            .count();
        assert_eq!(hits, 3);
    }
}
