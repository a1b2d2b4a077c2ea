//! Result accounting: operations attempted and failed, oracle failures,
//! nested-layer violations, and the metric list printed as the final JSON
//! line.

pub struct Report {
    attempted: u64,
    failed: u64,
    /// Output-oracle and guard failures; any entry makes `correct` false.
    errors: Vec<String>,
    /// Nested-layer consistency violations (reported, not fatal).
    violations: Vec<String>,
    notes: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            violations: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Count `attempted` operations of which `failed` went wrong (a wrong
    /// result, an `Err` or a timeout).
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn error(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("stackbench: FAILED: {msg}");
        self.errors.push(msg);
    }

    pub fn violation(&mut self, msg: impl Into<String>) {
        self.violations.push(msg.into());
    }

    pub fn violations(&self) -> usize {
        self.violations.len()
    }

    pub fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }

    /// Publish a metric. A metric name is published once; a non-finite
    /// value (a phase produced no samples) is an error and prints as 0.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if self.metrics.iter().any(|(n, _, _)| n == name) {
            self.error(format!("metric {name} published twice"));
            return;
        }
        let value = if value.is_finite() {
            value
        } else {
            self.error(format!("metric {name} has no samples"));
            0.0
        };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Publish a self-time (an outer measurement minus an inner one). A
    /// negative self-time is a nesting violation: it is listed and the
    /// metric is published as 0 instead.
    pub fn self_time(&mut self, name: &str, outer: f64, inner: f64, unit: &'static str) {
        let v = outer - inner;
        if v < 0.0 {
            self.violation(format!(
                "{name}: inner {inner:.3} exceeds outer {outer:.3} {unit}; published as 0"
            ));
            self.metric(name, 0.0, unit);
        } else {
            self.metric(name, v, unit);
        }
    }

    /// `inner <= outer`, or a listed violation.
    pub fn check_nested(&mut self, what: &str, inner: f64, outer: f64) {
        if inner > outer {
            self.violation(format!("{what}: {inner:.3} > {outer:.3}"));
        }
    }

    /// `parts` sum to `whole` within `tol` (a share of `whole`), or a
    /// listed violation.
    pub fn check_sum(&mut self, what: &str, parts: &[f64], whole: f64, tol: f64) {
        let sum: f64 = parts.iter().sum();
        if (sum - whole).abs() > tol * whole {
            self.violation(format!(
                "{what}: parts sum to {sum:.3}, whole is {whole:.3} (tolerance {:.0}%)",
                tol * 100.0
            ));
        }
    }

    /// Print the human-readable report to stderr and the JSON result as the
    /// last line of stdout.
    pub fn finish(self) {
        let correct = self.errors.is_empty() && self.failed == 0 && self.attempted > 0;
        eprintln!("---- stackbench report ----");
        for (name, value, unit) in &self.metrics {
            eprintln!("{name:<36} {value:>14.4} {unit}");
        }
        for n in &self.notes {
            eprintln!("note: {n}");
        }
        eprintln!("nested-layer violations: {}", self.violations.len());
        for v in &self.violations {
            eprintln!("  violation: {v}");
        }
        for e in &self.errors {
            eprintln!("  error: {e}");
        }
        eprintln!(
            "attempted {} failed {} correct {correct}",
            self.attempted, self.failed
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite f64 in JSON syntax with all its digits (`{:?}` prints the
/// shortest round-tripping form, e.g. `1.2034` or `1e-7`).
fn json_num(v: f64) -> String {
    format!("{v:?}")
}
