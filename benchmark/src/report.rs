//! The metric catalogue and the run's output: human-readable lines, then
//! one JSON object as the last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them
/// with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("energy_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Every workload reports all of them
/// with tracing on; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("topology.build_ms", "ms"),
    ("topology.events", "count"),
    ("relax.calls", "count"),
    ("relax.ms", "ms"),
    ("relax.intervals", "count"),
    ("relax.commodities", "count"),
    ("relax.fw_iterations", "count"),
    ("relax.fw_converged_share", "share"),
    ("round.ms", "ms"),
    ("round.attempts", "count"),
    ("round.paths_per_flow", "count"),
    ("mcf.route_ms", "ms"),
    ("mcf.ms", "ms"),
    ("mcf.energy_ratio", "ratio"),
    ("verify.ms", "ms"),
    ("verify.failures", "count"),
    ("sim.ms", "ms"),
    ("sim.misses", "count"),
    ("online.run_ms", "ms"),
    ("online.events", "count"),
    ("online.event_ms_p50", "ms"),
    ("online.event_ms_p99", "ms"),
    ("online.policy_calls", "count"),
    ("online.policy_ms", "ms"),
    ("online.engine_self_ms", "ms"),
    ("online.live_mean", "count"),
    ("online.live_max", "count"),
    ("online.admission_calls", "count"),
    ("online.admission_ms", "ms"),
    ("online.admit_share", "share"),
    ("online.resolve_calls", "count"),
    ("online.resolve_ms", "ms"),
    ("online.solve_failures", "count"),
    ("server.request_us_p50", "us"),
    ("server.request_us_p99", "us"),
    ("server.codec_us", "us"),
    ("server.wire_ms_p50", "ms"),
    ("server.busy", "count"),
    ("server.errors", "count"),
    ("server.unanswered", "count"),
    ("server.reply_bytes", "bytes"),
    ("client.late_ms_p99", "ms"),
    ("client.offered_rps", "req/s"),
    ("client.sent", "count"),
    ("max_rate_rps", "req/s"),
    ("miss_rate", "share"),
    ("reject_rate", "share"),
    ("error_rate", "share"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Samples behind it, when it is a statistic of a sample.
    pub samples: Option<usize>,
    /// Extra context for the human-readable line (e.g. the percentile).
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output checked was correct.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Context lines printed before the metrics.
    pub context: Vec<String>,
    /// Reasons the output was judged wrong.
    pub wrong: Vec<String>,
    metrics: BTreeMap<String, Metric>,
}

impl Report {
    /// An empty report that is correct until a check fails.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records a value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_sampled(name, value, None, "");
    }

    /// Records a statistic with its sample count and a note.
    pub fn set_sampled(&mut self, name: &str, value: f64, samples: Option<usize>, note: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                samples,
                note: note.to_string(),
            },
        );
    }

    /// Fails the correctness gate with a reason.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.correct = false;
        self.wrong.push(reason.into());
    }

    /// Records a context line.
    pub fn context(&mut self, line: impl Into<String>) {
        self.context.push(line.into());
    }

    /// Fills every per-layer metric the workload did not set with 0.
    pub fn zero_missing_layers(&mut self) {
        for (name, _) in PER_LAYER {
            if !self.metrics.contains_key(name) {
                self.set(name, 0.0);
            }
        }
    }

    /// The human-readable lines: context, then every recorded metric with
    /// its unit and sample count.
    pub fn human_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self.context.iter().map(|c| format!("# {c}")).collect();
        let units: BTreeMap<&str, &str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for (name, m) in &self.metrics {
            let mut line = format!(
                "{name} = {} {}",
                m.value,
                units.get(name.as_str()).unwrap_or(&"")
            );
            if let Some(n) = m.samples {
                let _ = write!(line, " (n={n}");
                if !m.note.is_empty() {
                    let _ = write!(line, ", {}", m.note);
                }
                line.push(')');
            } else if !m.note.is_empty() {
                let _ = write!(line, " ({})", m.note);
            }
            lines.push(line);
        }
        for reason in &self.wrong {
            lines.push(format!("# WRONG OUTPUT: {reason}"));
        }
        lines
    }

    /// The result object over the `(name, unit)` catalogue `group`.
    ///
    /// # Errors
    ///
    /// Names a catalogue metric the run did not record.
    pub fn json(&self, group: &[(&str, &str)]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in group.iter().enumerate() {
            let m = self
                .metrics
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_the_group_in_catalogue_order_and_names_gaps() {
        let mut r = Report::new();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let json = r.json(&END_TO_END).unwrap();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(r
            .json(&PER_LAYER)
            .unwrap_err()
            .contains("topology.build_ms"));
        r.zero_missing_layers();
        assert!(r.json(&PER_LAYER).is_ok());
        r.fail("x");
        assert!(r
            .json(&END_TO_END)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let compact: String = spec.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert_eq!(
                compact.matches(&entry).count(),
                1,
                "{entry} in BENCHMARK.json"
            );
        }
        assert_eq!(
            compact.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
