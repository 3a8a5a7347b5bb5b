//! The benchmark's result: named metrics with units, printed as a table
//! for people and as one JSON line for tools.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one benchmark run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Every check passed: no failed cell, no failed equivalence check.
    pub correct: bool,
    /// Grid cells attempted.
    pub attempted: u64,
    /// Cells that errored or whose simulated output left the golden
    /// digest (`cells_failed`).
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// One line per failed cell or check.
    pub failures: Vec<String>,
    /// Lines printed under the table that explain how the metrics were
    /// derived.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable table: every metric with its unit, then the
    /// failed-cell count and each failure.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("{:<48} {:>18.6} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!(
            "{:<48} {:>18} count (of {} attempted)\n",
            "cells_failed", self.failed, self.attempted
        ));
        for f in &self.failures {
            out.push_str(&format!("FAILED {f}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit of `v`; JSON has no NaN or infinity,
/// and a metric that produced one is reported as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_every_metric() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        o.push("wall_s", 1.5, "s");
        o.push("n", 2.0, "count");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"n\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
