//! One run's result: every measured metric with its unit and sample count,
//! the output checks, and the provenance of the run. Printed as a
//! human-readable table, written as a JSON artifact, and summarized in the
//! final one-line JSON object the benchmark contract asks for.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, e.g. `setup_s` or `metrics.infer_s`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `MiB`, `count`, `ratio`.
    pub unit: &'static str,
    /// How many samples the value summarizes (1 for a single measurement;
    /// for a ratio, its base).
    pub n: usize,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Expected/observed values.
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Units of work attempted (passes, requests).
    pub attempted: u64,
    /// Units of work that failed.
    pub failed: u64,
    /// All measured metrics, in measurement order.
    pub metrics: Vec<Metric>,
    /// All output checks.
    pub checks: Vec<Check>,
    /// Host, thread count, seed and input size.
    pub provenance: Vec<(String, String)>,
    /// Raw samples behind the summarized metrics (artifact only).
    pub samples: Vec<(String, Vec<f64>)>,
}

impl Report {
    /// Record a metric; a later measurement of the same name replaces an
    /// earlier one (a traced run keeps its last, warm pass).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        let metric = Metric {
            name: name.into(),
            value,
            unit,
            n,
        };
        match self.metrics.iter_mut().find(|m| m.name == metric.name) {
            Some(slot) => *slot = metric,
            None => self.metrics.push(metric),
        }
    }

    /// Record an output check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        });
    }

    /// Keep the raw samples behind a metric for the artifact.
    pub fn samples(&mut self, name: &str, values: Vec<f64>) {
        self.samples.push((name.to_string(), values));
    }

    /// Record a provenance field.
    pub fn provenance(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Every check held and no unit of work failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Human-readable table of every metric, check and provenance field.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.provenance {
            let _ = writeln!(s, "# {k}: {v}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "{:<34} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.n
            );
        }
        for c in &self.checks {
            let verdict = if c.passed { "ok" } else { "FAILED" };
            let _ = writeln!(s, "check {:<28} {verdict:<6} {}", c.name, c.detail);
        }
        let _ = writeln!(s, "attempted {} failed {}", self.attempted, self.failed);
        s
    }

    /// The full result as a JSON artifact.
    pub fn artifact_json(&self) -> String {
        let mut s = String::from("{\n  \"provenance\": {");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    {}: {}", json_str(k), json_str(v));
        }
        s.push_str("\n  },\n  \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {}: {{\"value\": {}, \"unit\": {}, \"n\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.n
            );
        }
        s.push_str("\n  },\n  \"samples\": {");
        for (i, (name, values)) in self.samples.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let values: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
            let _ = write!(s, "{sep}\n    {}: [{}]", json_str(name), values.join(", "));
        }
        s.push_str("\n  },\n  \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {{\"name\": {}, \"passed\": {}, \"detail\": {}}}",
                json_str(&c.name),
                c.passed,
                json_str(&c.detail)
            );
        }
        let _ = write!(
            s,
            "\n  ],\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {}\n}}\n",
            self.correct(),
            self.attempted,
            self.failed
        );
        s
    }

    /// The contract's one-line result: `correct`, `attempted`, `failed`
    /// and exactly the `names` metrics. Errors if one was not measured.
    pub fn result_line(&self, names: &[(String, String)]) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != unit {
                return Err(format!(
                    "metric {name} measured in {} but declared in {unit}",
                    m.unit
                ));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(m.value),
                json_str(unit)
            );
        }
        s.push_str("}}");
        Ok(s)
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.put("setup_s", 0.8127, "s", 3);
        r.put("extra", 1.0, "count", 1);
        let names = vec![("setup_s".to_string(), "s".to_string())];
        assert_eq!(
            r.result_line(&names).expect("line"),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let missing = vec![("wall_s".to_string(), "s".to_string())];
        assert!(r.result_line(&missing).is_err());
        r.check("fingerprint", false, "expected a got b");
        assert!(r
            .result_line(&names)
            .expect("line")
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
