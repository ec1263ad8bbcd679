//! The result a run prints: named metrics with unit and clock, the
//! correctness tally, provenance, and the JSON line the benchmark
//! contract asks for.

use std::fmt::Write as _;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time: moves with the machine and its neighbours.
    Wall,
    /// The engine's simulated clock: repeats exactly for one seed.
    Sim,
    /// An event count: repeats exactly for one seed.
    Count,
}

impl Clock {
    /// The clock's name as printed.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The clock the value is read from.
    pub clock: Clock,
    /// The value, with all its digits.
    pub value: f64,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations, searches, measurements and checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Names of the correctness checks that failed.
    pub failed_checks: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// `(key, JSON value)` provenance pairs.
    pub provenance: Vec<(&'static str, String)>,
    /// A traced run's end-to-end numbers: printed in the table, kept out
    /// of the result line.
    pub traced_end_to_end: Vec<Metric>,
}

impl Outcome {
    /// Records a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, clock: Clock, value: f64) {
        self.metrics.push(Metric {
            name,
            unit,
            clock,
            value,
        });
    }

    /// Counts one correctness check; a failing one is counted as failed
    /// and named in the report.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failed_checks.push(what.into());
        }
    }

    /// Records a provenance entry whose value is already JSON.
    pub fn provenance_json(&mut self, key: &'static str, json: String) {
        self.provenance.push((key, json));
    }

    /// Records a string provenance entry.
    pub fn provenance_str(&mut self, key: &'static str, value: &str) {
        self.provenance.push((key, json_string(value)));
    }

    /// The run is correct when every check passed and no value is
    /// non-finite.
    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Failed share of everything attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The contract's last line: `correct`, `attempted`, `failed`, and
    /// `metrics` as `{name: {value, unit}}`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// One JSON object holding the provenance and failed checks.
    pub fn provenance_line(&self) -> String {
        let mut out = String::from("{\"provenance\": {");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {v}");
        }
        out.push_str("}, \"failed_checks\": [");
        for (i, c) in self.failed_checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}", json_string(c));
        }
        out.push_str("]}");
        out
    }

    /// A human-readable table: name, value, unit, clock.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let traced = self.traced_end_to_end.iter().map(|m| (m, " (traced)"));
        for (m, note) in self.metrics.iter().map(|m| (m, "")).chain(traced) {
            let _ = writeln!(
                out,
                "{:<44} {:>18} {:<8} {}{note}",
                m.name,
                json_number(m.value),
                m.unit,
                m.clock.name()
            );
        }
        out
    }
}

/// A JSON number; non-finite values (which fail the run) print as 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank quantile of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values (0 when any is not positive).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
