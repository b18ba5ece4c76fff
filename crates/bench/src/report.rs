//! Machine-readable benchmark reports.
//!
//! Every CSV the `figures` binary writes (and every `hotpath` run) gets
//! a sibling `BENCH_<name>.json` so CI and tooling can assert on
//! throughput and latency percentiles without parsing console tables.
//! The schema is flat on purpose:
//!
//! ```json
//! {
//!   "name": "fig10_skiplist",
//!   "meta": { "duration_ms": "500" },
//!   "series": [
//!     { "label": "lock-per-key", "threads": 4, "throughput": 1234.5,
//!       "committed": 617, "aborted": 3,
//!       "p50_us": 12.0, "p99_us": 873.1 }
//!   ]
//! }
//! ```
//!
//! The JSON is hand-rolled (the workspace vendors no serde); labels are
//! escaped, floats are always finite and rendered with a decimal point.

use crate::RunResult;
use std::fmt::Write as _;
use std::io;

/// One (label, thread-count) measurement in a report.
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    /// Implementation / configuration label (e.g. `lock-per-key`).
    pub label: String,
    /// Worker threads driving the measurement.
    pub threads: usize,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted attempts.
    pub aborted: u64,
    /// p50 latency in microseconds (contended lock wait for figure
    /// runs, time per operation for `hotpath` rows).
    pub p50_us: f64,
    /// p99 latency, same convention.
    pub p99_us: f64,
}

impl SeriesPoint {
    /// Build a point from a figure-runner [`RunResult`] (latencies are
    /// the contended abstract-lock waits).
    pub fn from_result(label: impl Into<String>, threads: usize, r: &RunResult) -> SeriesPoint {
        SeriesPoint {
            label: label.into(),
            threads,
            throughput: r.throughput,
            committed: r.committed,
            aborted: r.aborted,
            p50_us: r.lock_wait_p50_ns as f64 / 1_000.0,
            p99_us: r.lock_wait_p99_ns as f64 / 1_000.0,
        }
    }
}

/// A named collection of [`SeriesPoint`]s plus free-form metadata,
/// serializable as `BENCH_<name>.json`.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    name: String,
    meta: Vec<(String, String)>,
    points: Vec<SeriesPoint>,
}

impl BenchReport {
    /// An empty report. `name` should be filesystem-safe; it becomes
    /// part of the output filename.
    pub fn new(name: impl Into<String>) -> BenchReport {
        BenchReport {
            name: name.into(),
            meta: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Attach a metadata key (run parameters, host facts, …).
    pub fn meta(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.meta.push((key.into(), value.into()));
        self
    }

    /// Append a measurement.
    pub fn push(&mut self, point: SeriesPoint) -> &mut Self {
        self.points.push(point);
        self
    }

    /// Number of measurements recorded so far.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no measurements have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Render the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"name\": ");
        json_string(&mut out, &self.name);
        out.push_str(",\n  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_string(&mut out, k);
            out.push_str(": ");
            json_string(&mut out, v);
        }
        if !self.meta.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"series\": [");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    { \"label\": ");
            json_string(&mut out, &p.label);
            let _ = write!(
                out,
                ", \"threads\": {}, \"throughput\": {}, \"committed\": {}, \
                 \"aborted\": {}, \"p50_us\": {}, \"p99_us\": {} }}",
                p.threads,
                json_f64(p.throughput),
                p.committed,
                p.aborted,
                json_f64(p.p50_us),
                json_f64(p.p99_us),
            );
        }
        if !self.points.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Write `BENCH_<name>.json` under `dir` (created if missing) and
    /// return the path.
    pub fn write(&self, dir: &str) -> io::Result<String> {
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/BENCH_{}.json", self.name);
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Render a float as a JSON number: always finite, always with a
/// fractional part so consumers can rely on the type.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(label: &str) -> SeriesPoint {
        SeriesPoint {
            label: label.to_string(),
            threads: 4,
            throughput: 1234.5678,
            committed: 617,
            aborted: 3,
            p50_us: 12.0,
            p99_us: 873.125,
        }
    }

    #[test]
    fn json_has_every_field_and_parses_shallowly() {
        let mut r = BenchReport::new("unit");
        r.meta("duration_ms", "500");
        r.push(point("a"));
        r.push(point("b\"quoted\""));
        let json = r.to_json();
        for needle in [
            "\"name\": \"unit\"",
            "\"duration_ms\": \"500\"",
            "\"label\": \"a\"",
            "\"label\": \"b\\\"quoted\\\"\"",
            "\"throughput\": 1234.568",
            "\"committed\": 617",
            "\"p99_us\": 873.125",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Balanced braces/brackets — a cheap structural sanity check
        // (no JSON parser in the workspace).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn non_finite_floats_are_sanitized() {
        let mut p = point("x");
        p.throughput = f64::NAN;
        p.p99_us = f64::INFINITY;
        let mut r = BenchReport::new("nan");
        r.push(p);
        let json = r.to_json();
        assert!(json.contains("\"throughput\": 0.0"));
        assert!(json.contains("\"p99_us\": 0.0"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn write_emits_bench_prefixed_file() {
        let dir = std::env::temp_dir().join(format!("txboost_report_{}", std::process::id()));
        let dir = dir.to_str().unwrap().to_string();
        let mut r = BenchReport::new("smoke");
        r.push(point("only"));
        let path = r.write(&dir).unwrap();
        assert!(path.ends_with("BENCH_smoke.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"label\": \"only\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
