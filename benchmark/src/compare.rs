//! `compare <a> <b>`: two sets of runs, judged against the bounds in
//! `BENCHMARK.json`.
//!
//! Each file holds result lines as the harness appends them to
//! `runs.jsonl` (one JSON object per line, any number of runs per
//! workload). One row per workload × end-to-end metric: both medians,
//! the ratio b/a, and a verdict —
//!
//! * `within`: b's median is no worse than a's by more than the bound;
//! * `regressed`: it is;
//! * `unresolved`: either set's own run-to-run spread (interquartile
//!   range over median) is wider than the bound, so the comparison
//!   cannot tell. With fewer than two runs in a set its spread is
//!   unknown and taken as zero.

use crate::json::Json;
use crate::latency::{median_f64, spread};
use crate::spec::{MetricSpec, Spec};
use std::collections::BTreeMap;

/// Per workload, per metric: the values of one file's runs.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("{path}:{}: no metrics", n + 1));
        };
        let by_metric = set.entry(workload.to_string()).or_default();
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                by_metric.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric: `a` is the base, `b` the candidate.
pub fn judge(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Option<(f64, f64, Verdict)> {
    let (ma, mb) = (median_f64(a)?, median_f64(b)?);
    let bound = metric.bound?;
    let noisy = [a, b]
        .iter()
        .any(|set| spread(set).is_some_and(|s| s > bound));
    let worse_by = if metric.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    Some((ma, mb, verdict))
}

/// Print the table; `Ok(true)` when every row is `within`.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let spec = Spec::load();
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9}  {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a", "bound"
    );
    let mut all_within = true;
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let values = |set: &RunSet| -> Vec<f64> {
                set.get(workload)
                    .and_then(|m| m.get(&metric.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (values(&a), values(&b));
            let Some((ma, mb, verdict)) = judge(metric, &va, &vb) else {
                println!(
                    "{workload:<16} {:<18} missing from one of the files",
                    metric.name
                );
                all_within = false;
                continue;
            };
            all_within &= verdict == Verdict::Within;
            println!(
                "{workload:<16} {:<18} {ma:>14.4} {mb:>14.4} {:>9.4}  {:>6}  {} (n={}/{}, {})",
                metric.name,
                mb / ma,
                metric.bound.unwrap_or(0.0),
                verdict.name(),
                va.len(),
                vb.len(),
                metric.unit,
            );
        }
    }
    println!("ratios are b/a with a ({path_a}) as the base");
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = metric(false, 0.10);
        assert_eq!(
            judge(&lower, &[100.0], &[109.0]).unwrap().2,
            Verdict::Within
        );
        assert_eq!(
            judge(&lower, &[100.0], &[111.0]).unwrap().2,
            Verdict::Regressed
        );
        assert_eq!(judge(&lower, &[100.0], &[50.0]).unwrap().2, Verdict::Within);
        let higher = metric(true, 0.10);
        assert_eq!(
            judge(&higher, &[100.0], &[91.0]).unwrap().2,
            Verdict::Within
        );
        assert_eq!(
            judge(&higher, &[100.0], &[89.0]).unwrap().2,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher, &[100.0], &[150.0]).unwrap().2,
            Verdict::Within
        );
        assert!(judge(&lower, &[], &[1.0]).is_none());
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let m = metric(false, 0.05);
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let steady = [99.0, 100.0, 100.0, 100.0, 101.0];
        assert_eq!(judge(&m, &noisy, &steady).unwrap().2, Verdict::Unresolved);
        assert_eq!(judge(&m, &steady, &steady).unwrap().2, Verdict::Within);
    }
}
