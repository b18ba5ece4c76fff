//! The metric contract, read from `BENCHMARK.json` at the repo root.
//!
//! That file is the single definition of metric names, units,
//! directions and regression bounds; it is compiled in so the harness
//! cannot print a metric the contract does not list, and `compare`
//! judges against the same bounds wherever it is run.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of the baseline's median the metric may worsen by; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<&Json> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
                .iter()
                .collect()
        };
        let text = |item: &Json, key: &str| -> String {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks {key}"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            names(key)
                .into_iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Spec {
            workloads: names("workloads")
                .into_iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn contract_names_are_well_formed_and_unique() {
        let spec = Spec::load();
        let mut seen = std::collections::BTreeSet::new();
        for name in spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
        {
            assert!(well_formed(name), "{name:?}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
        }
    }

    #[test]
    fn contract_lists_exactly_the_generators_workloads() {
        let spec = Spec::load();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, ours);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_within_the_cap() {
        let spec = Spec::load();
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
