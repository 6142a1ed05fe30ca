//! `BENCHMARK.json` declares exactly the metrics the benchmark prints, with
//! the same units and directions, and the workloads it accepts.

use glimpse_perfbench::metrics::{Metric, Report, END_TO_END, PER_LAYER};
use glimpse_perfbench::workload::catalogue;
use serde_json::Value;
use std::collections::BTreeSet;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every entry under `key`.
fn declared(json: &Value, key: &str) -> BTreeSet<(String, String, String)> {
    json.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{key} entry lacks {f}"))
                    .to_owned()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

/// `(name, unit, better)` of every metric in the JSON result line the
/// binary prints for `catalogue`.
fn printed(catalogue: &[Metric]) -> BTreeSet<(String, String, String)> {
    let mut report = Report::default();
    for metric in catalogue {
        report.set(metric.name, 1.0);
    }
    let (_, line) = report.finish(catalogue, true, 1, 0).expect("a full report renders");
    let result: Value = serde_json::from_str(&line).expect("the result line is JSON");
    let metrics = result.get("metrics").and_then(Value::as_object).expect("metrics object");
    metrics
        .iter()
        .map(|(name, value)| {
            let unit = value.get("unit").and_then(Value::as_str).expect("unit").to_owned();
            let better = catalogue
                .iter()
                .find(|m| m.name == name)
                .expect("printed name is catalogued")
                .better;
            (name.clone(), unit, better.label().to_owned())
        })
        .collect()
}

#[test]
fn end_to_end_metrics_match_the_printed_set() {
    assert_eq!(declared(&benchmark_json(), "end_to_end"), printed(END_TO_END));
}

#[test]
fn per_layer_metrics_match_the_printed_set() {
    assert_eq!(declared(&benchmark_json(), "per_layer"), printed(PER_LAYER));
}

#[test]
fn workloads_match_the_catalogue() {
    let json = benchmark_json();
    let declared: BTreeSet<&str> = json
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads is a list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
        .collect();
    let known: BTreeSet<&str> = catalogue().iter().map(|w| w.name).collect();
    assert_eq!(declared, known);
}

#[test]
fn setup_time_is_bounded_and_every_bound_is_legal() {
    let json = benchmark_json();
    let metrics = json.get("end_to_end").and_then(Value::as_array).expect("end_to_end");
    let setup = metrics
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is declared");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    for m in metrics {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
}
