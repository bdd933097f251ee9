//! `BENCHMARK.json` at the repository root and the benchmark's own metric
//! tables must list the same workloads and metrics.

use faultnet_perfbench::report::{Better, END_TO_END, PER_LAYER};
use faultnet_perfbench::workloads::NAMES;
use faultnet_server::json::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn better(def_better: Better) -> &'static str {
    match def_better {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

#[test]
fn workloads_match() {
    let json = benchmark_json();
    let listed: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(listed, NAMES);
}

#[test]
fn end_to_end_metrics_match() {
    let json = benchmark_json();
    let listed = json
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, def) in listed.iter().zip(END_TO_END) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(better(def.better))
        );
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            def.bound,
            "{}",
            def.name
        );
    }
}

#[test]
fn per_layer_metrics_match() {
    let json = benchmark_json();
    let listed = json
        .get("per_layer")
        .and_then(Json::as_array)
        .expect("per_layer");
    assert_eq!(listed.len(), PER_LAYER.len());
    for (entry, def) in listed.iter().zip(PER_LAYER) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(better(def.better))
        );
    }
}
