//! The service builds a graph only on a response-cache miss, and an
//! `explicit:*` miss takes its graph from the LRU of built substrates.
//!
//! Pinned with the engine's observability counters, not wall time:
//! `server.graph.builds` counts every `Graph::build`, and
//! `server.graph_cache.{hits,misses}` count the substrate LRU's lookups.
//! The counters are process-wide, so every test here holds one lock and
//! reads deltas.

use std::sync::Mutex;

use faultnet_server::http::Request;
use faultnet_server::metrics::CacheStatus;
use faultnet_server::service::Response;
use faultnet_server::QueryService;

static COUNTERS: Mutex<()> = Mutex::new(());

/// `(builds, graph-cache hits, graph-cache misses)` so far.
fn counts() -> (u64, u64, u64) {
    (
        faultnet_obs::counter_value("server.graph.builds"),
        faultnet_obs::counter_value("server.graph_cache.hits"),
        faultnet_obs::counter_value("server.graph_cache.misses"),
    )
}

/// Runs `f` with the counters on and returns what it changed them by.
fn delta(f: impl FnOnce()) -> (u64, u64, u64) {
    faultnet_obs::enable();
    let before = counts();
    f();
    let after = counts();
    (after.0 - before.0, after.1 - before.1, after.2 - before.2)
}

fn post(service: &QueryService, body: &str) -> Response {
    service.handle(&Request {
        method: "POST".into(),
        target: "/query".into(),
        body: body.as_bytes().to_vec(),
    })
}

const EXPLICIT_PROBES: &str =
    r#"{"family":"explicit:regular-64-4","p":0.6,"trials":4,"metric":"probes","seed":5}"#;
const EXPLICIT_CONNECTIVITY: &str =
    r#"{"family":"explicit:ba-64-2","p":0.5,"metric":"connectivity","seed":9}"#;

#[test]
fn warm_explicit_replays_build_nothing() {
    let _lock = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let service = QueryService::new(8);
    let mut cold = Vec::new();
    let (builds, hits, misses) = delta(|| {
        for body in [EXPLICIT_PROBES, EXPLICIT_CONNECTIVITY] {
            let response = post(&service, body);
            assert_eq!(response.cache, Some(CacheStatus::Miss), "{body}");
            cold.push(response.body);
        }
    });
    assert_eq!((builds, hits, misses), (2, 0, 2), "one build per spec");
    let warm = delta(|| {
        for (body, cold) in [EXPLICIT_PROBES, EXPLICIT_CONNECTIVITY].iter().zip(&cold) {
            let response = post(&service, body);
            assert_eq!(response.cache, Some(CacheStatus::Hit), "{body}");
            assert_eq!(&response.body, cold, "{body}");
        }
    });
    assert_eq!(warm, (0, 0, 0), "a hit touches no graph");
}

#[test]
fn cold_queries_on_one_spec_share_one_build() {
    let _lock = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let service = QueryService::new(8);
    let fresh = QueryService::new(8);
    let (first, second) = (
        EXPLICIT_PROBES.to_string(),
        EXPLICIT_PROBES.replace(r#""seed":5"#, r#""seed":6"#),
    );
    let mut bodies = Vec::new();
    let counted = delta(|| {
        for body in [&first, &second] {
            let response = post(&service, body);
            assert_eq!(response.cache, Some(CacheStatus::Miss), "{body}");
            bodies.push(response.body);
        }
    });
    assert_eq!(counted, (1, 1, 1), "the second seed reuses the built graph");
    // A cached substrate answers byte for byte what a fresh build does.
    let rebuilt = post(&fresh, &second);
    assert_eq!(rebuilt.body, bodies[1]);
}

#[test]
fn hypercube_hits_build_nothing() {
    let _lock = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let service = QueryService::new(8);
    let query = r#"{"family":"hypercube","n":8,"p":0.6,"trials":4}"#;
    let cold = delta(|| assert_eq!(post(&service, query).cache, Some(CacheStatus::Miss)));
    assert_eq!(
        cold,
        (1, 0, 0),
        "closed-form families bypass the graph cache"
    );
    let warm = delta(|| assert_eq!(post(&service, query).cache, Some(CacheStatus::Hit)));
    assert_eq!(warm, (0, 0, 0));
}

#[test]
fn out_of_range_explicit_pairs_get_the_same_400_and_build_nothing() {
    let _lock = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let service = QueryService::new(8);
    let counted = delta(|| {
        for (pair, vertex) in [("[0,65536]", 65536), ("[70000,1]", 70000)] {
            let response = post(
                &service,
                &format!(r#"{{"family":"explicit:ba-65536-8","p":0.5,"pair":{pair}}}"#),
            );
            assert_eq!(response.status, 400);
            assert_eq!(
                std::str::from_utf8(&response.body).unwrap(),
                format!(
                    "{{\"error\":\"vertex {vertex} is out of range for ba(n=65536,m=8) \
                     (65536 vertices)\"}}\n"
                )
            );
        }
    });
    assert_eq!(counted, (0, 0, 0));
}

#[test]
fn graph_counters_show_in_metrics() {
    let _lock = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let service = QueryService::new(8);
    let counted = delta(|| {
        post(&service, EXPLICIT_CONNECTIVITY);
        post(&service, &EXPLICIT_CONNECTIVITY.replace("9", "10"));
    });
    assert_eq!(counted, (1, 1, 1));
    let metrics = service.handle(&Request {
        method: "GET".into(),
        target: "/metrics".into(),
        body: Vec::new(),
    });
    let text = std::str::from_utf8(&metrics.body).unwrap();
    for name in [
        "server.graph.builds",
        "server.graph_cache.hits",
        "server.graph_cache.misses",
    ] {
        assert!(
            text.contains(&format!("faultnet_obs_counter{{name=\"{name}\"}} ")),
            "{name} missing from /metrics:\n{text}"
        );
    }
}
