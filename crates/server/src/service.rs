//! The query service: routing, caching, coalescing, and per-request
//! accounting — everything between a parsed HTTP request and its
//! response bytes, independent of sockets (the tests drive it directly).
//!
//! Layering for `POST /query`, outermost first:
//!
//! 1. **Response cache** — an LRU from the canonical query key to the
//!    final body bytes. The key comes from the query alone (the pair
//!    resolves in closed form, [`Query::resolve_pair`]), so a warm hit
//!    costs a parse, the key render and one mutex hop, and builds no
//!    graph; it returns the *same* `Arc<Vec<u8>>` the cold path produced,
//!    so warm-vs-cold byte-identity holds by construction.
//! 2. **Coalescer** — concurrent misses on the same key run one
//!    measurement; see [`crate::coalesce`] for the correctness argument.
//! 3. **Graph cache** — a miss on an `explicit:*` substrate takes its
//!    graph from an LRU of [`GRAPH_CACHE_CAPACITY`] built substrates keyed
//!    by spec; the other families build theirs for free.
//! 4. **Engine** — the cold path; memoizes census summaries in its own
//!    LRU keyed on the canonical config hash (see [`crate::engine`]).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use faultnet_topology::load::SubstrateSpec;

use crate::cache::LruCache;
use crate::coalesce::{Coalescer, Role};
use crate::engine::{CensusCache, Graph};
use crate::http::Request;
use crate::json::Json;
use crate::metrics::{CacheStatus, Metrics};
use crate::query::{fnv1a, Family, Query};

/// Built `explicit:*` substrates the service keeps. The largest spec the
/// parser accepts (`ba-65536-8`, `regular-65536-16`: 2¹⁹ edges) builds to
/// about 10 MB, so the cache holds at most about 40 MB.
pub const GRAPH_CACHE_CAPACITY: usize = 4;

/// A response ready for the wire, plus the labels the log line and
/// `/metrics` want.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `content-type` header value.
    pub content_type: &'static str,
    /// Body bytes (shared so cache hits are refcount bumps).
    pub body: Arc<Vec<u8>>,
    /// Query family for metrics labels (`"-"` for non-query routes).
    pub family: &'static str,
    /// How the body was obtained, when the route was a query.
    pub cache: Option<CacheStatus>,
    /// FNV-1a hash of the canonical query key (0 outside `/query`),
    /// logged so recurring configs are grep-able across runs.
    pub key_hash: u64,
}

/// Shared state behind all worker threads.
pub struct QueryService {
    response_cache: Mutex<LruCache<String, Arc<Vec<u8>>>>,
    census_cache: CensusCache,
    graph_cache: Mutex<LruCache<SubstrateSpec, Arc<Graph>>>,
    coalescer: Coalescer<(Arc<Vec<u8>>, CacheStatus)>,
    metrics: Metrics,
}

impl QueryService {
    /// Creates a service whose response and census caches each hold
    /// `cache_capacity` entries (the graph cache holds
    /// [`GRAPH_CACHE_CAPACITY`]).
    pub fn new(cache_capacity: usize) -> Self {
        QueryService {
            response_cache: Mutex::new(LruCache::new(cache_capacity)),
            census_cache: Mutex::new(LruCache::new(cache_capacity)),
            graph_cache: Mutex::new(LruCache::new(GRAPH_CACHE_CAPACITY)),
            coalescer: Coalescer::new(),
            metrics: Metrics::new(),
        }
    }

    /// Dispatches one request and records it in the metrics.
    pub fn handle(&self, request: &Request) -> Response {
        let started = Instant::now();
        let span = faultnet_obs::span("server.request");
        let response = match (request.method.as_str(), request.target.as_str()) {
            ("POST", "/query") => self.handle_query(&request.body),
            ("GET", "/metrics") => text_response(200, self.render_metrics().into_bytes()),
            ("GET", "/version") => version_response(),
            ("GET", "/healthz") => text_response(200, b"ok\n".to_vec()),
            ("POST" | "GET", _) => error_response(404, "no such route"),
            _ => error_response(405, "method not allowed"),
        };
        drop(span);
        self.metrics.record(
            response.family,
            response.status,
            response.cache,
            started.elapsed(),
        );
        // Publish this worker's instrumentation buffers at the request
        // boundary so a subsequent /metrics scrape (from any worker) sees
        // every completed request's counters.
        faultnet_obs::flush_thread();
        response
    }

    /// The `/metrics` body: the request-accounting metrics followed by the
    /// engine-level observability counters. Both halves render in a
    /// deterministic order; the obs half is empty when instrumentation is
    /// off (quiet servers never pay for it).
    fn render_metrics(&self) -> String {
        let mut body = self.metrics.render();
        body.push_str(&faultnet_obs::render_prometheus());
        body
    }

    fn handle_query(&self, body: &[u8]) -> Response {
        let query = match Query::from_body(body) {
            Ok(query) => query,
            Err(message) => return error_response(400, &message),
        };
        let pair = match query.resolve_pair() {
            Ok(pair) => pair,
            Err(message) => return error_response(400, &message),
        };
        let key = query.canonical_key(pair);
        let key_hash = fnv1a(key.as_bytes());
        let family = query.family.wire_name();
        if let Some(body) = self
            .response_cache
            .lock()
            .expect("response cache poisoned")
            .get(&key)
        {
            return Response {
                status: 200,
                content_type: "application/json",
                body,
                family,
                cache: Some(CacheStatus::Hit),
                key_hash,
            };
        }
        let ((body, status), role) = self.coalescer.run(&key, || {
            // The leader fills the response cache before its flight ends,
            // and a new leader looks again: a request that missed the cache
            // just as the previous flight ended gets a hit, not a second
            // measurement.
            let mut cache = self.response_cache.lock().expect("response cache poisoned");
            if let Some(body) = cache.get(&key) {
                return (body, CacheStatus::Hit);
            }
            drop(cache);
            let graph = self.graph(&query);
            let mut rendered = graph.answer(&query, pair, &self.census_cache).render();
            rendered.push('\n');
            let body = Arc::new(rendered.into_bytes());
            self.response_cache
                .lock()
                .expect("response cache poisoned")
                .insert(key.clone(), Arc::clone(&body));
            (body, CacheStatus::Miss)
        });
        let cache = match role {
            Role::Leader => status,
            Role::Waiter => CacheStatus::Coalesced,
        };
        Response {
            status: 200,
            content_type: "application/json",
            body,
            family,
            cache: Some(cache),
            key_hash,
        }
    }

    /// The query's graph: an `explicit:*` substrate from the graph cache
    /// (built on a miss, outside the lock, so a hit never waits behind a
    /// build), any other family built afresh. Two concurrent first misses
    /// on one spec may both build it; the graphs are equal, and the later
    /// insert replaces the earlier.
    fn graph(&self, query: &Query) -> Arc<Graph> {
        let Family::Explicit(spec) = query.family else {
            return Arc::new(Graph::build(query));
        };
        let cached = self
            .graph_cache
            .lock()
            .expect("graph cache poisoned")
            .get(&spec);
        if let Some(graph) = cached {
            faultnet_obs::count("server.graph_cache.hits", 1);
            return graph;
        }
        faultnet_obs::count("server.graph_cache.misses", 1);
        let graph = Arc::new(Graph::build(query));
        self.graph_cache
            .lock()
            .expect("graph cache poisoned")
            .insert(spec, Arc::clone(&graph));
        graph
    }

    /// The service metrics (rendered by `GET /metrics`; the tests and
    /// `loadgen` assertions read counters through this too).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// One structured log line for a completed request (written to stderr
    /// by the connection loop; here so its shape is testable).
    pub fn log_line(request: &Request, response: &Response, latency: Duration) -> String {
        format!(
            "method={method} target={target} status={status} family={family} cache={cache} latency_us={us} key={key:016x}",
            method = request.method,
            target = request.target,
            status = response.status,
            family = response.family,
            cache = response.cache.map_or("-", CacheStatus::label),
            us = latency.as_micros(),
            key = response.key_hash,
        )
    }
}

fn error_response(status: u16, message: &str) -> Response {
    let mut body = Json::Obj(vec![("error".to_string(), Json::Str(message.to_string()))]).render();
    body.push('\n');
    Response {
        status,
        content_type: "application/json",
        body: Arc::new(body.into_bytes()),
        family: "-",
        cache: None,
        key_hash: 0,
    }
}

/// The `GET /version` body: crate version, build profile, and the pinned
/// engine knob defaults, in a fixed field order so two requests are
/// byte-identical for the life of the process.
fn version_response() -> Response {
    let config = crate::serve::ServerConfig::default();
    let mut body = Json::Obj(vec![
        (
            "version".to_string(),
            Json::Str(env!("CARGO_PKG_VERSION").to_string()),
        ),
        (
            "profile".into(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        (
            "measure_threads".into(),
            Json::UInt(crate::engine::MEASURE_THREADS as u64),
        ),
        ("default_workers".into(), Json::UInt(config.workers as u64)),
        (
            "default_cache_capacity".into(),
            Json::UInt(config.cache_capacity as u64),
        ),
    ])
    .render();
    body.push('\n');
    Response {
        status: 200,
        content_type: "application/json",
        body: Arc::new(body.into_bytes()),
        family: "-",
        cache: None,
        key_hash: 0,
    }
}

fn text_response(status: u16, body: Vec<u8>) -> Response {
    Response {
        status,
        content_type: "text/plain; charset=utf-8",
        body: Arc::new(body),
        family: "-",
        cache: None,
        key_hash: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(service: &QueryService, body: &str) -> Response {
        service.handle(&Request {
            method: "POST".into(),
            target: "/query".into(),
            body: body.as_bytes().to_vec(),
        })
    }

    const QUERY: &str = r#"{"family":"hypercube","n":8,"p":0.6,"trials":8}"#;

    #[test]
    fn cold_then_warm_hits_the_cache_with_identical_bytes() {
        let service = QueryService::new(8);
        let cold = post(&service, QUERY);
        assert_eq!(cold.status, 200);
        assert_eq!(cold.cache, Some(CacheStatus::Miss));
        let warm = post(&service, QUERY);
        assert_eq!(warm.cache, Some(CacheStatus::Hit));
        assert_eq!(cold.body, warm.body, "bytes must match");
        assert!(
            Arc::ptr_eq(&cold.body, &warm.body),
            "same allocation, not a copy"
        );
        assert_eq!(service.metrics().cache_counts(), (1, 1, 0));
    }

    #[test]
    fn equivalent_spellings_share_one_cache_slot() {
        let service = QueryService::new(8);
        let a = post(&service, QUERY);
        // Field order scrambled, defaults spelled out, whitespace added.
        let b = post(
            &service,
            r#"{ "trials": 8, "p": 0.6, "seed": 42, "metric": "probes",
                "family": "hypercube", "n": 8, "pair": [0, 255] }"#,
        );
        assert_eq!(b.cache, Some(CacheStatus::Hit));
        assert_eq!(a.body, b.body);
        assert_eq!(a.key_hash, b.key_hash);
    }

    #[test]
    fn explicit_substrates_answer_end_to_end() {
        let service = QueryService::new(8);
        let body = r#"{"family":"explicit:karate","p":0.8,"metric":"connectivity"}"#;
        let cold = post(&service, body);
        assert_eq!(cold.status, 200);
        let text = std::str::from_utf8(&cold.body).unwrap();
        assert!(text.contains("explicit:karate"), "{text}");
        assert!(text.contains("\"num_vertices\":34"), "{text}");
        let warm = post(&service, body);
        assert_eq!(warm.cache, Some(CacheStatus::Hit));
        assert_eq!(cold.body, warm.body);
        // A malformed substrate name is a 400, not a panic.
        let bad = post(&service, r#"{"family":"explicit:ba-9","p":0.5}"#);
        assert_eq!(bad.status, 400);
    }

    #[test]
    fn bad_queries_get_400_with_a_json_error() {
        let service = QueryService::new(8);
        for body in ["not json", r#"{"family":"petersen","n":3,"p":0.5}"#, "{}"] {
            let response = post(&service, body);
            assert_eq!(response.status, 400, "{body}");
            let text = std::str::from_utf8(&response.body).unwrap();
            assert!(text.starts_with("{\"error\":"), "{text}");
        }
        // Errors are not cached.
        assert_eq!(service.metrics().cache_counts(), (0, 0, 0));
    }

    #[test]
    fn routes_dispatch() {
        let service = QueryService::new(8);
        let metrics = service.handle(&Request {
            method: "GET".into(),
            target: "/metrics".into(),
            body: Vec::new(),
        });
        assert_eq!(metrics.status, 200);
        assert!(std::str::from_utf8(&metrics.body)
            .unwrap()
            .contains("faultnet_requests_total"));
        let health = service.handle(&Request {
            method: "GET".into(),
            target: "/healthz".into(),
            body: Vec::new(),
        });
        assert_eq!(health.status, 200);
        let missing = service.handle(&Request {
            method: "GET".into(),
            target: "/nope".into(),
            body: Vec::new(),
        });
        assert_eq!(missing.status, 404);
        let put = service.handle(&Request {
            method: "PUT".into(),
            target: "/query".into(),
            body: Vec::new(),
        });
        assert_eq!(put.status, 405);
    }

    #[test]
    fn version_route_is_deterministic_json() {
        let service = QueryService::new(8);
        let get = |target: &str| {
            service.handle(&Request {
                method: "GET".into(),
                target: target.into(),
                body: Vec::new(),
            })
        };
        let first = get("/version");
        assert_eq!(first.status, 200);
        assert_eq!(first.content_type, "application/json");
        let text = std::str::from_utf8(&first.body).unwrap();
        assert!(
            text.starts_with(&format!("{{\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))),
            "version leads the body: {text}"
        );
        assert!(text.contains("\"measure_threads\":1"), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
        // Two scrapes are byte-identical for the life of the process.
        let second = get("/version");
        assert_eq!(first.body, second.body);
    }

    #[test]
    fn log_line_is_structured() {
        let service = QueryService::new(8);
        let request = Request {
            method: "POST".into(),
            target: "/query".into(),
            body: QUERY.as_bytes().to_vec(),
        };
        let response = service.handle(&request);
        let line = QueryService::log_line(&request, &response, Duration::from_micros(1234));
        assert!(line.contains("method=POST"));
        assert!(line.contains("target=/query"));
        assert!(line.contains("status=200"));
        assert!(line.contains("family=hypercube"));
        assert!(line.contains("cache=miss"));
        assert!(line.contains("latency_us=1234"));
        assert!(line.contains("key="));
    }
}
