//! `serve_mix`: the real query server (`faultnet_server::serve`, two
//! workers) over loopback, driven by a closed loop of two connections
//! through `http::roundtrip`.
//!
//! Each input set is one key per (family, metric) cell and per cell slot;
//! every cell has the same weight, so the `explicit:*` family is a fifth of
//! the keys. A cold pass sends the set's keys for the first time (cache
//! misses, each sized at tens of ms or more); the warm pass replays them,
//! so every warm request should be a response-cache hit. Warm `explicit:*`
//! hits still pay `Graph::build` before the cache lookup, which is what
//! `warm_tail_ms` shows. Concurrent identical keys never occur, so request
//! coalescing, which depends on arrival timing, stays out of the mix. The
//! unit of work for `ops_per_s` is a warm-pass query.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use faultnet_server::cache::LruCache;
use faultnet_server::engine::{CensusCache, Graph};
use faultnet_server::http::{roundtrip, Request};
use faultnet_server::{serve, Query, QueryService, ServerConfig, ServerHandle};

use crate::inputs::{Encoder, SeedRng};
use crate::summary::median;
use crate::trace::Tracer;
use crate::workloads::finish_layers;
use crate::{ms_since, process_cpu_s, repeat_setup, run_passes, Outcome, Traced, THREADS};

/// Keys per (family, metric) cell in one input set.
const PER_CELL: usize = 4;
/// Server cache capacity: exactly one input set, so a warm pass hits every
/// key while the caches (and the process's memory) stay the same size
/// however many sets a run gets through.
const CACHE_CAPACITY: usize = 2 * PER_CELL * CELLS.len();
/// Cold bodies per run re-derived in process as the output check.
const ORACLE_KEYS: usize = 6;
/// `/healthz` round trips timed for the transport floor.
const FLOOR_SAMPLES: usize = 200;

/// Input sets a digest covers (see `route_probe::DIGEST_SETS`).
pub const DIGEST_SETS: usize = 4;

/// The (family, metric) cells: the probes family, its survival range and
/// trial count, then the connectivity family. Sizes put every cold request
/// at tens of ms: the four implicit probes cells at about 50 ms each, so the
/// cold median sits inside one mode, and the two `explicit:*` cells at
/// about the same cost as each other, warm and cold, so the tails sit
/// inside one mode too.
const CELLS: [(&str, (f64, f64), u32, &str); 5] = [
    (
        r#""family":"hypercube","n":10"#,
        (0.5, 0.6),
        64,
        r#""family":"hypercube","n":14"#,
    ),
    (
        r#""family":"mesh","n":40,"dim":2"#,
        (0.7, 0.8),
        64,
        r#""family":"mesh","n":192,"dim":2"#,
    ),
    (
        r#""family":"complete","n":260"#,
        (0.04, 0.06),
        64,
        r#""family":"complete","n":1024"#,
    ),
    (
        r#""family":"double-tree","n":10"#,
        (0.85, 0.9),
        64,
        r#""family":"double-tree","n":14"#,
    ),
    (
        r#""family":"explicit:regular-12288-8""#,
        (0.4, 0.5),
        4,
        r#""family":"explicit:ba-65536-8""#,
    ),
];

/// The query bodies of input set `set`. Probes keys use Bernoulli edge
/// faults; a quarter of the connectivity keys use node faults.
pub fn input_set(seed: u64, set: usize) -> Vec<String> {
    let mut rng = SeedRng::new(seed, &format!("serve_mix/{set}"));
    let mut keys = Vec::new();
    for _ in 0..PER_CELL {
        for (family, (lo, hi), trials, connectivity) in CELLS {
            let p = rng.uniform(lo, hi);
            let seed = rng.below(1 << 40);
            keys.push(format!(
                r#"{{{family},"fault_model":"bernoulli-edges","p":{p},"metric":"probes","trials":{trials},"seed":{seed}}}"#
            ));
            let model = if rng.below(4) == 0 {
                "bernoulli-nodes"
            } else {
                "bernoulli-edges"
            };
            let p = rng.uniform(0.4, 0.6);
            let seed = rng.below(1 << 40);
            keys.push(format!(
                r#"{{{connectivity},"fault_model":"{model}","p":{p},"metric":"connectivity","seed":{seed}}}"#
            ));
        }
    }
    keys
}

/// The first [`DIGEST_SETS`] input sets.
pub fn inputs(seed: u64) -> Vec<String> {
    (0..DIGEST_SETS)
        .flat_map(|set| input_set(seed, set))
        .collect()
}

/// Canonical encoding of [`inputs`].
pub fn encode(keys: &[String]) -> Encoder {
    let mut enc = Encoder::default();
    for key in keys {
        enc.str(key);
    }
    enc
}

/// A running server that shuts down (and joins its workers) when dropped.
struct Server(Option<ServerHandle>);

impl Server {
    fn start() -> std::io::Result<Server> {
        let handle = serve(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: THREADS,
            cache_capacity: CACHE_CAPACITY,
            log: false,
        })?;
        Ok(Server(Some(handle)))
    }

    fn handle(&self) -> &ServerHandle {
        self.0.as_ref().expect("running")
    }

    fn addr(&self) -> String {
        self.handle().addr.to_string()
    }

    fn service(&self) -> &Arc<QueryService> {
        self.handle().service()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            handle.shutdown();
        }
    }
}

/// One request's outcome: HTTP status, body, latency.
type Reply = (u16, Vec<u8>, f64);

/// Sends every key once through a closed loop of [`THREADS`] connections
/// and returns the replies in key order, with the loop's wall seconds.
fn closed_loop(addr: &str, keys: &[String]) -> (Vec<Reply>, f64) {
    let next = AtomicUsize::new(0);
    let replies: Mutex<Vec<Option<Reply>>> = Mutex::new(vec![None; keys.len()]);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(key) = keys.get(i) else { break };
                let sent = Instant::now();
                let reply = match roundtrip(addr, "POST", "/query", key.as_bytes()) {
                    Ok((status, body)) => (status, body, ms_since(sent)),
                    Err(e) => (0, e.to_string().into_bytes(), ms_since(sent)),
                };
                replies.lock().expect("reply table")[i] = Some(reply);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let replies = replies
        .into_inner()
        .expect("reply table")
        .into_iter()
        .map(|r| r.expect("every key is sent"))
        .collect();
    (replies, wall)
}

/// Set-up: server start plus one discarded cold query, an
/// `explicit:ba-65536-8` connectivity key: its substrate build is the
/// largest fixed cost a fresh server pays.
fn start(seed: u64) -> Server {
    let warm_up = input_set(seed, usize::MAX).swap_remove(2 * CELLS.len() - 1);
    let server = Server::start().expect("bind a loopback port");
    black_box(
        roundtrip(&server.addr(), "POST", "/query", warm_up.as_bytes()).expect("warm-up query"),
    );
    server
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let server = repeat_setup(&mut outcome, || start(seed));
    let addr = server.addr();
    let mut keys: Vec<String> = Vec::new();
    let mut cold: Vec<Vec<u8>> = Vec::new();
    let mut set0: Vec<(String, Vec<u8>)> = Vec::new();
    run_passes(
        &mut outcome,
        seconds,
        |warm| warm,
        |outcome, set, warm| {
            if !warm {
                keys = input_set(seed, set);
                cold.clear();
            }
            let (hits0, misses0, _) = server.service().metrics().cache_counts();
            let (replies, wall) = closed_loop(&addr, &keys);
            let (hits1, misses1, _) = server.service().metrics().cache_counts();
            for (i, (status, body, ms)) in replies.into_iter().enumerate() {
                outcome.latency(warm, ms);
                outcome.check((200..300).contains(&status), || {
                    format!("serve_mix set {set} key {i}: status {status}")
                });
                if warm {
                    outcome.check(body == cold[i], || {
                        format!("serve_mix set {set} key {i}: warm body differs from cold body")
                    });
                } else {
                    cold.push(body);
                }
            }
            if warm {
                outcome.check(
                    hits1 - hits0 == keys.len() as u64 && misses1 == misses0,
                    || format!("serve_mix set {set}: warm pass was not all cache hits"),
                );
                if set == 0 {
                    set0 = keys.iter().cloned().zip(cold.iter().cloned()).collect();
                }
            }
            (keys.len() as f64, wall)
        },
    );
    // Outside the timed phase: a seeded sample of set 0's cold bodies
    // against a fresh in-process engine.
    let mut rng = SeedRng::new(seed, "serve_mix/oracle");
    for _ in 0..ORACLE_KEYS {
        let i = rng.below(set0.len() as u64) as usize;
        let (key, body) = &set0[i];
        outcome.check(
            decomposed(None, server.service(), key, false) == *body,
            || format!("serve_mix key {i}: served body != in-process Graph::answer"),
        );
    }
    outcome
}

/// Runs `f`, inside a span named `name` when tracing.
fn stage<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(tracer) => tracer.time(name, f),
        None => f(),
    }
}

/// A request decomposed into the service's stages, in process.
/// Cold requests run parse, graph, key, measure and encode on a fresh
/// engine; warm requests run parse, graph and key, then the whole service
/// path (`QueryService::handle`) on the server's warm cache.
fn decomposed(
    mut tracer: Option<&mut Tracer>,
    service: &QueryService,
    key: &str,
    warm: bool,
) -> Vec<u8> {
    let t = &mut tracer;
    let query = stage(t, "server.parse", || {
        Query::from_body(key.as_bytes()).expect("valid query")
    });
    let (graph, pair) = stage(t, "server.graph", || {
        let graph = Graph::build(&query);
        let pair = graph.resolve_pair(&query).expect("valid pair");
        (graph, pair)
    });
    black_box(stage(t, "server.key", || query.canonical_key(pair)));
    if warm {
        let request = Request {
            method: "POST".into(),
            target: "/query".into(),
            body: key.as_bytes().to_vec(),
        };
        let response = stage(t, "server.handle", || service.handle(&request));
        return response.body.to_vec();
    }
    let cache: CensusCache = Mutex::new(LruCache::new(4));
    let json = stage(t, "server.measure", || graph.answer(&query, pair, &cache));
    let mut body = stage(t, "server.encode", || json.render());
    body.push('\n');
    body.into_bytes()
}

/// The traced run: set 0 over HTTP (cold then warm), the `/healthz` floor,
/// then every request decomposed in process, untraced and traced.
pub fn traced(seed: u64) -> Traced {
    let mut traced = Traced::default();
    let keys = input_set(seed, 0);
    let started = Instant::now();
    let graphs: Vec<Graph> = keys
        .iter()
        .map(|k| Graph::build(&Query::from_body(k.as_bytes()).expect("valid query")))
        .collect();
    traced.set("topology.build_ms", ms_since(started) / keys.len() as f64);
    drop(graphs);

    let server = start(seed);
    let addr = server.addr();
    let (cold, _) = closed_loop(&addr, &keys);
    let (hits0, misses0, coalesced0) = server.service().metrics().cache_counts();
    let cpu0 = process_cpu_s();
    let (warm, wall) = closed_loop(&addr, &keys);
    if let (Some(c0), Some(c1)) = (cpu0, process_cpu_s()) {
        traced.set("proc.cpu_s", c1 - c0);
        traced.set("proc.cpu_util", (c1 - c0) / (wall * THREADS as f64));
    }
    let (hits1, misses1, coalesced1) = server.service().metrics().cache_counts();
    let lookups = (hits1 - hits0) + (misses1 - misses0) + (coalesced1 - coalesced0);
    traced.set(
        "server.hit_frac",
        (hits1 - hits0) as f64 / lookups.max(1) as f64,
    );
    let floor: Vec<f64> = (0..FLOOR_SAMPLES)
        .map(|_| {
            let sent = Instant::now();
            black_box(roundtrip(&addr, "GET", "/healthz", b"").expect("healthz"));
            ms_since(sent) * 1e3
        })
        .collect();
    traced.set("server.http_floor_us", median(&floor).expect("samples"));

    let mut tracer = Tracer::new();
    let mut untraced_ms = 0.0;
    for (phase, replies) in [(false, &cold), (true, &warm)] {
        for (i, key) in keys.iter().enumerate() {
            let started = Instant::now();
            black_box(decomposed(None, server.service(), key, phase));
            untraced_ms += ms_since(started);
            let span = tracer.begin_op();
            let body = decomposed(Some(&mut tracer), server.service(), key, phase);
            tracer.exit(span);
            traced
                .outcome
                .check(replies[i].0 == 200 && body == replies[i].1, || {
                    format!("serve_mix key {i} (warm {phase}): in-process stages != served body")
                });
        }
    }
    drop(server);
    finish_layers(&mut traced, &tracer, untraced_ms);
    // Stage latencies are per call, not per op: measure and encode run on
    // cold requests only, handle on warm requests only.
    let layers = tracer.layer_times();
    for (span, metric, scale) in [
        ("server.parse", "server.parse_us", 1e3),
        ("server.key", "server.key_us", 1e3),
        ("server.graph", "server.graph_ms", 1e6),
        ("server.handle", "server.handle_us", 1e3),
        ("server.measure", "server.measure_ms", 1e6),
        ("server.encode", "server.encode_us", 1e3),
    ] {
        if let Some(t) = layers.get(span) {
            traced.set(metric, t.self_ns as f64 / t.count.max(1) as f64 / scale);
        }
    }
    eprint!("{}", tracer.render_tree("serve_mix"));
    crate::workloads::write_trace("serve_mix", seed, &tracer);
    traced
}
