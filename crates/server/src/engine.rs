//! The measurement engine: turns a validated [`Query`] into a response
//! body by driving the workspace's existing harnesses.
//!
//! Nothing here measures anything new. The probes metric is
//! [`ComplexityHarness::measure`] — the same trial loop the
//! experiment binaries run, batched 64 trials per word where the model and
//! family allow and bit-identical to the scalar path where they don't —
//! and the connectivity metric is one [`FaultModel::instance`] plus one
//! [`ComponentCensus::compute`]. The server's value is around the
//! measurement, not in it: census results are memoized, as compact
//! [`CensusSummary`] values, in an LRU keyed on the canonical config
//! hash, and measurement parallelism is
//! pinned to one thread so the `--workers` knob (HTTP concurrency) can
//! never touch a response byte.
//!
//! [`FaultModel::instance`]: faultnet_faultmodel::FaultModel::instance

use std::sync::{Arc, Mutex};

use faultnet_faultmodel::TrialExec;
use faultnet_percolation::components::ComponentCensus;
use faultnet_percolation::PercolationConfig;
use faultnet_routing::bfs::FloodRouter;
use faultnet_routing::complexity::{ComplexityHarness, ComplexityStats};
use faultnet_topology::complete::CompleteGraph;
use faultnet_topology::double_tree::DoubleBinaryTree;
use faultnet_topology::explicit::ExplicitGraph;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::mesh::Mesh;
use faultnet_topology::{Topology, VertexId};

use crate::cache::LruCache;
use crate::json::Json;
use crate::query::{Family, Metric, Query};

/// The LRU of trial-0 census summaries, shared by reference across
/// workers.
pub type CensusCache = Mutex<LruCache<u64, Arc<CensusSummary>>>;

/// What a connectivity answer reads off a trial-0 [`ComponentCensus`],
/// kept in the census cache instead of the census itself: the totals, and
/// per vertex its component's label as a `u32` (labels are vertex ids,
/// below [`crate::query::MAX_VERTICES`]) so any pair's connectivity
/// still answers from the cache. It takes half the census's memory or
/// less: the census holds `u64` labels plus a map entry per component, so
/// a sparse instance with many components costs it far more.
pub struct CensusSummary {
    num_vertices: u64,
    num_components: u64,
    largest_component_size: u64,
    second_largest_component_size: u64,
    giant_fraction: f64,
    component_of: Vec<u32>,
}

impl CensusSummary {
    fn new(census: &ComponentCensus) -> CensusSummary {
        CensusSummary {
            num_vertices: census.num_vertices(),
            num_components: census.num_components() as u64,
            largest_component_size: census.largest_component_size(),
            second_largest_component_size: census.second_largest_component_size(),
            giant_fraction: census.giant_fraction(),
            component_of: (0..census.num_vertices())
                .map(|v| {
                    u32::try_from(census.component_of(VertexId(v)))
                        .expect("labels are vertex ids below MAX_VERTICES")
                })
                .collect(),
        }
    }

    fn same_component(&self, u: VertexId, v: VertexId) -> bool {
        self.component_of[u.0 as usize] == self.component_of[v.0 as usize]
    }
}

/// A query's graph, concretely built (the families are statically known,
/// so the engine dispatches by enum instead of boxing `dyn Topology` —
/// the harness and census are generic over `T: Topology`).
pub enum Graph {
    /// `Family::Hypercube`.
    Hypercube(Hypercube),
    /// `Family::Mesh`.
    Mesh(Mesh),
    /// `Family::Complete`.
    Complete(CompleteGraph),
    /// `Family::DoubleTree`.
    DoubleTree(DoubleBinaryTree),
    /// `Family::Explicit` — a loaded or generated substrate. Building one
    /// costs up to seconds, so the service builds it only on a
    /// response-cache miss and keeps it in a small LRU of built
    /// substrates for the next miss on the same spec.
    Explicit(ExplicitGraph),
}

/// Runs `op` with the concrete graph (monomorphized per family).
macro_rules! with_graph {
    ($graph:expr, $g:ident => $body:expr) => {
        match $graph {
            Graph::Hypercube($g) => $body,
            Graph::Mesh($g) => $body,
            Graph::Complete($g) => $body,
            Graph::DoubleTree($g) => $body,
            Graph::Explicit($g) => $body,
        }
    };
}

impl Graph {
    /// Builds the family named by the (already validated) query; counted
    /// as `server.graph.builds`.
    pub fn build(query: &Query) -> Graph {
        faultnet_obs::count("server.graph.builds", 1);
        match query.family {
            Family::Hypercube { n } => Graph::Hypercube(Hypercube::new(n)),
            Family::Mesh { dim, side } => Graph::Mesh(Mesh::new(dim, side)),
            Family::Complete { order } => Graph::Complete(CompleteGraph::new(order)),
            Family::DoubleTree { depth } => Graph::DoubleTree(DoubleBinaryTree::new(depth)),
            Family::Explicit(spec) => Graph::Explicit(spec.build()),
        }
    }

    /// The query's resolved pair: [`Query::resolve_pair`], which needs no
    /// graph (kept here for callers that hold one).
    ///
    /// # Errors
    ///
    /// Returns a message when an explicit vertex is out of range.
    pub fn resolve_pair(&self, query: &Query) -> Result<(VertexId, VertexId), String> {
        query.resolve_pair()
    }

    /// Computes the response body tree for `query` at the resolved `pair`.
    pub fn answer(
        &self,
        query: &Query,
        pair: (VertexId, VertexId),
        census_cache: &CensusCache,
    ) -> Json {
        match query.metric {
            Metric::Probes => with_graph!(self, g => probes_answer(g, query, pair)),
            Metric::Connectivity => {
                with_graph!(self, g => connectivity_answer(g, query, pair, census_cache))
            }
        }
    }
}

/// Measurement-thread count for every in-request engine call. Pinned to 1:
/// request-level parallelism comes from the HTTP worker pool, and keeping
/// the engines sequential means `--workers` provably cannot change a
/// response byte (the engines are bit-identical across thread counts
/// anyway — this just removes the knob entirely).
pub const MEASURE_THREADS: usize = 1;

fn probes_answer<T: Topology + Sync + Clone>(
    graph: &T,
    query: &Query,
    pair: (VertexId, VertexId),
) -> Json {
    let _span = faultnet_obs::span("server.probes_measure");
    let model = query.fault_model.build();
    let config = PercolationConfig::new(query.p, query.seed);
    let harness = ComplexityHarness::new(graph.clone(), config);
    let exec = TrialExec::sequential().with_threads(MEASURE_THREADS);
    let stats = harness.measure(
        &*model,
        &FloodRouter::new(),
        pair.0,
        pair.1,
        query.trials,
        exec,
    );
    stats_to_json(query, pair, &stats)
}

fn stats_to_json(query: &Query, pair: (VertexId, VertexId), stats: &ComplexityStats) -> Json {
    let mut fields = vec![
        ("query".to_string(), Json::Str(query.canonical_key(pair))),
        ("router".into(), Json::Str(stats.router().to_string())),
        (
            "attempted_trials".into(),
            Json::UInt(stats.attempted_trials() as u64),
        ),
        (
            "conditioned_trials".into(),
            Json::UInt(stats.conditioned_trials() as u64),
        ),
        (
            "connectivity_rate".into(),
            Json::Num(stats.connectivity_rate()),
        ),
        ("success_rate".into(), Json::Num(stats.success_rate())),
        ("mean_probes".into(), Json::Num(stats.mean_probes())),
    ];
    for (name, value) in [
        ("median_probes", stats.median_probes()),
        ("min_probes", stats.min_probes()),
        ("max_probes", stats.max_probes()),
    ] {
        fields.push((name.to_string(), value.map_or(Json::Null, Json::UInt)));
    }
    Json::Obj(fields)
}

fn connectivity_answer<T: Topology + Sync>(
    graph: &T,
    query: &Query,
    pair: (VertexId, VertexId),
    census_cache: &CensusCache,
) -> Json {
    let key = query.census_key(pair);
    let cached = census_cache
        .lock()
        .expect("census cache poisoned")
        .get(&key);
    let census = match cached {
        Some(census) => {
            faultnet_obs::count("server.census_cache.hits", 1);
            census
        }
        None => {
            faultnet_obs::count("server.census_cache.misses", 1);
            let _span = faultnet_obs::span("server.census_compute");
            let model = query.fault_model.build();
            let config = PercolationConfig::new(query.p, query.seed);
            let instance = model.instance(graph, config, Some(pair));
            let census = Arc::new(CensusSummary::new(&ComponentCensus::compute(
                graph, &instance,
            )));
            census_cache
                .lock()
                .expect("census cache poisoned")
                .insert(key, Arc::clone(&census));
            census
        }
    };
    Json::Obj(vec![
        ("query".to_string(), Json::Str(query.canonical_key(pair))),
        ("num_vertices".into(), Json::UInt(census.num_vertices)),
        ("num_components".into(), Json::UInt(census.num_components)),
        (
            "largest_component_size".into(),
            Json::UInt(census.largest_component_size),
        ),
        (
            "second_largest_component_size".into(),
            Json::UInt(census.second_largest_component_size),
        ),
        ("giant_fraction".into(), Json::Num(census.giant_fraction)),
        (
            "pair_connected".into(),
            Json::Bool(census.same_component(pair.0, pair.1)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Metric;
    use faultnet_faultmodel::{BernoulliEdges, FaultModelSpec};

    fn query(text: &str) -> Query {
        Query::from_json(&Json::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn probes_answer_matches_the_scalar_harness() {
        let q = query(r#"{"family":"hypercube","n":8,"p":0.6,"seed":7,"trials":16}"#);
        let graph = Graph::build(&q);
        let pair = graph.resolve_pair(&q).unwrap();
        assert_eq!(pair, (VertexId(0), VertexId(255)));
        let cache: CensusCache = Mutex::new(LruCache::new(4));
        let body = graph.answer(&q, pair, &cache);
        // Cross-check against a direct scalar measurement.
        let cube = Hypercube::new(8);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.6, 7));
        let stats = harness.measure_with_model(
            &BernoulliEdges::new(),
            &FloodRouter::new(),
            pair.0,
            pair.1,
            16,
        );
        assert_eq!(
            body.get("conditioned_trials").unwrap().as_u64(),
            Some(stats.conditioned_trials() as u64)
        );
        assert_eq!(
            body.get("mean_probes").unwrap().as_f64(),
            Some(stats.mean_probes())
        );
        assert_eq!(body.get("router").unwrap().as_str(), Some("flood-bfs"));
    }

    #[test]
    fn connectivity_answer_is_cached_and_identical() {
        let q = query(r#"{"family":"hypercube","n":9,"p":0.5,"seed":3,"metric":"connectivity"}"#);
        let graph = Graph::build(&q);
        let pair = graph.resolve_pair(&q).unwrap();
        let cache: CensusCache = Mutex::new(LruCache::new(4));
        let cold = graph.answer(&q, pair, &cache).render();
        assert_eq!(cache.lock().unwrap().len(), 1);
        let warm = graph.answer(&q, pair, &cache).render();
        assert_eq!(cold, warm, "cached census must render identical bytes");
        let (hits, _) = cache.lock().unwrap().stats();
        assert_eq!(hits, 1);
    }

    #[test]
    fn census_summary_answers_like_the_census() {
        for text in [
            r#"{"family":"hypercube","n":8,"p":0.4,"seed":3}"#,
            r#"{"family":"double-tree","n":6,"p":0.6,"fault_model":"bernoulli-nodes"}"#,
            r#"{"family":"explicit:ba-64-2","p":0.3,"fault_model":"adversarial-budget"}"#,
        ] {
            let q = query(text);
            with_graph!(&Graph::build(&q), g => {
                let pair = q.resolve_pair().unwrap();
                let instance = q.fault_model.build().instance(
                    g,
                    PercolationConfig::new(q.p, q.seed),
                    Some(pair),
                );
                let census = ComponentCensus::compute(g, &instance);
                let summary = CensusSummary::new(&census);
                assert_eq!(summary.num_vertices, census.num_vertices());
                assert_eq!(summary.num_components, census.num_components() as u64);
                assert_eq!(summary.largest_component_size, census.largest_component_size());
                assert_eq!(
                    summary.second_largest_component_size,
                    census.second_largest_component_size()
                );
                assert_eq!(
                    summary.giant_fraction.to_bits(),
                    census.giant_fraction().to_bits()
                );
                for u in g.vertices() {
                    for v in [VertexId(0), pair.1, VertexId(u.0 / 2)] {
                        assert_eq!(
                            summary.same_component(u, v),
                            census.same_component(u, v),
                            "{text} {u} {v}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn benign_census_entries_are_shared_across_pairs() {
        let q =
            query(r#"{"family":"hypercube","n":8,"p":0.5,"metric":"connectivity","pair":[0,255]}"#);
        let graph = Graph::build(&q);
        let cache: CensusCache = Mutex::new(LruCache::new(4));
        let _ = graph.answer(&q, (VertexId(0), VertexId(255)), &cache);
        let _ = graph.answer(&q, (VertexId(1), VertexId(2)), &cache);
        assert_eq!(
            cache.lock().unwrap().len(),
            1,
            "pair-independent model: one cached instance serves both pairs"
        );
        let adversarial = Query {
            fault_model: FaultModelSpec::AdversarialBudget,
            ..q
        };
        let _ = graph.answer(&adversarial, (VertexId(0), VertexId(255)), &cache);
        let _ = graph.answer(&adversarial, (VertexId(1), VertexId(2)), &cache);
        assert_eq!(
            cache.lock().unwrap().len(),
            3,
            "the adversary's cut is pair-placed: one entry per pair"
        );
    }

    #[test]
    fn every_family_answers_both_metrics() {
        let cache: CensusCache = Mutex::new(LruCache::new(16));
        for (text, metric) in [
            (r#"{"family":"hypercube","n":6,"p":0.7}"#, Metric::Probes),
            (r#"{"family":"mesh","n":8,"dim":2,"p":0.7}"#, Metric::Probes),
            (r#"{"family":"complete","n":32,"p":0.2}"#, Metric::Probes),
            (r#"{"family":"double-tree","n":5,"p":0.8}"#, Metric::Probes),
            (r#"{"family":"explicit:karate","p":0.8}"#, Metric::Probes),
            (r#"{"family":"explicit:ba-64-2","p":0.7}"#, Metric::Probes),
            (r#"{"family":"explicit:fattree-4","p":0.9}"#, Metric::Probes),
            (
                r#"{"family":"explicit:regular-64-4","p":0.6}"#,
                Metric::Probes,
            ),
        ] {
            let mut q = query(text);
            let graph = Graph::build(&q);
            let pair = graph.resolve_pair(&q).unwrap();
            let probes = graph.answer(&q, pair, &cache);
            assert!(probes.get("mean_probes").is_some(), "{text}");
            assert_eq!(q.metric, metric);
            q.metric = Metric::Connectivity;
            let connectivity = graph.answer(&q, pair, &cache);
            assert!(connectivity.get("giant_fraction").is_some(), "{text}");
        }
    }

    #[test]
    fn out_of_range_pairs_are_rejected() {
        let q = query(r#"{"family":"hypercube","n":6,"p":0.5,"pair":[0,64]}"#);
        let graph = Graph::build(&q);
        let err = graph.resolve_pair(&q).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    /// The pair resolution the service used before it went graph-free:
    /// range checks and the canonical pair read off the built graph. Kept
    /// as the oracle for [`Query::resolve_pair`].
    fn resolve_on_built_graph(query: &Query) -> Result<(VertexId, VertexId), String> {
        with_graph!(&Graph::build(query), g => match query.pair {
            None => Ok(g.canonical_pair()),
            Some((u, v)) => {
                for w in [u, v] {
                    if !g.contains(VertexId(w)) {
                        return Err(format!(
                            "vertex {w} is out of range for {} ({} vertices)",
                            g.name(),
                            g.num_vertices()
                        ));
                    }
                }
                Ok((VertexId(u), VertexId(v)))
            }
        })
    }

    #[test]
    fn query_pair_resolution_matches_the_built_graph() {
        for family in [
            r#""family":"hypercube","n":6"#,
            r#""family":"hypercube","n":1"#,
            r#""family":"mesh","n":8,"dim":2"#,
            r#""family":"mesh","n":3,"dim":3"#,
            r#""family":"mesh","n":5,"dim":1"#,
            r#""family":"complete","n":32"#,
            r#""family":"complete","n":2"#,
            r#""family":"double-tree","n":5"#,
            r#""family":"double-tree","n":1"#,
            r#""family":"explicit:karate""#,
            r#""family":"explicit:ba-64-2""#,
            r#""family":"explicit:ba-2-1""#,
            r#""family":"explicit:fattree-4""#,
            r#""family":"explicit:fattree-2""#,
            r#""family":"explicit:regular-64-4""#,
            r#""family":"explicit:regular-4-1""#,
        ] {
            let n = query(&format!("{{{family},\"p\":0.5}}"))
                .family
                .num_vertices();
            for pair in [
                String::new(),
                ",\"pair\":[0,1]".to_string(),
                format!(",\"pair\":[0,{}]", n - 1),
                format!(",\"pair\":[{n},0]"),
                format!(",\"pair\":[1,{}]", n + 7),
                format!(",\"pair\":[{},{}]", u64::MAX, u64::MAX),
            ] {
                let q = query(&format!("{{{family},\"p\":0.5{pair}}}"));
                assert_eq!(
                    q.resolve_pair(),
                    resolve_on_built_graph(&q),
                    "{family}{pair}"
                );
            }
        }
    }
}
