//! Differential suite for the allocation-free probe engine and flood router.
//!
//! [`ProbeEngine`] keeps its reached set in a dense bitset and its cache
//! under a fixed hasher, and [`FloodRouter`] keeps a dense parent array and
//! walks neighbors through `Topology::for_each_neighbor`. This file keeps
//! the earlier `HashMap`/`HashSet` engine and the `neighbors()`-walking flood
//! as test-only oracles ([`ReferenceEngine`], [`reference_flood`]) and
//! asserts that both pairs agree exactly across the topology zoo, for local
//! and oracle engines, with and without a budget: the same path, the same
//! `probes_used` and `queries_issued`, and the same error at the same edge.
//!
//! "The same edge" is checked through [`Recording`], a topology wrapper that
//! logs every `has_edge` call. Both engines call `has_edge` first on every
//! probe, so equal logs mean equal probe sequences, up to and including the
//! probe that failed.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::ControlFlow;

use faultnet_percolation::sample::EdgeStates;
use faultnet_percolation::PercolationConfig;
use faultnet_routing::bfs::FloodRouter;
use faultnet_routing::probe::{ProbeEngine, ProbeError};
use faultnet_routing::router::{Locality, RouteError, Router};
use faultnet_topology::binary_tree::BinaryTree;
use faultnet_topology::butterfly::Butterfly;
use faultnet_topology::complete::CompleteGraph;
use faultnet_topology::cycle_matching::{CycleWithMatching, MatchingKind};
use faultnet_topology::de_bruijn::DeBruijn;
use faultnet_topology::double_tree::DoubleBinaryTree;
use faultnet_topology::explicit::ExplicitGraph;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::mesh::Mesh;
use faultnet_topology::shuffle_exchange::ShuffleExchange;
use faultnet_topology::torus::Torus;
use faultnet_topology::{EdgeId, Topology, VertexId};

/// One small instance of every built-in family plus the loaded and generated
/// substrates.
fn family_zoo() -> Vec<Box<dyn Topology>> {
    vec![
        Box::new(Hypercube::new(6)),
        Box::new(Mesh::new(2, 7)),
        Box::new(Mesh::new(3, 4)),
        Box::new(Torus::new(2, 5)),
        Box::new(CompleteGraph::new(14)),
        Box::new(DeBruijn::new(6)),
        Box::new(ShuffleExchange::new(6)),
        Box::new(Butterfly::new(3)),
        Box::new(BinaryTree::new(5)),
        Box::new(DoubleBinaryTree::new(4)),
        Box::new(CycleWithMatching::new(20, MatchingKind::Antipodal)),
        Box::new(CycleWithMatching::new(20, MatchingKind::Random { seed: 5 })),
        Box::new(ExplicitGraph::from_topology(&Mesh::new(2, 5))),
        Box::new(faultnet_topology::load::karate_club().graph),
        Box::new(faultnet_topology::load::barabasi_albert(60, 2, 9)),
        Box::new(faultnet_topology::load::fat_tree(4)),
        Box::new(faultnet_topology::load::random_regular(40, 3, 17)),
    ]
}

/// A topology that delegates everything to `inner` and logs each
/// `has_edge` call in order.
struct Recording<'g> {
    inner: &'g dyn Topology,
    has_edge_calls: RefCell<Vec<(VertexId, VertexId)>>,
}

impl<'g> Recording<'g> {
    fn new(inner: &'g dyn Topology) -> Self {
        Recording {
            inner,
            has_edge_calls: RefCell::new(Vec::new()),
        }
    }

    fn log(&self) -> Vec<(VertexId, VertexId)> {
        self.has_edge_calls.borrow().clone()
    }
}

impl Topology for Recording<'_> {
    fn num_vertices(&self) -> u64 {
        self.inner.num_vertices()
    }

    fn num_edges(&self) -> u64 {
        self.inner.num_edges()
    }

    fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        self.inner.neighbors(v)
    }

    fn for_each_neighbor(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(VertexId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.inner.for_each_neighbor(v, f)
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.has_edge_calls.borrow_mut().push((u, v));
        self.inner.has_edge(u, v)
    }

    fn edge_index(&self, edge: EdgeId) -> Option<u64> {
        self.inner.edge_index(edge)
    }

    fn edge_index_bound(&self) -> Option<u64> {
        self.inner.edge_index_bound()
    }

    fn canonical_pair(&self) -> (VertexId, VertexId) {
        self.inner.canonical_pair()
    }
}

/// The probe engine as it was before the dense reached set and the fixed
/// hasher: a SipHash `HashMap` cache and a `HashSet` reached set.
struct ReferenceEngine<'a, T, S> {
    graph: &'a T,
    states: &'a S,
    cache: HashMap<EdgeId, bool>,
    queries: u64,
    budget: Option<u64>,
    reached: Option<HashSet<VertexId>>,
}

impl<'a, T: Topology, S: EdgeStates> ReferenceEngine<'a, T, S> {
    fn new(graph: &'a T, states: &'a S, locality: Locality, start: VertexId) -> Self {
        ReferenceEngine {
            graph,
            states,
            cache: HashMap::new(),
            queries: 0,
            budget: None,
            reached: match locality {
                Locality::Local => Some(HashSet::from([start])),
                Locality::Oracle => None,
            },
        }
    }

    fn probes_used(&self) -> u64 {
        self.cache.len() as u64
    }

    fn is_reached(&self, v: VertexId) -> bool {
        self.reached.as_ref().map_or(true, |r| r.contains(&v))
    }

    fn probe(&mut self, edge: EdgeId) -> Result<bool, ProbeError> {
        if !self.graph.has_edge(edge.lo(), edge.hi()) {
            return Err(ProbeError::NotAnEdge { edge });
        }
        if let Some(reached) = &self.reached {
            if !reached.contains(&edge.lo()) && !reached.contains(&edge.hi()) {
                return Err(ProbeError::LocalityViolation { edge });
            }
        }
        self.queries += 1;
        if let Some(&cached) = self.cache.get(&edge) {
            self.note_open_edge(edge, cached);
            return Ok(cached);
        }
        if let Some(budget) = self.budget {
            if self.cache.len() as u64 >= budget {
                return Err(ProbeError::BudgetExhausted { budget });
            }
        }
        let open = self.states.is_open(edge);
        self.cache.insert(edge, open);
        self.note_open_edge(edge, open);
        Ok(open)
    }

    fn note_open_edge(&mut self, edge: EdgeId, open: bool) {
        if !open {
            return;
        }
        if let Some(reached) = &mut self.reached {
            let lo_in = reached.contains(&edge.lo());
            let hi_in = reached.contains(&edge.hi());
            if lo_in && !hi_in {
                reached.insert(edge.hi());
            } else if hi_in && !lo_in {
                reached.insert(edge.lo());
            }
        }
    }
}

/// The flood router as it was before the dense parent array and the
/// neighbor visitor: `HashMap` visited and parent maps over `neighbors()`.
fn reference_flood<T: Topology, S: EdgeStates>(
    engine: &mut ReferenceEngine<'_, T, S>,
    source: VertexId,
    target: VertexId,
) -> Result<Option<Vec<VertexId>>, ProbeError> {
    if source == target {
        return Ok(Some(vec![source]));
    }
    let graph = engine.graph;
    let mut parent: HashMap<VertexId, VertexId> = HashMap::new();
    let mut visited: HashMap<VertexId, ()> = HashMap::new();
    visited.insert(source, ());
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        for w in graph.neighbors(v) {
            if visited.contains_key(&w) {
                continue;
            }
            if !engine.probe(EdgeId::new(v, w))? {
                continue;
            }
            visited.insert(w, ());
            parent.insert(w, v);
            if w == target {
                let mut path = vec![target];
                let mut cur = target;
                while cur != source {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Ok(Some(path));
            }
            queue.push_back(w);
        }
    }
    Ok(None)
}

/// Everything one flood run reports: the path or the error, the two
/// counters, and the probe sequence.
type FloodRun = (
    Result<Option<Vec<VertexId>>, ProbeError>,
    u64,
    u64,
    Vec<(VertexId, VertexId)>,
);

fn flood_both<S: EdgeStates>(
    graph: &dyn Topology,
    states: &S,
    locality: Locality,
    (u, v): (VertexId, VertexId),
    budget: Option<u64>,
) -> (FloodRun, FloodRun) {
    let recorded = Recording::new(graph);
    let mut engine = ProbeEngine::with_locality(&recorded, states, locality, u);
    if let Some(b) = budget {
        engine = engine.with_budget(b);
    }
    let result = match FloodRouter::new().route(&mut engine, u, v) {
        Ok(outcome) => {
            assert_eq!(outcome.probes, engine.probes_used());
            assert_eq!(outcome.queries, engine.queries_issued());
            Ok(outcome.path.map(|p| p.into_vertices()))
        }
        Err(RouteError::Probe(e)) => Err(e),
        Err(other) => panic!("flood router failed: {other}"),
    };
    let new = (
        result,
        engine.probes_used(),
        engine.queries_issued(),
        recorded.log(),
    );

    let recorded = Recording::new(graph);
    let mut reference = ReferenceEngine::new(&recorded, states, locality, u);
    reference.budget = budget;
    let result = reference_flood(&mut reference, u, v);
    let old = (
        result,
        reference.probes_used(),
        reference.queries,
        recorded.log(),
    );
    (new, old)
}

#[test]
fn flood_matches_the_hashmap_oracle_across_the_zoo() {
    let mut budget_hits = 0;
    let mut routed = 0;
    for graph in family_zoo() {
        let graph = graph.as_ref();
        let n = graph.num_vertices();
        let m = graph.num_edges();
        for (i, &p) in [0.3, 0.55, 0.85].iter().enumerate() {
            for seed in 0..4u64 {
                let states = PercolationConfig::new(p, seed * 31 + i as u64).sampler();
                let pairs = [
                    graph.canonical_pair(),
                    (VertexId(seed % n), VertexId((seed * 7 + 3) % n)),
                ];
                for pair in pairs {
                    for locality in [Locality::Local, Locality::Oracle] {
                        for budget in [None, Some(0), Some(1), Some(5), Some(m / 3)] {
                            let (new, old) = flood_both(graph, &states, locality, pair, budget);
                            assert_eq!(
                                new,
                                old,
                                "{} p={p} seed={seed} pair={pair:?} {locality} budget={budget:?}",
                                graph.name()
                            );
                            match new.0 {
                                Err(ProbeError::BudgetExhausted { .. }) => budget_hits += 1,
                                Ok(Some(_)) => routed += 1,
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
    }
    // Not vacuous: budgets ran out mid-flood and floods reached targets.
    assert!(budget_hits > 100, "only {budget_hits} budget exhaustions");
    assert!(routed > 100, "only {routed} routed floods");
}

#[test]
fn flood_budget_runs_out_in_the_middle_of_a_neighbor_loop() {
    // H_6 fully open: the source's 6 neighbors are all probed in its first
    // expansion, so a budget of 3 fails on the fourth neighbor of vertex 0.
    let cube = Hypercube::new(6);
    let states = PercolationConfig::new(1.0, 0).sampler();
    let (u, v) = cube.canonical_pair();
    let (new, old) = flood_both(&cube, &states, Locality::Local, (u, v), Some(3));
    assert_eq!(new, old);
    assert_eq!(new.0, Err(ProbeError::BudgetExhausted { budget: 3 }));
    // The failing probe counts as a query but not as a probe.
    assert_eq!((new.1, new.2), (3, 4));
    assert_eq!(
        new.3.last(),
        Some(&(VertexId(0), VertexId(8))),
        "the failing probe is the fourth edge at the source"
    );
}

/// One scripted probe request.
fn next_request(
    graph: &dyn Topology,
    state: &mut u64,
    reached: &[VertexId],
    history: &[(VertexId, VertexId)],
) -> (VertexId, VertexId) {
    let n = graph.num_vertices();
    let mut draw = |bound: u64| splitmix64(state) % bound;
    let roll = draw(10);
    let neighbor_of = |x: VertexId, k: u64| {
        let neigh = graph.neighbors(x);
        (!neigh.is_empty()).then(|| (x, neigh[(k % neigh.len() as u64) as usize]))
    };
    let request = match roll {
        // A neighbor of a reached vertex: mostly legal, new or repeated.
        0..=3 => {
            let x = reached[draw(reached.len() as u64) as usize];
            neighbor_of(x, draw(u64::MAX))
        }
        // A repeated query.
        4 | 5 if !history.is_empty() => Some(history[draw(history.len() as u64) as usize]),
        // A neighbor pair anywhere: often a locality violation.
        6 | 7 => neighbor_of(VertexId(draw(n)), draw(u64::MAX)),
        // A random in-range pair: usually not an edge.
        8 => Some((VertexId(draw(n)), VertexId(draw(n)))),
        // An out-of-range endpoint.
        _ => Some((VertexId(draw(n)), VertexId(n + draw(3)))),
    };
    match request {
        Some((a, b)) if a != b => (a, b),
        _ => (VertexId(0), VertexId(n)),
    }
}

#[test]
fn probe_sequences_match_the_hashmap_oracle_across_the_zoo() {
    let mut seen = HashMap::<&str, u32>::new();
    for graph in family_zoo() {
        let graph = graph.as_ref();
        let n = graph.num_vertices();
        for (locality, budget, seed) in [
            (Locality::Local, None, 1u64),
            (Locality::Local, Some(9), 2),
            (Locality::Oracle, None, 3),
            (Locality::Oracle, Some(9), 4),
        ] {
            let states = PercolationConfig::new(0.6, seed).sampler();
            let start = VertexId(seed % n);
            let (graph_new, graph_old) = (Recording::new(graph), Recording::new(graph));
            let mut engine = ProbeEngine::with_locality(&graph_new, &states, locality, start);
            if let Some(b) = budget {
                engine = engine.with_budget(b);
            }
            let mut reference = ReferenceEngine::new(&graph_old, &states, locality, start);
            reference.budget = budget;
            let mut state = seed ^ n;
            let mut reached = vec![start];
            let mut history = Vec::new();
            for step in 0..300 {
                let (a, b) = next_request(graph, &mut state, &reached, &history);
                let edge = EdgeId::new(a, b);
                let got = engine.probe(edge);
                let want = reference.probe(edge);
                let context = format!("{} {locality} budget={budget:?} step {step}", graph.name());
                assert_eq!(got, want, "{context}: probe {edge}");
                assert_eq!(engine.probes_used(), reference.probes_used(), "{context}");
                assert_eq!(engine.queries_issued(), reference.queries, "{context}");
                assert_eq!(
                    engine.num_reached(),
                    reference.reached.as_ref().map(HashSet::len),
                    "{context}"
                );
                for x in [a, b] {
                    assert_eq!(engine.is_reached(x), reference.is_reached(x), "{context}");
                    if locality == Locality::Local
                        && reference.is_reached(x)
                        && !reached.contains(&x)
                    {
                        reached.push(x);
                    }
                }
                let kind = match want {
                    Ok(_) if history.contains(&(a, b)) => "repeat",
                    Ok(_) => "fresh",
                    Err(ProbeError::NotAnEdge { .. }) => "not-an-edge",
                    Err(ProbeError::LocalityViolation { .. }) => "locality",
                    Err(ProbeError::BudgetExhausted { .. }) => "budget",
                };
                *seen.entry(kind).or_default() += 1;
                history.push((a, b));
            }
            assert_eq!(graph_new.log(), graph_old.log(), "{}", graph.name());
        }
    }
    // Every outcome the engine can produce was exercised many times.
    for kind in ["repeat", "fresh", "not-an-edge", "locality", "budget"] {
        let count = seen.get(kind).copied().unwrap_or(0);
        assert!(count > 50, "only {count} {kind} probes: {seen:?}");
    }
}

#[test]
fn reached_count_grows_only_through_open_edges() {
    // Path graph 0-1-2-3 with {1, 2} closed: the local engine reaches
    // {0, 1}, and the count does not move on a repeated or a closed probe.
    let path = Mesh::new(1, 4);
    let mut states = faultnet_percolation::sample::FrozenSample::new();
    states.open_edge(EdgeId::new(VertexId(0), VertexId(1)));
    states.open_edge(EdgeId::new(VertexId(2), VertexId(3)));
    let mut engine = ProbeEngine::local(&path, &states, VertexId(0));
    assert_eq!(engine.num_reached(), Some(1));
    assert_eq!(engine.probe_between(VertexId(0), VertexId(1)), Ok(true));
    assert_eq!(engine.probe_between(VertexId(1), VertexId(0)), Ok(true));
    assert_eq!(engine.probe_between(VertexId(1), VertexId(2)), Ok(false));
    assert_eq!(engine.num_reached(), Some(2));
    assert!(!engine.is_reached(VertexId(2)));
    assert!(
        !engine.is_reached(VertexId(99)),
        "out of range is never reached"
    );
    assert_eq!(ProbeEngine::oracle(&path, &states).num_reached(), None);
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
