//! Exhaustive-search routers.
//!
//! [`FloodRouter`] is the paper's baseline upper bound ("a simple upper bound
//! on the routing complexity could be achieved by performing a BFS search on
//! `G_p`", §1.1): a local breadth-first search that probes every edge on the
//! frontier of the discovered component until the target is reached. Its
//! complexity is at most the number of edges touching the source's component,
//! i.e. essentially the whole graph — which is exactly what the lower bounds
//! (Theorems 3(i), 7, 10) say cannot be avoided in the hard regimes.
//!
//! [`BidirectionalOracleBfs`] is the natural oracle strengthening: grow
//! breadth-first trees from both endpoints, always expanding the smaller one.

use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;

use faultnet_percolation::sample::EdgeStates;
use faultnet_topology::{Topology, VertexId};

use crate::path::Path;
use crate::probe::ProbeEngine;
use crate::router::{Locality, RouteError, RouteOutcome, Router};

/// Local breadth-first-search (flooding) router.
///
/// Works on every topology; finds a shortest open path whenever one exists,
/// at the cost of probing every edge incident to the source's open component
/// (in the worst case).
///
/// The search keeps one dense parent array (`parent[w] = x + 1` once `w` is
/// discovered from `x`, `0` while undiscovered). It is zero-allocated, so a
/// large array arrives as lazily zeroed pages and a flood that stays small
/// touches only the pages it reaches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FloodRouter;

impl FloodRouter {
    /// Creates the flooding router.
    pub fn new() -> Self {
        FloodRouter
    }
}

impl<T: Topology, S: EdgeStates> Router<T, S> for FloodRouter {
    fn locality(&self) -> Locality {
        Locality::Local
    }

    fn name(&self) -> String {
        "flood-bfs".to_string()
    }

    fn route(
        &self,
        engine: &mut ProbeEngine<'_, T, S>,
        source: VertexId,
        target: VertexId,
    ) -> Result<RouteOutcome, RouteError> {
        if source == target {
            return Ok(RouteOutcome::from_engine(
                engine,
                Some(Path::trivial(source)),
            ));
        }
        let graph = engine.graph();
        let mut parent = vec![0u64; graph.num_vertices() as usize];
        parent[source.0 as usize] = source.0 + 1;
        let mut queue = VecDeque::from([source]);
        while let Some(v) = queue.pop_front() {
            let mut probe_error = None;
            let flow = graph.for_each_neighbor(v, &mut |w| {
                if parent[w.0 as usize] != 0 {
                    return ControlFlow::Continue(());
                }
                match engine.probe_between(v, w) {
                    Ok(true) => {}
                    Ok(false) => return ControlFlow::Continue(()),
                    Err(e) => {
                        probe_error = Some(e);
                        return ControlFlow::Break(());
                    }
                }
                parent[w.0 as usize] = v.0 + 1;
                if w == target {
                    return ControlFlow::Break(());
                }
                queue.push_back(w);
                ControlFlow::Continue(())
            });
            if let Some(e) = probe_error {
                return Err(e.into());
            }
            if flow.is_break() {
                let mut vertices = vec![target];
                let mut cur = target;
                while cur != source {
                    cur = VertexId(parent[cur.0 as usize] - 1);
                    vertices.push(cur);
                }
                vertices.reverse();
                return Ok(RouteOutcome::from_engine(engine, Some(Path::new(vertices))));
            }
        }
        Ok(RouteOutcome::from_engine(engine, None))
    }
}

/// Oracle bidirectional breadth-first search: grows BFS trees from the source
/// and the target simultaneously, always expanding the smaller side, and
/// stitches the two trees together at the first open connecting edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BidirectionalOracleBfs;

impl BidirectionalOracleBfs {
    /// Creates the bidirectional oracle router.
    pub fn new() -> Self {
        BidirectionalOracleBfs
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Source,
    Target,
}

impl<T: Topology, S: EdgeStates> Router<T, S> for BidirectionalOracleBfs {
    fn locality(&self) -> Locality {
        Locality::Oracle
    }

    fn name(&self) -> String {
        "bidirectional-oracle-bfs".to_string()
    }

    fn route(
        &self,
        engine: &mut ProbeEngine<'_, T, S>,
        source: VertexId,
        target: VertexId,
    ) -> Result<RouteOutcome, RouteError> {
        if source == target {
            return Ok(RouteOutcome::from_engine(
                engine,
                Some(Path::trivial(source)),
            ));
        }
        let graph = engine.graph();
        let mut side: HashMap<VertexId, Side> = HashMap::new();
        let mut parent: HashMap<VertexId, VertexId> = HashMap::new();
        side.insert(source, Side::Source);
        side.insert(target, Side::Target);
        let mut source_queue = VecDeque::from([source]);
        let mut target_queue = VecDeque::from([target]);
        loop {
            let expand_source = match (source_queue.is_empty(), target_queue.is_empty()) {
                (true, true) => return Ok(RouteOutcome::from_engine(engine, None)),
                (false, true) => true,
                (true, false) => false,
                (false, false) => source_queue.len() <= target_queue.len(),
            };
            let (queue, own_side) = if expand_source {
                (&mut source_queue, Side::Source)
            } else {
                (&mut target_queue, Side::Target)
            };
            let v = queue.pop_front().expect("queue checked non-empty");
            for w in graph.neighbors(v) {
                match side.get(&w) {
                    Some(s) if *s == own_side => continue,
                    Some(_) => {
                        // A vertex discovered by the other side: an open edge
                        // here completes a path.
                        if engine.probe_between(v, w)? {
                            let path = stitch(&parent, source, target, v, w, own_side);
                            return Ok(RouteOutcome::from_engine(engine, Some(path)));
                        }
                    }
                    None => {
                        if engine.probe_between(v, w)? {
                            side.insert(w, own_side);
                            parent.insert(w, v);
                            if expand_source {
                                source_queue.push_back(w);
                            } else {
                                target_queue.push_back(w);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Joins the source-side chain ending at one endpoint of the bridging edge
/// with the target-side chain ending at the other endpoint.
fn stitch(
    parent: &HashMap<VertexId, VertexId>,
    source: VertexId,
    target: VertexId,
    v: VertexId,
    w: VertexId,
    v_side: Side,
) -> Path {
    let (source_end, target_end) = match v_side {
        Side::Source => (v, w),
        Side::Target => (w, v),
    };
    // Chain from source to source_end.
    let mut forward = vec![source_end];
    let mut cur = source_end;
    while cur != source {
        cur = parent[&cur];
        forward.push(cur);
    }
    forward.reverse();
    // Chain from target_end to target.
    let mut backward = vec![target_end];
    let mut cur = target_end;
    while cur != target {
        cur = parent[&cur];
        backward.push(cur);
    }
    forward.extend(backward);
    Path::new(forward)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultnet_percolation::bfs::{connected, percolation_distance};
    use faultnet_percolation::PercolationConfig;
    use faultnet_topology::{hypercube::Hypercube, mesh::Mesh, Topology};

    #[test]
    fn flood_router_finds_shortest_path_when_fully_open() {
        let cube = Hypercube::new(6);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let (u, v) = cube.canonical_pair();
        let mut engine = ProbeEngine::local(&cube, &sampler, u);
        let outcome = FloodRouter::new().route(&mut engine, u, v).unwrap();
        let path = outcome.path.unwrap();
        assert!(path.is_valid_open_path(&cube, &sampler));
        assert!(path.connects(u, v));
        assert_eq!(path.len() as u64, 6);
        assert!(outcome.probes > 0);
    }

    #[test]
    fn flood_router_agrees_with_ground_truth_connectivity() {
        let cube = Hypercube::new(8);
        for seed in 0..10 {
            let sampler = PercolationConfig::new(0.3, seed).sampler();
            let (u, v) = cube.canonical_pair();
            let mut engine = ProbeEngine::local(&cube, &sampler, u);
            let outcome = FloodRouter::new().route(&mut engine, u, v).unwrap();
            assert_eq!(
                outcome.is_success(),
                connected(&cube, &sampler, u, v),
                "seed {seed}"
            );
            if let Some(path) = outcome.path {
                assert!(path.is_valid_open_path(&cube, &sampler));
                // BFS finds a *shortest* open path.
                assert_eq!(
                    path.len() as u64,
                    percolation_distance(&cube, &sampler, u, v).unwrap()
                );
            }
        }
    }

    #[test]
    fn flood_router_trivial_pair() {
        let mesh = Mesh::new(2, 4);
        let sampler = PercolationConfig::new(0.0, 0).sampler();
        let mut engine = ProbeEngine::local(&mesh, &sampler, VertexId(5));
        let outcome = FloodRouter::new()
            .route(&mut engine, VertexId(5), VertexId(5))
            .unwrap();
        assert!(outcome.is_success());
        assert_eq!(outcome.probes, 0);
    }

    #[test]
    fn flood_router_probes_at_most_all_edges() {
        let mesh = Mesh::new(2, 6);
        let sampler = PercolationConfig::new(0.5, 9).sampler();
        let (u, v) = mesh.canonical_pair();
        let mut engine = ProbeEngine::local(&mesh, &sampler, u);
        let outcome = FloodRouter::new().route(&mut engine, u, v).unwrap();
        assert!(outcome.probes <= mesh.num_edges());
        assert_eq!(outcome.probes, outcome.queries);
    }

    #[test]
    fn bidirectional_oracle_matches_flood_success() {
        let cube = Hypercube::new(8);
        let (u, v) = cube.canonical_pair();
        for seed in 0..10 {
            let sampler = PercolationConfig::new(0.35, seed).sampler();
            let mut local_engine = ProbeEngine::local(&cube, &sampler, u);
            let mut oracle_engine = ProbeEngine::oracle(&cube, &sampler);
            let flood = FloodRouter::new().route(&mut local_engine, u, v).unwrap();
            let bidi = BidirectionalOracleBfs::new()
                .route(&mut oracle_engine, u, v)
                .unwrap();
            assert_eq!(flood.is_success(), bidi.is_success(), "seed {seed}");
            if let Some(path) = bidi.path {
                assert!(path.is_valid_open_path(&cube, &sampler));
                assert!(path.connects(u, v));
            }
        }
    }

    #[test]
    fn bidirectional_oracle_uses_no_more_probes_than_flood_on_average() {
        let cube = Hypercube::new(9);
        let (u, v) = cube.canonical_pair();
        let mut flood_total = 0u64;
        let mut bidi_total = 0u64;
        let mut counted = 0u64;
        for seed in 0..15 {
            let sampler = PercolationConfig::new(0.5, seed).sampler();
            let mut local_engine = ProbeEngine::local(&cube, &sampler, u);
            let mut oracle_engine = ProbeEngine::oracle(&cube, &sampler);
            let flood = FloodRouter::new().route(&mut local_engine, u, v).unwrap();
            let bidi = BidirectionalOracleBfs::new()
                .route(&mut oracle_engine, u, v)
                .unwrap();
            if flood.is_success() && bidi.is_success() {
                flood_total += flood.probes;
                bidi_total += bidi.probes;
                counted += 1;
            }
        }
        assert!(counted > 0);
        assert!(
            bidi_total <= flood_total,
            "bidirectional {bidi_total} vs flood {flood_total}"
        );
    }

    #[test]
    fn routers_report_their_metadata() {
        use faultnet_percolation::EdgeSampler;
        let flood = FloodRouter::new();
        let bidi = BidirectionalOracleBfs::new();
        assert_eq!(
            Router::<Hypercube, EdgeSampler>::locality(&flood),
            Locality::Local
        );
        assert_eq!(
            Router::<Hypercube, EdgeSampler>::locality(&bidi),
            Locality::Oracle
        );
        assert!(Router::<Hypercube, EdgeSampler>::name(&flood).contains("flood"));
        assert!(Router::<Hypercube, EdgeSampler>::name(&bidi).contains("bidirectional"));
    }
}
