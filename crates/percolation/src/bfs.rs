//! Breadth-first search over the open subgraph.
//!
//! Provides percolation ("chemical") distances, open shortest paths, and
//! reachability — the ground truth against which the metered
//! routers in `faultnet-routing` are validated.

use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;

use faultnet_topology::{EdgeId, Topology, VertexId};

use crate::sample::EdgeStates;
use crate::subgraph::PercolatedGraph;

/// Result of a (possibly truncated) BFS from a source vertex in the open
/// subgraph.
#[derive(Debug, Clone)]
pub struct BfsTree {
    source: VertexId,
    /// Distance from the source, for every reached vertex.
    dist: HashMap<VertexId, u64>,
    /// BFS predecessor for every reached vertex other than the source.
    parent: HashMap<VertexId, VertexId>,
}

impl BfsTree {
    /// The source vertex of the search.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Number of vertices reached (including the source).
    pub fn num_reached(&self) -> usize {
        self.dist.len()
    }

    /// Distance from the source to `v`, if `v` was reached.
    pub fn distance_to(&self, v: VertexId) -> Option<u64> {
        self.dist.get(&v).copied()
    }

    /// Returns `true` if `v` was reached.
    pub fn reached(&self, v: VertexId) -> bool {
        self.dist.contains_key(&v)
    }

    /// The vertices reached, in no particular order.
    pub fn reached_vertices(&self) -> Vec<VertexId> {
        self.dist.keys().copied().collect()
    }

    /// The open path from the source to `v` recorded by the search, if `v`
    /// was reached.
    pub fn path_to(&self, v: VertexId) -> Option<Vec<VertexId>> {
        if !self.reached(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while cur != self.source {
            cur = self.parent[&cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Options controlling a BFS sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct BfsOptions {
    /// Stop expanding beyond this depth (the ball radius), if set.
    pub max_depth: Option<u64>,
    /// Stop as soon as this vertex is reached, if set.
    pub target: Option<VertexId>,
}

/// Runs a BFS from `source` in the open subgraph of `graph`.
pub fn bfs<T: Topology + ?Sized, S: EdgeStates>(
    graph: &T,
    states: &S,
    source: VertexId,
    options: BfsOptions,
) -> BfsTree {
    let gp = PercolatedGraph::new(graph, states);
    let mut dist = HashMap::new();
    let mut parent = HashMap::new();
    let mut queue = VecDeque::new();
    // Instrumentation accumulates in locals and reports once at the end,
    // so a disabled build pays one relaxed load per BFS, not per vertex.
    let mut visited = 0u64;
    dist.insert(source, 0u64);
    queue.push_back(source);
    'outer: while let Some(v) = queue.pop_front() {
        visited += 1;
        let d = dist[&v];
        if let Some(max) = options.max_depth {
            if d >= max {
                continue;
            }
        }
        for w in gp.open_neighbors(v) {
            if let std::collections::hash_map::Entry::Vacant(slot) = dist.entry(w) {
                slot.insert(d + 1);
                parent.insert(w, v);
                if options.target == Some(w) {
                    break 'outer;
                }
                queue.push_back(w);
            }
        }
    }
    faultnet_obs::count("percolation.bfs.calls", 1);
    faultnet_obs::count("percolation.bfs.visits", visited);
    BfsTree {
        source,
        dist,
        parent,
    }
}

/// The percolation (chemical) distance between `u` and `v`, i.e. the length
/// of a shortest open path; `None` if they are not connected in the open
/// subgraph.
pub fn percolation_distance<T: Topology, S: EdgeStates>(
    graph: &T,
    states: &S,
    u: VertexId,
    v: VertexId,
) -> Option<u64> {
    if u == v {
        return Some(0);
    }
    let tree = bfs(
        graph,
        states,
        u,
        BfsOptions {
            max_depth: None,
            target: Some(v),
        },
    );
    tree.distance_to(v)
}

/// A shortest open path between `u` and `v`, if any.
pub fn shortest_open_path<T: Topology, S: EdgeStates>(
    graph: &T,
    states: &S,
    u: VertexId,
    v: VertexId,
) -> Option<Vec<VertexId>> {
    if u == v {
        return Some(vec![u]);
    }
    let tree = bfs(
        graph,
        states,
        u,
        BfsOptions {
            max_depth: None,
            target: Some(v),
        },
    );
    tree.path_to(v)
}

/// Returns `true` if `u` and `v` are connected by an open path (the paper's
/// event `{u ∼ v}`).
///
/// The scalar conditioning check, so it keeps no tree: a breadth-first
/// search over a dense visited bitset (`n / 8` bytes, zero-allocated per
/// call) that tests the mark before the edge state, walks neighbors through
/// [`Topology::for_each_neighbor`], and stops as soon as it reaches `v`.
pub fn connected<T: Topology + ?Sized, S: EdgeStates>(
    graph: &T,
    states: &S,
    u: VertexId,
    v: VertexId,
) -> bool {
    if u == v {
        return true;
    }
    let mut visited = vec![0u64; (graph.num_vertices() as usize).div_ceil(64)];
    visited[(u.0 / 64) as usize] |= 1 << (u.0 % 64);
    let mut queue = VecDeque::from([u]);
    // Same counters as `bfs`, reported once per call.
    let mut pops = 0u64;
    let found = loop {
        let Some(x) = queue.pop_front() else {
            break false;
        };
        pops += 1;
        let flow = graph.for_each_neighbor(x, &mut |w| {
            let (word, bit) = ((w.0 / 64) as usize, 1u64 << (w.0 % 64));
            if visited[word] & bit != 0 || !states.is_open(EdgeId::new(x, w)) {
                return ControlFlow::Continue(());
            }
            if w == v {
                return ControlFlow::Break(());
            }
            visited[word] |= bit;
            queue.push_back(w);
            ControlFlow::Continue(())
        });
        if flow.is_break() {
            break true;
        }
    };
    faultnet_obs::count("percolation.bfs.calls", 1);
    faultnet_obs::count("percolation.bfs.visits", pops);
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::FrozenSample;
    use crate::PercolationConfig;
    use faultnet_topology::{hypercube::Hypercube, mesh::Mesh, EdgeId};

    #[test]
    fn bfs_on_fully_open_hypercube_matches_hamming() {
        let cube = Hypercube::new(6);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let tree = bfs(&cube, &sampler, VertexId(0), BfsOptions::default());
        assert_eq!(tree.num_reached() as u64, cube.num_vertices());
        for v in cube.vertices() {
            assert_eq!(tree.distance_to(v), cube.distance(VertexId(0), v));
        }
    }

    #[test]
    fn path_to_is_a_valid_open_path() {
        let cube = Hypercube::new(8);
        let sampler = PercolationConfig::new(0.6, 4).sampler();
        let gp = PercolatedGraph::new(&cube, &sampler);
        let tree = bfs(&cube, &sampler, VertexId(0), BfsOptions::default());
        let target = tree
            .reached_vertices()
            .into_iter()
            .max_by_key(|v| (tree.distance_to(*v), v.0))
            .unwrap();
        let path = tree.path_to(target).unwrap();
        assert!(gp.is_open_path(&path));
        assert_eq!(path.len() as u64, tree.distance_to(target).unwrap() + 1);
        assert_eq!(path[0], VertexId(0));
        assert_eq!(*path.last().unwrap(), target);
    }

    #[test]
    fn unreachable_vertex_not_in_tree() {
        // Path graph 0-1-2-3 with edge {1,2} closed.
        let mesh = Mesh::new(1, 4);
        let mut sample = FrozenSample::new();
        sample.open_edge(EdgeId::new(VertexId(0), VertexId(1)));
        sample.open_edge(EdgeId::new(VertexId(2), VertexId(3)));
        let tree = bfs(&mesh, &sample, VertexId(0), BfsOptions::default());
        assert!(tree.reached(VertexId(1)));
        assert!(!tree.reached(VertexId(2)));
        assert_eq!(tree.path_to(VertexId(3)), None);
        assert!(!connected(&mesh, &sample, VertexId(0), VertexId(3)));
        assert_eq!(
            percolation_distance(&mesh, &sample, VertexId(0), VertexId(3)),
            None
        );
    }

    #[test]
    fn percolation_distance_at_least_graph_distance() {
        let cube = Hypercube::new(9);
        let sampler = PercolationConfig::new(0.55, 17).sampler();
        let u = VertexId(0);
        for v in [VertexId(3), VertexId(100), VertexId(511)] {
            if let Some(d) = percolation_distance(&cube, &sampler, u, v) {
                assert!(d >= cube.distance(u, v).unwrap());
            }
        }
    }

    #[test]
    fn distance_to_self_is_zero() {
        let mesh = Mesh::new(2, 4);
        let sampler = PercolationConfig::new(0.0, 0).sampler();
        assert_eq!(
            percolation_distance(&mesh, &sampler, VertexId(5), VertexId(5)),
            Some(0)
        );
        assert_eq!(
            shortest_open_path(&mesh, &sampler, VertexId(5), VertexId(5)),
            Some(vec![VertexId(5)])
        );
    }

    #[test]
    fn max_depth_truncates_the_ball() {
        let cube = Hypercube::new(8);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let ball = |radius| {
            let options = BfsOptions {
                max_depth: Some(radius),
                target: None,
            };
            bfs(&cube, &sampler, VertexId(0), options).reached_vertices()
        };
        // 1 + 8 + 28 vertices within Hamming distance 2.
        assert_eq!(ball(2).len(), 37);
        assert_eq!(ball(0), vec![VertexId(0)]);
    }

    #[test]
    fn shortest_open_path_is_shortest() {
        let mesh = Mesh::new(2, 5);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let (u, v) = (VertexId(0), VertexId(24));
        let path = shortest_open_path(&mesh, &sampler, u, v).unwrap();
        assert_eq!(path.len() as u64, mesh.distance(u, v).unwrap() + 1);
    }

    #[test]
    fn early_exit_on_target_still_returns_correct_distance() {
        let cube = Hypercube::new(7);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let u = VertexId(0);
        let v = VertexId(0b1111111);
        assert_eq!(percolation_distance(&cube, &sampler, u, v), Some(7));
    }
}
