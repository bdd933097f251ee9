//! A topology restricted to the open edges of a percolation instance.

use faultnet_topology::{EdgeId, Topology, VertexId};

use crate::sample::EdgeStates;

/// The random subgraph `G_p`: a topology together with an edge-state oracle.
///
/// `PercolatedGraph` borrows both pieces, so it is cheap to construct one per
/// trial. It offers open-edge adjacency; the algorithms that must *pay* for
/// looking at edges (the routers) do not use this type — they go through
/// `faultnet-routing`'s `ProbeEngine`, which meters every edge inspection.
///
/// # Examples
///
/// ```
/// use faultnet_percolation::{PercolatedGraph, PercolationConfig};
/// use faultnet_topology::{hypercube::Hypercube, Topology, VertexId};
///
/// let cube = Hypercube::new(8);
/// let sampler = PercolationConfig::new(0.6, 3).sampler();
/// let gp = PercolatedGraph::new(&cube, &sampler);
/// let open_deg = gp.open_neighbors(VertexId(0)).len();
/// assert!(open_deg <= cube.degree(VertexId(0)));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PercolatedGraph<'a, T: ?Sized, S> {
    graph: &'a T,
    states: &'a S,
}

impl<'a, T: Topology + ?Sized, S: EdgeStates> PercolatedGraph<'a, T, S> {
    /// Wraps a topology and an edge-state oracle.
    pub fn new(graph: &'a T, states: &'a S) -> Self {
        PercolatedGraph { graph, states }
    }

    /// The underlying fault-free topology.
    pub fn graph(&self) -> &'a T {
        self.graph
    }

    /// The edge-state oracle.
    pub fn states(&self) -> &'a S {
        self.states
    }

    /// The neighbors of `v` reachable through open edges.
    pub fn open_neighbors(&self, v: VertexId) -> Vec<VertexId> {
        self.graph
            .neighbors(v)
            .into_iter()
            .filter(|w| self.states.is_open(EdgeId::new(v, *w)))
            .collect()
    }

    /// The open degree of `v`.
    pub fn open_degree(&self, v: VertexId) -> usize {
        self.open_neighbors(v).len()
    }

    /// Checks that `path` is a valid open path: consecutive vertices are
    /// adjacent in the topology and every edge along it is open.
    pub fn is_open_path(&self, path: &[VertexId]) -> bool {
        if path.is_empty() {
            return false;
        }
        path.windows(2).all(|w| {
            self.graph.has_edge(w[0], w[1]) && self.states.is_open(EdgeId::new(w[0], w[1]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::FrozenSample;
    use crate::PercolationConfig;
    use faultnet_topology::hypercube::Hypercube;
    use faultnet_topology::mesh::Mesh;

    #[test]
    fn open_neighbors_subset_of_neighbors() {
        let cube = Hypercube::new(7);
        let sampler = PercolationConfig::new(0.5, 11).sampler();
        let gp = PercolatedGraph::new(&cube, &sampler);
        for v in cube.vertices().take(64) {
            let open = gp.open_neighbors(v);
            let all = cube.neighbors(v);
            assert!(open.iter().all(|w| all.contains(w)));
            assert_eq!(open.len(), gp.open_degree(v));
        }
    }

    #[test]
    fn extreme_probabilities() {
        let mesh = Mesh::new(2, 6);
        let none = PercolationConfig::new(0.0, 1).sampler();
        let all = PercolationConfig::new(1.0, 1).sampler();
        let gp_none = PercolatedGraph::new(&mesh, &none);
        let gp_all = PercolatedGraph::new(&mesh, &all);
        for v in mesh.vertices() {
            assert_eq!(gp_none.open_degree(v), 0);
            assert_eq!(gp_all.open_degree(v), mesh.degree(v));
        }
    }

    #[test]
    fn open_path_validation() {
        let mesh = Mesh::new(1, 5); // a path graph 0-1-2-3-4
        let mut sample = FrozenSample::new();
        sample.open_edge(EdgeId::new(VertexId(0), VertexId(1)));
        sample.open_edge(EdgeId::new(VertexId(1), VertexId(2)));
        let gp = PercolatedGraph::new(&mesh, &sample);
        assert!(gp.is_open_path(&[VertexId(0), VertexId(1), VertexId(2)]));
        assert!(!gp.is_open_path(&[VertexId(0), VertexId(1), VertexId(2), VertexId(3)]));
        assert!(!gp.is_open_path(&[VertexId(0), VertexId(2)])); // not adjacent
        assert!(!gp.is_open_path(&[]));
        assert!(gp.is_open_path(&[VertexId(3)])); // single vertex path is fine
    }

    #[test]
    fn accessors() {
        let cube = Hypercube::new(3);
        let sampler = PercolationConfig::new(0.9, 2).sampler();
        let gp = PercolatedGraph::new(&cube, &sampler);
        assert_eq!(gp.graph().num_vertices(), 8);
        assert_eq!(gp.states().config().p(), 0.9);
    }
}
