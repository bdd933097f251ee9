//! Paths returned by routers, with validation against the percolation
//! instance.

use std::fmt;

use faultnet_percolation::sample::EdgeStates;
use faultnet_percolation::subgraph::PercolatedGraph;
use faultnet_topology::{Topology, VertexId};

/// A walk in a graph, stored as its vertex sequence.
///
/// Routers return `Path`s as evidence; [`Path::is_valid_open_path`] checks
/// the evidence against the topology and the percolation instance, which is
/// how the test-suite and the complexity harness guard against routers that
/// claim success without having found an actual open path.
///
/// # Examples
///
/// ```
/// use faultnet_routing::path::Path;
/// use faultnet_topology::VertexId;
///
/// let p = Path::new(vec![VertexId(0), VertexId(1), VertexId(3)]);
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.endpoints(), Some((VertexId(0), VertexId(3))));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    vertices: Vec<VertexId>,
}

impl Path {
    /// Wraps a vertex sequence as a path.
    pub fn new(vertices: Vec<VertexId>) -> Self {
        Path { vertices }
    }

    /// A path consisting of a single vertex (length 0).
    pub fn trivial(v: VertexId) -> Self {
        Path { vertices: vec![v] }
    }

    /// The vertex sequence.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Consumes the path and returns the vertex sequence.
    pub fn into_vertices(self) -> Vec<VertexId> {
        self.vertices
    }

    /// Number of edges on the path (`vertices - 1`; 0 for trivial or empty
    /// paths).
    pub fn len(&self) -> usize {
        self.vertices.len().saturating_sub(1)
    }

    /// Returns `true` if the path has no vertices at all.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// First and last vertex, if the path is non-empty.
    pub fn endpoints(&self) -> Option<(VertexId, VertexId)> {
        Some((*self.vertices.first()?, *self.vertices.last()?))
    }

    /// Returns `true` if the path starts at `u` and ends at `v`.
    pub fn connects(&self, u: VertexId, v: VertexId) -> bool {
        self.endpoints() == Some((u, v))
    }

    /// Returns `true` if every consecutive pair is an edge of `graph` and
    /// every such edge is open under `states`. A single-vertex path is valid;
    /// an empty path is not.
    pub fn is_valid_open_path<T: Topology, S: EdgeStates>(&self, graph: &T, states: &S) -> bool {
        PercolatedGraph::new(graph, states).is_open_path(&self.vertices)
    }

    /// Returns `true` if no vertex repeats (the path is simple).
    #[cfg(test)]
    pub(crate) fn is_simple(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.vertices.iter().all(|v| seen.insert(*v))
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<VertexId>> for Path {
    fn from(vertices: Vec<VertexId>) -> Self {
        Path::new(vertices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultnet_percolation::PercolationConfig;
    use faultnet_topology::hypercube::Hypercube;

    #[test]
    fn basic_accessors() {
        let p = Path::new(vec![VertexId(0), VertexId(1), VertexId(5)]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(p.connects(VertexId(0), VertexId(5)));
        assert!(!p.connects(VertexId(1), VertexId(5)));
        assert!(p.is_simple());
        assert_eq!(p.vertices().len(), 3);
        assert_eq!(p.clone().into_vertices().len(), 3);
    }

    #[test]
    fn trivial_and_empty_paths() {
        let t = Path::trivial(VertexId(9));
        assert_eq!(t.len(), 0);
        assert_eq!(t.endpoints(), Some((VertexId(9), VertexId(9))));
        let e = Path::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.endpoints(), None);
    }

    #[test]
    fn validity_against_topology_and_states() {
        let cube = Hypercube::new(3);
        let open = PercolationConfig::new(1.0, 0).sampler();
        let closed = PercolationConfig::new(0.0, 0).sampler();
        let good = Path::new(vec![VertexId(0), VertexId(1), VertexId(3)]);
        let broken = Path::new(vec![VertexId(0), VertexId(3)]); // not an edge
        assert!(good.is_valid_open_path(&cube, &open));
        assert!(!good.is_valid_open_path(&cube, &closed));
        assert!(!broken.is_valid_open_path(&cube, &open));
        assert!(Path::trivial(VertexId(2)).is_valid_open_path(&cube, &closed));
        assert!(!Path::new(vec![]).is_valid_open_path(&cube, &open));
    }

    #[test]
    fn simplicity_detection() {
        let simple = Path::new(vec![VertexId(0), VertexId(1), VertexId(2)]);
        let looping = Path::new(vec![VertexId(0), VertexId(1), VertexId(0)]);
        assert!(simple.is_simple());
        assert!(!looping.is_simple());
    }

    #[test]
    fn display_and_from() {
        let p: Path = vec![VertexId(1), VertexId(2)].into();
        assert_eq!(p.to_string(), "[v1 -> v2]");
    }
}
