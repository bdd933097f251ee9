//! The complete graph `K_n`, the substrate of the Erdős–Rényi model
//! `G_{n,p}` studied in §5 of the paper.
//!
//! Percolating `K_n` with retention probability `p` yields exactly `G_{n,p}`
//! ("a faulty complete graph" in the paper's words). Theorems 10 and 11
//! contrast the `Ω(n²)` complexity of local routing with the `Θ(n^{3/2})`
//! complexity of oracle routing on this graph.

use std::ops::ControlFlow;

use crate::{EdgeId, Topology, VertexId};

/// The complete graph on `n` vertices.
///
/// # Examples
///
/// ```
/// use faultnet_topology::{complete::CompleteGraph, Topology, VertexId};
///
/// let k = CompleteGraph::new(100);
/// assert_eq!(k.num_edges(), 100 * 99 / 2);
/// assert_eq!(k.distance(VertexId(3), VertexId(42)), Some(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompleteGraph {
    order: u64,
}

impl CompleteGraph {
    /// Creates the complete graph on `order` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `order < 2` or `order > 2^32` (the edge count must fit in a
    /// `u64` and experiments never need more).
    pub fn new(order: u64) -> Self {
        assert!(order >= 2, "complete graph needs at least 2 vertices");
        assert!(order <= 1 << 32, "complete graph order too large");
        CompleteGraph { order }
    }

    /// The number of vertices `n`.
    pub fn order(&self) -> u64 {
        self.order
    }
}

impl Topology for CompleteGraph {
    fn num_vertices(&self) -> u64 {
        self.order
    }

    fn num_edges(&self) -> u64 {
        self.order * (self.order - 1) / 2
    }

    #[inline]
    fn for_each_neighbor(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(VertexId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        assert!(self.contains(v), "vertex {v} out of range");
        for w in (0..self.order).filter(|&w| w != v.0) {
            f(VertexId(w))?;
        }
        ControlFlow::Continue(())
    }

    fn degree(&self, _v: VertexId) -> usize {
        (self.order - 1) as usize
    }

    fn max_degree(&self) -> usize {
        (self.order - 1) as usize
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u != v && self.contains(u) && self.contains(v)
    }

    fn name(&self) -> String {
        format!("complete(n={})", self.order)
    }

    fn distance(&self, u: VertexId, v: VertexId) -> Option<u64> {
        Some(u64::from(u != v))
    }

    fn geodesic(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        if u == v {
            Some(vec![u])
        } else {
            Some(vec![u, v])
        }
    }

    /// The triangular (colexicographic-by-low-endpoint) index of `{lo, hi}`:
    /// all edges with low endpoint `0..lo` first, then `hi - lo - 1` within
    /// the `lo` block. Compact: the bound equals `num_edges()`.
    fn edge_index(&self, edge: EdgeId) -> Option<u64> {
        if !self.contains(edge.hi()) {
            return None;
        }
        let (i, j) = (edge.lo().0 as u128, edge.hi().0 as u128);
        let n = self.order as u128;
        // i*(2n - i - 1)/2 edges precede the block of low endpoint i.
        let block_start = i * (2 * n - i - 1) / 2;
        Some((block_start + (j - i - 1)) as u64)
    }

    fn edge_index_bound(&self) -> Option<u64> {
        Some(self.num_edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_topology_invariants;

    #[test]
    fn counts() {
        let k = CompleteGraph::new(10);
        assert_eq!(k.num_vertices(), 10);
        assert_eq!(k.num_edges(), 45);
        assert_eq!(k.degree(VertexId(0)), 9);
    }

    #[test]
    fn invariants_hold() {
        check_topology_invariants(&CompleteGraph::new(2));
        check_topology_invariants(&CompleteGraph::new(7));
        check_topology_invariants(&CompleteGraph::new(20));
    }

    #[test]
    fn edge_index_is_compact() {
        // The triangular index uses every slot in 0..num_edges exactly once.
        let k = CompleteGraph::new(9);
        let mut indices: Vec<u64> = k
            .edges()
            .iter()
            .map(|e| k.edge_index(*e).unwrap())
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..k.num_edges()).collect::<Vec<_>>());
        assert_eq!(k.edge_index_bound(), Some(k.num_edges()));
        assert_eq!(k.edge_index(EdgeId::new(VertexId(0), VertexId(9))), None);
    }

    #[test]
    fn every_pair_is_adjacent() {
        let k = CompleteGraph::new(6);
        for u in k.vertices() {
            for v in k.vertices() {
                if u != v {
                    assert!(k.has_edge(u, v));
                    assert_eq!(k.distance(u, v), Some(1));
                } else {
                    assert!(!k.has_edge(u, v));
                    assert_eq!(k.distance(u, v), Some(0));
                }
            }
        }
    }

    #[test]
    fn geodesics() {
        let k = CompleteGraph::new(5);
        assert_eq!(
            k.geodesic(VertexId(1), VertexId(3)),
            Some(vec![VertexId(1), VertexId(3)])
        );
        assert_eq!(
            k.geodesic(VertexId(2), VertexId(2)),
            Some(vec![VertexId(2)])
        );
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_vertex_rejected() {
        let _ = CompleteGraph::new(1);
    }
}
