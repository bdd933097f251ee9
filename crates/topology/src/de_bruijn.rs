//! The (undirected) binary de Bruijn graph `B(2, n)`.
//!
//! Vertices are the `2^n` binary strings of length `n`; the directed de
//! Bruijn graph has arcs `x → (2x + b) mod 2^n` for `b ∈ {0, 1}`. We study
//! the undirected version (arcs symmetrised, self-loops dropped), one of the
//! constant-degree, logarithmic-diameter families named in the paper's open
//! questions (§6): does the routing phase transition coincide with the
//! percolation phase transition on such graphs?

use std::ops::ControlFlow;

use crate::{EdgeId, Topology, VertexId};

/// The undirected de Bruijn graph on `2^n` vertices (maximum degree 4).
///
/// # Examples
///
/// ```
/// use faultnet_topology::{de_bruijn::DeBruijn, Topology, VertexId};
///
/// let g = DeBruijn::new(4);
/// assert_eq!(g.num_vertices(), 16);
/// assert!(g.max_degree() <= 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeBruijn {
    dimension: u32,
}

impl DeBruijn {
    /// Creates the de Bruijn graph over binary strings of length `dimension`.
    ///
    /// # Panics
    ///
    /// Panics if `dimension` is 0 or greater than 32.
    pub fn new(dimension: u32) -> Self {
        assert!(
            (1..=32).contains(&dimension),
            "de Bruijn dimension must be in 1..=32, got {dimension}"
        );
        DeBruijn { dimension }
    }

    /// The string length `n`.
    pub fn dimension(&self) -> u32 {
        self.dimension
    }

    fn mask(&self) -> u64 {
        (1u64 << self.dimension) - 1
    }

    /// The two successors of `v` in the directed de Bruijn graph
    /// (`(2v + b) mod 2^n`).
    pub fn successors(&self, v: VertexId) -> [VertexId; 2] {
        let shifted = (v.0 << 1) & self.mask();
        [VertexId(shifted), VertexId(shifted | 1)]
    }

    /// The two predecessors of `v` in the directed de Bruijn graph.
    pub fn predecessors(&self, v: VertexId) -> [VertexId; 2] {
        let shifted = v.0 >> 1;
        let high = 1u64 << (self.dimension - 1);
        [VertexId(shifted), VertexId(shifted | high)]
    }
}

impl Topology for DeBruijn {
    fn num_vertices(&self) -> u64 {
        1u64 << self.dimension
    }

    fn num_edges(&self) -> u64 {
        // No closed form that is worth maintaining across the self-loop /
        // antiparallel-arc collapses; count from the neighbor structure.
        let mut degree_sum = 0u64;
        for v in self.vertices() {
            degree_sum += self.degree(v) as u64;
        }
        degree_sum / 2
    }

    fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        crate::collect_neighbors(self, v)
    }

    /// Successors then predecessors, skipping self-loops and repeats.
    #[inline]
    fn for_each_neighbor(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(VertexId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        assert!(self.contains(v), "vertex {v} out of range");
        let [s0, s1] = self.successors(v);
        let [p0, p1] = self.predecessors(v);
        let candidates = [s0, s1, p0, p1];
        for (i, &w) in candidates.iter().enumerate() {
            if w != v && !candidates[..i].contains(&w) {
                f(w)?;
            }
        }
        ControlFlow::Continue(())
    }

    fn max_degree(&self) -> usize {
        4
    }

    fn name(&self) -> String {
        format!("de_bruijn(n={})", self.dimension)
    }

    fn canonical_pair(&self) -> (VertexId, VertexId) {
        // All-zeros and all-ones are at distance n (need n shifts).
        (VertexId(0), VertexId(self.mask()))
    }

    /// `2·v + b` for the canonical directed arc `v → (2v + b) mod 2^n`
    /// behind the edge; the arc from the smaller endpoint is preferred when
    /// both directions exist. An index reconstructs its arc — and hence its
    /// edge — uniquely, so the mapping is injective even across the
    /// self-loop / antiparallel-arc collapses.
    fn edge_index(&self, edge: EdgeId) -> Option<u64> {
        if !self.contains(edge.hi()) {
            return None;
        }
        let (lo, hi) = edge.endpoints();
        if self.successors(lo).contains(&hi) {
            // Both successors of `lo` share every bit except bit 0, so the
            // arc's shift-in bit is exactly `hi & 1`.
            return Some(2 * lo.0 + (hi.0 & 1));
        }
        if self.successors(hi).contains(&lo) {
            return Some(2 * hi.0 + (lo.0 & 1));
        }
        None
    }

    fn edge_index_bound(&self) -> Option<u64> {
        Some(2 * self.num_vertices())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_topology_invariants;

    #[test]
    fn invariants_hold() {
        for n in 1..=7 {
            check_topology_invariants(&DeBruijn::new(n));
        }
    }

    #[test]
    fn successors_and_predecessors_are_inverse_relations() {
        let g = DeBruijn::new(6);
        for v in g.vertices() {
            for s in g.successors(v) {
                assert!(g.predecessors(s).contains(&v));
            }
            for p in g.predecessors(v) {
                assert!(g.successors(p).contains(&v));
            }
        }
    }

    #[test]
    fn degree_bounds() {
        let g = DeBruijn::new(8);
        for v in g.vertices() {
            let d = g.degree(v);
            assert!((2..=4).contains(&d), "degree {d} at {v}");
        }
    }

    #[test]
    fn no_self_loops_in_neighbors() {
        let g = DeBruijn::new(5);
        // 0 and all-ones have directed self-loops; they must not appear.
        assert!(!g.neighbors(VertexId(0)).contains(&VertexId(0)));
        let ones = VertexId(0b11111);
        assert!(!g.neighbors(ones).contains(&ones));
    }

    #[test]
    fn edge_index_covers_antiparallel_arcs_and_rejects_non_edges() {
        let g = DeBruijn::new(5);
        // 01010 and 10101 are mutual successors (antiparallel arcs); the
        // collapsed undirected edge must still index exactly once.
        let a = VertexId(0b01010);
        let b = VertexId(0b10101);
        assert!(g.successors(a).contains(&b) && g.successors(b).contains(&a));
        let e = EdgeId::new(a, b);
        assert_eq!(g.edge_index(e), Some(2 * a.0 + 1));
        // {0, 3}: 3 is not a successor of 0 (successors are 0 and 1) and 0
        // is not a successor of 3 (successors are 6 and 7).
        assert_eq!(g.edge_index(EdgeId::new(VertexId(0), VertexId(3))), None);
        // Out-of-range endpoint.
        assert_eq!(g.edge_index(EdgeId::new(VertexId(0), VertexId(32))), None);
    }

    #[test]
    fn diameter_is_logarithmic() {
        // BFS from vertex 0 must reach every vertex within n steps.
        let n = 7;
        let g = DeBruijn::new(n);
        let mut dist = vec![u32::MAX; g.num_vertices() as usize];
        dist[0] = 0;
        let mut queue = std::collections::VecDeque::from([VertexId(0)]);
        while let Some(v) = queue.pop_front() {
            for w in g.neighbors(v) {
                if dist[w.0 as usize] == u32::MAX {
                    dist[w.0 as usize] = dist[v.0 as usize] + 1;
                    queue.push_back(w);
                }
            }
        }
        let ecc = *dist.iter().max().unwrap();
        assert!(ecc <= n, "eccentricity {ecc} exceeds n = {n}");
    }
}
