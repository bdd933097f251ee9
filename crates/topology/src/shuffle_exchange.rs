//! The shuffle-exchange graph on `2^n` vertices.
//!
//! Vertices are binary strings of length `n`. Each vertex `x` is joined by an
//! *exchange* edge to `x` with its least-significant bit flipped, and by
//! *shuffle* edges to the left and right cyclic rotations of `x`. One of the
//! constant-degree families named in the paper's open questions (§6).

use std::ops::ControlFlow;

use crate::{EdgeId, Topology, VertexId};

/// The shuffle-exchange graph over binary strings of length `n`
/// (maximum degree 3).
///
/// # Examples
///
/// ```
/// use faultnet_topology::{shuffle_exchange::ShuffleExchange, Topology};
///
/// let g = ShuffleExchange::new(4);
/// assert_eq!(g.num_vertices(), 16);
/// assert!(g.max_degree() <= 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShuffleExchange {
    dimension: u32,
}

impl ShuffleExchange {
    /// Creates the shuffle-exchange graph over binary strings of length
    /// `dimension`.
    ///
    /// # Panics
    ///
    /// Panics if `dimension` is smaller than 2 or greater than 32.
    pub fn new(dimension: u32) -> Self {
        assert!(
            (2..=32).contains(&dimension),
            "shuffle-exchange dimension must be in 2..=32, got {dimension}"
        );
        ShuffleExchange { dimension }
    }

    /// The string length `n`.
    pub fn dimension(&self) -> u32 {
        self.dimension
    }

    fn mask(&self) -> u64 {
        (1u64 << self.dimension) - 1
    }

    /// The exchange neighbor of `v` (least-significant bit flipped).
    pub fn exchange(&self, v: VertexId) -> VertexId {
        VertexId(v.0 ^ 1)
    }

    /// The left cyclic rotation of `v` ("shuffle").
    pub fn shuffle_left(&self, v: VertexId) -> VertexId {
        let top = (v.0 >> (self.dimension - 1)) & 1;
        VertexId(((v.0 << 1) & self.mask()) | top)
    }

    /// The right cyclic rotation of `v` ("unshuffle").
    pub fn shuffle_right(&self, v: VertexId) -> VertexId {
        let low = v.0 & 1;
        VertexId((v.0 >> 1) | (low << (self.dimension - 1)))
    }
}

impl Topology for ShuffleExchange {
    fn num_vertices(&self) -> u64 {
        1u64 << self.dimension
    }

    fn num_edges(&self) -> u64 {
        let mut degree_sum = 0u64;
        for v in self.vertices() {
            degree_sum += self.degree(v) as u64;
        }
        degree_sum / 2
    }

    /// Exchange, left shuffle, right shuffle, skipping self-loops and
    /// repeats.
    #[inline]
    fn for_each_neighbor(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(VertexId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        assert!(self.contains(v), "vertex {v} out of range");
        let candidates = [
            self.exchange(v),
            self.shuffle_left(v),
            self.shuffle_right(v),
        ];
        for (i, &w) in candidates.iter().enumerate() {
            if w != v && !candidates[..i].contains(&w) {
                f(w)?;
            }
        }
        ControlFlow::Continue(())
    }

    fn max_degree(&self) -> usize {
        3
    }

    fn name(&self) -> String {
        format!("shuffle_exchange(n={})", self.dimension)
    }

    fn canonical_pair(&self) -> (VertexId, VertexId) {
        (VertexId(0), VertexId(self.mask()))
    }

    /// `3·lo + slot`, slot 0 for the exchange edge (`hi = lo ^ 1`), slot 1
    /// for the left-rotation shuffle edge, slot 2 for the right-rotation
    /// one. An exchange edge is never also a shuffle edge (a rotation that
    /// only flips bit 0 would force all bits equal *and* the wrapped bit
    /// flipped), and when both rotations of `lo` coincide the edge
    /// deterministically takes slot 1, so an index names exactly one edge.
    fn edge_index(&self, edge: EdgeId) -> Option<u64> {
        if !self.contains(edge.hi()) {
            return None;
        }
        let (lo, hi) = edge.endpoints();
        if lo.0 ^ hi.0 == 1 {
            return Some(3 * lo.0);
        }
        // `hi = shuffle_right(lo)` covers the arcs written from the other
        // endpoint: `lo = shuffle_left(hi)` is the same relation.
        if hi == self.shuffle_left(lo) {
            return Some(3 * lo.0 + 1);
        }
        if hi == self.shuffle_right(lo) {
            return Some(3 * lo.0 + 2);
        }
        None
    }

    fn edge_index_bound(&self) -> Option<u64> {
        Some(3 * self.num_vertices())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_topology_invariants;

    #[test]
    fn invariants_hold() {
        for n in 2..=8 {
            check_topology_invariants(&ShuffleExchange::new(n));
        }
    }

    #[test]
    fn shuffles_are_mutual_inverses() {
        let g = ShuffleExchange::new(6);
        for v in g.vertices() {
            assert_eq!(g.shuffle_right(g.shuffle_left(v)), v);
            assert_eq!(g.shuffle_left(g.shuffle_right(v)), v);
        }
    }

    #[test]
    fn exchange_is_an_involution() {
        let g = ShuffleExchange::new(5);
        for v in g.vertices() {
            assert_eq!(g.exchange(g.exchange(v)), v);
            assert_ne!(g.exchange(v), v);
        }
    }

    #[test]
    fn degrees_bounded_by_three() {
        let g = ShuffleExchange::new(7);
        for v in g.vertices() {
            assert!(g.degree(v) <= 3);
            assert!(g.degree(v) >= 1);
        }
    }

    #[test]
    fn edge_index_separates_exchange_and_shuffle_edges() {
        let g = ShuffleExchange::new(5);
        let v = VertexId(0b01100);
        let exchange = EdgeId::new(v, g.exchange(v));
        let shuffle = EdgeId::new(v, g.shuffle_left(v));
        let (ei, si) = (
            g.edge_index(exchange).unwrap(),
            g.edge_index(shuffle).unwrap(),
        );
        assert_ne!(ei, si);
        assert_eq!(ei % 3, 0);
        // {v, v ^ 2} is neither an exchange nor a rotation of v.
        assert_eq!(g.edge_index(EdgeId::new(v, VertexId(v.0 ^ 2))), None);
        assert_eq!(g.edge_index(EdgeId::new(VertexId(0), VertexId(32))), None);
    }

    #[test]
    fn graph_is_connected() {
        let g = ShuffleExchange::new(6);
        let mut seen = vec![false; g.num_vertices() as usize];
        seen[0] = true;
        let mut queue = std::collections::VecDeque::from([VertexId(0)]);
        let mut count = 1;
        while let Some(v) = queue.pop_front() {
            for w in g.neighbors(v) {
                if !seen[w.0 as usize] {
                    seen[w.0 as usize] = true;
                    count += 1;
                    queue.push_back(w);
                }
            }
        }
        assert_eq!(count, g.num_vertices());
    }
}
