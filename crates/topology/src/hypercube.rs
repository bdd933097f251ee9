//! The `n`-dimensional hypercube `H_n` (§3 of the paper).
//!
//! Vertices are the `2^n` bitmasks of `n` bits; two vertices are adjacent
//! when they differ in exactly one bit. The graph metric is the Hamming
//! distance and a canonical geodesic flips the differing bits from the least
//! significant to the most significant.

use std::ops::ControlFlow;

use crate::{EdgeId, Topology, VertexId};

/// The `n`-dimensional hypercube `H_n`.
///
/// # Examples
///
/// ```
/// use faultnet_topology::{hypercube::Hypercube, Topology, VertexId};
///
/// let cube = Hypercube::new(3);
/// assert_eq!(cube.num_vertices(), 8);
/// assert_eq!(cube.num_edges(), 12);
/// assert_eq!(cube.distance(VertexId(0b000), VertexId(0b101)), Some(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hypercube {
    dimension: u32,
}

impl Hypercube {
    /// Creates the hypercube of the given dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dimension` is 0 or greater than 62 (vertex ids are `u64`
    /// and experiments never need more).
    pub fn new(dimension: u32) -> Self {
        assert!(
            (1..=62).contains(&dimension),
            "hypercube dimension must be in 1..=62, got {dimension}"
        );
        Hypercube { dimension }
    }

    /// The dimension `n`.
    pub fn dimension(&self) -> u32 {
        self.dimension
    }

    /// Hamming distance between two vertices.
    pub fn hamming(&self, u: VertexId, v: VertexId) -> u32 {
        (u.0 ^ v.0).count_ones()
    }

    /// The antipode of `v` (all bits flipped), the unique vertex at maximal
    /// distance from `v`.
    pub fn antipode(&self, v: VertexId) -> VertexId {
        VertexId(v.0 ^ (self.num_vertices() - 1))
    }

    /// The vertex obtained from `v` by flipping coordinate `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= dimension`.
    pub fn flip(&self, v: VertexId, bit: u32) -> VertexId {
        assert!(bit < self.dimension, "bit {bit} out of range");
        VertexId(v.0 ^ (1 << bit))
    }

    /// Indices of the coordinates in which `u` and `v` differ, ascending.
    pub fn differing_coordinates(&self, u: VertexId, v: VertexId) -> Vec<u32> {
        let mut diff = u.0 ^ v.0;
        let mut out = Vec::with_capacity(diff.count_ones() as usize);
        while diff != 0 {
            let bit = diff.trailing_zeros();
            out.push(bit);
            diff &= diff - 1;
        }
        out
    }

    /// All vertices at Hamming distance exactly `radius` from `center`.
    ///
    /// The sphere has `C(n, radius)` vertices; this enumerates subsets of
    /// coordinates, so it is only intended for small radii (the paper's ball
    /// arguments use radius `n^β` with small β).
    pub fn sphere(&self, center: VertexId, radius: u32) -> Vec<VertexId> {
        let n = self.dimension;
        if radius > n {
            return Vec::new();
        }
        let mut out = Vec::new();
        // Gosper's hack over bitmasks of `radius` set bits among `n`.
        if radius == 0 {
            return vec![center];
        }
        let mut mask: u64 = (1 << radius) - 1;
        let limit: u64 = 1 << n;
        while mask < limit {
            out.push(VertexId(center.0 ^ mask));
            // Gosper's hack: next bitmask with the same popcount. The current
            // mask is the numerically largest `radius`-subset exactly when the
            // carry escapes the n-bit universe.
            let c = mask & mask.wrapping_neg();
            let r = mask + c;
            if r >= limit {
                break;
            }
            mask = (((r ^ mask) >> 2) / c) | r;
        }
        out
    }

    /// All vertices at Hamming distance at most `radius` from `center`
    /// (the ball used in the proof of Theorem 3(i)).
    pub fn ball(&self, center: VertexId, radius: u32) -> Vec<VertexId> {
        let mut out = Vec::new();
        for r in 0..=radius.min(self.dimension) {
            out.extend(self.sphere(center, r));
        }
        out
    }
}

impl Topology for Hypercube {
    fn num_vertices(&self) -> u64 {
        1u64 << self.dimension
    }

    fn num_edges(&self) -> u64 {
        (self.dimension as u64) << (self.dimension - 1)
    }

    #[inline]
    fn for_each_neighbor(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(VertexId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        assert!(self.contains(v), "vertex {v} out of range");
        for bit in 0..self.dimension {
            f(VertexId(v.0 ^ (1 << bit)))?;
        }
        ControlFlow::Continue(())
    }

    /// For each `v`, the zero bits `d` of `v` in ascending order: the edge
    /// `{v, v | 2^d}` at slot `v·n + d`.
    #[inline]
    fn for_each_edge(&self, f: &mut dyn FnMut(EdgeId, u64)) {
        let n = self.dimension as u64;
        let all = self.num_vertices() - 1;
        for v in 0..self.num_vertices() {
            let mut up = !v & all;
            while up != 0 {
                let d = up.trailing_zeros();
                f(
                    EdgeId::ordered(VertexId(v), VertexId(v | 1 << d)),
                    v * n + u64::from(d),
                );
                up &= up - 1;
            }
        }
    }

    fn degree(&self, _v: VertexId) -> usize {
        self.dimension as usize
    }

    fn max_degree(&self) -> usize {
        self.dimension as usize
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.contains(u) && self.contains(v) && (u.0 ^ v.0).count_ones() == 1
    }

    fn name(&self) -> String {
        format!("hypercube(n={})", self.dimension)
    }

    fn distance(&self, u: VertexId, v: VertexId) -> Option<u64> {
        Some(self.hamming(u, v) as u64)
    }

    fn geodesic(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        let mut path = Vec::with_capacity(self.hamming(u, v) as usize + 1);
        let mut cur = u;
        path.push(cur);
        for bit in self.differing_coordinates(u, v) {
            cur = self.flip(cur, bit);
            path.push(cur);
        }
        debug_assert_eq!(*path.last().unwrap(), v);
        Some(path)
    }

    fn canonical_pair(&self) -> (VertexId, VertexId) {
        (VertexId(0), self.antipode(VertexId(0)))
    }

    /// `lo * n + bit`, where `bit` is the flipped coordinate. The canonical
    /// low endpoint always has that bit clear, so the mapping is injective.
    fn edge_index(&self, edge: EdgeId) -> Option<u64> {
        if !self.contains(edge.hi()) {
            return None;
        }
        let diff = edge.lo().0 ^ edge.hi().0;
        if diff.count_ones() != 1 {
            return None;
        }
        Some(edge.lo().0 * self.dimension as u64 + diff.trailing_zeros() as u64)
    }

    fn edge_index_bound(&self) -> Option<u64> {
        Some(self.num_vertices() * self.dimension as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_topology_invariants;

    #[test]
    fn small_cube_counts() {
        let cube = Hypercube::new(3);
        assert_eq!(cube.num_vertices(), 8);
        assert_eq!(cube.num_edges(), 12);
        assert_eq!(cube.degree(VertexId(0)), 3);
        assert_eq!(cube.max_degree(), 3);
    }

    #[test]
    fn invariants_hold_for_several_dimensions() {
        for n in 1..=6 {
            check_topology_invariants(&Hypercube::new(n));
        }
    }

    #[test]
    fn edge_index_rejects_non_edges() {
        let cube = Hypercube::new(4);
        // Two bits differ: not an edge.
        assert_eq!(cube.edge_index(EdgeId::new(VertexId(0), VertexId(3))), None);
        // Out-of-range endpoint.
        assert_eq!(
            cube.edge_index(EdgeId::new(VertexId(0), VertexId(16))),
            None
        );
        // A real edge indexes below the bound.
        let e = EdgeId::new(VertexId(0b0101), VertexId(0b0111));
        assert!(cube.edge_index(e).unwrap() < cube.edge_index_bound().unwrap());
    }

    #[test]
    fn neighbors_differ_in_one_bit() {
        let cube = Hypercube::new(5);
        let v = VertexId(0b10110);
        for w in cube.neighbors(v) {
            assert_eq!((v.0 ^ w.0).count_ones(), 1);
        }
        assert_eq!(cube.neighbors(v).len(), 5);
    }

    #[test]
    fn hamming_distance_and_geodesic_agree() {
        let cube = Hypercube::new(8);
        let u = VertexId(0b1010_1010);
        let v = VertexId(0b0110_0101);
        let d = cube.distance(u, v).unwrap();
        let path = cube.geodesic(u, v).unwrap();
        assert_eq!(path.len() as u64, d + 1);
        assert_eq!(path[0], u);
        assert_eq!(*path.last().unwrap(), v);
        for pair in path.windows(2) {
            assert!(cube.has_edge(pair[0], pair[1]));
        }
    }

    #[test]
    fn geodesic_between_identical_vertices_is_trivial() {
        let cube = Hypercube::new(4);
        let path = cube.geodesic(VertexId(5), VertexId(5)).unwrap();
        assert_eq!(path, vec![VertexId(5)]);
    }

    #[test]
    fn antipode_is_at_maximal_distance() {
        let cube = Hypercube::new(7);
        let v = VertexId(0b1010101);
        let a = cube.antipode(v);
        assert_eq!(cube.hamming(v, a), 7);
        assert_eq!(cube.antipode(a), v);
    }

    #[test]
    fn canonical_pair_is_antipodal() {
        let cube = Hypercube::new(6);
        let (u, v) = cube.canonical_pair();
        assert_eq!(cube.hamming(u, v), 6);
    }

    #[test]
    fn sphere_sizes_are_binomial() {
        let cube = Hypercube::new(6);
        let center = VertexId(0b110011);
        let expected = [1u64, 6, 15, 20, 15, 6, 1];
        for (r, want) in expected.iter().enumerate() {
            let sphere = cube.sphere(center, r as u32);
            assert_eq!(sphere.len() as u64, *want, "radius {r}");
            for v in sphere {
                assert_eq!(cube.hamming(center, v), r as u32);
            }
        }
    }

    #[test]
    fn ball_size_matches_enumeration() {
        let cube = Hypercube::new(9);
        let center = VertexId(17);
        // Σ_{i≤r} C(9, i) for r = 0..=4.
        for (r, size) in [1, 10, 46, 130, 256].into_iter().enumerate() {
            assert_eq!(cube.ball(center, r as u32).len(), size, "radius {r}");
        }
    }

    #[test]
    fn sphere_radius_larger_than_dimension_is_empty() {
        let cube = Hypercube::new(3);
        assert!(cube.sphere(VertexId(0), 4).is_empty());
        assert_eq!(cube.ball(VertexId(0), 10).len(), 8);
    }

    #[test]
    fn flip_round_trips() {
        let cube = Hypercube::new(10);
        let v = VertexId(0b11_0101_0011);
        for bit in 0..10 {
            assert_eq!(cube.flip(cube.flip(v, bit), bit), v);
        }
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn zero_dimension_rejected() {
        let _ = Hypercube::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vertex_rejected() {
        let cube = Hypercube::new(3);
        let _ = cube.neighbors(VertexId(8));
    }

    #[test]
    fn differing_coordinates_sorted() {
        let cube = Hypercube::new(8);
        let coords = cube.differing_coordinates(VertexId(0b1001_0110), VertexId(0b0001_0001));
        assert_eq!(coords, vec![0, 1, 2, 7]);
    }
}
