//! An explicit graph in compressed sparse row (CSR) form.
//!
//! Most of the workspace operates on the implicit families, but an explicit
//! graph is occasionally useful: as a conversion target when an algorithm
//! genuinely needs to materialise a (small) graph, as a test double for
//! hand-crafted counter-examples, and as the escape hatch for user-supplied
//! topologies.

use std::ops::ControlFlow;

use crate::{EdgeId, Topology, VertexId};

/// A graph stored as compressed sparse rows: one offset per vertex into a
/// single array of sorted neighbor ids, held as `u32` (so at most 2³²
/// vertices).
///
/// Vertex `v` *owns* the arcs to its larger neighbors (the upper part of
/// its row), so every edge is owned by its lower endpoint exactly once.
/// [`Topology::edge_index`] numbers edges by owner, then by rank within the
/// owner's upper row: the index space is exactly `0..num_edges()`, found by
/// one binary search.
///
/// # Examples
///
/// ```
/// use faultnet_topology::{explicit::ExplicitGraph, Topology, VertexId};
///
/// // A triangle with a pendant vertex.
/// let g = ExplicitGraph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.degree(VertexId(2)), 3);
/// assert_eq!(g.edge_index_bound(), Some(4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplicitGraph {
    /// Row `v` is `targets[offsets[v]..offsets[v + 1]]`; `n + 1` entries.
    offsets: Vec<usize>,
    /// Every row's neighbors, each row sorted by id.
    targets: Vec<u32>,
    /// Where row `v`'s upper part (the neighbors `> v`, which `v` owns)
    /// starts in `targets`.
    upper: Vec<usize>,
    /// Edges owned by the vertices `< v`, i.e. the index of `v`'s first
    /// owned edge; `n + 1` entries, the last being `num_edges`.
    owned_before: Vec<u64>,
    /// Cached so `max_degree` needs no O(V) scan.
    max_degree: usize,
    label: String,
}

impl ExplicitGraph {
    /// Creates an empty graph on `n` isolated vertices.
    pub fn new(n: u64) -> Self {
        ExplicitGraph::from_edges(n, [])
    }

    /// Builds a graph on `n` vertices from an edge list. Duplicate edges are
    /// counted once and self-loops are ignored — this is the loader-facing
    /// contract, so raw real-world edge lists (AS graphs ship both) build
    /// without preprocessing. Direction is irrelevant: `(a, b)` and `(b, a)`
    /// are the same undirected edge.
    ///
    /// The whole list is canonicalised, sorted, and deduplicated in
    /// `O(E log E)` before the rows are filled — no per-insertion duplicate
    /// scan, so hub vertices (scale-free graphs routinely concentrate
    /// thousands of edges on one vertex) cost the same per edge as
    /// everything else. Rows come out sorted by neighbor id, a deterministic
    /// order independent of the input order, so [`Topology::edge_index`]
    /// slots — and everything rendered from them — are byte-stable across
    /// permutations of the same edge set.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`, or if `n` exceeds 2³² (neighbor ids
    /// are stored as `u32`).
    pub fn from_edges<I>(n: u64, edges: I) -> Self
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        assert!(n <= 1 << 32, "vertex count {n} out of range for u32 ids");
        let mut canonical: Vec<(u64, u64)> = Vec::new();
        for (a, b) in edges {
            assert!(a < n, "vertex v{a} out of range");
            assert!(b < n, "vertex v{b} out of range");
            if a == b {
                continue; // self-loops are ignored
            }
            canonical.push((a.min(b), a.max(b)));
        }
        canonical.sort_unstable();
        canonical.dedup();
        let n = n as usize;
        let mut degree = vec![0usize; n];
        let mut owned = vec![0u64; n];
        for &(a, b) in &canonical {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
            owned[a as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut owned_before = Vec::with_capacity(n + 1);
        let (mut arcs, mut edges_so_far) = (0usize, 0u64);
        for v in 0..n {
            offsets.push(arcs);
            owned_before.push(edges_so_far);
            arcs += degree[v];
            edges_so_far += owned[v];
        }
        offsets.push(arcs);
        owned_before.push(edges_so_far);
        // Scanning canonical (lo, hi) pairs in sorted order appends each
        // vertex's smaller neighbors in increasing order first (edges where
        // it is `hi`, sorted by `lo`) and then its larger neighbors in
        // increasing order (edges where it is `lo`, sorted by `hi`), so
        // every row ends up fully sorted without a second pass, with its
        // owned arcs last.
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0u32; arcs];
        for &(a, b) in &canonical {
            targets[cursor[a as usize]] = b as u32;
            cursor[a as usize] += 1;
            targets[cursor[b as usize]] = a as u32;
            cursor[b as usize] += 1;
        }
        let upper = (0..n).map(|v| offsets[v + 1] - owned[v] as usize).collect();
        ExplicitGraph {
            offsets,
            targets,
            upper,
            owned_before,
            max_degree: degree.into_iter().max().unwrap_or(0),
            label: format!("explicit(n={n})"),
        }
    }

    /// Materialises any [`Topology`] into an explicit graph (intended for
    /// small graphs; the hypercube at `n = 20` would need hundreds of MB).
    ///
    /// Built through [`ExplicitGraph::from_edges`], so the rows are sorted
    /// by neighbor id regardless of the source's enumeration order.
    pub fn from_topology<T: Topology + ?Sized>(source: &T) -> Self {
        let mut g = ExplicitGraph::from_edges(
            source.num_vertices(),
            source.edges().into_iter().map(|e| (e.lo().0, e.hi().0)),
        );
        g.label = format!("explicit({})", source.name());
        g
    }

    /// Sets the human-readable name reported by [`Topology::name`].
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// The sorted neighbors of `v`.
    fn row(&self, v: VertexId) -> &[u32] {
        assert!(self.contains(v), "vertex {v} out of range");
        let v = v.0 as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }
}

impl Topology for ExplicitGraph {
    fn num_vertices(&self) -> u64 {
        self.upper.len() as u64
    }

    fn num_edges(&self) -> u64 {
        self.owned_before[self.upper.len()]
    }

    fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        self.row(v).iter().map(|&w| VertexId(w.into())).collect()
    }

    /// Walks the stored row in place; no clone.
    #[inline]
    fn for_each_neighbor(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(VertexId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for &w in self.row(v) {
            f(VertexId(w.into()))?;
        }
        ControlFlow::Continue(())
    }

    /// Each vertex's owned upper row, counting slots up from
    /// `owned_before[v]`.
    #[inline]
    fn for_each_edge(&self, f: &mut dyn FnMut(EdgeId, u64)) {
        for v in 0..self.upper.len() {
            let owned = &self.targets[self.upper[v]..self.offsets[v + 1]];
            for (slot, &w) in (self.owned_before[v]..).zip(owned) {
                f(
                    EdgeId::ordered(VertexId(v as u64), VertexId(w.into())),
                    slot,
                );
            }
        }
    }

    fn degree(&self, v: VertexId) -> usize {
        self.row(v).len()
    }

    fn max_degree(&self) -> usize {
        self.max_degree
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    /// The edge's rank among all owned arcs: the edges owned by vertices
    /// below `lo`, plus the position of `hi` in `lo`'s sorted upper row
    /// (one binary search).
    fn edge_index(&self, edge: EdgeId) -> Option<u64> {
        if !self.contains(edge.hi()) {
            return None;
        }
        let lo = edge.lo().0 as usize;
        let owned = &self.targets[self.upper[lo]..self.offsets[lo + 1]];
        // `hi` is a vertex, so below 2³²: the conversion is exact.
        let rank = owned.binary_search(&(edge.hi().0 as u32)).ok()?;
        Some(self.owned_before[lo] + rank as u64)
    }

    /// Exactly `num_edges()`: the index space has no unused slots.
    fn edge_index_bound(&self) -> Option<u64> {
        Some(self.num_edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_topology_invariants, hypercube::Hypercube, mesh::Mesh};

    #[test]
    fn from_edges_builds_expected_graph() {
        let g = ExplicitGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(g.num_edges(), 5);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
        check_topology_invariants(&g);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let g = ExplicitGraph::from_edges(3, [(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn from_edges_skips_self_loops_per_the_documented_contract() {
        // The loader-contract pin: a raw real-world edge list — self-loops,
        // duplicates in both orientations, all mixed in — must build the
        // documented graph without panicking.
        let g = ExplicitGraph::from_edges(
            4,
            [
                (0, 0),
                (0, 1),
                (1, 0),
                (2, 2),
                (1, 2),
                (0, 1),
                (3, 3),
                (2, 3),
            ],
        );
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(VertexId(0)), vec![VertexId(1)]);
        assert_eq!(g.neighbors(VertexId(2)), vec![VertexId(1), VertexId(3)]);
        check_topology_invariants(&g);
    }

    #[test]
    fn from_edges_is_deterministic_across_input_permutations() {
        // Same edge set, shuffled and re-oriented: identical graph,
        // identical adjacency order, identical edge_index slots.
        let a = ExplicitGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let b = ExplicitGraph::from_edges(5, [(3, 1), (0, 4), (3, 2), (2, 1), (1, 0), (4, 3)]);
        assert_eq!(a, b);
        for e in a.edges() {
            assert_eq!(a.edge_index(e), b.edge_index(e));
        }
        // And adjacency lists are sorted by neighbor id.
        for v in a.vertices() {
            let neigh = a.neighbors(v);
            let mut sorted = neigh.clone();
            sorted.sort();
            assert_eq!(neigh, sorted, "adjacency of {v} is not sorted");
        }
    }

    #[test]
    fn from_topology_preserves_structure() {
        let cube = Hypercube::new(4);
        let g = ExplicitGraph::from_topology(&cube);
        assert_eq!(g.num_vertices(), cube.num_vertices());
        assert_eq!(g.num_edges(), cube.num_edges());
        for v in cube.vertices() {
            let mut a = cube.neighbors(v);
            let mut b = g.neighbors(v);
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
        check_topology_invariants(&g);
    }

    #[test]
    fn from_topology_mesh() {
        let mesh = Mesh::new(2, 4);
        let g = ExplicitGraph::from_topology(&mesh);
        assert_eq!(g.num_edges(), mesh.num_edges());
        check_topology_invariants(&g);
    }

    #[test]
    fn edge_index_uses_adjacency_slots() {
        // Rows: 0 → [1, 2], 1 → [0, 2], 2 → [0, 1, 3, 4], 3 → [2], 4 → [2].
        // Vertex 0 owns {0,1}, {0,2}; vertex 1 owns {1,2}; vertex 2 owns
        // {2,3}, {2,4}; 3 and 4 own nothing.
        let g = ExplicitGraph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 2)]);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.edge_index_bound(), Some(5));
        let index = |a, b| g.edge_index(EdgeId::new(VertexId(a), VertexId(b)));
        assert_eq!(index(0, 1), Some(0));
        assert_eq!(index(2, 0), Some(1));
        assert_eq!(index(1, 2), Some(2));
        // {2, 4}: slot 1 of vertex 2's owned arcs [3, 4], after the three
        // edges owned by vertices 0 and 1.
        assert_eq!(index(4, 2), Some(3 + 1));
        // Non-edge and out-of-range pairs are rejected.
        assert_eq!(index(0, 3), None);
        assert_eq!(index(3, 4), None);
        assert_eq!(index(0, 9), None);
        assert_eq!(index(7, 9), None);
    }

    #[test]
    fn labels() {
        let mut g = ExplicitGraph::new(3);
        assert_eq!(g.name(), "explicit(n=3)");
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edge_index_bound(), Some(0));
        g.set_label("triangle");
        assert_eq!(g.name(), "triangle");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let _ = ExplicitGraph::from_edges(2, [(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "out of range for u32 ids")]
    fn vertex_count_beyond_u32_ids_rejected() {
        // Refused before anything is allocated.
        let _ = ExplicitGraph::from_edges((1 << 32) + 1, []);
    }
}
