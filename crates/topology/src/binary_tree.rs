//! A rooted complete binary tree of a given depth.
//!
//! The paper uses binary trees in two ways: the double binary tree `TT_n`
//! (§2.1) is two of them glued at the leaves, and the analysis of Lemma 6 and
//! Theorem 9 reduces percolation on `TT_n` to a Galton–Watson branching
//! process on a single binary tree. This standalone family is used by those
//! analyses and by tests.
//!
//! Vertices use 1-based heap indices shifted down by one: the root is id `0`
//! and node `v` has children `2v + 1` and `2v + 2`.

use std::ops::ControlFlow;

use crate::{EdgeId, Topology, VertexId};

/// A complete rooted binary tree of the given depth (`2^{depth+1} - 1`
/// vertices; leaves at distance `depth` from the root).
///
/// # Examples
///
/// ```
/// use faultnet_topology::{binary_tree::BinaryTree, Topology, VertexId};
///
/// let tree = BinaryTree::new(3);
/// assert_eq!(tree.num_vertices(), 15);
/// assert_eq!(tree.num_edges(), 14);
/// assert_eq!(tree.distance(VertexId(7), VertexId(8)), Some(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BinaryTree {
    depth: u32,
}

impl BinaryTree {
    /// Creates a complete binary tree with leaves at the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is greater than 61. Depth 0 (a single vertex) is
    /// allowed.
    pub fn new(depth: u32) -> Self {
        assert!(depth <= 61, "binary tree depth must be at most 61");
        BinaryTree { depth }
    }

    /// The depth of the leaves.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The root vertex (id 0).
    pub fn root(&self) -> VertexId {
        VertexId(0)
    }

    /// Number of leaves, `2^depth`.
    pub fn num_leaves(&self) -> u64 {
        1u64 << self.depth
    }

    /// The `i`-th leaf (`0 ≤ i < 2^depth`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_leaves()`.
    pub fn leaf(&self, i: u64) -> VertexId {
        assert!(i < self.num_leaves(), "leaf index {i} out of range");
        VertexId((1u64 << self.depth) - 1 + i)
    }

    /// Depth of a vertex (root has depth 0).
    pub fn depth_of(&self, v: VertexId) -> u32 {
        assert!(self.contains(v), "vertex {v} out of range");
        63 - (v.0 + 1).leading_zeros()
    }

    /// Returns `true` if `v` is a leaf.
    pub fn is_leaf(&self, v: VertexId) -> bool {
        self.depth_of(v) == self.depth
    }

    /// The parent of `v`, or `None` for the root.
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        assert!(self.contains(v), "vertex {v} out of range");
        if v.0 == 0 {
            None
        } else {
            Some(VertexId((v.0 - 1) / 2))
        }
    }

    /// The children of `v`, or `None` if `v` is a leaf.
    pub fn children(&self, v: VertexId) -> Option<(VertexId, VertexId)> {
        if self.is_leaf(v) {
            None
        } else {
            Some((VertexId(2 * v.0 + 1), VertexId(2 * v.0 + 2)))
        }
    }

    /// The lowest common ancestor of `u` and `v`.
    pub fn lca(&self, u: VertexId, v: VertexId) -> VertexId {
        let mut a = u.0 + 1; // 1-based heap index
        let mut b = v.0 + 1;
        while a != b {
            if a > b {
                a /= 2;
            } else {
                b /= 2;
            }
        }
        VertexId(a - 1)
    }
}

impl Topology for BinaryTree {
    fn num_vertices(&self) -> u64 {
        (1u64 << (self.depth + 1)) - 1
    }

    fn num_edges(&self) -> u64 {
        self.num_vertices() - 1
    }

    fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        crate::collect_neighbors(self, v)
    }

    #[inline]
    fn for_each_neighbor(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(VertexId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        assert!(self.contains(v), "vertex {v} out of range");
        if let Some(p) = self.parent(v) {
            f(p)?;
        }
        if let Some((a, b)) = self.children(v) {
            f(a)?;
            f(b)?;
        }
        ControlFlow::Continue(())
    }

    fn max_degree(&self) -> usize {
        if self.depth == 0 {
            0
        } else {
            3
        }
    }

    fn name(&self) -> String {
        format!("binary_tree(depth={})", self.depth)
    }

    fn distance(&self, u: VertexId, v: VertexId) -> Option<u64> {
        let l = self.lca(u, v);
        Some((self.depth_of(u) + self.depth_of(v) - 2 * self.depth_of(l)) as u64)
    }

    fn geodesic(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        let l = self.lca(u, v);
        let mut up = Vec::new();
        let mut cur = u;
        while cur != l {
            up.push(cur);
            cur = self.parent(cur).expect("lca is an ancestor");
        }
        up.push(l);
        let mut down = Vec::new();
        let mut cur = v;
        while cur != l {
            down.push(cur);
            cur = self.parent(cur).expect("lca is an ancestor");
        }
        down.reverse();
        up.extend(down);
        Some(up)
    }

    fn canonical_pair(&self) -> (VertexId, VertexId) {
        // The root and the last leaf: a depth-realising pair.
        (self.root(), VertexId(self.num_vertices() - 1))
    }

    /// `child − 1`: every edge joins a child to its parent `(child − 1) / 2`,
    /// which is always the smaller id, so the child identifies the edge.
    /// Compact — the bound equals `num_edges()`.
    fn edge_index(&self, edge: EdgeId) -> Option<u64> {
        if !self.contains(edge.hi()) {
            return None;
        }
        // `hi >= 1` because the canonical low endpoint is strictly smaller.
        (edge.lo().0 == (edge.hi().0 - 1) / 2).then(|| edge.hi().0 - 1)
    }

    fn edge_index_bound(&self) -> Option<u64> {
        Some(self.num_vertices() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_topology_invariants;

    #[test]
    fn counts() {
        let t = BinaryTree::new(4);
        assert_eq!(t.num_vertices(), 31);
        assert_eq!(t.num_edges(), 30);
        assert_eq!(t.num_leaves(), 16);
    }

    #[test]
    fn invariants_hold() {
        for depth in 0..=5 {
            check_topology_invariants(&BinaryTree::new(depth));
        }
    }

    #[test]
    fn single_vertex_tree() {
        let t = BinaryTree::new(0);
        assert_eq!(t.num_vertices(), 1);
        assert_eq!(t.num_edges(), 0);
        assert!(t.is_leaf(t.root()));
        assert_eq!(t.neighbors(t.root()), Vec::<VertexId>::new());
    }

    #[test]
    fn parent_child_consistency() {
        let t = BinaryTree::new(5);
        for v in t.vertices() {
            if let Some((a, b)) = t.children(v) {
                assert_eq!(t.parent(a), Some(v));
                assert_eq!(t.parent(b), Some(v));
                assert_eq!(t.depth_of(a), t.depth_of(v) + 1);
            }
        }
    }

    #[test]
    fn leaves_are_at_full_depth() {
        let t = BinaryTree::new(4);
        for i in 0..t.num_leaves() {
            let leaf = t.leaf(i);
            assert!(t.is_leaf(leaf));
            assert_eq!(t.depth_of(leaf), 4);
            assert_eq!(t.distance(t.root(), leaf), Some(4));
        }
    }

    #[test]
    fn lca_and_distance() {
        let t = BinaryTree::new(3);
        // leaves 7 and 8 share parent 3
        assert_eq!(t.lca(VertexId(7), VertexId(8)), VertexId(3));
        assert_eq!(t.distance(VertexId(7), VertexId(8)), Some(2));
        // leaves in different halves meet at the root
        assert_eq!(t.lca(VertexId(7), VertexId(14)), t.root());
        assert_eq!(t.distance(VertexId(7), VertexId(14)), Some(6));
        // a vertex with itself
        assert_eq!(t.distance(VertexId(5), VertexId(5)), Some(0));
    }

    #[test]
    fn geodesic_is_a_valid_shortest_path() {
        let t = BinaryTree::new(4);
        let u = t.leaf(3);
        let v = t.leaf(12);
        let d = t.distance(u, v).unwrap();
        let path = t.geodesic(u, v).unwrap();
        assert_eq!(path.len() as u64, d + 1);
        assert_eq!(path[0], u);
        assert_eq!(*path.last().unwrap(), v);
        for pair in path.windows(2) {
            assert!(t.has_edge(pair[0], pair[1]));
        }
    }

    #[test]
    fn edge_index_is_compact_and_rejects_non_edges() {
        let t = BinaryTree::new(4);
        let mut indices: Vec<u64> = t
            .edges()
            .iter()
            .map(|e| t.edge_index(*e).unwrap())
            .collect();
        indices.sort_unstable();
        // Children 1..n-1 give the full range 0..num_edges with no gaps.
        assert_eq!(indices, (0..t.num_edges()).collect::<Vec<_>>());
        assert_eq!(t.edge_index_bound(), Some(t.num_edges()));
        // Siblings are not adjacent.
        assert_eq!(t.edge_index(EdgeId::new(VertexId(1), VertexId(2))), None);
        // Grandparent-grandchild is not an edge.
        assert_eq!(t.edge_index(EdgeId::new(VertexId(0), VertexId(3))), None);
    }

    #[test]
    fn canonical_pair_realises_depth() {
        let t = BinaryTree::new(6);
        let (u, v) = t.canonical_pair();
        assert_eq!(t.distance(u, v), Some(6));
    }
}
