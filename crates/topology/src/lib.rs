//! Graph families studied by *Routing Complexity of Faulty Networks*.
//!
//! Every topology in this crate is an **implicit graph**: vertices are dense
//! integer identifiers `0 .. num_vertices()` and adjacency is computed on
//! demand from the structure of the family (bit flips for the hypercube,
//! coordinate steps for the mesh, …). Nothing is materialised up front, which
//! matches the paper's probe model — an edge only "exists" for an algorithm
//! once it has been probed — and keeps graphs with tens of millions of edges
//! cheap to hold.
//!
//! The families implemented are exactly those the paper studies or names:
//!
//! * [`hypercube::Hypercube`] — the `n`-dimensional hypercube `H_n` (§3).
//! * [`mesh::Mesh`] — the `d`-dimensional mesh `M^d` (§4).
//! * [`torus::Torus`] — wrap-around mesh, used for boundary-effect ablations.
//! * [`double_tree::DoubleBinaryTree`] — the double binary tree `TT_n` (§2.1).
//! * [`binary_tree::BinaryTree`] — a rooted complete binary tree
//!   (Galton–Watson illustration, §2.1/§5).
//! * [`complete::CompleteGraph`] — `K_n`, the substrate of `G_{n,p}` (§5).
//! * [`cycle_matching::CycleWithMatching`] — a cycle plus a matching
//!   (small-world motivation, §1).
//! * [`de_bruijn::DeBruijn`], [`butterfly::Butterfly`],
//!   [`shuffle_exchange::ShuffleExchange`] — the constant-degree families
//!   named in the open questions (§6).
//! * [`explicit::ExplicitGraph`] — adjacency-list escape hatch and the target
//!   of [`explicit::ExplicitGraph::from_topology`].
//! * [`load`] — real-world and synthetic substrates materialised into
//!   [`explicit::ExplicitGraph`]: an edge-list/CSV loader (with the bundled
//!   karate-club dataset), plus Barabási–Albert, fat-tree, and random
//!   `d`-regular generators.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::ControlFlow;

pub mod binary_tree;
pub mod butterfly;
pub mod complete;
pub mod cycle_matching;
pub mod de_bruijn;
pub mod double_tree;
pub mod explicit;
pub mod hypercube;
pub mod load;
pub mod mesh;
pub mod shuffle_exchange;
pub mod torus;

/// Identifier of a vertex.
///
/// All topologies in this crate use dense identifiers in
/// `0 .. Topology::num_vertices()`. The meaning of the bits is
/// topology-specific (e.g. the hypercube uses the id directly as the vertex's
/// coordinate bitmask).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(pub u64);

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for VertexId {
    fn from(value: u64) -> Self {
        VertexId(value)
    }
}

/// Canonical identifier of an undirected edge: the endpoint pair stored with
/// the smaller vertex first.
///
/// The canonical form makes `EdgeId` suitable both as a hash-map key and as
/// the input to the deterministic percolation sampler, which must return the
/// same open/closed state regardless of the direction from which an edge is
/// probed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId {
    lo: VertexId,
    hi: VertexId,
}

impl EdgeId {
    /// The edge `{lo, hi}` from endpoints already in canonical order, for
    /// edge walks that know which endpoint is smaller.
    #[inline]
    pub(crate) fn ordered(lo: VertexId, hi: VertexId) -> Self {
        debug_assert!(lo.0 < hi.0, "{lo} is not below {hi}");
        EdgeId { lo, hi }
    }

    /// Creates the canonical edge id for the unordered pair `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`; the families studied here have no self-loops.
    pub fn new(a: VertexId, b: VertexId) -> Self {
        assert_ne!(a, b, "self-loops are not valid edges");
        if a.0 <= b.0 {
            EdgeId { lo: a, hi: b }
        } else {
            EdgeId { lo: b, hi: a }
        }
    }

    /// The endpoint with the smaller identifier.
    pub fn lo(&self) -> VertexId {
        self.lo
    }

    /// The endpoint with the larger identifier.
    pub fn hi(&self) -> VertexId {
        self.hi
    }

    /// Both endpoints, smaller first.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        (self.lo, self.hi)
    }

    /// Returns `true` if `v` is one of the two endpoints.
    pub fn touches(&self, v: VertexId) -> bool {
        self.lo == v || self.hi == v
    }

    /// Given one endpoint, returns the other; `None` if `v` is not an
    /// endpoint of this edge.
    pub fn other(&self, v: VertexId) -> Option<VertexId> {
        if v == self.lo {
            Some(self.hi)
        } else if v == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    /// A stable 128-bit key identifying this edge, used by hashing samplers.
    pub fn key(&self) -> u128 {
        ((self.lo.0 as u128) << 64) | self.hi.0 as u128
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.lo, self.hi)
    }
}

/// Iterator over all vertices of a topology (`0 .. num_vertices`).
#[derive(Debug, Clone)]
pub struct Vertices {
    next: u64,
    end: u64,
}

impl Iterator for Vertices {
    type Item = VertexId;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next < self.end {
            let v = VertexId(self.next);
            self.next += 1;
            Some(v)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.end - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Vertices {}

/// A finite undirected graph with implicit adjacency.
///
/// Implementations are expected to be cheap to clone (they carry only the
/// family parameters, never adjacency lists) and every method must be a pure
/// function of those parameters.
pub trait Topology {
    /// Number of vertices. Vertex ids are exactly `0 .. num_vertices()`.
    fn num_vertices(&self) -> u64;

    /// Number of undirected edges.
    fn num_edges(&self) -> u64;

    /// Neighbors of `v` in the *fault-free* graph: the
    /// [`Topology::for_each_neighbor`] visit collected into a vector sized
    /// by [`Topology::max_degree`], so the two never disagree on order.
    ///
    /// # Panics
    ///
    /// Same as [`Topology::for_each_neighbor`].
    fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.max_degree());
        let _ = self.for_each_neighbor(v, &mut |w| {
            out.push(w);
            ControlFlow::Continue(())
        });
        out
    }

    /// Calls `f` on each neighbor of `v` in the fault-free graph and stops
    /// as soon as `f` returns [`ControlFlow::Break`]. Returns `Break` iff
    /// `f` did.
    ///
    /// This is the family's closed-form adjacency: `neighbors`, `degree`,
    /// `incident_edges` and `edges` all follow its order, and hot loops
    /// (flooding, BFS conditioning, censuses) walk it without allocating.
    /// Probe counts depend on the visiting order. The callback is a trait
    /// object so that `dyn Topology` stays object-safe.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `v` is not a vertex of the graph
    /// (`v.0 >= num_vertices()`).
    fn for_each_neighbor(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(VertexId) -> ControlFlow<()>,
    ) -> ControlFlow<()>;

    /// Human-readable family name with parameters, e.g. `"hypercube(n=12)"`.
    fn name(&self) -> String;

    /// Returns `true` if `v` is a vertex of this graph.
    fn contains(&self, v: VertexId) -> bool {
        v.0 < self.num_vertices()
    }

    /// Degree of `v` in the fault-free graph.
    fn degree(&self, v: VertexId) -> usize {
        let mut degree = 0;
        let _ = self.for_each_neighbor(v, &mut |_| {
            degree += 1;
            ControlFlow::Continue(())
        });
        degree
    }

    /// Returns `true` if `{u, v}` is an edge of the fault-free graph; `false`
    /// for `u == v` and for pairs with an endpoint outside the graph.
    ///
    /// The default answers through [`Topology::edge_index`].
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u != v
            && self.contains(u)
            && self.contains(v)
            && self.edge_index(EdgeId::new(u, v)).is_some()
    }

    /// Iterator over all vertices.
    fn vertices(&self) -> Vertices {
        Vertices {
            next: 0,
            end: self.num_vertices(),
        }
    }

    /// All edges incident to `v`, in canonical form.
    fn incident_edges(&self, v: VertexId) -> Vec<EdgeId> {
        let mut out = Vec::new();
        let _ = self.for_each_neighbor(v, &mut |w| {
            out.push(EdgeId::new(v, w));
            ControlFlow::Continue(())
        });
        out
    }

    /// All edges of the graph, each reported exactly once, in
    /// [`Topology::for_each_edge`] order.
    fn edges(&self) -> Vec<EdgeId> {
        let mut out = Vec::with_capacity(self.num_edges() as usize);
        self.for_each_edge(&mut |e, _| out.push(e));
        out
    }

    /// Visits every edge once, with its [`Topology::edge_index`] slot,
    /// without materialising the list: each vertex's neighbors, keeping the
    /// edges whose canonical low endpoint is that vertex. Filling a store
    /// this way saves an `|E|`-entry allocation per instance (8 MB on H₁₆),
    /// and the slot lets stores and censuses read and write bits without
    /// recomputing the index.
    ///
    /// The default computes each slot with `edge_index`; families whose
    /// slot falls out of the walk override it in closed form. Every
    /// override keeps this order, which the incremental census's union
    /// order depends on; [`check_edge_index_contract`] pins both the order
    /// and the slots.
    fn for_each_edge(&self, f: &mut dyn FnMut(EdgeId, u64)) {
        for v in self.vertices() {
            let _ = self.for_each_neighbor(v, &mut |w| {
                if v.0 < w.0 {
                    let e = EdgeId::new(v, w);
                    let slot = self
                        .edge_index(e)
                        .expect("every edge of the topology has an index");
                    f(e, slot);
                }
                ControlFlow::Continue(())
            });
        }
    }

    /// Graph distance between `u` and `v` when the family admits a closed
    /// form (Hamming distance on the hypercube, L1 on the mesh, …).
    ///
    /// Returns `None` when no closed form is implemented; callers should then
    /// fall back to BFS on the fault-free graph.
    fn distance(&self, u: VertexId, v: VertexId) -> Option<u64> {
        let _ = (u, v);
        None
    }

    /// One canonical shortest path from `u` to `v` (inclusive of both
    /// endpoints) when the family admits a closed form.
    ///
    /// Returns `None` when no closed form is implemented. When `Some(path)`
    /// is returned, `path.len() == distance(u, v) + 1` and consecutive
    /// entries are adjacent in the fault-free graph.
    fn geodesic(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        let _ = (u, v);
        None
    }

    /// A designated "far" vertex pair used by experiments (typically a
    /// diameter-realising pair). Defaults to `(0, num_vertices - 1)`.
    fn canonical_pair(&self) -> (VertexId, VertexId) {
        (VertexId(0), VertexId(self.num_vertices() - 1))
    }

    /// Dense canonical index of `edge`, computed from the family's
    /// structure (a bit position for the hypercube, an axis for the mesh, a
    /// rank in the sorted rows of an explicit graph, …). Materialised
    /// edge-state stores — most importantly `faultnet-percolation`'s
    /// `BitsetSample` — keep an edge's state at this slot, so `is_open` is
    /// a single bit read instead of a hash.
    ///
    /// The contract, checked by [`check_edge_index_contract`]:
    ///
    /// * `edge_index` returns `Some` for an edge **iff** it is an edge of the
    ///   fault-free graph; non-edges, including pairs with an endpoint
    ///   outside the graph, map to `None`.
    /// * Returned indices are pairwise distinct and strictly below
    ///   `edge_index_bound()`. The index space may be larger than
    ///   `num_edges()` (unused slots are fine — consumers allocate bits, not
    ///   entries).
    fn edge_index(&self, edge: EdgeId) -> Option<u64>;

    /// Exclusive upper bound on the values [`Topology::edge_index`] can
    /// return. Always `Some`: every family indexes its edges. The `Option`
    /// is kept so existing callers that match on it (the benchmark harness
    /// among them) still compile.
    fn edge_index_bound(&self) -> Option<u64>;

    /// Upper bound on the vertex degree over the whole graph, in closed
    /// form. [`Topology::neighbors`] sizes its vector with it.
    fn max_degree(&self) -> usize;
}

/// SplitMix64 step: advances `state` and returns the next pseudo-random
/// 64-bit value. The one deterministic generator shared by the crate's
/// sampling sites (random matchings, sampled conformance checks).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Checks the structural invariants shared by every [`Topology`]
/// implementation; used by unit and property tests across the workspace.
///
/// Verifies that neighbor lists are symmetric, free of self-loops and
/// duplicates, stay inside the vertex range, and that the handshake identity
/// `Σ deg(v) = 2·|E|` holds. It also pins the allocation-free accessors to
/// `neighbors`: [`Topology::for_each_neighbor`] yields exactly `neighbors(v)`
/// in order and stops when the callback breaks; `degree`, `incident_edges`
/// and `edges` keep `neighbors`' order; and [`Topology::has_edge`] agrees
/// with `neighbors(u).contains(&v)`, including `u == v` and out-of-range
/// pairs. Last, it checks the edge index with [`check_edge_index_contract`].
///
/// # Panics
///
/// Panics (with a descriptive message) if any invariant is violated. Intended
/// for test code.
pub fn check_topology_invariants<T: Topology>(graph: &T) {
    let n = graph.num_vertices();
    assert!(n > 0, "{}: empty graph", graph.name());
    let mut degree_sum: u64 = 0;
    let mut enumerated_edges = Vec::new();
    for v in graph.vertices() {
        let neigh = graph.neighbors(v);
        degree_sum += neigh.len() as u64;
        check_accessors_agree_with_neighbors(graph, v, &neigh);
        enumerated_edges.extend(
            neigh
                .iter()
                .filter(|w| v.0 < w.0)
                .map(|&w| EdgeId::new(v, w)),
        );
        let mut seen = std::collections::HashSet::new();
        for w in &neigh {
            assert!(
                graph.contains(*w),
                "{}: neighbor {w} of {v} out of range",
                graph.name()
            );
            assert_ne!(*w, v, "{}: self-loop at {v}", graph.name());
            assert!(
                seen.insert(*w),
                "{}: duplicate neighbor {w} of {v}",
                graph.name()
            );
            assert!(
                graph.neighbors(*w).contains(&v),
                "{}: asymmetric edge {v} -> {w}",
                graph.name()
            );
        }
    }
    assert_eq!(
        degree_sum,
        2 * graph.num_edges(),
        "{}: handshake lemma violated",
        graph.name()
    );
    assert_eq!(
        graph.edges().len() as u64,
        graph.num_edges(),
        "{}: edges() length disagrees with num_edges()",
        graph.name()
    );
    assert!(
        graph.edges() == enumerated_edges,
        "{}: edges() is not the neighbors() enumeration, in order",
        graph.name()
    );
    check_has_edge_agrees_with_neighbors(graph);
    check_edge_index_contract(graph);
}

/// The per-vertex half of [`check_topology_invariants`]: the visitor, its
/// early exit, `degree` and `incident_edges` against `neigh = neighbors(v)`.
fn check_accessors_agree_with_neighbors<T: Topology>(graph: &T, v: VertexId, neigh: &[VertexId]) {
    let name = graph.name();
    let mut visited = Vec::new();
    let flow = graph.for_each_neighbor(v, &mut |w| {
        visited.push(w);
        ControlFlow::Continue(())
    });
    assert!(
        flow.is_continue(),
        "{name}: for_each_neighbor({v}) reported a break nobody asked for"
    );
    assert_eq!(
        visited, neigh,
        "{name}: for_each_neighbor({v}) disagrees with neighbors({v})"
    );
    // Breaking after the first, a middle and the last neighbor stops the
    // visit right there.
    let stops = [0, neigh.len() / 2, neigh.len().saturating_sub(1)];
    for &stop in stops.iter().filter(|_| !neigh.is_empty()) {
        let mut seen = Vec::new();
        let flow = graph.for_each_neighbor(v, &mut |w| {
            seen.push(w);
            if seen.len() > stop {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(
            flow.is_break(),
            "{name}: for_each_neighbor({v}) swallowed a break"
        );
        assert_eq!(
            seen,
            &neigh[..=stop],
            "{name}: for_each_neighbor({v}) kept visiting after a break"
        );
    }
    assert_eq!(
        graph.degree(v),
        neigh.len(),
        "{name}: degree({v}) disagrees with neighbors({v})"
    );
    let incident: Vec<EdgeId> = neigh.iter().map(|&w| EdgeId::new(v, w)).collect();
    assert_eq!(
        graph.incident_edges(v),
        incident,
        "{name}: incident_edges({v}) is not neighbors({v}) in order"
    );
}

/// The `has_edge` half of [`check_topology_invariants`]: every pair (all of
/// them up to 256 vertices, a deterministic sample beyond), `u == v`, and
/// pairs with an endpoint outside the graph.
fn check_has_edge_agrees_with_neighbors<T: Topology>(graph: &T) {
    let name = graph.name();
    let n = graph.num_vertices();
    let check_pair = |u: VertexId, v: VertexId| {
        let expected = graph.contains(u) && graph.neighbors(u).contains(&v);
        assert_eq!(
            graph.has_edge(u, v),
            expected,
            "{name}: has_edge({u}, {v}) disagrees with neighbors({u})"
        );
    };
    if n <= 256 {
        for u in 0..n {
            for v in 0..n {
                check_pair(VertexId(u), VertexId(v));
            }
        }
    } else {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for u in graph.vertices() {
            check_pair(u, u);
            for _ in 0..4 {
                check_pair(u, VertexId(splitmix64(&mut state) % n));
            }
        }
    }
    for u in [0, n - 1] {
        for out in [n, n + 1, u64::MAX] {
            check_pair(VertexId(u), VertexId(out));
            check_pair(VertexId(out), VertexId(u));
        }
    }
    check_pair(VertexId(n), VertexId(n + 1));
}

/// Checks the closed-form edge-index contract that dense edge-state stores
/// (most importantly `faultnet-percolation`'s `BitsetSample`) rely on; part
/// of [`check_topology_invariants`]:
///
/// 1. [`Topology::edge_index_bound`] is `Some`.
/// 2. Every edge reported by [`Topology::edges`] maps to `Some` index that is
///    strictly below the bound, and no two edges share an index
///    (injectivity).
/// 3. The number of indexed edges equals [`Topology::num_edges`]
///    (enumeration agreement).
/// 4. Non-edges map to `None`: every non-adjacent vertex pair (exhaustively
///    for small graphs, a deterministic sample beyond that) and pairs with an
///    out-of-range endpoint are rejected, while adjacent pairs reproduce the
///    index recorded during enumeration.
/// 5. [`Topology::for_each_edge`] yields every edge with `slot ==
///    edge_index(e)`, in the order of the [`Topology::for_each_neighbor`]
///    walk filtered to `v < w`.
///
/// # Panics
///
/// Panics (with a descriptive message) if any part of the contract is
/// violated. Intended for test code.
pub fn check_edge_index_contract<T: Topology>(graph: &T) {
    let name = graph.name();
    let bound = graph.edge_index_bound().unwrap_or_else(|| {
        panic!("{name}: edge_index_bound() is None — no closed-form edge index")
    });
    // 1–3: injectivity, bound validity, and enumeration agreement.
    let mut index_of = std::collections::HashMap::new();
    for e in graph.edges() {
        let index = graph
            .edge_index(e)
            .unwrap_or_else(|| panic!("{name}: edge {e} of the fault-free graph has no index"));
        assert!(
            index < bound,
            "{name}: index {index} of {e} is not below the bound {bound}"
        );
        if let Some(prev) = index_of.insert(index, e) {
            panic!("{name}: edges {prev} and {e} collide at index {index}");
        }
    }
    assert_eq!(
        index_of.len() as u64,
        graph.num_edges(),
        "{name}: indexed edge count disagrees with num_edges()"
    );
    let index_of_edge: std::collections::HashMap<EdgeId, u64> =
        index_of.into_iter().map(|(i, e)| (e, i)).collect();
    // 4a: vertex pairs — adjacent pairs reproduce the enumerated index,
    // non-adjacent pairs are rejected. Exhaustive up to 256 vertices
    // (≤ ~32k pairs); a deterministic SplitMix64 sample of pairs beyond.
    let n = graph.num_vertices();
    let check_pair = |u: VertexId, v: VertexId| {
        let e = EdgeId::new(u, v);
        match graph.edge_index(e) {
            Some(index) => {
                assert_eq!(
                    Some(&index),
                    index_of_edge.get(&e),
                    "{name}: {e} indexes to {index} but edges() enumeration disagrees"
                );
            }
            None => assert!(
                !index_of_edge.contains_key(&e),
                "{name}: enumerated edge {e} is rejected by edge_index()"
            ),
        }
    };
    if n <= 256 {
        for u in 0..n {
            for v in (u + 1)..n {
                check_pair(VertexId(u), VertexId(v));
            }
        }
    } else {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            let u = splitmix64(&mut state) % n;
            let v = splitmix64(&mut state) % n;
            if u != v {
                check_pair(VertexId(u.min(v)), VertexId(u.max(v)));
            }
        }
        // The sample above rarely hits edges; also re-check every edge's
        // incident pairs so the Some side is exercised on large graphs.
        for e in graph.edges() {
            check_pair(e.lo(), e.hi());
        }
    }
    // 4b: out-of-range endpoints never index.
    for delta in 0..3 {
        let e = EdgeId::new(VertexId(0), VertexId(n + delta));
        assert_eq!(
            graph.edge_index(e),
            None,
            "{name}: out-of-range pair {e} received an index"
        );
    }
    // 5: the edge walk's slots are the edge indices, in neighbor-walk order.
    let mut walked = Vec::new();
    graph.for_each_edge(&mut |e, slot| walked.push((e, slot)));
    let mut expected = Vec::new();
    for v in graph.vertices() {
        let _ = graph.for_each_neighbor(v, &mut |w| {
            if v.0 < w.0 {
                let e = EdgeId::new(v, w);
                expected.push((e, graph.edge_index(e).unwrap_or(u64::MAX)));
            }
            ControlFlow::Continue(())
        });
    }
    for (i, (got, want)) in walked.iter().zip(&expected).enumerate() {
        assert_eq!(
            got, want,
            "{name}: for_each_edge entry {i} is not the neighbor walk's \
             (edge, edge_index(edge))"
        );
    }
    assert_eq!(
        walked.len(),
        expected.len(),
        "{name}: for_each_edge and the neighbor walk yield different edge counts"
    );
}

/// Generates one `#[test]` per listed family instance, running
/// [`check_topology_invariants`] (edge-index contract included) on it — the
/// shared conformance suite every built-in (and future) family must pass.
///
/// ```
/// faultnet_topology::edge_index_conformance_suite! {
///     hypercube_n4 => faultnet_topology::hypercube::Hypercube::new(4);
/// }
/// # fn main() {}
/// ```
#[macro_export]
macro_rules! edge_index_conformance_suite {
    ($($test_name:ident => $graph:expr;)+) => {
        $(
            #[test]
            fn $test_name() {
                let graph = $graph;
                $crate::check_topology_invariants(&graph);
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_id_is_canonical() {
        let e1 = EdgeId::new(VertexId(3), VertexId(7));
        let e2 = EdgeId::new(VertexId(7), VertexId(3));
        assert_eq!(e1, e2);
        assert_eq!(e1.lo(), VertexId(3));
        assert_eq!(e1.hi(), VertexId(7));
        assert_eq!(e1.key(), e2.key());
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_id_rejects_self_loop() {
        let _ = EdgeId::new(VertexId(1), VertexId(1));
    }

    #[test]
    fn edge_id_other_endpoint() {
        let e = EdgeId::new(VertexId(2), VertexId(9));
        assert_eq!(e.other(VertexId(2)), Some(VertexId(9)));
        assert_eq!(e.other(VertexId(9)), Some(VertexId(2)));
        assert_eq!(e.other(VertexId(5)), None);
        assert!(e.touches(VertexId(2)));
        assert!(e.touches(VertexId(9)));
        assert!(!e.touches(VertexId(5)));
    }

    #[test]
    fn vertices_iterator_is_exact() {
        let cube = hypercube::Hypercube::new(4);
        let vs: Vec<_> = cube.vertices().collect();
        assert_eq!(vs.len(), 16);
        assert_eq!(vs[0], VertexId(0));
        assert_eq!(vs[15], VertexId(15));
        assert_eq!(cube.vertices().len(), 16);
    }

    #[test]
    fn display_impls() {
        assert_eq!(VertexId(5).to_string(), "v5");
        assert_eq!(
            EdgeId::new(VertexId(1), VertexId(2)).to_string(),
            "(v1, v2)"
        );
    }

    #[test]
    fn vertex_id_from_u64() {
        let v: VertexId = 17u64.into();
        assert_eq!(v, VertexId(17));
    }

    #[test]
    fn edge_key_distinguishes_edges() {
        let e1 = EdgeId::new(VertexId(0), VertexId(1));
        let e2 = EdgeId::new(VertexId(0), VertexId(2));
        let e3 = EdgeId::new(VertexId(1), VertexId(2));
        assert_ne!(e1.key(), e2.key());
        assert_ne!(e1.key(), e3.key());
        assert_ne!(e2.key(), e3.key());
    }
}
