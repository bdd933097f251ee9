//! Assignment of open/closed states to edges.
//!
//! The paper's routing algorithms learn the percolation instance one probe at
//! a time, while its analyses (giant component, chemical distance) look at
//! the whole instance. Both views must agree, so the state of an edge is
//! defined as a *pure function* of `(seed, edge id)`: a strong 64-bit mixer
//! hashes the pair into a uniform variate which is compared against `p`.
//!
//! Three implementations are provided:
//!
//! * [`EdgeSampler`] — the lazy, O(1)-memory sampler described above; this is
//!   what routers probe.
//! * [`BitsetSample`] — one percolation instance materialised as a bitset
//!   over the topology's canonical edge indices; the backing store for dense
//!   analytics (component censuses, chemical distances) that query
//!   essentially every edge, often repeatedly.
//! * [`FrozenSample`] — an eagerly materialised set of open edges, for tests
//!   that build or edit an instance edge by edge.
//!
//! The Bernoulli-edge assumption is **not** baked into the consumers:
//! everything downstream reads states through the [`EdgeStates`] trait, and
//! the `faultnet-faultmodel` crate produces `EdgeStates` implementations for
//! other fault models (node faults, correlated fault regions, adversarial
//! cuts). [`BitsetSample::from_states`] is the materialisation point — it
//! densifies *any* `EdgeStates` producer, Bernoulli or not, onto the
//! closed-form edge-index bitset path.

use std::collections::HashSet;

use faultnet_topology::{EdgeId, Topology};

use crate::PercolationConfig;

/// Read-only access to the open/closed state of edges in one percolation
/// instance.
pub trait EdgeStates {
    /// Returns `true` if `edge` survived (is open) in this instance.
    fn is_open(&self, edge: EdgeId) -> bool;

    /// The state of `edge`, given its slot: `slot` must be
    /// [`Topology::edge_index`]`(edge)` on the graph this instance covers,
    /// as [`Topology::for_each_edge`] yields it. The default ignores the
    /// slot; dense stores override it with one word read.
    fn is_open_at(&self, edge: EdgeId, slot: u64) -> bool {
        let _ = slot;
        self.is_open(edge)
    }

    /// Convenience wrapper: state of the edge `{a, b}` given its endpoints.
    fn is_open_between(
        &self,
        a: faultnet_topology::VertexId,
        b: faultnet_topology::VertexId,
    ) -> bool {
        self.is_open(EdgeId::new(a, b))
    }
}

/// SplitMix64-style finalizer; full-period bijection on `u64`. Shared with
/// the churn-schedule generators in [`crate::dynamic`], which must draw
/// per-(edge, timestep) variates from the same quality of mixer.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic, lazily evaluated edge sampler.
///
/// The state of every edge is decided independently with probability `p`
/// (approximated to 53 bits, far below any statistical resolution reachable
/// by simulation) and is a pure function of the seed and the canonical edge
/// id, so repeated queries — from any code path — always agree.
///
/// # Examples
///
/// ```
/// use faultnet_percolation::{EdgeStates, PercolationConfig};
/// use faultnet_topology::{EdgeId, VertexId};
///
/// let sampler = PercolationConfig::new(0.5, 7).sampler();
/// let e = EdgeId::new(VertexId(1), VertexId(2));
/// assert_eq!(sampler.is_open(e), sampler.is_open(e)); // deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeSampler {
    config: PercolationConfig,
}

impl EdgeSampler {
    /// Creates a sampler for the given configuration.
    pub fn new(config: PercolationConfig) -> Self {
        EdgeSampler { config }
    }

    /// The configuration this sampler realises.
    pub fn config(&self) -> PercolationConfig {
        self.config
    }

    /// The uniform variate in `[0, 1)` attached to `edge`; the edge is open
    /// iff this value is `< p`. Exposed so that monotone-coupling arguments
    /// (increase `p`, keep the seed) can be tested directly.
    pub fn uniform(&self, edge: EdgeId) -> f64 {
        let key = edge.key();
        let lo = key as u64;
        let hi = (key >> 64) as u64;
        let mixed = mix64(
            mix64(lo ^ self.config.seed().wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ hi.wrapping_mul(0xD6E8_FEB8_6659_FD93),
        );
        // 53 significant bits -> uniform double in [0, 1).
        (mixed >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl EdgeStates for EdgeSampler {
    fn is_open(&self, edge: EdgeId) -> bool {
        self.uniform(edge) < self.config.p()
    }
}

/// One percolation instance materialised as a bitset over the topology's
/// canonical edge indices.
///
/// Built once per instance (one [`Topology::for_each_edge`] walk, asking
/// `states` about each edge exactly once and setting the bit at the slot
/// the walk yields), after which every `is_open` query is a single bit read
/// at the closed-form [`Topology::edge_index`] slot — no hashing, no
/// `HashSet` probing — and an `is_open_at` query, which is handed the slot,
/// is the bit read alone. This is the backing store the
/// dense analytics use: a component census or a chemical-distance BFS
/// inspects each edge from both endpoints, so paying the hash once and
/// reading bits afterwards wins as soon as the consumer touches the graph
/// more than once.
///
/// Edges not present in the topology always report closed — unlike
/// [`EdgeSampler`], which answers for arbitrary `EdgeId`s. The two agree on
/// every edge of the topology the sample was built from; the property tests
/// assert this edge for edge.
///
/// # Examples
///
/// ```
/// use faultnet_percolation::{BitsetSample, EdgeStates, PercolationConfig};
/// use faultnet_topology::{hypercube::Hypercube, Topology};
///
/// let cube = Hypercube::new(6);
/// let sampler = PercolationConfig::new(0.5, 11).sampler();
/// let bitset = BitsetSample::from_states(&cube, &sampler);
/// for e in cube.edges() {
///     assert_eq!(bitset.is_open(e), sampler.is_open(e));
/// }
/// assert_eq!(
///     bitset.num_open() as usize,
///     cube.edges().iter().filter(|e| sampler.is_open(**e)).count()
/// );
/// ```
#[derive(Debug, Clone)]
pub struct BitsetSample<'g, T: ?Sized> {
    graph: &'g T,
    /// Bit per canonical edge index.
    words: Vec<u64>,
    num_open: u64,
}

impl<'g, T: Topology + ?Sized> BitsetSample<'g, T> {
    /// Materialises the state of every edge of `graph` under `states`.
    ///
    /// Runs in `O(|E|)` time; the bitset occupies one bit per slot of the
    /// topology's edge-index space.
    pub fn from_states<S: EdgeStates>(graph: &'g T, states: &S) -> Self {
        faultnet_obs::count("sample.materialisations", 1);
        faultnet_obs::count("sample.edges_sampled", graph.num_edges());
        let bound = graph
            .edge_index_bound()
            .expect("every topology indexes its edges");
        let mut words = vec![0u64; bound.div_ceil(64) as usize];
        let mut num_open = 0u64;
        graph.for_each_edge(&mut |e, slot| {
            if states.is_open(e) {
                words[(slot / 64) as usize] |= 1 << (slot % 64);
                num_open += 1;
            }
        });
        BitsetSample {
            graph,
            words,
            num_open,
        }
    }

    /// Materialises the instance identified by `config` (convenience for
    /// `from_states(graph, &config.sampler())`).
    pub fn from_config(graph: &'g T, config: &PercolationConfig) -> Self {
        Self::from_states(graph, &config.sampler())
    }

    /// The topology this sample was built from.
    pub fn graph(&self) -> &'g T {
        self.graph
    }

    /// Number of open edges in the instance.
    pub fn num_open(&self) -> u64 {
        self.num_open
    }

    /// The raw bitset words, one bit per canonical edge-index slot:
    /// `edge_index_bound().div_ceil(64)` of them.
    ///
    /// Exposed so equivalence tests can compare two samples *bit for bit*
    /// — in particular, that a fault model claiming to reproduce the
    /// Bernoulli-edge model materialises to exactly the same words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    #[inline]
    fn bit(&self, slot: u64) -> bool {
        self.words[(slot / 64) as usize] >> (slot % 64) & 1 == 1
    }
}

impl<T: Topology + ?Sized> EdgeStates for BitsetSample<'_, T> {
    fn is_open(&self, edge: EdgeId) -> bool {
        self.graph
            .edge_index(edge)
            .is_some_and(|slot| self.bit(slot))
    }

    #[inline]
    fn is_open_at(&self, edge: EdgeId, slot: u64) -> bool {
        debug_assert_eq!(
            self.graph.edge_index(edge),
            Some(slot),
            "{edge} read at a slot that is not its edge index"
        );
        self.bit(slot)
    }
}

/// An eagerly materialised percolation instance: the set of open edges of a
/// specific topology.
///
/// `FrozenSample` is convenient when an analysis touches essentially every
/// edge (component censuses on small graphs) or when a test needs to build a
/// hand-crafted instance edge by edge.
#[derive(Debug, Clone, Default)]
pub struct FrozenSample {
    open: HashSet<EdgeId>,
}

impl FrozenSample {
    /// Creates an instance with no open edges.
    pub fn new() -> Self {
        FrozenSample::default()
    }

    /// Materialises the lazy sampler over all edges of `graph`.
    pub fn from_sampler<T: Topology + ?Sized>(graph: &T, sampler: &EdgeSampler) -> Self {
        let mut open = HashSet::new();
        for e in graph.edges() {
            if sampler.is_open(e) {
                open.insert(e);
            }
        }
        FrozenSample { open }
    }

    /// Builds an instance from an explicit list of open edges.
    pub fn from_open_edges<I: IntoIterator<Item = EdgeId>>(edges: I) -> Self {
        FrozenSample {
            open: edges.into_iter().collect(),
        }
    }

    /// Marks `edge` as open. Returns `true` if it was previously closed.
    pub fn open_edge(&mut self, edge: EdgeId) -> bool {
        self.open.insert(edge)
    }

    /// Marks `edge` as closed. Returns `true` if it was previously open.
    pub fn close_edge(&mut self, edge: EdgeId) -> bool {
        self.open.remove(&edge)
    }

    /// Number of open edges.
    pub fn num_open(&self) -> usize {
        self.open.len()
    }

    /// Iterator over the open edges (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &EdgeId> {
        self.open.iter()
    }
}

impl EdgeStates for FrozenSample {
    fn is_open(&self, edge: EdgeId) -> bool {
        self.open.contains(&edge)
    }
}

impl<S: EdgeStates + ?Sized> EdgeStates for &S {
    fn is_open(&self, edge: EdgeId) -> bool {
        (**self).is_open(edge)
    }

    #[inline]
    fn is_open_at(&self, edge: EdgeId, slot: u64) -> bool {
        (**self).is_open_at(edge, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultnet_topology::{hypercube::Hypercube, VertexId};

    fn edge(a: u64, b: u64) -> EdgeId {
        EdgeId::new(VertexId(a), VertexId(b))
    }

    #[test]
    fn sampler_is_deterministic() {
        let s = PercolationConfig::new(0.4, 99).sampler();
        for i in 0..100u64 {
            let e = edge(i, i + 1);
            assert_eq!(s.is_open(e), s.is_open(e));
        }
    }

    #[test]
    fn extreme_probabilities() {
        let all_closed = PercolationConfig::new(0.0, 5).sampler();
        let all_open = PercolationConfig::new(1.0, 5).sampler();
        for i in 0..200u64 {
            let e = edge(i, i + 7);
            assert!(!all_closed.is_open(e));
            assert!(all_open.is_open(e));
        }
    }

    #[test]
    fn empirical_frequency_tracks_p() {
        let p = 0.3;
        let s = PercolationConfig::new(p, 1234).sampler();
        let trials = 20_000u64;
        let open = (0..trials).filter(|&i| s.is_open(edge(i, i + 1))).count() as f64;
        let freq = open / trials as f64;
        assert!(
            (freq - p).abs() < 0.02,
            "frequency {freq} too far from p = {p}"
        );
    }

    #[test]
    fn different_seeds_give_different_instances() {
        let a = PercolationConfig::new(0.5, 1).sampler();
        let b = PercolationConfig::new(0.5, 2).sampler();
        let disagreements = (0..1000u64)
            .filter(|&i| a.is_open(edge(i, i + 1)) != b.is_open(edge(i, i + 1)))
            .count();
        assert!(disagreements > 300, "only {disagreements} disagreements");
    }

    #[test]
    fn monotone_coupling_in_p() {
        // Same seed: every edge open at p=0.3 must be open at p=0.6.
        let lo = PercolationConfig::new(0.3, 77).sampler();
        let hi = PercolationConfig::new(0.6, 77).sampler();
        for i in 0..2000u64 {
            let e = edge(i, 3 * i + 1);
            if lo.is_open(e) {
                assert!(hi.is_open(e));
            }
        }
    }

    #[test]
    fn uniform_is_direction_independent() {
        let s = PercolationConfig::new(0.5, 3).sampler();
        let e1 = EdgeId::new(VertexId(10), VertexId(20));
        let e2 = EdgeId::new(VertexId(20), VertexId(10));
        assert_eq!(s.uniform(e1), s.uniform(e2));
    }

    #[test]
    fn bitset_sample_matches_lazy_sampler_on_closed_form_families() {
        use faultnet_topology::{complete::CompleteGraph, mesh::Mesh, torus::Torus};
        let sampler = PercolationConfig::new(0.45, 8).sampler();
        let cube = Hypercube::new(6);
        let mesh = Mesh::new(3, 4);
        let torus = Torus::new(2, 5);
        let complete = CompleteGraph::new(24);
        assert_bitset_agrees(&cube, &sampler);
        assert_bitset_agrees(&mesh, &sampler);
        assert_bitset_agrees(&torus, &sampler);
        assert_bitset_agrees(&complete, &sampler);
    }

    #[test]
    fn built_in_families_take_the_bitset_backend() {
        use faultnet_topology::double_tree::DoubleBinaryTree;
        let sampler = PercolationConfig::new(0.5, 4).sampler();
        assert_bitset_agrees(&Hypercube::new(5), &sampler);
        assert_bitset_agrees(&DoubleBinaryTree::new(4), &sampler);
    }

    /// `graph`'s sample under `sampler` holds one bit per edge-index slot,
    /// answers every edge as `sampler` does, and counts its open edges.
    fn assert_bitset_agrees<T: faultnet_topology::Topology>(graph: &T, sampler: &EdgeSampler) {
        let bitset = BitsetSample::from_states(graph, sampler);
        let bound = graph.edge_index_bound().unwrap();
        assert_eq!(bitset.words().len() as u64, bound.div_ceil(64));
        let mut open = 0u64;
        for e in graph.edges() {
            assert_eq!(
                bitset.is_open(e),
                sampler.is_open(e),
                "disagreement at {e} on {}",
                graph.name()
            );
            open += u64::from(sampler.is_open(e));
        }
        assert_eq!(bitset.num_open(), open, "{}", graph.name());
    }

    #[test]
    fn explicit_bitset_holds_one_bit_per_edge() {
        // The largest scale-free substrate the server accepts: an n×Δ slot
        // space would be 166 slots per edge here.
        let ba = faultnet_topology::load::SubstrateSpec::parse("ba-65536-8")
            .unwrap()
            .build();
        let sample = BitsetSample::from_config(&ba, &PercolationConfig::new(0.5, 2));
        assert_eq!(sample.words().len() as u64, ba.num_edges().div_ceil(64));
        let open = sample
            .words()
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum::<u64>();
        assert_eq!(open, sample.num_open());
    }

    #[test]
    fn bitset_sample_reports_non_edges_closed() {
        let cube = Hypercube::new(4);
        let bitset = BitsetSample::from_config(&cube, &PercolationConfig::new(1.0, 0));
        // {0, 3} differs in two bits: not an edge, so closed by definition,
        // even though the lazy sampler at p = 1 calls everything open.
        assert!(!bitset.is_open(edge(0, 3)));
        assert!(bitset.is_open(edge(0, 1)));
        assert_eq!(bitset.num_open(), cube.num_edges());
        assert_eq!(bitset.graph().num_vertices(), 16);
    }

    #[test]
    fn frozen_sample_matches_lazy_sampler() {
        let cube = Hypercube::new(6);
        let sampler = PercolationConfig::new(0.45, 8).sampler();
        let frozen = FrozenSample::from_sampler(&cube, &sampler);
        for e in cube.edges() {
            assert_eq!(frozen.is_open(e), sampler.is_open(e));
        }
        let open_count = cube.edges().iter().filter(|e| sampler.is_open(**e)).count();
        assert_eq!(frozen.num_open(), open_count);
    }

    #[test]
    fn frozen_sample_manual_edits() {
        let mut s = FrozenSample::new();
        let e = edge(1, 2);
        assert!(!s.is_open(e));
        assert!(s.open_edge(e));
        assert!(!s.open_edge(e));
        assert!(s.is_open(e));
        assert!(s.close_edge(e));
        assert!(!s.is_open(e));
        assert_eq!(s.num_open(), 0);
    }

    #[test]
    fn edge_states_for_references() {
        let s = PercolationConfig::new(1.0, 0).sampler();
        let r: &dyn EdgeStates = &s;
        assert!(r.is_open(edge(0, 1)));
        assert!(r.is_open_between(VertexId(0), VertexId(1)));
    }
}
