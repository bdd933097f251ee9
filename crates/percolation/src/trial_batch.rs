//! Trial-batched bit-parallel percolation: 64 trials per machine word.
//!
//! A [`crate::BitsetSample`] packs 64 *edges* of **one** trial into each
//! word. This module transposes that layout (*multispin coding*): a
//! [`TrialBatch`] packs the **same edge across up to 64 trials** into each
//! word, so `words[edge_index]` holds the open-bit of that edge in each of
//! the batch's *lanes*. Trial fan-out workloads — giant-fraction scans,
//! conditioned routing measurements — evaluate thousands of independent
//! instances that each touch every edge once; on the transposed store the
//! conditioning check (`u ∼ v`?) and any whole-instance sweep advance all
//! lanes with single ALU ops, multiplying with `--threads` instead of
//! competing with it.
//!
//! # Lane determinism
//!
//! Lane `l` of a batch whose base seed is `s` realises **exactly** the
//! scalar trial with seed `s + l` (wrapping): the batch builds one
//! [`crate::EdgeSampler`] per lane from the existing seed stream and stores
//! `sampler_l.is_open(e)` in bit `l` of `words[edge_index(e)]`. The
//! transpose is therefore a pure *relayout* of the scalar trials, not a
//! resample — every consumer that extracts a lane (via [`LaneView`]) reads
//! bit-identical edge states to the scalar engine, and the equivalence
//! suite in `tests/trial_equivalence.rs` pins this across the whole family
//! zoo. Distinct lanes use distinct seeds, so lanes never alias.
//!
//! # Ragged tails
//!
//! When the remaining trial count is not a multiple of 64 the final batch
//! is built with fewer lanes; bits at and above [`TrialBatch::lanes`] are
//! zero in every word and excluded from [`TrialBatch::lane_mask`], so
//! lane-masked reductions never observe phantom trials.

use std::collections::VecDeque;
use std::ops::ControlFlow;

use faultnet_topology::{EdgeId, Topology, VertexId};

use crate::sample::EdgeStates;
use crate::PercolationConfig;

/// Maximum number of lanes (trials) per batch: one per bit of a `u64`.
pub const MAX_LANES: usize = 64;

/// Clamps a requested lane width (`TrialExec::trial_batch`, or the trial
/// loop's own choice) to a valid lane count.
///
/// `0` means "no lanes" and must be routed to the scalar engine *before*
/// this function: silently mapping it to 1 lane would turn "scalar" into
/// "batched with a single lane" — a different code path that happens to
/// produce the same numbers, which is exactly the kind of divergence the
/// equivalence suites exist to make loud. Values above [`MAX_LANES`] saturate at 64 (a word holds no more),
/// and `1..=64` pass through. Exposed so the trial loop and the tests
/// agree on one clamping rule.
///
/// # Panics
///
/// Debug builds panic on `requested == 0` (the caller forwarded the "no
/// lanes" sentinel instead of dispatching on it); release builds clamp to 1
/// so a slipped sentinel degrades to the old behaviour rather than
/// aborting a long measurement.
pub fn clamp_lanes(requested: usize) -> usize {
    debug_assert!(
        requested > 0,
        "trial_batch 0 is the 'batching off' sentinel; dispatch to the \
         scalar engine instead of clamping it to a 1-lane batch"
    );
    requested.clamp(1, MAX_LANES)
}

/// Up to 64 percolation trials materialised as one transposed bitset:
/// `words[edge_index]` = the open-bit of that edge in each lane.
///
/// # Examples
///
/// ```
/// use faultnet_percolation::{
///     trial_batch::TrialBatch, BitsetSample, EdgeStates, PercolationConfig,
/// };
/// use faultnet_topology::{hypercube::Hypercube, Topology};
///
/// let cube = Hypercube::new(6);
/// let cfg = PercolationConfig::new(0.5, 11);
/// let batch = TrialBatch::from_config(&cube, &cfg, 8);
/// // Lane 3 is bit-identical to the scalar trial with seed 11 + 3.
/// let scalar = BitsetSample::from_config(&cube, &cfg.with_seed(14));
/// for e in cube.edges() {
///     assert_eq!(batch.lane_view(3).is_open(e), scalar.is_open(e));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TrialBatch<'g, T: ?Sized> {
    graph: &'g T,
    /// One word per canonical edge-index slot; bit `l` = open in lane `l`.
    words: Vec<u64>,
    /// Number of active lanes, `1..=64`.
    lanes: usize,
}

impl<'g, T: Topology + ?Sized> TrialBatch<'g, T> {
    /// Whether `graph` supports the transposed store. Always `true`: every
    /// topology indexes its edges. Nothing in the library calls it; it
    /// stays because the benchmark harness does.
    pub fn supported(graph: &T) -> bool {
        graph.edge_index_bound().is_some()
    }

    /// Materialises `lanes` consecutive scalar trials: lane `l` uses the
    /// seed `config.seed() + l` (wrapping), i.e. exactly the seed the
    /// scalar engine assigns to trial `l` of a run starting at
    /// `config.seed()`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=64`.
    pub fn from_config(graph: &'g T, config: &PercolationConfig, lanes: usize) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "lane count must be in 1..=64, got {lanes}"
        );
        let samplers: Vec<_> = (0..lanes)
            .map(|l| {
                config
                    .with_seed(config.seed().wrapping_add(l as u64))
                    .sampler()
            })
            .collect();
        Self::from_lane_states(graph, &samplers)
    }

    /// Materialises one arbitrary [`EdgeStates`] producer per lane: bit `l`
    /// of `words[edge_index(e)]` is `states[l].is_open(e)`.
    ///
    /// This is the batched analogue of [`crate::BitsetSample::from_states`]
    /// — the point where *any* per-lane fault instance (node masks, severed
    /// edges, …) densifies onto the transposed store. The relayout is
    /// verbatim: each lane reads back bit-identical to its producer on
    /// every edge of the topology.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty or longer than 64 entries.
    pub fn from_lane_states<S: EdgeStates>(graph: &'g T, states: &[S]) -> Self {
        let lanes = states.len();
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "lane count must be in 1..=64, got {lanes}"
        );
        let bound = graph
            .edge_index_bound()
            .expect("every topology indexes its edges");
        let mut words = vec![0u64; bound as usize];
        graph.for_each_edge(&mut |e| {
            let index = graph
                .edge_index(e)
                .expect("every edge of the topology has an index");
            let mut word = 0u64;
            for (l, lane_states) in states.iter().enumerate() {
                word |= u64::from(lane_states.is_open(e)) << l;
            }
            words[index as usize] = word;
        });
        TrialBatch {
            graph,
            words,
            lanes,
        }
    }

    /// The topology this batch was built from.
    pub fn graph(&self) -> &'g T {
        self.graph
    }

    /// Number of active lanes (trials) in this batch, `1..=64`.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Mask with one bit set per active lane (the low [`TrialBatch::lanes`]
    /// bits). Bits outside this mask are zero in every word.
    pub fn lane_mask(&self) -> u64 {
        if self.lanes == MAX_LANES {
            u64::MAX
        } else {
            (1u64 << self.lanes) - 1
        }
    }

    /// The raw transposed words, one per canonical edge-index slot.
    ///
    /// Exposed for the same reason as [`crate::BitsetSample::words`]: so
    /// the equivalence tests can compare the batched store against 64
    /// scalar stores *bit for bit* rather than through any accessor.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The lane word for `edge`: bit `l` = open in lane `l`; `0` (all lanes
    /// closed) for edges not in the topology, mirroring
    /// [`crate::BitsetSample`]'s non-edges-are-closed convention.
    pub fn edge_word(&self, edge: EdgeId) -> u64 {
        match self.graph.edge_index(edge) {
            Some(index) => self.words[index as usize],
            None => 0,
        }
    }

    /// A scalar [`EdgeStates`] view of one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn lane_view(&self, lane: usize) -> LaneView<'_, 'g, T> {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range for a {}-lane batch",
            self.lanes
        );
        LaneView { batch: self, lane }
    }

    /// Number of open edges in `lane` (the per-lane analogue of
    /// [`crate::BitsetSample::num_open`]).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn lane_open_count(&self, lane: usize) -> u64 {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range for a {}-lane batch",
            self.lanes
        );
        let bit = 1u64 << lane;
        self.words.iter().filter(|&&w| w & bit != 0).count() as u64
    }

    /// The batched conditioning check: the set of lanes in which `u` and
    /// `v` lie in the same open component, as a bitmask (a subset of
    /// [`TrialBatch::lane_mask`]).
    ///
    /// One bit-parallel BFS fixpoint answers all 64 lanes at once:
    /// `reached[w]` accumulates the lanes that have reached vertex `w`, and
    /// an edge `{x, w}` forwards `reached[x] & edge_word({x, w})` — a
    /// single AND advancing every lane. Per lane this computes exactly the
    /// scalar BFS connectivity (the Definition 2 conditioning event
    /// `{u ∼ v}`), which the equivalence suite asserts lane by lane.
    pub fn connected_lanes(&self, u: VertexId, v: VertexId) -> u64 {
        let mask = self.lane_mask();
        if u == v {
            return mask;
        }
        let n = self.graph.num_vertices() as usize;
        let mut reached = vec![0u64; n];
        reached[u.0 as usize] = mask;
        let mut queue = VecDeque::new();
        queue.push_back(u);
        // Instrumentation accumulates in locals and reports once per
        // fixpoint, so a disabled build pays one relaxed load per call.
        let mut pops = 0u64;
        let mut advances = 0u64;
        let result = 'fixpoint: {
            while let Some(x) = queue.pop_front() {
                pops += 1;
                let from = reached[x.0 as usize];
                let flow = self.graph.for_each_neighbor(x, &mut |w| {
                    let advanced =
                        from & self.edge_word(EdgeId::new(x, w)) & !reached[w.0 as usize];
                    if advanced != 0 {
                        advances += 1;
                        reached[w.0 as usize] |= advanced;
                        if reached[v.0 as usize] == mask {
                            return ControlFlow::Break(());
                        }
                        queue.push_back(w);
                    }
                    ControlFlow::Continue(())
                });
                if flow.is_break() {
                    break 'fixpoint mask;
                }
            }
            reached[v.0 as usize]
        };
        faultnet_obs::count("trial_batch.conditioning_calls", 1);
        faultnet_obs::count("trial_batch.fixpoint_pops", pops);
        faultnet_obs::count("trial_batch.word_advances", advances);
        result
    }
}

/// A read-only [`EdgeStates`] view of one lane of a [`TrialBatch`]: each
/// `is_open` query is a single bit read from the transposed store.
///
/// Like [`crate::BitsetSample`] (and unlike the lazy sampler), edges not in
/// the topology report closed. Routing over a lane view is therefore
/// equivalent to routing over the lane's scalar sample: the probe engine
/// rejects non-edge probes before they reach the state oracle, and on real
/// edges the bit equals the scalar producer by construction.
#[derive(Debug, Clone, Copy)]
pub struct LaneView<'b, 'g, T: ?Sized> {
    batch: &'b TrialBatch<'g, T>,
    lane: usize,
}

impl<'b, 'g, T: ?Sized> LaneView<'b, 'g, T> {
    /// The batch this view reads from.
    pub fn batch(&self) -> &'b TrialBatch<'g, T> {
        self.batch
    }

    /// The lane index this view extracts.
    pub fn lane(&self) -> usize {
        self.lane
    }
}

impl<T: Topology + ?Sized> EdgeStates for LaneView<'_, '_, T> {
    fn is_open(&self, edge: EdgeId) -> bool {
        self.batch.edge_word(edge) >> self.lane & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::ComponentCensus;
    use crate::sample::{BitsetSample, FrozenSample};
    use faultnet_topology::{hypercube::Hypercube, mesh::Mesh};

    #[test]
    fn clamp_lanes_rules() {
        assert_eq!(clamp_lanes(1), 1);
        assert_eq!(clamp_lanes(63), 63);
        assert_eq!(clamp_lanes(64), 64);
        assert_eq!(clamp_lanes(65), 64);
        assert_eq!(clamp_lanes(200), 64);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "'batching off' sentinel"))]
    fn clamp_lanes_rejects_the_off_sentinel() {
        // 0 is the CLI's "off" sentinel: callers must dispatch to the scalar
        // engine, not let the clamp silently turn "scalar requested" into
        // "batched with 1 lane". Debug builds (and therefore the test suite)
        // panic; release builds degrade to the old clamp-to-1.
        let clamped = clamp_lanes(0);
        // Only reached in release builds, where the debug assert is compiled
        // out and the sentinel degrades to a single lane.
        assert_eq!(clamped, 1);
    }

    #[test]
    #[should_panic(expected = "lane count must be in 1..=64")]
    fn from_config_rejects_zero_lanes() {
        let cube = Hypercube::new(4);
        let _ = TrialBatch::from_config(&cube, &PercolationConfig::new(0.5, 1), 0);
    }

    #[test]
    #[should_panic(expected = "lane count must be in 1..=64")]
    fn from_lane_states_rejects_zero_lanes() {
        let cube = Hypercube::new(4);
        let no_states: Vec<crate::EdgeSampler> = Vec::new();
        let _ = TrialBatch::from_lane_states(&cube, &no_states);
    }

    #[test]
    fn every_lane_matches_its_scalar_trial() {
        let cube = Hypercube::new(5);
        let cfg = PercolationConfig::new(0.45, 900);
        let batch = TrialBatch::from_config(&cube, &cfg, 64);
        for lane in 0..64 {
            let scalar = BitsetSample::from_config(&cube, &cfg.with_seed(900 + lane as u64));
            let view = batch.lane_view(lane);
            for e in cube.edges() {
                assert_eq!(view.is_open(e), scalar.is_open(e), "lane {lane}, edge {e}");
            }
            assert_eq!(batch.lane_open_count(lane), scalar.num_open());
        }
    }

    #[test]
    fn lane_mask_and_ragged_tail_bits_are_zero() {
        let mesh = Mesh::new(2, 4);
        let cfg = PercolationConfig::new(0.9, 3);
        for lanes in [1usize, 5, 63, 64] {
            let batch = TrialBatch::from_config(&mesh, &cfg, lanes);
            assert_eq!(batch.lanes(), lanes);
            let mask = batch.lane_mask();
            assert_eq!(mask.count_ones() as usize, lanes);
            for &w in batch.words() {
                assert_eq!(w & !mask, 0, "phantom lane bits set with {lanes} lanes");
            }
        }
    }

    #[test]
    fn connected_lanes_matches_per_lane_census() {
        let cube = Hypercube::new(5);
        let cfg = PercolationConfig::new(0.35, 77);
        let batch = TrialBatch::from_config(&cube, &cfg, 17);
        let u = VertexId(0);
        let v = VertexId(31);
        let conn = batch.connected_lanes(u, v);
        assert_eq!(conn & !batch.lane_mask(), 0);
        for lane in 0..batch.lanes() {
            let view = batch.lane_view(lane);
            let census = ComponentCensus::compute(&cube, &view);
            assert_eq!(
                conn >> lane & 1 == 1,
                census.same_component(u, v),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn connected_lanes_same_vertex_is_all_lanes() {
        let mesh = Mesh::new(2, 3);
        let batch = TrialBatch::from_config(&mesh, &PercolationConfig::new(0.0, 0), 10);
        assert_eq!(
            batch.connected_lanes(VertexId(4), VertexId(4)),
            batch.lane_mask()
        );
    }

    #[test]
    fn non_edges_report_all_lanes_closed() {
        let cube = Hypercube::new(4);
        let batch = TrialBatch::from_config(&cube, &PercolationConfig::new(1.0, 0), 64);
        // {0, 3} differs in two bits: not an edge.
        let non_edge = EdgeId::new(VertexId(0), VertexId(3));
        assert_eq!(batch.edge_word(non_edge), 0);
        assert!(!batch.lane_view(0).is_open(non_edge));
        assert!(batch
            .lane_view(0)
            .is_open(EdgeId::new(VertexId(0), VertexId(1))));
    }

    #[test]
    fn from_lane_states_is_a_pure_relayout() {
        let mesh = Mesh::new(2, 4);
        // Three hand-built lanes: all-closed, one open edge, all-open.
        let all_closed = FrozenSample::new();
        let mut one_open = FrozenSample::new();
        one_open.open_edge(EdgeId::new(VertexId(0), VertexId(1)));
        let all_open = FrozenSample::from_open_edges(mesh.edges());
        let lanes: Vec<&dyn EdgeStates> = vec![&all_closed, &one_open, &all_open];
        let batch = TrialBatch::from_lane_states(&mesh, &lanes);
        assert_eq!(batch.lanes(), 3);
        assert_eq!(batch.lane_open_count(0), 0);
        assert_eq!(batch.lane_open_count(1), 1);
        assert_eq!(batch.lane_open_count(2), mesh.num_edges());
        for e in mesh.edges() {
            assert!(!batch.lane_view(0).is_open(e));
            assert!(batch.lane_view(2).is_open(e));
        }
    }

    #[test]
    fn lane_view_accessors() {
        let cube = Hypercube::new(3);
        let batch = TrialBatch::from_config(&cube, &PercolationConfig::new(0.5, 1), 4);
        let view = batch.lane_view(2);
        assert_eq!(view.lane(), 2);
        assert_eq!(view.batch().lanes(), 4);
        assert_eq!(batch.graph().num_vertices(), 8);
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn zero_lanes_rejected() {
        let cube = Hypercube::new(3);
        let _ = TrialBatch::from_config(&cube, &PercolationConfig::new(0.5, 0), 0);
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn too_many_lanes_rejected() {
        let cube = Hypercube::new(3);
        let _ = TrialBatch::from_config(&cube, &PercolationConfig::new(0.5, 0), 65);
    }

    #[test]
    #[should_panic(expected = "lane")]
    fn out_of_range_lane_view_rejected() {
        let cube = Hypercube::new(3);
        let batch = TrialBatch::from_config(&cube, &PercolationConfig::new(0.5, 0), 2);
        let _ = batch.lane_view(2);
    }
}
