//! Pluggable fault models for *Routing Complexity of Faulty Networks*.
//!
//! The paper — and, until this crate existed, every layer of this workspace —
//! assumes one fault model: every **edge** fails independently with
//! probability `q = 1 - p` (i.i.d. Bernoulli bond percolation). Real networks
//! fail in other ways: routers (vertices) die and take all their links with
//! them, faults cluster in physical regions (a cut cable, a failed rack), and
//! an adversary may place faults to hurt a specific flow. This crate turns
//! the fault model into a first-class, pluggable component:
//!
//! * [`FaultModel`] — the trait. A model is a *pure function* from
//!   `(graph, PercolationConfig, optional routed pair)` to a
//!   [`FaultInstance`], which implements
//!   [`faultnet_percolation::EdgeStates`] and therefore flows unchanged
//!   through the probe engine, the routers, the conditioned-trial harness,
//!   and every dense analytic (materialise with
//!   `BitsetSample::from_states(graph, &instance)`).
//! * [`bernoulli::BernoulliEdges`] — the paper's model; delegates to the
//!   existing lazy [`faultnet_percolation::EdgeSampler`], so the closed-form
//!   `edge_index` bitset path and every recorded number are reproduced
//!   exactly (property-tested across the whole family zoo).
//! * [`bernoulli::BernoulliNodes`] — each *vertex* survives independently
//!   with probability `p`; a failed vertex kills all incident edges. The
//!   router/node-failure model of mesh NoC studies (Safaei & ValadBeigi,
//!   arXiv:1301.5993), realised as a [`NodeMask`] layered over the edge
//!   substrate.
//! * [`correlated::CorrelatedRegions`] — seeded ball-shaped fault clusters:
//!   a few BFS balls of the fault-free graph die wholesale, on top of
//!   background Bernoulli edge faults. Geometric fault correlation on the
//!   mesh/torus/hypercube families.
//! * [`adversarial::AdversarialBudget`] — a non-benign adversary (cf. Lenzen
//!   et al., arXiv:2307.05547) severs a budget of `k` edges, placed greedily
//!   on cut-heavy positions near the routed source–target pair.
//! * [`dynamic`] — the churn seam: [`DynamicFaultModel`] lowers any static
//!   model to an initial instance plus a deterministic fail/repair
//!   [`faultnet_percolation::dynamic::ChurnSchedule`]
//!   ([`FaultModel::churned`], [`FaultModel::resampled`]), feeding the
//!   incremental census that E12 measures over time.
//! * [`trials`] — the one trial loop every Monte-Carlo measurement folds
//!   over ([`trials::run_trials`]), run under the wall-clock knobs of a
//!   [`TrialExec`].
//!
//! # Determinism and thread-splitting contract
//!
//! [`FaultModel::instance`] must be a pure function of
//! `(model parameters, graph, config, pair)`. No interior mutability, no
//! global RNG: two calls with the same inputs yield instances that agree on
//! every edge, and concurrent calls from different worker threads (the
//! trial loop in [`trials`] hands trial `t` the seed `base + t`) are
//! independent. This is the same contract the existing
//! [`faultnet_percolation::EdgeSampler`] obeys, and it is what keeps every
//! [`TrialExec`] bit-identical to sequential measurement for *every* model,
//! not just the Bernoulli one.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;

use faultnet_percolation::sample::{EdgeSampler, EdgeStates};
use faultnet_percolation::PercolationConfig;
use faultnet_topology::{EdgeId, Topology, VertexId};

pub mod adversarial;
pub mod bernoulli;
pub mod correlated;
pub mod dynamic;
pub mod spec;
pub mod trials;

pub use adversarial::AdversarialBudget;
pub use bernoulli::{BernoulliEdges, BernoulliNodes};
pub use correlated::CorrelatedRegions;
pub use dynamic::{Churned, DynamicFaultModel, Resampled};
pub use spec::FaultModelSpec;
pub use trials::TrialExec;

/// A fault model: a deterministic recipe turning `(graph, config, pair)`
/// into one concrete fault instance.
///
/// `config.p()` is the model's *survival* probability knob — retention of
/// edges for [`BernoulliEdges`], of vertices for [`BernoulliNodes`], of
/// background edges for the correlated and adversarial models — and
/// `config.seed()` identifies the instance. `pair` is the source–target pair
/// the caller is about to route, when one exists; models that target a flow
/// (the adversary) read it and fall back to
/// [`Topology::canonical_pair`] when it is absent, all others ignore it.
///
/// # Contract
///
/// `instance` must be a pure function of its inputs (see the crate docs);
/// the workspace's determinism tests call every model from several thread
/// counts and assert bit-identical measurements. An absent pair is not a
/// distinct scenario but a *default*: `instance(graph, config, None)` must
/// equal `instance(graph, config, Some(graph.canonical_pair()))` edge for
/// edge, so pair-free consumers (the giant/connectivity scans) may hoist
/// per-pair work through [`FaultModel::pair_placement`] with the canonical
/// pair and measure exactly what they would have measured with `None`.
/// The property suite asserts this for every model in the registry.
pub trait FaultModel {
    /// Stable, human-readable model name with parameters (used in reports,
    /// tables, and `--fault-model` output).
    fn name(&self) -> String;

    /// Materialises the fault instance identified by `config` on `graph`,
    /// optionally targeting the routed `pair`.
    fn instance(
        &self,
        graph: &dyn Topology,
        config: PercolationConfig,
        pair: Option<(VertexId, VertexId)>,
    ) -> FaultInstance;

    /// The seed-independent part of this model's placement for `pair`,
    /// computed once so a measurement loop can reuse it across trials.
    ///
    /// Most models have none ([`PairPlacement::None`]): their instance
    /// depends on the seed everywhere, so there is nothing to hoist. The
    /// adversary's greedy cut placement, by contrast, is a pure function of
    /// `(graph, pair, budget)` — recomputing it per trial made the
    /// adversarial column the only superlinear one in E11 — so it returns
    /// [`PairPlacement::SeveredEdges`] and the harness pays for the BFS
    /// loop once per measurement instead of once per trial.
    ///
    /// # Contract
    ///
    /// For every `config`:
    /// `instance_from_placement(&pair_placement(graph, pair), graph, config,
    /// pair)` must equal `instance(graph, config, Some(pair))` edge for edge
    /// (the property suite asserts this for every model in the registry).
    fn pair_placement(&self, graph: &dyn Topology, pair: (VertexId, VertexId)) -> PairPlacement {
        let _ = (graph, pair);
        PairPlacement::None
    }

    /// Materialises the instance identified by `config`, reusing a
    /// placement previously computed by [`FaultModel::pair_placement`] for
    /// the same `(graph, pair)`.
    fn instance_from_placement(
        &self,
        placement: &PairPlacement,
        graph: &dyn Topology,
        config: PercolationConfig,
        pair: (VertexId, VertexId),
    ) -> FaultInstance {
        match placement {
            PairPlacement::None => self.instance(graph, config, Some(pair)),
            PairPlacement::SeveredEdges(severed) => {
                FaultInstance::from_sampler(config.sampler()).with_severed_edges(severed.clone())
            }
        }
    }

    /// Whether this model's instances may be packed into the trial-batched
    /// (multispin) store, where lane `l` of a batch starting at seed `s`
    /// materialises `instance(graph, config.with_seed(s + l), pair)`.
    ///
    /// The default is `true`, and every *benign* model qualifies: its
    /// instance is a pure per-seed function, so transposing 64 instances
    /// into one word-per-edge store is a relayout with no cross-lane
    /// interaction (the node-mask and severed-edge overlays only *close*
    /// edges, and they densify per lane like any other `EdgeStates`).
    ///
    /// [`AdversarialBudget`] returns `false`: the worst-case column is the
    /// reference the batched engine is validated against, so it is
    /// deliberately kept on the scalar path — the trial loop runs its
    /// trials scalar, with bit-identical results, which the property suite
    /// asserts.
    fn lane_batchable(&self) -> bool {
        true
    }

    /// Lowers this static model to a [`DynamicFaultModel`]: its instance at
    /// `t = 0`, then fail-stop-with-repair churn at the given per-step
    /// rates (see [`dynamic::Churned`]).
    fn churned(self, fail_rate: f64, repair_rate: f64) -> dynamic::Churned<Self>
    where
        Self: Sized,
    {
        dynamic::Churned::new(self, fail_rate, repair_rate)
    }

    /// Lowers this static model to a [`DynamicFaultModel`] that resamples a
    /// fresh, independent instance every timestep (see
    /// [`dynamic::Resampled`]).
    fn resampled(self) -> dynamic::Resampled<Self>
    where
        Self: Sized,
    {
        dynamic::Resampled::new(self)
    }
}

/// The seed-independent, pair-dependent part of a model's fault placement —
/// what [`FaultModel::pair_placement`] hoists out of the per-trial loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairPlacement {
    /// Nothing reusable: every part of the instance depends on the seed.
    None,
    /// The instance is Bernoulli background faults at `config.p()` with this
    /// fixed severed-edge overlay on top (the adversarial models).
    SeveredEdges(HashSet<EdgeId>),
}

impl<M: FaultModel + ?Sized> FaultModel for &M {
    fn name(&self) -> String {
        (**self).name()
    }

    fn instance(
        &self,
        graph: &dyn Topology,
        config: PercolationConfig,
        pair: Option<(VertexId, VertexId)>,
    ) -> FaultInstance {
        (**self).instance(graph, config, pair)
    }

    fn pair_placement(&self, graph: &dyn Topology, pair: (VertexId, VertexId)) -> PairPlacement {
        (**self).pair_placement(graph, pair)
    }

    fn instance_from_placement(
        &self,
        placement: &PairPlacement,
        graph: &dyn Topology,
        config: PercolationConfig,
        pair: (VertexId, VertexId),
    ) -> FaultInstance {
        (**self).instance_from_placement(placement, graph, config, pair)
    }

    fn lane_batchable(&self) -> bool {
        (**self).lane_batchable()
    }
}

impl<M: FaultModel + ?Sized> FaultModel for Box<M> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn instance(
        &self,
        graph: &dyn Topology,
        config: PercolationConfig,
        pair: Option<(VertexId, VertexId)>,
    ) -> FaultInstance {
        (**self).instance(graph, config, pair)
    }

    fn pair_placement(&self, graph: &dyn Topology, pair: (VertexId, VertexId)) -> PairPlacement {
        (**self).pair_placement(graph, pair)
    }

    fn instance_from_placement(
        &self,
        placement: &PairPlacement,
        graph: &dyn Topology,
        config: PercolationConfig,
        pair: (VertexId, VertexId),
    ) -> FaultInstance {
        (**self).instance_from_placement(placement, graph, config, pair)
    }

    fn lane_batchable(&self) -> bool {
        (**self).lane_batchable()
    }
}

/// Which vertices of one fault instance are dead.
///
/// A bitmask over the dense vertex ids `0 .. num_vertices`. Layered over an
/// edge substrate by [`FaultInstance`]: an edge with a dead endpoint is
/// closed no matter what the substrate says. Out-of-range vertices are
/// reported alive, mirroring how the lazy edge sampler answers for arbitrary
/// `EdgeId`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMask {
    words: Vec<u64>,
    num_vertices: u64,
    dead: u64,
}

impl NodeMask {
    /// A mask over `num_vertices` vertices with every vertex alive.
    pub fn all_alive(num_vertices: u64) -> Self {
        NodeMask {
            words: vec![0u64; num_vertices.div_ceil(64) as usize],
            num_vertices,
            dead: 0,
        }
    }

    /// Marks `v` dead. Returns `true` if it was previously alive.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the mask's vertex range.
    pub fn kill(&mut self, v: VertexId) -> bool {
        assert!(
            v.0 < self.num_vertices,
            "vertex {v} outside the mask's range of {} vertices",
            self.num_vertices
        );
        let word = &mut self.words[(v.0 / 64) as usize];
        let bit = 1u64 << (v.0 % 64);
        let was_alive = *word & bit == 0;
        *word |= bit;
        self.dead += u64::from(was_alive);
        was_alive
    }

    /// Returns `true` if `v` is dead. Out-of-range vertices are alive.
    pub fn is_dead(&self, v: VertexId) -> bool {
        v.0 < self.num_vertices && self.words[(v.0 / 64) as usize] >> (v.0 % 64) & 1 == 1
    }

    /// Number of dead vertices.
    pub fn dead_count(&self) -> u64 {
        self.dead
    }

    /// Number of vertices the mask covers.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }
}

/// One concrete fault instance: a lazy Bernoulli edge sampler plus
/// optional node-death and severed-edge overlays.
///
/// Implements [`EdgeStates`], so it plugs into everything the workspace
/// already has: the probe engine, `connected`, `ComponentCensus`, and
/// `BitsetSample::from_states` (the materialisation point for dense
/// analytics). An edge is open iff the sampler says so **and** neither
/// endpoint is dead **and** the adversary has not severed it.
///
/// `FaultInstance` owns all of its state (no borrow of the graph), so the
/// harness can hand it to routers as a plain `S: EdgeStates` type parameter.
///
/// # Examples
///
/// ```
/// use faultnet_faultmodel::{BernoulliEdges, FaultModel};
/// use faultnet_percolation::{EdgeStates, PercolationConfig};
/// use faultnet_topology::{hypercube::Hypercube, Topology};
///
/// let cube = Hypercube::new(6);
/// let cfg = PercolationConfig::new(0.5, 7);
/// let instance = BernoulliEdges::new().instance(&cube, cfg, None);
/// // The paper's model through the trait is the existing lazy sampler:
/// let sampler = cfg.sampler();
/// for e in cube.edges() {
///     assert_eq!(instance.is_open(e), sampler.is_open(e));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FaultInstance {
    sampler: EdgeSampler,
    dead: Option<NodeMask>,
    severed: Option<HashSet<EdgeId>>,
}

impl FaultInstance {
    /// An instance over the lazy Bernoulli `sampler`, with no overlay.
    pub fn from_sampler(sampler: EdgeSampler) -> Self {
        FaultInstance {
            sampler,
            dead: None,
            severed: None,
        }
    }

    /// Layers a node-death mask over the sampler: every edge incident to a
    /// dead vertex is closed.
    #[must_use]
    pub fn with_dead_nodes(mut self, mask: NodeMask) -> Self {
        self.dead = Some(mask);
        self
    }

    /// Layers a severed-edge set over the sampler: every listed edge is
    /// closed (the adversary's cuts).
    #[must_use]
    pub fn with_severed_edges(mut self, severed: HashSet<EdgeId>) -> Self {
        self.severed = Some(severed);
        self
    }

    /// The node-death mask, if this instance has one.
    pub fn dead_nodes(&self) -> Option<&NodeMask> {
        self.dead.as_ref()
    }

    /// The severed-edge set, if this instance has one.
    pub fn severed_edges(&self) -> Option<&HashSet<EdgeId>> {
        self.severed.as_ref()
    }

    /// The lazy sampler itself, when this instance is a plain Bernoulli
    /// edge sample with no overlay. It has the same edge states, so a hot
    /// loop can read it directly instead of checking the overlays on every
    /// edge.
    pub fn bare_sampler(&self) -> Option<&EdgeSampler> {
        (self.dead.is_none() && self.severed.is_none()).then_some(&self.sampler)
    }
}

impl EdgeStates for FaultInstance {
    fn is_open(&self, edge: EdgeId) -> bool {
        if let Some(dead) = &self.dead {
            if dead.is_dead(edge.lo()) || dead.is_dead(edge.hi()) {
                return false;
            }
        }
        if let Some(severed) = &self.severed {
            if severed.contains(&edge) {
                return false;
            }
        }
        self.sampler.is_open(edge)
    }
}

/// SplitMix64-style finalizer shared by the models' vertex/center streams.
///
/// Deliberately seeded through different salt constants than the edge
/// sampler's stream, so node faults and edge faults of one seed are
/// decorrelated.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultnet_topology::hypercube::Hypercube;

    fn edge(a: u64, b: u64) -> EdgeId {
        EdgeId::new(VertexId(a), VertexId(b))
    }

    #[test]
    fn node_mask_kill_and_query() {
        let mut mask = NodeMask::all_alive(130);
        assert_eq!(mask.num_vertices(), 130);
        assert_eq!(mask.dead_count(), 0);
        assert!(!mask.is_dead(VertexId(129)));
        assert!(mask.kill(VertexId(129)));
        assert!(!mask.kill(VertexId(129)));
        assert!(mask.is_dead(VertexId(129)));
        assert_eq!(mask.dead_count(), 1);
        // Out-of-range vertices are alive by definition.
        assert!(!mask.is_dead(VertexId(1000)));
    }

    #[test]
    #[should_panic(expected = "outside the mask")]
    fn node_mask_rejects_out_of_range_kill() {
        let mut mask = NodeMask::all_alive(8);
        mask.kill(VertexId(8));
    }

    #[test]
    fn bare_sampler_is_exposed_exactly_for_plain_bernoulli_edges() {
        let cube = Hypercube::new(6);
        let config = PercolationConfig::new(0.5, 9);
        for spec in FaultModelSpec::ALL {
            let instance = spec
                .build()
                .instance(&cube, config, Some(cube.canonical_pair()));
            let Some(sampler) = instance.bare_sampler() else {
                assert_ne!(spec, FaultModelSpec::BernoulliEdges, "{spec}");
                continue;
            };
            assert_eq!(spec, FaultModelSpec::BernoulliEdges);
            for e in cube.edges() {
                assert_eq!(sampler.is_open(e), instance.is_open(e), "{e:?}");
            }
        }
        let plain = || FaultInstance::from_sampler(config.sampler());
        assert!(plain().bare_sampler().is_some());
        assert!(plain()
            .with_dead_nodes(NodeMask::all_alive(64))
            .bare_sampler()
            .is_none());
        assert!(plain()
            .with_severed_edges(HashSet::new())
            .bare_sampler()
            .is_none());
    }

    #[test]
    fn dead_endpoint_closes_edge_regardless_of_substrate() {
        let all_open = PercolationConfig::new(1.0, 0).sampler();
        let mut mask = NodeMask::all_alive(16);
        mask.kill(VertexId(3));
        let instance = FaultInstance::from_sampler(all_open).with_dead_nodes(mask);
        assert!(!instance.is_open(edge(3, 7)));
        assert!(!instance.is_open(edge(1, 3)));
        assert!(instance.is_open(edge(1, 2)));
        assert_eq!(instance.dead_nodes().unwrap().dead_count(), 1);
    }

    #[test]
    fn severed_edge_closes_edge_regardless_of_substrate() {
        let all_open = PercolationConfig::new(1.0, 0).sampler();
        let severed: HashSet<EdgeId> = [edge(0, 1)].into_iter().collect();
        let instance = FaultInstance::from_sampler(all_open).with_severed_edges(severed);
        assert!(!instance.is_open(edge(0, 1)));
        assert!(instance.is_open(edge(0, 2)));
        assert_eq!(instance.severed_edges().unwrap().len(), 1);
    }

    #[test]
    fn fault_model_is_usable_through_references_and_boxes() {
        let cube = Hypercube::new(4);
        let cfg = PercolationConfig::new(0.5, 3);
        let model = BernoulliEdges::new();
        let by_ref: &dyn FaultModel = &model;
        let boxed: Box<dyn FaultModel> = Box::new(BernoulliEdges::new());
        assert_eq!(by_ref.name(), boxed.name());
        for e in cube.edges() {
            assert_eq!(
                by_ref.instance(&cube, cfg, None).is_open(e),
                boxed.instance(&cube, cfg, None).is_open(e)
            );
        }
    }
}
