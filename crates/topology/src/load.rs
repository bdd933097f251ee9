//! Real-world and synthetic substrates for [`ExplicitGraph`].
//!
//! The paper proves its routing bounds for structured families (hypercube,
//! mesh, trees, `G(n,p)`); this module is the on-ramp for the experiment the
//! paper *couldn't* run — the fault-model matrix on real and scale-free
//! topologies. Three pieces:
//!
//! * **A strict-but-forgiving edge-list/CSV parser** ([`parse_edge_list`]):
//!   `#`/`%` comments, blank lines, whitespace/comma/semicolon separators,
//!   duplicate edges (counted once), and self-loops (registered as vertices,
//!   dropped as edges) are all tolerated — raw AS-graph dumps contain every
//!   one of these — while malformed lines (wrong field count) are hard
//!   errors with a line number. Vertex labels are arbitrary tokens, relabeled
//!   onto the dense `0..n` range every [`crate::Topology`] consumer expects.
//! * **Seeded generators** for the structured-but-asymmetric families the
//!   related work measures against: Barabási–Albert preferential attachment
//!   ([`barabasi_albert`]), `k`-ary fat-trees ([`fat_tree`]), and random
//!   `d`-regular graphs ([`random_regular`]). All are pure functions of
//!   their parameters (and seed), like every other family in this crate.
//! * **One bundled real dataset** ([`karate_club`]) and a parseable
//!   substrate-name registry ([`SubstrateSpec`]) through which the query
//!   server and the E13 experiment resolve `explicit:<name>` specs.
//!
//! # Determinism contract
//!
//! Loading is deterministic and *input-order independent*: the dense
//! relabeling sorts the distinct labels (numerically when every label parses
//! as an integer, lexicographically otherwise — so AS numbers order as
//! numbers, not strings), and [`ExplicitGraph::from_edges`] canonicalises
//! adjacency into sorted neighbor order. Permuting or re-orienting the lines
//! of an edge list therefore yields the *identical* graph — same ids, same
//! adjacency, same `edge_index` slots, same rendered bytes downstream.
//! [`emit_edge_list`] round-trips: `parse(emit(g)) == g`, with isolated
//! vertices preserved through the self-loop-registers-a-vertex rule.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::explicit::ExplicitGraph;
use crate::{splitmix64, Topology, VertexId};

/// Seed used by [`SubstrateSpec::build`] for the generated substrates, so a
/// substrate *name* (`"ba-256-3"`) fully determines a graph. Direct calls to
/// the generator functions pick their own seeds.
pub const SUBSTRATE_SEED: u64 = 0xFA17_5EED;

/// Counters describing what [`parse_edge_list`] tolerated while loading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadStats {
    /// Data lines parsed into (possibly duplicate/self-loop) vertex pairs.
    pub pairs: usize,
    /// Self-loop lines skipped as edges (their vertex is still registered).
    pub self_loops: usize,
    /// Duplicate undirected edges beyond the first occurrence.
    pub duplicates: usize,
}

/// A parsed edge list: the dense relabeled graph plus the label table.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedGraph {
    /// The graph on dense vertex ids `0..n`.
    pub graph: ExplicitGraph,
    /// Original label of each dense id, in relabeling order (sorted
    /// numerically when every label is an integer, lexicographically
    /// otherwise).
    pub labels: Vec<String>,
    /// What the parser tolerated along the way.
    pub stats: LoadStats,
}

impl LoadedGraph {
    /// Dense id of an original label, if present.
    pub fn id_of(&self, label: &str) -> Option<VertexId> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| VertexId(i as u64))
    }
}

/// Parses an edge-list/CSV text into a dense [`ExplicitGraph`].
///
/// Per line: `#` or `%` starts a comment (whole-line or trailing), blank
/// lines are skipped, and the remainder must split into exactly two tokens
/// on whitespace, `,`, or `;`. Tokens are arbitrary labels; each distinct
/// label becomes one dense vertex id (see the module docs for the ordering).
/// A self-loop registers its vertex but contributes no edge; duplicate
/// edges (in either orientation) are counted once — the
/// [`ExplicitGraph::from_edges`] contract.
///
/// # Errors
///
/// Returns a message naming the 1-based line number for lines that do not
/// split into exactly two tokens.
///
/// # Examples
///
/// ```
/// use faultnet_topology::{load::parse_edge_list, Topology, VertexId};
///
/// let loaded = parse_edge_list(
///     "# a triangle with a dangling AS and some dirt\n\
///      10 20\n\
///      20, 30  # CSV spelling, trailing comment\n\
///      30 10\n\
///      30 10\n\
///      40 40\n",
/// )
/// .unwrap();
/// assert_eq!(loaded.graph.num_vertices(), 4); // 40 registered by its loop
/// assert_eq!(loaded.graph.num_edges(), 3);
/// assert_eq!(loaded.stats.duplicates, 1);
/// assert_eq!(loaded.stats.self_loops, 1);
/// assert_eq!(loaded.id_of("30"), Some(VertexId(2))); // numeric order
/// ```
pub fn parse_edge_list(text: &str) -> Result<LoadedGraph, String> {
    let mut pairs: Vec<(String, String)> = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        let line = match raw.find(['#', '%']) {
            Some(at) => &raw[..at],
            None => raw,
        };
        let mut tokens = line.split([' ', '\t', ',', ';']).filter(|t| !t.is_empty());
        let (Some(a), b) = (tokens.next(), tokens.next()) else {
            continue; // blank or comment-only line
        };
        let Some(b) = b else {
            return Err(format!(
                "line {}: expected two vertex labels, got one ({a:?})",
                index + 1
            ));
        };
        if let Some(extra) = tokens.next() {
            return Err(format!(
                "line {}: expected two vertex labels, got more ({extra:?} after {a:?} {b:?})",
                index + 1
            ));
        }
        pairs.push((a.to_string(), b.to_string()));
    }
    Ok(relabel(pairs))
}

/// Relabels raw label pairs onto dense ids and builds the graph.
fn relabel(pairs: Vec<(String, String)>) -> LoadedGraph {
    let mut labels: Vec<String> = pairs
        .iter()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect();
    labels.sort_unstable();
    labels.dedup();
    // Numeric relabeling order when every label is an integer; ties between
    // distinct spellings of the same value ("07" vs "7") break on the
    // string, so the order is total and deterministic either way.
    if labels.iter().all(|l| l.parse::<u64>().is_ok()) {
        labels.sort_by_key(|l| (l.parse::<u64>().expect("checked above"), l.clone()));
    }
    let index: HashMap<&str, u64> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| (l.as_str(), i as u64))
        .collect();
    let mut stats = LoadStats {
        pairs: pairs.len(),
        ..LoadStats::default()
    };
    let mut edges: Vec<(u64, u64)> = Vec::with_capacity(pairs.len());
    for (a, b) in &pairs {
        let (u, v) = (index[a.as_str()], index[b.as_str()]);
        if u == v {
            stats.self_loops += 1;
        } else {
            edges.push((u.min(v), u.max(v)));
        }
    }
    edges.sort_unstable();
    let before = edges.len();
    edges.dedup();
    stats.duplicates = before - edges.len();
    LoadedGraph {
        graph: ExplicitGraph::from_edges(labels.len() as u64, edges),
        labels,
        stats,
    }
}

/// Renders `graph` as an edge list that [`parse_edge_list`] round-trips:
/// `parse_edge_list(&emit_edge_list(&g)).unwrap().graph == g` for any graph
/// built by [`ExplicitGraph::from_edges`].
///
/// Vertices are written as their decimal dense ids; isolated vertices are
/// preserved as self-loop lines (which the parser registers as vertices and
/// skips as edges), and edges follow in canonical sorted order.
pub fn emit_edge_list(graph: &ExplicitGraph) -> String {
    let mut out = format!(
        "# faultnet edge list: {} vertices, {} edges\n",
        graph.num_vertices(),
        graph.num_edges()
    );
    for v in graph.vertices() {
        if graph.degree(v) == 0 {
            out.push_str(&format!("{} {}\n", v.0, v.0));
        }
    }
    for e in graph.edges() {
        out.push_str(&format!("{} {}\n", e.lo().0, e.hi().0));
    }
    out
}

/// Zachary's karate-club friendship network (34 members, 78 ties; Zachary
/// 1977) — the bundled real dataset, shipped as a raw 1-indexed edge list
/// under `crates/topology/data/` and loaded through [`parse_edge_list`].
/// Member `i` of the published dataset is dense vertex `i - 1`; the two
/// hubs (instructor, president) are vertices 0 and 33.
pub fn karate_club() -> LoadedGraph {
    let mut loaded = parse_edge_list(include_str!("../data/karate.edges"))
        .expect("bundled karate.edges must parse");
    loaded.graph.set_label(SubstrateSpec::Karate.graph_name());
    loaded
}

/// Barabási–Albert preferential attachment: starts from a complete graph on
/// `m + 1` vertices, then each new vertex attaches `m` edges to distinct
/// existing vertices chosen with probability proportional to their degree
/// (the repeated-endpoints urn). Produces the scale-free degree sequence —
/// a few high-degree hubs over a power-law tail — that real AS graphs
/// exhibit and the paper's symmetric families never do.
///
/// Deterministic in `(n, m, seed)`.
///
/// # Panics
///
/// Panics unless `1 <= m` and `m + 1 <= n`.
pub fn barabasi_albert(n: u64, m: u64, seed: u64) -> ExplicitGraph {
    assert!(m >= 1, "attachment count m must be at least 1");
    assert!(n > m, "need n > m (n = {n}, m = {m})");
    let mut state = seed ^ 0xBA5E_BA11_0000_0000;
    let mut edges: Vec<(u64, u64)> = Vec::new();
    // The urn: one entry per edge endpoint, so sampling uniformly from it is
    // degree-proportional sampling.
    let mut urn: Vec<u64> = Vec::new();
    for a in 0..=m {
        for b in (a + 1)..=m {
            edges.push((a, b));
            urn.push(a);
            urn.push(b);
        }
    }
    let mut chosen: Vec<u64> = Vec::with_capacity(m as usize);
    for v in (m + 1)..n {
        chosen.clear();
        while (chosen.len() as u64) < m {
            let target = urn[(splitmix64(&mut state) % urn.len() as u64) as usize];
            if !chosen.contains(&target) {
                chosen.push(target);
            }
        }
        for &target in &chosen {
            edges.push((target, v));
            urn.push(target);
            urn.push(v);
        }
    }
    let mut graph = ExplicitGraph::from_edges(n, edges);
    graph.set_label(SubstrateSpec::BarabasiAlbert { n, m }.graph_name());
    graph
}

/// The `k`-ary fat-tree of Al-Fares et al. (SIGCOMM 2008): `(k/2)²` core
/// switches, `k` pods of `k/2` aggregation + `k/2` edge switches, and `k/2`
/// hosts per edge switch (`k³/4` hosts; `5k²/4` switches; `3k³/4` links).
///
/// Vertex numbering (deterministic): cores first (`j·k/2 + i` connects to
/// aggregation slot `j` of every pod), then per pod its aggregation then
/// edge switches, then all hosts. Hosts have degree 1 — the
/// degree-heterogeneity that makes adversarial and node-fault models behave
/// qualitatively differently here than on any symmetric family.
///
/// # Panics
///
/// Panics unless `k` is even and `k >= 2`.
pub fn fat_tree(k: u64) -> ExplicitGraph {
    assert!(
        k >= 2 && k % 2 == 0,
        "fat-tree arity k must be even, got {k}"
    );
    let half = k / 2;
    let cores = half * half;
    let switches = cores + k * k; // cores + k pods × (half agg + half edge)
    let n = switches + k * half * half; // + hosts
    let agg = |pod: u64, j: u64| cores + pod * k + j;
    let edge_switch = |pod: u64, e: u64| cores + pod * k + half + e;
    let host = |pod: u64, e: u64, h: u64| switches + (pod * half + e) * half + h;
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for pod in 0..k {
        for j in 0..half {
            // Aggregation slot j uplinks to core row j.
            for i in 0..half {
                edges.push((j * half + i, agg(pod, j)));
            }
            // Complete bipartite aggregation × edge inside the pod.
            for e in 0..half {
                edges.push((agg(pod, j), edge_switch(pod, e)));
            }
        }
        for e in 0..half {
            for h in 0..half {
                edges.push((edge_switch(pod, e), host(pod, e, h)));
            }
        }
    }
    let mut graph = ExplicitGraph::from_edges(n, edges);
    graph.set_label(SubstrateSpec::FatTree { k }.graph_name());
    graph
}

/// A random `d`-regular graph: a deterministic circulant seed graph
/// (offsets `1..=d/2`, plus the antipodal offset for odd `d`) randomised by
/// seeded double-edge switches — the standard switching chain, each switch
/// rejected if it would create a self-loop or parallel edge, so the graph
/// stays simple and exactly `d`-regular throughout. `8·|E|` accepted-or-
/// rejected switch attempts are performed, enough to decorrelate the
/// circulant structure at these scales.
///
/// Deterministic in `(n, d, seed)`.
///
/// # Panics
///
/// Panics unless `1 <= d < n` and `n·d` is even (no `d`-regular graph
/// exists otherwise).
pub fn random_regular(n: u64, d: u64, seed: u64) -> ExplicitGraph {
    assert!(d >= 1, "degree d must be at least 1");
    assert!(d < n, "need d < n (n = {n}, d = {d})");
    assert!(
        n * d % 2 == 0,
        "no d-regular graph on n vertices when n·d is odd"
    );
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for v in 0..n {
        for offset in 1..=(d / 2) {
            edges.push((v, (v + offset) % n));
        }
    }
    if d % 2 == 1 {
        // n is even here (n·d even with d odd); add the perfect antipodal
        // matching once.
        for v in 0..n / 2 {
            edges.push((v, v + n / 2));
        }
    }
    let canonical = |a: u64, b: u64| (a.min(b), a.max(b));
    let mut edge_set: HashSet<(u64, u64), BuildHasherDefault<EdgeHasher>> =
        edges.iter().map(|&(a, b)| canonical(a, b)).collect();
    let mut list: Vec<(u64, u64)> = edge_set.iter().copied().collect();
    list.sort_unstable();
    let mut state = seed ^ 0x0DD0_5EED_0000_0000;
    for _ in 0..8 * list.len() {
        let i = (splitmix64(&mut state) % list.len() as u64) as usize;
        let j = (splitmix64(&mut state) % list.len() as u64) as usize;
        if i == j {
            continue;
        }
        let (a, b) = list[i];
        let (c, e) = list[j];
        // Orient the second edge randomly so both rewirings are reachable.
        let (c, e) = if splitmix64(&mut state) & 1 == 0 {
            (c, e)
        } else {
            (e, c)
        };
        // Propose {a,b},{c,e} -> {a,e},{c,b}.
        if a == e || c == b {
            continue;
        }
        let (new1, new2) = (canonical(a, e), canonical(c, b));
        if edge_set.contains(&new1) || edge_set.contains(&new2) || new1 == new2 {
            continue;
        }
        edge_set.remove(&canonical(a, b));
        edge_set.remove(&canonical(c, e));
        edge_set.insert(new1);
        edge_set.insert(new2);
        list[i] = new1;
        list[j] = new2;
    }
    let mut graph = ExplicitGraph::from_edges(n, list);
    graph.set_label(SubstrateSpec::Regular { n, d }.graph_name());
    graph
}

/// A fixed multiply-rotate hasher (the FxHash step) for the switch chain's
/// edge set. The set only answers membership, and the edge list is sorted
/// before the chain runs, so the hash function reaches no output; a fixed
/// one just skips SipHash's per-lookup cost and its random keys.
#[derive(Default)]
struct EdgeHasher(u64);

impl Hasher for EdgeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// A named substrate: the parseable registry behind `explicit:<name>`
/// specs (the query server's `family` field and the E13 experiment's
/// substrate lists both resolve through it).
///
/// Grammar, with the caps that keep one name from requesting an unbounded
/// build: `karate` | `ba-<n>-<m>` (`n <= 65536`, `m <= 8`) |
/// `fattree-<k>` (`k` even, `<= 24`) | `regular-<n>-<d>` (`n <= 65536`,
/// `d <= 16`). Generated substrates use the fixed [`SUBSTRATE_SEED`], so a
/// name is a pure description of one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubstrateSpec {
    /// The bundled Zachary karate-club network.
    Karate,
    /// Barabási–Albert preferential attachment.
    BarabasiAlbert {
        /// Vertex count (`m + 1 ..= 65536`).
        n: u64,
        /// Edges attached per new vertex (`1..=8`).
        m: u64,
    },
    /// `k`-ary fat-tree.
    FatTree {
        /// Arity (even, `2..=24`).
        k: u64,
    },
    /// Random `d`-regular graph.
    Regular {
        /// Vertex count (`2..=65536`).
        n: u64,
        /// Degree (`1..=16`, `d < n`, `n·d` even).
        d: u64,
    },
}

impl SubstrateSpec {
    /// Every bundled-or-default substrate the E13 experiment measures at
    /// full effort, in canonical report order.
    pub const E13_FULL: [SubstrateSpec; 4] = [
        SubstrateSpec::Karate,
        SubstrateSpec::BarabasiAlbert { n: 1024, m: 3 },
        SubstrateSpec::FatTree { k: 8 },
        SubstrateSpec::Regular { n: 512, d: 4 },
    ];

    /// Reduced-size counterparts of [`SubstrateSpec::E13_FULL`] for quick
    /// runs (seconds), same families in the same order.
    pub const E13_QUICK: [SubstrateSpec; 4] = [
        SubstrateSpec::Karate,
        SubstrateSpec::BarabasiAlbert { n: 64, m: 2 },
        SubstrateSpec::FatTree { k: 4 },
        SubstrateSpec::Regular { n: 64, d: 4 },
    ];

    /// Parses a substrate name (the part after `explicit:`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the expected grammar for unknown names and
    /// the violated cap for out-of-range parameters.
    ///
    /// # Examples
    ///
    /// ```
    /// use faultnet_topology::load::SubstrateSpec;
    ///
    /// assert_eq!(SubstrateSpec::parse("karate"), Ok(SubstrateSpec::Karate));
    /// assert_eq!(
    ///     SubstrateSpec::parse("ba-256-3"),
    ///     Ok(SubstrateSpec::BarabasiAlbert { n: 256, m: 3 })
    /// );
    /// assert!(SubstrateSpec::parse("ba-256-99").is_err());
    /// ```
    pub fn parse(name: &str) -> Result<SubstrateSpec, String> {
        let grammar = "valid substrates: karate, ba-<n>-<m>, fattree-<k>, regular-<n>-<d>";
        if name == "karate" {
            return Ok(SubstrateSpec::Karate);
        }
        let mut parts = name.split('-');
        let kind = parts.next().unwrap_or_default();
        let mut number = |what: &str| -> Result<u64, String> {
            parts
                .next()
                .ok_or(format!("substrate {name:?} is missing {what}; {grammar}"))?
                .parse::<u64>()
                .map_err(|_| format!("substrate {name:?} has a non-integer {what}; {grammar}"))
        };
        let spec = match kind {
            "ba" => SubstrateSpec::BarabasiAlbert {
                n: number("<n>")?,
                m: number("<m>")?,
            },
            "fattree" => SubstrateSpec::FatTree { k: number("<k>")? },
            "regular" => SubstrateSpec::Regular {
                n: number("<n>")?,
                d: number("<d>")?,
            },
            _ => return Err(format!("unknown substrate {name:?}; {grammar}")),
        };
        if parts.next().is_some() {
            return Err(format!("substrate {name:?} has trailing parts; {grammar}"));
        }
        match spec {
            SubstrateSpec::Karate => unreachable!("handled above"),
            SubstrateSpec::BarabasiAlbert { n, m } => {
                if !(1..=8).contains(&m) {
                    return Err(format!("ba m must be 1..=8, got {m}"));
                }
                if !((m + 1)..=65536).contains(&n) {
                    return Err(format!("ba n must be {}..=65536, got {n}", m + 1));
                }
            }
            SubstrateSpec::FatTree { k } => {
                if !(2..=24).contains(&k) || k % 2 != 0 {
                    return Err(format!("fattree k must be even and 2..=24, got {k}"));
                }
            }
            SubstrateSpec::Regular { n, d } => {
                if !(1..=16).contains(&d) {
                    return Err(format!("regular d must be 1..=16, got {d}"));
                }
                if !(2..=65536).contains(&n) || d >= n {
                    return Err(format!("regular n must be d+1..=65536, got {n}"));
                }
                if n * d % 2 != 0 {
                    return Err(format!(
                        "no {d}-regular graph on {n} vertices exists (n·d is odd)"
                    ));
                }
            }
        }
        Ok(spec)
    }

    /// The canonical name this spec parses back from.
    pub fn canonical_name(&self) -> String {
        match self {
            SubstrateSpec::Karate => "karate".to_string(),
            SubstrateSpec::BarabasiAlbert { n, m } => format!("ba-{n}-{m}"),
            SubstrateSpec::FatTree { k } => format!("fattree-{k}"),
            SubstrateSpec::Regular { n, d } => format!("regular-{n}-{d}"),
        }
    }

    /// Materialises the substrate (generated ones at [`SUBSTRATE_SEED`]).
    pub fn build(&self) -> ExplicitGraph {
        match *self {
            SubstrateSpec::Karate => karate_club().graph,
            SubstrateSpec::BarabasiAlbert { n, m } => barabasi_albert(n, m, SUBSTRATE_SEED),
            SubstrateSpec::FatTree { k } => fat_tree(k),
            SubstrateSpec::Regular { n, d } => random_regular(n, d, SUBSTRATE_SEED),
        }
    }

    /// Number of vertices the built graph will have, without building it
    /// (cheap validation for servers deciding whether to accept a query).
    pub fn num_vertices(&self) -> u64 {
        match *self {
            SubstrateSpec::Karate => 34,
            SubstrateSpec::BarabasiAlbert { n, .. } => n,
            SubstrateSpec::FatTree { k } => {
                let half = k / 2;
                half * half + k * k + k * half * half
            }
            SubstrateSpec::Regular { n, .. } => n,
        }
    }

    /// The built graph's [`Topology::canonical_pair`], without building
    /// it: an explicit graph keeps the default `(0, n − 1)`.
    pub fn canonical_pair(&self) -> (VertexId, VertexId) {
        (VertexId(0), VertexId(self.num_vertices() - 1))
    }

    /// The built graph's [`Topology::name`] (`ba(n=65536,m=8)`), without
    /// building it; the generators label their graphs with it.
    pub fn graph_name(&self) -> String {
        match *self {
            SubstrateSpec::Karate => format!("karate(n={})", self.num_vertices()),
            SubstrateSpec::BarabasiAlbert { n, m } => format!("ba(n={n},m={m})"),
            SubstrateSpec::FatTree { k } => format!("fattree(k={k})"),
            SubstrateSpec::Regular { n, d } => format!("regular(n={n},d={d})"),
        }
    }
}

impl std::fmt::Display for SubstrateSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.canonical_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_topology_invariants;

    #[test]
    fn karate_club_matches_the_published_shape() {
        let loaded = karate_club();
        let g = &loaded.graph;
        assert_eq!(g.num_vertices(), 34);
        assert_eq!(g.num_edges(), 78);
        // Member i is dense vertex i-1 (numeric relabeling of 1..34).
        assert_eq!(loaded.id_of("1"), Some(VertexId(0)));
        assert_eq!(loaded.id_of("34"), Some(VertexId(33)));
        assert_eq!(loaded.labels[16], "17");
        // The two hubs: instructor degree 16, president degree 17.
        assert_eq!(g.degree(VertexId(0)), 16);
        assert_eq!(g.degree(VertexId(33)), 17);
        assert_eq!(g.max_degree(), 17);
        // The raw file is clean (no dirt beyond comments).
        assert_eq!(loaded.stats.self_loops, 0);
        assert_eq!(loaded.stats.duplicates, 0);
        check_topology_invariants(g);
    }

    #[test]
    fn parser_is_line_order_independent() {
        let forward = "1 2\n2 3\n3 1\n";
        let backward = "3,1\n3;2\n2\t1\n";
        let a = parse_edge_list(forward).unwrap();
        let b = parse_edge_list(backward).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn parser_orders_numeric_labels_numerically() {
        let loaded = parse_edge_list("2 10\n10 100\n").unwrap();
        assert_eq!(loaded.labels, vec!["2", "10", "100"]);
        // Lexicographic order would have put "10" first.
        let mixed = parse_edge_list("2 10\nalpha 10\n").unwrap();
        assert_eq!(mixed.labels, vec!["10", "2", "alpha"]);
    }

    #[test]
    fn parser_rejects_malformed_lines_with_a_line_number() {
        let err = parse_edge_list("1 2\nonly_one\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse_edge_list("1 2 3\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn empty_input_loads_an_empty_graph() {
        let loaded = parse_edge_list("# nothing but comments\n\n% and one more\n").unwrap();
        assert_eq!(loaded.graph.num_vertices(), 0);
        assert_eq!(loaded.graph.num_edges(), 0);
    }

    #[test]
    fn emit_preserves_isolated_vertices() {
        let g = ExplicitGraph::from_edges(4, [(1, 3)]);
        let text = emit_edge_list(&g);
        let back = parse_edge_list(&text).unwrap();
        assert_eq!(back.graph, g);
        assert_eq!(back.graph.degree(VertexId(0)), 0);
        assert_eq!(back.stats.self_loops, 2); // 0 and 2 travelled as loops
    }

    #[test]
    fn barabasi_albert_has_the_expected_counts_and_hubs() {
        let g = barabasi_albert(200, 3, 7);
        assert_eq!(g.num_vertices(), 200);
        // Initial K_4 plus 3 edges per later vertex.
        assert_eq!(g.num_edges(), 6 + (200 - 4) * 3);
        // Preferential attachment concentrates degree: some hub must be far
        // above the m = 3 floor.
        assert!(g.max_degree() >= 12, "max degree {}", g.max_degree());
        assert_eq!(g.name(), "ba(n=200,m=3)");
        check_topology_invariants(&g);
        // Deterministic in the seed, different across seeds.
        assert_eq!(g, barabasi_albert(200, 3, 7));
        assert_ne!(g, barabasi_albert(200, 3, 8));
    }

    #[test]
    fn fat_tree_matches_the_al_fares_counts() {
        let g = fat_tree(4);
        // (k/2)² cores + k² pod switches + k³/4 hosts = 4 + 16 + 16.
        assert_eq!(g.num_vertices(), 36);
        assert_eq!(g.num_edges(), 48); // 3k³/4
                                       // Cores and aggregation/edge switches have degree k; hosts degree 1.
        assert_eq!(g.degree(VertexId(0)), 4);
        assert_eq!(g.degree(VertexId(35)), 1);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.name(), "fattree(k=4)");
        check_topology_invariants(&g);
    }

    #[test]
    fn random_regular_is_exactly_regular_and_seeded() {
        for (n, d, seed) in [(24u64, 3u64, 1u64), (50, 4, 2), (33, 6, 3)] {
            let g = random_regular(n, d, seed);
            assert_eq!(g.num_vertices(), n);
            assert_eq!(g.num_edges(), n * d / 2);
            for v in g.vertices() {
                assert_eq!(g.degree(v), d as usize, "n={n} d={d} at {v}");
            }
            check_topology_invariants(&g);
            assert_eq!(g, random_regular(n, d, seed));
        }
        // The switching chain actually moved off the circulant seed graph.
        let circulant_edge = |g: &ExplicitGraph| g.has_edge(VertexId(0), VertexId(1));
        let moved = (0..8u64).any(|s| !circulant_edge(&random_regular(64, 4, s)));
        assert!(moved, "double-edge switches never rewired edge (0, 1)");
    }

    #[test]
    #[should_panic(expected = "n·d is odd")]
    fn random_regular_rejects_impossible_degree_sequences() {
        let _ = random_regular(5, 3, 0);
    }

    #[test]
    fn substrate_specs_round_trip_their_names() {
        for spec in SubstrateSpec::E13_FULL
            .iter()
            .chain(SubstrateSpec::E13_QUICK.iter())
        {
            assert_eq!(SubstrateSpec::parse(&spec.canonical_name()), Ok(*spec));
            assert_eq!(spec.to_string(), spec.canonical_name());
        }
    }

    #[test]
    fn substrate_parse_enforces_the_caps() {
        for bad in [
            "petersen",
            "ba-256",
            "ba-256-99",
            "ba-2-3",
            "ba-999999-3",
            "fattree-3",
            "fattree-26",
            "regular-10-20",
            "regular-5-3",
            "regular-256-0",
            "ba-256-3-7",
            "ba-x-3",
        ] {
            assert!(SubstrateSpec::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    /// The query server resolves pairs and names from these closed forms
    /// and builds a graph only on a cache miss, so each one must equal what
    /// the built graph reports: the E13 specs, the sizes the server's
    /// benchmark mix asks for, and the smallest spec of every family.
    #[test]
    fn substrate_num_vertices_predicts_the_build() {
        let named = [
            "ba-65536-8",
            "regular-12288-8",
            "regular-4-1",
            "regular-2-1",
            "regular-5-2",
            "ba-2-1",
            "ba-9-8",
            "fattree-2",
        ]
        .map(|name| SubstrateSpec::parse(name).unwrap());
        for spec in SubstrateSpec::E13_FULL
            .iter()
            .chain(&SubstrateSpec::E13_QUICK)
            .chain(&named)
        {
            let graph = spec.build();
            assert_eq!(spec.num_vertices(), graph.num_vertices(), "{spec}");
            assert_eq!(spec.canonical_pair(), graph.canonical_pair(), "{spec}");
            assert_eq!(spec.graph_name(), graph.name(), "{spec}");
        }
    }
}
