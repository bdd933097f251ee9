//! Query parsing, validation, and canonicalization.
//!
//! A query names a point in the paper's measurement space — `(family,
//! params, fault model, p, seed, trials, pair, metric)` — and every answer
//! is a pure function of that point (the workspace determinism contract:
//! trial `t` reads seed `seed + t` and nothing else). Canonicalization is
//! what turns that purity into cacheability: [`Query::canonical_key`]
//! renders the *resolved* query (defaults filled, pair made explicit) into
//! one fixed field order, so two requests that differ only in JSON
//! whitespace, field order, or elided defaults map to the same cache slot
//! and the same coalesced flight.
//!
//! Resolving the pair needs no graph: every family answers its vertex
//! count, canonical pair and name in closed form ([`Query::resolve_pair`]),
//! so the service finds a cache hit before it builds anything.

use faultnet_faultmodel::FaultModelSpec;
use faultnet_topology::complete::CompleteGraph;
use faultnet_topology::double_tree::DoubleBinaryTree;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::load::SubstrateSpec;
use faultnet_topology::mesh::Mesh;
use faultnet_topology::{Topology, VertexId};

use crate::json::Json;

/// Ceiling on a query's vertex count, so one request cannot ask the server
/// to materialise an arbitrarily large graph (2²¹ vertices ≈ the n = 21
/// hypercube, comfortably above every experiment scale in the repo).
pub const MAX_VERTICES: u64 = 1 << 21;

/// Ceiling on per-query trials (the fan-out the coalescer batches).
pub const MAX_TRIALS: u32 = 4096;

/// The graph family a query addresses, with its size parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `n`-dimensional hypercube (the paper's primary substrate).
    Hypercube {
        /// Dimension; vertices are `2^n`.
        n: u32,
    },
    /// `dim`-dimensional mesh with `side` vertices per axis.
    Mesh {
        /// Number of axes (1..=4).
        dim: u32,
        /// Vertices per axis (>= 2).
        side: u64,
    },
    /// Complete graph on `order` vertices.
    Complete {
        /// Number of vertices (2..=2048; edges grow quadratically).
        order: u64,
    },
    /// Double binary tree of the given depth (the Lemma 5 substrate).
    DoubleTree {
        /// Tree depth (1..=18).
        depth: u32,
    },
    /// A named real-world/synthetic substrate (`"explicit:<name>"`),
    /// resolved through [`SubstrateSpec`]: the bundled karate-club dataset
    /// or a deterministic generated graph (`ba-<n>-<m>`, `fattree-<k>`,
    /// `regular-<n>-<d>`). The spec is validated at parse time and
    /// materialised into an explicit graph at build time.
    Explicit(SubstrateSpec),
}

impl Family {
    /// The family's wire-name *prefix* (the `"family"` field value; for
    /// explicit substrates the full wire form is `"explicit:<name>"` — kept
    /// out of this `&'static str` so per-family metrics stay bounded at one
    /// `"explicit"` bucket however many substrate names clients invent).
    pub fn wire_name(&self) -> &'static str {
        match self {
            Family::Hypercube { .. } => "hypercube",
            Family::Mesh { .. } => "mesh",
            Family::Complete { .. } => "complete",
            Family::DoubleTree { .. } => "double-tree",
            Family::Explicit(_) => "explicit",
        }
    }

    /// The full wire form: [`Family::wire_name`] for the closed-form
    /// families, `"explicit:<name>"` for substrates. This is what
    /// [`Query::canonical_key`] and [`Query::census_key`] embed.
    pub fn wire_form(&self) -> String {
        match self {
            Family::Explicit(spec) => format!("explicit:{}", spec.canonical_name()),
            other => other.wire_name().to_string(),
        }
    }
}

/// Evaluates `$body` with `$g` bound to the family's topology, for the
/// families whose topology stores only its parameters (constructing one is
/// free), or `$explicit` with `$spec` bound to the substrate spec, which
/// answers the same questions in closed form without building the graph.
macro_rules! with_closed_form {
    ($family:expr, $g:ident => $body:expr, $spec:ident => $explicit:expr) => {
        match *$family {
            Family::Hypercube { n } => {
                let $g = Hypercube::new(n);
                $body
            }
            Family::Mesh { dim, side } => {
                let $g = Mesh::new(dim, side);
                $body
            }
            Family::Complete { order } => {
                let $g = CompleteGraph::new(order);
                $body
            }
            Family::DoubleTree { depth } => {
                let $g = DoubleBinaryTree::new(depth);
                $body
            }
            Family::Explicit($spec) => $explicit,
        }
    };
}

impl Family {
    /// Vertex count of the family's graph, without building it.
    pub(crate) fn num_vertices(&self) -> u64 {
        with_closed_form!(self, g => g.num_vertices(), spec => spec.num_vertices())
    }

    /// The graph's [`Topology::canonical_pair`], without building it.
    pub(crate) fn canonical_pair(&self) -> (VertexId, VertexId) {
        with_closed_form!(self, g => g.canonical_pair(), spec => spec.canonical_pair())
    }

    /// The graph's [`Topology::name`], without building it.
    pub(crate) fn graph_name(&self) -> String {
        with_closed_form!(self, g => g.name(), spec => spec.graph_name())
    }
}

/// What the query asks to be measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Routing complexity of the flooding router between the pair:
    /// conditioned trials, success rate, and the probe-count distribution.
    Probes,
    /// Single-instance connectivity structure at the query seed: component
    /// census plus whether the pair is connected.
    Connectivity,
}

impl Metric {
    /// The metric's wire name (the `"metric"` field value).
    pub fn wire_name(&self) -> &'static str {
        match self {
            Metric::Probes => "probes",
            Metric::Connectivity => "connectivity",
        }
    }
}

/// A validated query, defaults resolved (the pair stays as sent;
/// [`Query::resolve_pair`] makes it explicit).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Graph family and size.
    pub family: Family,
    /// Fault model (default `bernoulli-edges`).
    pub fault_model: FaultModelSpec,
    /// Per-edge survival probability in `[0, 1]`.
    pub p: f64,
    /// Base seed; trial `t` uses `seed + t` (default 42).
    pub seed: u64,
    /// Trial fan-out for the probes metric, `1..=MAX_TRIALS` (default 24).
    pub trials: u32,
    /// Source/destination pair; `None` means the family's canonical pair.
    pub pair: Option<(u64, u64)>,
    /// What to measure (default `probes`).
    pub metric: Metric,
}

impl Query {
    /// Parses and validates a query from a JSON tree.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field for unknown families or
    /// metrics, missing or out-of-range parameters, and size caps.
    pub fn from_json(json: &Json) -> Result<Query, String> {
        let family_name = json.get("family").and_then(Json::as_str).ok_or(
            "missing \"family\" (hypercube | mesh | complete | double-tree | explicit:<name>)",
        )?;
        let n = || {
            json.get("n")
                .and_then(Json::as_u64)
                .ok_or("missing or non-integer \"n\"")
        };
        let family = match family_name {
            "hypercube" => {
                let n = n()?;
                if !(1..=21).contains(&n) {
                    return Err(format!("hypercube n must be 1..=21, got {n}"));
                }
                Family::Hypercube { n: n as u32 }
            }
            "mesh" => {
                let side = n()?;
                let dim = json.get("dim").map_or(Ok(2), |d| {
                    d.as_u64().ok_or("non-integer \"dim\"".to_string())
                })?;
                if !(1..=4).contains(&dim) {
                    return Err(format!("mesh dim must be 1..=4, got {dim}"));
                }
                if side < 2 {
                    return Err(format!("mesh side (\"n\") must be >= 2, got {side}"));
                }
                if side
                    .checked_pow(dim as u32)
                    .map_or(true, |v| v > MAX_VERTICES)
                {
                    return Err(format!("mesh side^dim exceeds {MAX_VERTICES} vertices"));
                }
                Family::Mesh {
                    dim: dim as u32,
                    side,
                }
            }
            "complete" => {
                let order = n()?;
                if !(2..=2048).contains(&order) {
                    return Err(format!(
                        "complete order (\"n\") must be 2..=2048, got {order}"
                    ));
                }
                Family::Complete { order }
            }
            "double-tree" => {
                let depth = n()?;
                if !(1..=18).contains(&depth) {
                    return Err(format!(
                        "double-tree depth (\"n\") must be 1..=18, got {depth}"
                    ));
                }
                Family::DoubleTree {
                    depth: depth as u32,
                }
            }
            other => match other.strip_prefix("explicit:") {
                Some(name) => {
                    let spec = SubstrateSpec::parse(name)?;
                    if spec.num_vertices() > MAX_VERTICES {
                        return Err(format!(
                            "substrate {name:?} exceeds {MAX_VERTICES} vertices"
                        ));
                    }
                    Family::Explicit(spec)
                }
                None => {
                    return Err(format!(
                        "unknown family {other:?}; valid: hypercube, mesh, complete, \
                         double-tree, explicit:<name>"
                    ))
                }
            },
        };
        let fault_model = match json.get("fault_model") {
            None => FaultModelSpec::BernoulliEdges,
            Some(value) => {
                let name = value.as_str().ok_or("\"fault_model\" must be a string")?;
                FaultModelSpec::parse(name)?
            }
        };
        let p = json
            .get("p")
            .and_then(Json::as_f64)
            .ok_or("missing or non-numeric \"p\"")?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("p must be in [0, 1], got {p}"));
        }
        let seed = match json.get("seed") {
            None => 42,
            Some(value) => value.as_u64().ok_or("\"seed\" must be a u64")?,
        };
        let trials = match json.get("trials") {
            None => 24,
            Some(value) => {
                let t = value.as_u64().ok_or("\"trials\" must be an integer")?;
                if t == 0 || t > MAX_TRIALS as u64 {
                    return Err(format!("trials must be 1..={MAX_TRIALS}, got {t}"));
                }
                t as u32
            }
        };
        let pair = match json.get("pair") {
            None => None,
            Some(value) => {
                let items = value.as_array().ok_or("\"pair\" must be [u, v]")?;
                if items.len() != 2 {
                    return Err("\"pair\" must have exactly two vertices".into());
                }
                let u = items[0].as_u64().ok_or("pair[0] must be a vertex id")?;
                let v = items[1].as_u64().ok_or("pair[1] must be a vertex id")?;
                Some((u, v))
            }
        };
        let metric = match json.get("metric") {
            None => Metric::Probes,
            Some(value) => match value.as_str() {
                Some("probes") => Metric::Probes,
                Some("connectivity") => Metric::Connectivity,
                _ => return Err("unknown metric; valid: probes, connectivity".into()),
            },
        };
        Ok(Query {
            family,
            fault_model,
            p,
            seed,
            trials,
            pair,
            metric,
        })
    }

    /// Parses a raw request body: JSON text in, validated query out.
    ///
    /// # Errors
    ///
    /// Propagates JSON and validation errors as one message.
    pub fn from_body(body: &[u8]) -> Result<Query, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        Query::from_json(&Json::parse(text)?)
    }

    /// Resolves the query's pair from the query alone: explicit pairs are
    /// range-checked, an absent pair becomes the family's canonical pair.
    /// This is the one pair resolution behind both the cache-hit path and
    /// the measurement.
    ///
    /// # Errors
    ///
    /// Returns a message when an explicit vertex is out of range.
    pub fn resolve_pair(&self) -> Result<(VertexId, VertexId), String> {
        let Some((u, v)) = self.pair else {
            return Ok(self.family.canonical_pair());
        };
        let n = self.family.num_vertices();
        if let Some(w) = [u, v].into_iter().find(|&w| w >= n) {
            return Err(format!(
                "vertex {w} is out of range for {} ({n} vertices)",
                self.family.graph_name()
            ));
        }
        Ok((VertexId(u), VertexId(v)))
    }

    /// The canonical resolved form of this query with `pair` made explicit —
    /// one fixed field order, defaults filled in. Equal queries (modulo
    /// whitespace, field order, elided defaults) produce byte-identical
    /// keys; this string is the response-cache key, the coalescing key, and
    /// the `"query"` echo inside every response body.
    pub fn canonical_key(&self, pair: (VertexId, VertexId)) -> String {
        let mut fields = vec![("family".to_string(), Json::Str(self.family.wire_form()))];
        match self.family {
            Family::Hypercube { n } => fields.push(("n".into(), Json::UInt(n as u64))),
            Family::Mesh { dim, side } => {
                fields.push(("n".into(), Json::UInt(side)));
                fields.push(("dim".into(), Json::UInt(dim as u64)));
            }
            Family::Complete { order } => fields.push(("n".into(), Json::UInt(order))),
            Family::DoubleTree { depth } => fields.push(("n".into(), Json::UInt(depth as u64))),
            // The substrate name inside the family value is the whole
            // parameterisation; there is no separate "n".
            Family::Explicit(_) => {}
        }
        fields.push((
            "fault_model".into(),
            Json::Str(self.fault_model.cli_name().to_string()),
        ));
        fields.push(("p".into(), Json::Num(self.p)));
        fields.push(("seed".into(), Json::UInt(self.seed)));
        fields.push(("trials".into(), Json::UInt(self.trials as u64)));
        fields.push((
            "pair".into(),
            Json::Arr(vec![Json::UInt(pair.0 .0), Json::UInt(pair.1 .0)]),
        ));
        fields.push((
            "metric".into(),
            Json::Str(self.metric.wire_name().to_string()),
        ));
        Json::Obj(fields).render()
    }

    /// The census-cache key for this query's trial-0 instance.
    ///
    /// Keyed on `(family, params, model, p, seed)` — everything an
    /// instance's edge set depends on — plus the pair **only when the model
    /// is pair-dependent** ([`FaultModelSpec::pair_dependent`]): benign
    /// models materialise the same instance for every pair, so their cached
    /// census is shared across pairs, while the adversary's cut set is
    /// placed around the pair and must not leak between pairs.
    pub fn census_key(&self, pair: (VertexId, VertexId)) -> u64 {
        let mut key = String::new();
        key.push_str(self.family.wire_name());
        match self.family {
            Family::Hypercube { n } => key.push_str(&format!("/{n}")),
            Family::Mesh { dim, side } => key.push_str(&format!("/{side}^{dim}")),
            Family::Complete { order } => key.push_str(&format!("/{order}")),
            Family::DoubleTree { depth } => key.push_str(&format!("/{depth}")),
            Family::Explicit(spec) => key.push_str(&format!("/{}", spec.canonical_name())),
        }
        key.push_str(&format!(
            "|{}|{}|{}",
            self.fault_model.cli_name(),
            self.p,
            self.seed
        ));
        if self.fault_model.pair_dependent() {
            key.push_str(&format!("|{},{}", pair.0 .0, pair.1 .0));
        }
        fnv1a(key.as_bytes())
    }
}

/// FNV-1a over `bytes` — the config hash the caches key on. Stable across
/// runs and platforms (unlike `DefaultHasher`, whose seeds are
/// process-random), so logged key hashes are comparable between runs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Query, String> {
        Query::from_json(&Json::parse(text).unwrap())
    }

    #[test]
    fn parses_the_issue_example() {
        let q = parse(
            r#"{"family":"hypercube","n":14,"fault_model":"bernoulli-edges",
                "p":0.45,"pair":[0,16383],"metric":"probes"}"#,
        )
        .unwrap();
        assert_eq!(q.family, Family::Hypercube { n: 14 });
        assert_eq!(q.fault_model, FaultModelSpec::BernoulliEdges);
        assert_eq!(q.p, 0.45);
        assert_eq!(q.seed, 42);
        assert_eq!(q.trials, 24);
        assert_eq!(q.pair, Some((0, 16383)));
        assert_eq!(q.metric, Metric::Probes);
    }

    #[test]
    fn defaults_resolve() {
        let q = parse(r#"{"family":"complete","n":64,"p":0.5}"#).unwrap();
        assert_eq!(q.fault_model, FaultModelSpec::BernoulliEdges);
        assert_eq!(q.seed, 42);
        assert_eq!(q.metric, Metric::Probes);
        assert_eq!(q.pair, None);
    }

    #[test]
    fn canonical_key_erases_field_order_and_elided_defaults() {
        let a = parse(r#"{"family":"hypercube","n":10,"p":0.5}"#).unwrap();
        let b = parse(
            r#"{"p":0.5, "metric":"probes", "seed":42, "trials":24,
                "family":"hypercube", "n":10, "fault_model":"bernoulli-edges"}"#,
        )
        .unwrap();
        let pair = (VertexId(0), VertexId(1023));
        assert_eq!(a.canonical_key(pair), b.canonical_key(pair));
        // And distinct queries get distinct keys.
        let c = parse(r#"{"family":"hypercube","n":10,"p":0.6}"#).unwrap();
        assert_ne!(a.canonical_key(pair), c.canonical_key(pair));
    }

    #[test]
    fn census_key_includes_the_pair_only_for_the_adversary() {
        let benign = parse(r#"{"family":"hypercube","n":8,"p":0.5}"#).unwrap();
        let p1 = (VertexId(0), VertexId(255));
        let p2 = (VertexId(1), VertexId(254));
        assert_eq!(benign.census_key(p1), benign.census_key(p2));
        let adversarial =
            parse(r#"{"family":"hypercube","n":8,"p":0.5,"fault_model":"adversarial-budget"}"#)
                .unwrap();
        assert_ne!(adversarial.census_key(p1), adversarial.census_key(p2));
        assert_ne!(benign.census_key(p1), adversarial.census_key(p1));
    }

    #[test]
    fn parses_explicit_substrate_families() {
        let q = parse(r#"{"family":"explicit:karate","p":0.7}"#).unwrap();
        assert_eq!(q.family.wire_name(), "explicit");
        assert_eq!(q.family.wire_form(), "explicit:karate");
        let q = parse(r#"{"family":"explicit:ba-256-3","p":0.5,"seed":7}"#).unwrap();
        assert_eq!(q.family.wire_form(), "explicit:ba-256-3");
        // Explicit substrates carry their whole parameterisation in the
        // family string, so "n" is not required (and is ignored if present).
        let with_n = parse(r#"{"family":"explicit:fattree-4","n":99,"p":0.5}"#).unwrap();
        assert_eq!(with_n.family.wire_form(), "explicit:fattree-4");
    }

    #[test]
    fn distinct_substrates_get_distinct_keys() {
        let a = parse(r#"{"family":"explicit:karate","p":0.5}"#).unwrap();
        let b = parse(r#"{"family":"explicit:regular-64-4","p":0.5}"#).unwrap();
        let pair = (VertexId(0), VertexId(33));
        assert_ne!(a.canonical_key(pair), b.canonical_key(pair));
        assert_ne!(a.census_key(pair), b.census_key(pair));
        // And the canonical key embeds the full wire form, so equal queries
        // coalesce.
        let a2 = parse(r#"{"family":"explicit:karate","p":0.5}"#).unwrap();
        assert_eq!(a.canonical_key(pair), a2.canonical_key(pair));
        assert!(a.canonical_key(pair).contains("explicit:karate"));
    }

    #[test]
    fn validation_rejects_out_of_range_queries() {
        for bad in [
            r#"{"family":"hypercube","n":22,"p":0.5}"#,
            r#"{"family":"hypercube","n":0,"p":0.5}"#,
            r#"{"family":"hypercube","n":10,"p":1.5}"#,
            r#"{"family":"hypercube","n":10,"p":0.5,"trials":0}"#,
            r#"{"family":"hypercube","n":10,"p":0.5,"trials":100000}"#,
            r#"{"family":"mesh","n":2048,"dim":4,"p":0.5}"#,
            r#"{"family":"mesh","n":10,"dim":5,"p":0.5}"#,
            r#"{"family":"complete","n":1000000,"p":0.5}"#,
            r#"{"family":"double-tree","n":30,"p":0.5}"#,
            r#"{"family":"petersen","n":10,"p":0.5}"#,
            r#"{"family":"explicit:petersen","p":0.5}"#,
            r#"{"family":"explicit:ba-3-3","p":0.5}"#,
            r#"{"family":"explicit:regular-999999-4","p":0.5}"#,
            r#"{"family":"explicit:","p":0.5}"#,
            r#"{"family":"hypercube","n":10,"p":0.5,"metric":"vibes"}"#,
            r#"{"family":"hypercube","n":10,"p":0.5,"fault_model":"martian"}"#,
            r#"{"family":"hypercube","n":10,"p":0.5,"pair":[0]}"#,
            r#"{"family":"hypercube","p":0.5}"#,
            r#"{"n":10,"p":0.5}"#,
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so logged key hashes stay comparable across builds.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
