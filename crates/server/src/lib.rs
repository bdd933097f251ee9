//! # faultnet-server
//!
//! A long-lived HTTP/1.1 query service over the workspace's
//! routing-complexity engines: `POST /query` takes a JSON point in the
//! paper's measurement space —
//!
//! ```json
//! {"family":"hypercube","n":14,"fault_model":"bernoulli-edges",
//!  "p":0.45,"pair":[0,16383],"metric":"probes"}
//! ```
//!
//! — and answers with the measured statistics. Every answer is a pure
//! function of the canonical query (the workspace determinism contract),
//! which is what makes the serving layers sound:
//!
//! * [`cache`] — an LRU of response bodies keyed on the canonical query
//!   (resolved without building a graph), an LRU of component censuses
//!   keyed on the canonical config hash, and a small LRU of built
//!   `explicit:*` substrates for the misses;
//! * [`coalesce`] — concurrent identical queries run **one** measurement
//!   (the leader computes, every waiter gets the same bytes);
//! * [`metrics`] — request counts, cache hit rate, and per-family log₂
//!   latency histograms on `GET /metrics`, plus structured per-request
//!   log lines on stderr.
//!
//! Built on `std::net` + a scoped worker pool — no async runtime, same
//! offline constraint as the `crates/compat/` shims. Two binaries ship
//! with the crate: `server` (the service) and `loadgen` (a closed-loop
//! load generator; `--quick` for the CI smoke run).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod coalesce;
pub mod engine;
pub mod http;
pub mod json;
pub mod metrics;
pub mod query;
pub mod serve;
pub mod service;

pub use metrics::Metrics;
pub use query::{Family, Metric, Query};
pub use serve::{serve, ServerConfig, ServerHandle};
pub use service::QueryService;
