//! Criterion benchmarks for the faultnet workspace.
//!
//! The benchmark targets live under `benches/`; each one times a layer of
//! the measurement stack (substrate, census, trial batch, topology build,
//! instrumentation, query service) at a scale small enough for
//! `cargo bench` to finish in minutes. The experiments themselves are timed
//! and pinned by the `exp_*` binaries in `faultnet-experiments`.
//!
//! This library crate intentionally exposes nothing; it exists so the bench
//! targets have a package to live in.
