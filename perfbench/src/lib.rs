//! Layered benchmark of the faultnet workspace.
//!
//! Four seeded workloads ([`workloads`]) drive the workspace's public API
//! end to end. An untraced run reports the end-to-end metrics
//! ([`report::END_TO_END`]); a separate traced run decomposes each op into
//! its layer calls with the benchmark's own spans ([`trace`]) and reports
//! the per-layer metrics ([`report::PER_LAYER`]). See `README.md` in this
//! directory for the workload rationale and the layer map.

pub mod inputs;
pub mod report;
pub mod summary;
pub mod trace;
pub mod workloads;

use std::time::Instant;

/// Worker threads (and, for the server, connections) any workload may use:
/// the core count of the machine the bounds were set on.
pub const THREADS: usize = 2;

/// How many times set-up is repeated; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// What one untraced run measured.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Seconds taken by each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Work units completed per second, one value per timed pass.
    pub pass_rates: Vec<f64>,
    /// Latencies of ops on inputs the process has not run before, ms.
    pub cold_ms: Vec<f64>,
    /// Latencies of ops replaying an input already run, ms.
    pub warm_ms: Vec<f64>,
    /// Ops attempted, timed or checked.
    pub attempted: u64,
    /// Ops that failed or returned a wrong answer.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records one check: counts it as attempted, and as failed with
    /// `message` when `ok` is false.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(message());
        }
    }

    /// Records one op latency in the warm or cold set.
    pub fn latency(&mut self, warm: bool, ms: f64) {
        if warm {
            self.warm_ms.push(ms);
        } else {
            self.cold_ms.push(ms);
        }
    }
}

/// What one traced run measured: the per-layer values it could compute
/// (layers a workload never calls are absent and reported as 0), the
/// spans, and its checks.
#[derive(Debug, Default)]
pub struct Traced {
    /// `(metric name, value)` pairs, names from [`report::PER_LAYER`].
    pub layers: Vec<(&'static str, f64)>,
    /// Checks, as in [`Outcome`].
    pub outcome: Outcome,
}

impl Traced {
    /// Sets a per-layer value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            report::PER_LAYER.iter().any(|m| m.name == name),
            "unknown layer metric {name}"
        );
        self.layers.push((name, value));
    }
}

/// Runs `build` [`SETUP_REPEATS`] times, timing each, and keeps the last
/// result: set-up is repeated so that its median is a steady number.
pub fn repeat_setup<S>(outcome: &mut Outcome, mut build: impl FnMut() -> S) -> S {
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let started = Instant::now();
        let state = build();
        outcome.setup_s.push(started.elapsed().as_secs_f64());
        last = Some(state);
    }
    last.expect("at least one set-up repetition")
}

/// Runs whole input sets (a cold and a warm pass each) until `seconds`
/// have elapsed, and at least one.
///
/// Passes alternate between a fresh input set and a replay of the set just
/// run: pass `k` runs set `k / 2`, cold when `k` is even and warm (a replay)
/// when it is odd. `pass(outcome, set, warm)` returns the work units it
/// completed and the seconds its timed section took (preparing inputs and
/// checking outputs stay outside it); the rate lands in
/// `outcome.pass_rates` when `counts(warm)`.
pub fn run_passes(
    outcome: &mut Outcome,
    seconds: f64,
    counts: impl Fn(bool) -> bool,
    mut pass: impl FnMut(&mut Outcome, usize, bool) -> (f64, f64),
) {
    let started = Instant::now();
    let mut index = 0;
    while index % 2 == 1 || index == 0 || started.elapsed().as_secs_f64() < seconds {
        let warm = index % 2 == 1;
        let (work, timed_s) = pass(outcome, index / 2, warm);
        if counts(warm) {
            outcome.pass_rates.push(work / timed_s);
        }
        index += 1;
    }
}

/// Milliseconds since `started`.
pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat`; `None` where that file does not exist.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks (100 per second on Linux).
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// The process's resident-set high-water mark in MB (`VmHWM`), or `None`
/// where `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
