//! # faultnet-obs
//!
//! A dependency-free, runtime-gated instrumentation layer for the
//! workspace: monotonic [counters](count), log₂ [histograms](record), and
//! span-style [scoped timers](span), aggregated per thread and merged
//! deterministically, with optional Chrome-trace export.
//!
//! ## The zero-perturbation contract
//!
//! The engines this layer instruments carry a workspace-wide determinism
//! guarantee: no knob may ever change an emitted measurement byte.
//! Instrumentation must satisfy the same contract, in both states:
//!
//! * **Disabled** (the default): every entry point compiles down to one
//!   relaxed atomic load and an early return. No clock is read, nothing is
//!   allocated, no lock is taken. The `obs_overhead` bench group bounds
//!   this cost on the sampling and census hot loops.
//! * **Enabled**: recording writes only to thread-local buffers that are
//!   merged into a process-global aggregate — never to `stdout`, never
//!   into any measurement state. Differential suites across the engine
//!   zoo `cmp` experiment output with instrumentation on vs. off.
//!
//! Call sites follow one discipline to keep the disabled cost where the
//! bench can see it: innermost loops accumulate into local integers and
//! issue **one** obs call per function invocation, so a disabled build
//! pays one load per BFS/census/measure call, not one per edge.
//!
//! ## Deterministic merge
//!
//! Each thread records into its own `Recorder`; buffers merge into the
//! global aggregate on an explicit [`flush_thread`] — the instrumented
//! worker harnesses (the sweep runner, the parallel census, the server's
//! request loop) each call it as their last act on a worker thread. A
//! thread-local destructor flushes as a backstop on ordinary thread exit,
//! but scoped-thread teardown is not guaranteed to run destructors before
//! the scope returns, so explicit flushes are the authoritative path.
//! Counter and histogram merges are integer
//! sums — commutative and associative — so for a deterministic workload
//! the aggregate is independent of thread scheduling, and rendering walks
//! `BTreeMap`s so the output order is independent of insertion order.
//! Span durations and trace timestamps are wall-clock and therefore *not*
//! byte-stable run to run; they are diagnostics, which is why they are
//! only ever written to stderr or a `--trace` file, never to stdout.
//!
//! ## Structured log lines
//!
//! [`log_line`] is the one sanctioned way to write a structured line to
//! stderr from concurrent workers: it issues a single `write_all` of the
//! whole line (newline included) under the stderr lock, so lines cannot
//! shear no matter how many threads log at once. It works whether or not
//! instrumentation is enabled — logging is orthogonal to measuring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of log₂ histogram buckets: bucket `i` counts values whose bit
/// width is `i` (so bucket 0 is exactly the value 0, bucket `i ≥ 1` covers
/// `2^(i-1) ..= 2^i - 1`), and a `u64` needs at most 64 bits.
pub const HIST_BUCKETS: usize = 65;

static COUNTING: AtomicBool = AtomicBool::new(false);
static TRACING: AtomicBool = AtomicBool::new(false);
/// Bumped by [`reset`]; thread-local recorders that observe a stale epoch
/// discard their buffers instead of merging pre-reset data.
static RESET_EPOCH: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(1);
static GLOBAL: Mutex<Option<Aggregate>> = Mutex::new(None);
static TRACE_EPOCH: OnceLock<Instant> = OnceLock::new();

/// Returns whether counter/histogram/span recording is on. One relaxed
/// load — this is the entire disabled-mode cost of every entry point.
#[inline]
pub fn enabled() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

/// Returns whether Chrome-trace event capture is on (implies [`enabled`]).
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turns on counter/histogram/span recording. Also pins the trace epoch so
/// later spans have a stable time origin.
pub fn enable() {
    TRACE_EPOCH.get_or_init(Instant::now);
    COUNTING.store(true, Ordering::Relaxed);
}

/// Turns on Chrome-trace event capture (and recording with it).
pub fn enable_tracing() {
    enable();
    TRACING.store(true, Ordering::Relaxed);
}

/// Turns recording and tracing off. Buffers already recorded are kept.
pub fn disable() {
    TRACING.store(false, Ordering::Relaxed);
    COUNTING.store(false, Ordering::Relaxed);
}

/// Turns everything off and discards all recorded data, including buffers
/// still sitting in other threads' recorders (they observe the epoch bump
/// and clear themselves instead of merging).
pub fn reset() {
    disable();
    RESET_EPOCH.fetch_add(1, Ordering::SeqCst);
    *GLOBAL.lock().expect("obs aggregate poisoned") = None;
    RECORDER.with(|recorder| {
        recorder
            .borrow_mut()
            .clear(RESET_EPOCH.load(Ordering::SeqCst))
    });
}

/// Adds `n` to the monotonic counter `name`. No-op (one relaxed load)
/// while disabled.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|recorder| *recorder.counters.entry(name).or_insert(0) += n);
}

/// Records one observation of `value` into the log₂ histogram `name`.
/// No-op (one relaxed load) while disabled.
#[inline]
pub fn record(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|recorder| {
        recorder
            .histograms
            .entry(name)
            .or_insert_with(|| Box::new(HistData::default()))
            .record(value);
    });
}

/// Opens a scoped timer: the returned guard records (count, total time)
/// under `name` when dropped, plus one Chrome-trace event when tracing is
/// on. While disabled this reads no clock and returns an inert guard.
#[inline]
#[must_use = "a span measures the scope it is alive in — bind it to a guard variable"]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    Span {
        inner: Some(SpanInner {
            name,
            start: Instant::now(),
        }),
    }
}

/// An RAII scoped-timer guard; see [`span`].
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: &'static str,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_ns = duration_to_ns(inner.start.elapsed());
        let trace = tracing_enabled();
        let start_ns = if trace {
            let epoch = *TRACE_EPOCH.get_or_init(Instant::now);
            duration_to_ns(inner.start.saturating_duration_since(epoch))
        } else {
            0
        };
        with_recorder(|recorder| {
            let stats = recorder.spans.entry(inner.name).or_default();
            stats.count += 1;
            stats.total_ns += dur_ns;
            if trace {
                let tid = recorder.tid;
                recorder.trace.push(TraceEvent {
                    name: inner.name,
                    tid,
                    start_ns,
                    dur_ns,
                });
            }
        });
    }
}

fn duration_to_ns(duration: std::time::Duration) -> u64 {
    duration.as_nanos().min(u64::MAX as u128) as u64
}

/// Merges the calling thread's buffered records into the global aggregate.
/// Every instrumented worker loop calls this as its last act (a
/// thread-local destructor also flushes on ordinary thread exit, but
/// scoped-thread teardown may run destructors after the scope returns, so
/// worker closures must not rely on it); the readers ([`summary`],
/// [`counter_value`], the trace writers) flush the calling thread
/// themselves.
pub fn flush_thread() {
    let _ = RECORDER.try_with(|recorder| recorder.borrow_mut().flush());
}

/// A log₂ histogram: per-bucket counts plus count and sum.
#[derive(Debug, Clone)]
pub struct HistData {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistData {
    fn record(&mut self, value: u64) {
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    fn merge(&mut self, other: &HistData) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Count in log₂ bucket `i` (values of bit width `i`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }
}

/// Aggregated (count, total nanoseconds) for one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStats {
    /// Number of completed spans.
    pub count: u64,
    /// Total time inside those spans, in nanoseconds.
    pub total_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct TraceEvent {
    name: &'static str,
    tid: u32,
    start_ns: u64,
    dur_ns: u64,
}

#[derive(Debug, Default)]
struct Aggregate {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, HistData>,
    spans: BTreeMap<&'static str, SpanStats>,
    trace: Vec<TraceEvent>,
}

impl Aggregate {
    fn absorb(&mut self, recorder: &mut Recorder) {
        for (name, n) in recorder.counters.drain() {
            *self.counters.entry(name).or_insert(0) += n;
        }
        for (name, hist) in recorder.histograms.drain() {
            self.histograms.entry(name).or_default().merge(&hist);
        }
        for (name, stats) in recorder.spans.drain() {
            let merged = self.spans.entry(name).or_default();
            merged.count += stats.count;
            merged.total_ns += stats.total_ns;
        }
        self.trace.append(&mut recorder.trace);
    }
}

/// Per-thread record buffers; merged into the global aggregate on flush or
/// thread exit. Public only through the free functions above.
struct Recorder {
    epoch: u64,
    tid: u32,
    counters: HashMap<&'static str, u64>,
    histograms: HashMap<&'static str, Box<HistData>>,
    spans: HashMap<&'static str, SpanStats>,
    trace: Vec<TraceEvent>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: RESET_EPOCH.load(Ordering::SeqCst),
            tid: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            counters: HashMap::new(),
            histograms: HashMap::new(),
            spans: HashMap::new(),
            trace: Vec::new(),
        }
    }

    fn clear(&mut self, epoch: u64) {
        self.counters.clear();
        self.histograms.clear();
        self.spans.clear();
        self.trace.clear();
        self.epoch = epoch;
    }

    fn flush(&mut self) {
        let epoch = RESET_EPOCH.load(Ordering::SeqCst);
        if epoch != self.epoch {
            // A reset happened after these buffers were filled: the data
            // belongs to a discarded aggregate, drop it.
            self.clear(epoch);
            return;
        }
        if self.counters.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
            && self.trace.is_empty()
        {
            return;
        }
        if let Ok(mut global) = GLOBAL.lock() {
            global.get_or_insert_with(Aggregate::default).absorb(self);
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new());
}

fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    let _ = RECORDER.try_with(|recorder| {
        let mut recorder = recorder.borrow_mut();
        let epoch = RESET_EPOCH.load(Ordering::Relaxed);
        if epoch != recorder.epoch {
            recorder.clear(epoch);
        }
        f(&mut recorder);
    });
}

fn with_aggregate<R>(f: impl FnOnce(&Aggregate) -> R) -> R {
    let global = GLOBAL.lock().expect("obs aggregate poisoned");
    match global.as_ref() {
        Some(aggregate) => f(aggregate),
        None => f(&Aggregate::default()),
    }
}

/// The merged value of counter `name` (0 if never counted). Flushes the
/// calling thread first; other live threads' unflushed buffers are not
/// visible until they flush or exit.
pub fn counter_value(name: &str) -> u64 {
    flush_thread();
    with_aggregate(|aggregate| aggregate.counters.get(name).copied().unwrap_or(0))
}

/// The merged stats of span `name` (zero if never closed).
#[cfg(test)]
fn span_stats(name: &str) -> SpanStats {
    flush_thread();
    with_aggregate(|aggregate| aggregate.spans.get(name).copied().unwrap_or_default())
}

/// Renders the merged counters as Prometheus-style exposition lines
/// (`faultnet_obs_counter{name="..."} N`), sorted by name so two renders of
/// the same aggregate are byte-identical.
pub fn render_prometheus() -> String {
    flush_thread();
    with_aggregate(|aggregate| {
        let mut out = String::new();
        for (name, n) in aggregate.counters.iter() {
            out.push_str(&format!("faultnet_obs_counter{{name=\"{name}\"}} {n}\n"));
        }
        out
    })
}

/// Renders the whole aggregate as an aligned plain-text table (the
/// `--obs-summary` stderr output): counters, then histograms, then spans,
/// each section sorted by name.
pub fn summary() -> String {
    flush_thread();
    with_aggregate(|aggregate| {
        let mut out = String::from("== obs summary ==\n");
        if !aggregate.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, n) in aggregate.counters.iter() {
                out.push_str(&format!("  {name:<44} {n}\n"));
            }
        }
        if !aggregate.histograms.is_empty() {
            out.push_str("histograms (log2 buckets):\n");
            for (name, hist) in aggregate.histograms.iter() {
                let mean = if hist.count == 0 {
                    0.0
                } else {
                    hist.sum as f64 / hist.count as f64
                };
                out.push_str(&format!(
                    "  {name:<44} count={} sum={} mean={mean:.2}\n",
                    hist.count, hist.sum
                ));
                for (i, bucket) in hist.buckets.iter().enumerate() {
                    if *bucket > 0 {
                        let range = match i {
                            0 => "=0".to_string(),
                            1 => "=1".to_string(),
                            _ => format!("<2^{i}"),
                        };
                        out.push_str(&format!("    {range:<8} {bucket}\n"));
                    }
                }
            }
        }
        if !aggregate.spans.is_empty() {
            out.push_str("spans:\n");
            for (name, stats) in aggregate.spans.iter() {
                let mean_us = if stats.count == 0 {
                    0.0
                } else {
                    stats.total_ns as f64 / stats.count as f64 / 1_000.0
                };
                out.push_str(&format!(
                    "  {name:<44} count={} total_ms={:.3} mean_us={mean_us:.1}\n",
                    stats.count,
                    stats.total_ns as f64 / 1_000_000.0,
                ));
            }
        }
        out
    })
}

/// Renders the captured spans as Chrome-trace JSON (`chrome://tracing` /
/// Perfetto "JSON Array Format" wrapped in a `traceEvents` object).
/// Events are sorted by (start, thread, name) so the file layout does not
/// depend on merge order; timestamps are microseconds from the trace
/// epoch.
pub fn chrome_trace() -> String {
    flush_thread();
    with_aggregate(|aggregate| {
        let mut events = aggregate.trace.clone();
        events.sort_by(|a, b| (a.start_ns, a.tid, a.name).cmp(&(b.start_ns, b.tid, b.name)));
        let mut out = String::from("{\"traceEvents\":[");
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{name},\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us}.{ts_frac:03},\"dur\":{dur_us}.{dur_frac:03}}}",
                name = json_string(event.name),
                tid = event.tid,
                ts_us = event.start_ns / 1_000,
                ts_frac = event.start_ns % 1_000,
                dur_us = event.dur_ns / 1_000,
                dur_frac = event.dur_ns % 1_000,
            ));
        }
        out.push_str("]}\n");
        out
    })
}

/// Writes [`chrome_trace`] to `path`.
///
/// # Errors
///
/// Propagates the underlying file write error.
pub fn write_trace_file(path: &str) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace())
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes one complete line (newline appended) to stderr as a single
/// `write_all` under the stderr lock, so concurrent workers can never
/// shear each other's lines. Independent of [`enabled`].
pub fn log_line(line: &str) {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    let stderr = std::io::stderr();
    let mut handle = stderr.lock();
    let _ = handle.write_all(&buf);
    let _ = handle.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The crate's global state is process-wide; every test that toggles
    /// it serialises on this lock (and resets on entry and exit).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        guard
    }

    #[test]
    fn disabled_entry_points_record_nothing() {
        let _guard = exclusive();
        assert!(!enabled());
        count("test.disabled", 5);
        record("test.disabled_hist", 42);
        {
            let _span = span("test.disabled_span");
        }
        flush_thread();
        assert_eq!(counter_value("test.disabled"), 0);
        assert_eq!(span_stats("test.disabled_span").count, 0);
        assert_eq!(summary(), "== obs summary ==\n");
        reset();
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let _guard = exclusive();
        enable();
        count("test.alpha", 2);
        count("test.alpha", 3);
        count("test.beta", 1);
        record("test.hist", 0);
        record("test.hist", 1);
        record("test.hist", 5);
        record("test.hist", 1023);
        flush_thread();
        assert_eq!(counter_value("test.alpha"), 5);
        assert_eq!(counter_value("test.beta"), 1);
        let text = summary();
        assert!(text.contains("test.alpha"), "{text}");
        assert!(text.contains("count=4 sum=1029"), "{text}");
        // Bucket layout: 0 → bucket 0, 1 → bucket 1, 5 → bucket 3 (<2^3),
        // 1023 → bucket 10 (<2^10).
        assert!(text.contains("=0       1"), "{text}");
        assert!(text.contains("<2^10"), "{text}");
        reset();
    }

    #[test]
    fn spans_aggregate_and_trace_events_are_captured() {
        let _guard = exclusive();
        enable_tracing();
        for _ in 0..3 {
            let _span = span("test.spanned");
        }
        flush_thread();
        let stats = span_stats("test.spanned");
        assert_eq!(stats.count, 3);
        let trace = chrome_trace();
        assert_eq!(trace.matches("\"name\":\"test.spanned\"").count(), 3);
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        assert!(trace.ends_with("]}\n"), "{trace}");
        reset();
    }

    #[test]
    fn merge_is_deterministic_across_thread_interleavings() {
        let _guard = exclusive();
        enable();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        count("test.merge", 1);
                    }
                    count("test.zeta", 1);
                    count("test.aardvark", 1);
                    // The worker-harness discipline: flush before exit —
                    // scoped-thread TLS destructors may run after the
                    // scope returns, so the closure flushes itself.
                    flush_thread();
                });
            }
        });
        assert_eq!(counter_value("test.merge"), 4000);
        let rendered = render_prometheus();
        let aardvark = rendered.find("test.aardvark").unwrap();
        let merge = rendered.find("test.merge").unwrap();
        let zeta = rendered.find("test.zeta").unwrap();
        assert!(
            aardvark < merge && merge < zeta,
            "render order must be sorted, not insertion order: {rendered}"
        );
        reset();
    }

    #[test]
    fn reset_discards_unflushed_buffers_from_other_threads() {
        let _guard = exclusive();
        enable();
        count("test.stale", 7);
        // Reset before this thread flushes: the buffered 7 must never
        // surface in the new aggregate.
        reset();
        enable();
        flush_thread();
        assert_eq!(counter_value("test.stale"), 0);
        reset();
    }

    #[test]
    fn prometheus_render_is_sorted_and_stable() {
        let _guard = exclusive();
        enable();
        count("test.b", 2);
        count("test.a", 1);
        flush_thread();
        let first = render_prometheus();
        let second = render_prometheus();
        assert_eq!(first, second);
        assert_eq!(
            first,
            "faultnet_obs_counter{name=\"test.a\"} 1\nfaultnet_obs_counter{name=\"test.b\"} 2\n"
        );
        reset();
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("tab\there"), "\"tab\\u0009here\"");
    }

    #[test]
    fn chrome_trace_is_valid_shape_when_empty() {
        let _guard = exclusive();
        assert_eq!(chrome_trace(), "{\"traceEvents\":[]}\n");
        reset();
    }
}
