//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into each
//! crate's public functions; nothing inside the crates is instrumented.
//! Every span records its name, start, end, parent and the op it belongs
//! to. At the end of a run the spans are aggregated into per-layer self
//! times (a span's duration minus the part covered by its children) and
//! written out as a Chrome trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span every traced op is wrapped in. Its self time is
/// the op's unattributed time.
pub const OP: &str = "op";

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `routing.route`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; `start_ns` while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier of the op this span belongs to.
    pub op: u64,
}

/// Aggregated time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Number of spans.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times (duration minus children), nanoseconds.
    pub self_ns: u64,
}

/// The recorder. Single-threaded: the traced run decomposes each op on the
/// calling thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens an op root span with a fresh op id.
    pub fn begin_op(&mut self) -> usize {
        assert!(self.open.is_empty(), "ops do not nest");
        self.op += 1;
        self.enter(OP)
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        index
    }

    /// Closes span `index`, which must be the innermost open span.
    pub fn exit(&mut self, index: usize) {
        assert_eq!(self.open.pop(), Some(index), "spans must close in order");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    /// All recorded spans in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of ops begun.
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Per-name count, total and self time over every span.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(children);
        }
        out
    }

    /// Self-time tree: each op-child layer with its share of op wall time,
    /// plus an explicit unattributed row (the op span's own self time).
    pub fn render_tree(&self, title: &str) -> String {
        let layers = self.layer_times();
        let op = layers.get(OP).copied().unwrap_or_default();
        let wall = op.total_ns.max(1) as f64;
        let ops = op.count.max(1) as f64;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{title}: {} ops, {:.3} ms wall per op",
            op.count,
            op.total_ns as f64 / ops / 1e6
        );
        let mut rows: Vec<(&str, LayerTime)> = layers
            .iter()
            .filter(|(name, _)| **name != OP)
            .map(|(name, time)| (*name, *time))
            .collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1.self_ns));
        rows.push(("(unattributed)", op));
        for (name, time) in rows {
            let _ = writeln!(
                out,
                "  {name:<28} {:>10.3} ms/op self {:>6.2}%  ({} spans)",
                time.self_ns as f64 / ops / 1e6,
                100.0 * time.self_ns as f64 / wall,
                if name == "(unattributed)" {
                    op.count
                } else {
                    time.count
                },
            );
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{index},\"parent\":{parent}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.op,
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}
