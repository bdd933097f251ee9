//! Metric tables and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; the
//! test `tests/metric_tables.rs` keeps the two in step.

use std::fmt::Write as _;

use crate::summary::{median, tail};
use crate::{Outcome, Traced};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// A reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed in the result line.
    pub name: &'static str,
    /// Unit as printed in the result line.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// For end-to-end metrics, the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("step_p50_ms", "ms", Lower, 0.25),
    e2e("step_tail_ms", "ms", Lower, 0.25),
    e2e("cold_p50_ms", "ms", Lower, 0.25),
    e2e("cold_tail_ms", "ms", Lower, 0.25),
    e2e("warm_p50_ms", "ms", Lower, 0.25),
    e2e("warm_tail_ms", "ms", Lower, 0.25),
];

/// Per-layer metrics, reported by every traced run (0 for a layer the
/// workload does not call).
pub const PER_LAYER: [MetricDef; 31] = [
    layer("topology.build_ms", "ms", Lower),
    layer("topology.neighbors_ns", "ns", Lower),
    layer("topology.edges_ms", "ms", Lower),
    layer("topology.slots_per_edge", "ratio", Lower),
    layer("faultmodel.instance_ms", "ms", Lower),
    layer("percolation.sample_ms", "ms", Lower),
    layer("percolation.sample_mb", "MB", Lower),
    layer("percolation.condition_ms", "ms", Lower),
    layer("percolation.conditioned_frac", "ratio", Higher),
    layer("percolation.census_ms", "ms", Lower),
    layer("percolation.census_par_ms", "ms", Lower),
    layer("percolation.dynamic.step_us", "us", Lower),
    layer("percolation.dynamic.replayed", "count", Lower),
    layer("percolation.dynamic.rebuild_frac", "ratio", Lower),
    layer("percolation.dynamic.rescan_ms", "ms", Lower),
    layer("routing.route_ms", "ms", Lower),
    layer("routing.ns_per_probe", "ns", Lower),
    layer("routing.probes_per_trial", "count", Lower),
    layer("routing.budget_hit_frac", "ratio", Lower),
    layer("server.http_floor_us", "us", Lower),
    layer("server.parse_us", "us", Lower),
    layer("server.key_us", "us", Lower),
    layer("server.graph_ms", "ms", Lower),
    layer("server.handle_us", "us", Lower),
    layer("server.measure_ms", "ms", Lower),
    layer("server.encode_us", "us", Lower),
    layer("server.hit_frac", "ratio", Higher),
    layer("proc.cpu_s", "s", Lower),
    layer("proc.cpu_util", "ratio", Higher),
    layer("op.unattributed_frac", "ratio", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// One measured value with a human-readable note on how it was taken.
#[derive(Debug, Clone)]
pub struct Value {
    /// The metric.
    pub def: MetricDef,
    /// The measured value.
    pub value: f64,
    /// Sample count, percentile, or how the value was computed.
    pub note: String,
}

fn latency(def: MetricDef, samples: &[f64], want_tail: bool) -> Result<Value, String> {
    let n = samples.len();
    if want_tail {
        let t = tail(samples)
            .ok_or_else(|| format!("{}: {n} samples, a tail needs at least 11", def.name))?;
        Ok(Value {
            def,
            value: t.value,
            note: format!("p{:.4} of {} samples", t.percentile, t.samples),
        })
    } else {
        let m = median(samples).ok_or_else(|| format!("{}: no samples", def.name))?;
        Ok(Value {
            def,
            value: m,
            note: format!("median of {n} samples"),
        })
    }
}

/// The end-to-end values of an untraced run, in [`END_TO_END`] order.
///
/// # Errors
///
/// Returns a message when a latency set is too small for its statistic.
pub fn end_to_end(outcome: &Outcome, peak_rss_mb: f64) -> Result<Vec<Value>, String> {
    let steps: Vec<f64> = outcome
        .cold_ms
        .iter()
        .chain(&outcome.warm_ms)
        .copied()
        .collect();
    let mut out = Vec::new();
    for def in END_TO_END {
        out.push(match def.name {
            "setup_s" => latency(def, &outcome.setup_s, false)?,
            "ops_per_s" => {
                let mut v = latency(def, &outcome.pass_rates, false)?;
                v.note = format!("median of {} timed passes", outcome.pass_rates.len());
                v
            }
            "peak_rss_mb" => Value {
                def,
                value: peak_rss_mb,
                note: "VmHWM".into(),
            },
            "step_p50_ms" => latency(def, &steps, false)?,
            "step_tail_ms" => latency(def, &steps, true)?,
            "cold_p50_ms" => latency(def, &outcome.cold_ms, false)?,
            "cold_tail_ms" => latency(def, &outcome.cold_ms, true)?,
            "warm_p50_ms" => latency(def, &outcome.warm_ms, false)?,
            "warm_tail_ms" => latency(def, &outcome.warm_ms, true)?,
            other => unreachable!("no rule for {other}"),
        });
    }
    Ok(out)
}

/// The per-layer values of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(traced: &Traced) -> Vec<Value> {
    PER_LAYER
        .iter()
        .map(|def| {
            let found = traced.layers.iter().rev().find(|(n, _)| *n == def.name);
            Value {
                def: *def,
                value: found.map_or(0.0, |(_, v)| *v),
                note: if found.is_some() {
                    String::new()
                } else {
                    "layer not called".into()
                },
            }
        })
        .collect()
}

/// Human-readable lines, one per value.
pub fn render_lines(workload: &str, values: &[Value]) -> String {
    let mut out = String::new();
    for v in values {
        let _ = writeln!(
            out,
            "{workload:<13} {:<34} {:>14.6} {:<6} {}",
            v.def.name, v.value, v.def.unit, v.note
        );
    }
    out
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[Value]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if v.value.is_finite() { v.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            v.def.name, v.def.unit
        );
    }
    out.push_str("}}");
    out
}
