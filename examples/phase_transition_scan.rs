//! Scan the hypercube fault exponent and watch the routing phase transition
//! (Theorem 3) appear.
//!
//! For `p = n^{-α}` the giant component exists for every `α < 1`, but
//! *finding* paths is only cheap for `α < 1/2`. This example sweeps `α`,
//! measures the segment router's conditioned cost with a probe budget, and
//! renders the resulting curve as an ASCII figure together with the measured
//! transition location.
//!
//! ```text
//! cargo run --release --example phase_transition_scan
//! ```

use faultnet::prelude::*;
use faultnet_analysis::figure::{AsciiFigure, Scale, Series};
use faultnet_analysis::phase::steepest_rise;
use faultnet_experiments::hypercube_transition::measure_alpha_point;

fn main() {
    let dimension = 12;
    let trials = 15;
    let budget = 60_000;
    let alphas = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
    let threads = faultnet_experiments::cli::resolve_threads(0);

    println!(
        "hypercube n = {dimension}: sweeping p = n^-alpha with a {budget}-probe budget, {trials} trials per point, {threads} threads"
    );
    println!();

    let mut table = Table::new([
        "alpha",
        "p",
        "pair connected",
        "within budget",
        "mean cost (probes)",
    ]);
    let mut curve = Vec::new();
    let mut log_curve = Vec::new();
    for (i, &alpha) in alphas.iter().enumerate() {
        let point = measure_alpha_point(
            dimension,
            alpha,
            trials,
            budget,
            31_000 + i as u64,
            TrialExec::sequential().with_threads(threads),
        );
        table.push_row([
            format!("{alpha:.1}"),
            format!("{:.4}", point.p),
            format!("{:.2}", point.connectivity_rate),
            format!("{:.2}", point.success_rate),
            format!("{:.1}", point.mean_cost),
        ]);
        if point.mean_cost.is_finite() {
            curve.push((alpha, point.mean_cost));
            log_curve.push((alpha, point.mean_cost.ln()));
        }
    }
    println!("{table}");

    let figure = AsciiFigure::new("segment-router cost vs alpha (log y)")
        .with_scales(Scale::Linear, Scale::Log)
        .with_size(60, 16)
        .with_series(Series::new("cost", curve));
    println!("{}", figure.render());

    if let Some(alpha_star) = steepest_rise(&log_curve) {
        println!(
            "measured transition (steepest rise of log cost): alpha ≈ {alpha_star:.2}; \
             Theorem 3 locates it at alpha = 0.5 as n → ∞"
        );
    }
}
