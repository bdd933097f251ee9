//! P2P overlay under churn — the scenario motivating the paper's
//! introduction.
//!
//! Hypercubic overlays (Chord-like, Pastry-like) route greedily along a
//! virtual hypercube. When a fraction of the links is down (node churn,
//! partitions), two questions matter to the overlay designer:
//!
//! 1. Are the source and the target still connected at all?
//! 2. Can the overlay's *local* routing still find a path cheaply, or does it
//!    degenerate into flooding the network?
//!
//! This example sweeps the link-failure probability on a hypercube overlay
//! and prints, per failure level: connectivity of a far-apart pair, the cost
//! of greedy routing (with detours), the cost of the paper's segment router,
//! and the cost of flooding — illustrating Theorem 3's practical content:
//! below a critical fault level smart local routing stays cheap, above it
//! every local strategy degrades towards flooding.
//!
//! ```text
//! cargo run --release --example p2p_overlay_faults
//! ```

use faultnet::prelude::*;
use faultnet_routing::hypercube::GreedyHypercubeRouter;

fn main() {
    let dimension = 12;
    let overlay = Hypercube::new(dimension);
    let (u, v) = overlay.canonical_pair();
    let trials = 25;
    let (model, exec) = (BernoulliEdges::new(), TrialExec::sequential());

    println!(
        "hypercubic P2P overlay: {} nodes, {} links, routing across {} overlay hops",
        overlay.num_vertices(),
        overlay.num_edges(),
        overlay.distance(u, v).unwrap()
    );
    println!();

    let mut table = Table::new([
        "link failure q",
        "pair connected",
        "greedy success",
        "greedy probes",
        "segment probes",
        "flood probes",
    ])
    .with_title(format!("{trials} percolation instances per row"));

    for failure in [0.05, 0.2, 0.4, 0.6, 0.7, 0.8] {
        let p = 1.0 - failure;
        let harness = ComplexityHarness::new(
            overlay,
            PercolationConfig::new(p, 7_000 + (failure * 100.0) as u64),
        );
        let greedy = harness.measure(
            &model,
            &GreedyHypercubeRouter::with_detours(50_000),
            u,
            v,
            trials,
            exec,
        );
        let segment = harness.measure(&model, &SegmentRouter::default(), u, v, trials, exec);
        let flood = harness.measure(&model, &FloodRouter::new(), u, v, trials, exec);
        table.push_row([
            format!("{failure:.2}"),
            format!("{:.2}", segment.connectivity_rate()),
            format!("{:.2}", greedy.success_rate()),
            format!("{:.1}", greedy.mean_probes()),
            format!("{:.1}", segment.mean_probes()),
            format!("{:.1}", flood.mean_probes()),
        ]);
    }
    println!("{table}");
    println!(
        "Reading the table: as long as the failure probability stays below ~1 - n^(-1/2)\n\
         the segment router's cost stays within a small factor of the hop count, so exact-match\n\
         routing remains viable. Past that point its cost approaches flooding — which is the\n\
         paper's advice that heavily-faulty overlays should fall back to gossip/flooding for\n\
         lookups rather than rely on routed exact search."
    );
}
