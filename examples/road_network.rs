//! Road-network community detection: the Europe-osm regime where the
//! vertex-following heuristic matters most — and where the paper found it
//! can also backfire (§6.2, "Effectiveness of the VF heuristic").
//!
//! Demonstrates VF preprocessing directly: how many vertices it removes, how
//! chain compression (the recursive extension) removes more, and what both
//! do to end-to-end runtime and quality.
//!
//! Run with: `cargo run --release --example road_network`

use grappolo::core::vf::vf_preprocess_recursive;
use grappolo::prelude::*;
use std::time::Instant;

fn main() {
    let graph = road_network(&RoadConfig {
        num_vertices: 60_000,
        spur_fraction: 0.15,
        shortcut_per_vertex: 0.12,
        seed: 7,
    });
    let stats = GraphStats::compute(&graph);
    println!(
        "road network: n={} M={} avg_deg={:.2} single-degree={} ({:.1}%)\n",
        stats.num_vertices,
        stats.num_edges,
        stats.avg_degree,
        stats.num_single_degree,
        100.0 * stats.num_single_degree as f64 / stats.num_vertices as f64
    );

    // VF preprocessing in isolation.
    let t = Instant::now();
    let single_pass = vf_preprocess_recursive(&graph, 1);
    println!(
        "VF single pass:    merged {:>6} vertices ({} remain) in {:.2?}",
        single_pass.merged,
        single_pass.graph.num_vertices(),
        t.elapsed()
    );
    let t = Instant::now();
    let recursive = vf_preprocess_recursive(&graph, 16);
    println!(
        "VF chain compress: merged {:>6} vertices ({} remain) in {:.2?}\n",
        recursive.merged,
        recursive.graph.num_vertices(),
        t.elapsed()
    );

    // End-to-end comparison: baseline vs baseline+VF vs VF-recursive.
    let run = |name: &str, config: LouvainConfig| {
        let start = Instant::now();
        let result = detect_communities(&graph, &config);
        println!(
            "{:<24} Q={:.5} communities={:>5} iterations={:>3} time={:.2?}",
            name,
            result.modularity,
            result.num_communities,
            result.trace.total_iterations(),
            start.elapsed()
        );
    };
    run("baseline", Scheme::Baseline.config());
    run("baseline+VF", Scheme::BaselineVf.config());
    run(
        "baseline+VF(recursive)",
        LouvainConfig {
            vf_rounds: 16,
            ..Scheme::BaselineVf.config()
        },
    );
    run(
        "baseline+VF+Color",
        LouvainConfig {
            coloring_vertex_cutoff: 1_024,
            ..Scheme::BaselineVfColor.config()
        },
    );
}
