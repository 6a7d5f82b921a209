//! Quickstart: detect communities in a small graph and inspect the result.
//!
//! Run with: `cargo run --release --example quickstart`

use grappolo::prelude::*;

fn main() {
    // Build a graph by hand: two tight cliques joined by one bridge edge.
    // Vertices 0-3 form one clique, 4-7 the other.
    let mut builder = GraphBuilder::new(8);
    for group in [[0u32, 1, 2, 3], [4, 5, 6, 7]] {
        for i in 0..4 {
            for j in i + 1..4 {
                builder = builder.add_edge(group[i], group[j], 1.0);
            }
        }
    }
    builder = builder.add_edge(3, 4, 1.0); // the bridge
    let graph = builder.build().expect("valid edge list");

    println!(
        "graph: {} vertices, {} edges, total weight {}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.total_weight()
    );

    // Run the paper's headline configuration: parallel Louvain with the
    // minimum-label, vertex-following and coloring heuristics.
    let result = detect_with_scheme(&graph, Scheme::BaselineVfColor);

    println!(
        "found {} communities with modularity Q = {:.4}",
        result.num_communities, result.modularity
    );
    for (v, c) in result.assignment.iter().enumerate() {
        println!("  vertex {v} → community {c}");
    }

    // The two cliques should each form one community.
    assert_eq!(result.num_communities, 2);
    assert_eq!(result.assignment[0], result.assignment[3]);
    assert_eq!(result.assignment[4], result.assignment[7]);
    assert_ne!(result.assignment[0], result.assignment[4]);

    // The trace records the modularity climb, phase by phase.
    println!("\nmodularity evolution:");
    for (phase, rec) in result.trace.phases.iter().enumerate() {
        for (iteration, &(q, moves)) in rec.iterations.iter().enumerate() {
            println!("  phase {phase} iteration {iteration}: Q = {q:+.4} ({moves} moves)");
        }
    }
    println!(
        "total: {} iterations across {} phases in {:?}",
        result.trace.total_iterations(),
        result.trace.num_phases(),
        result.trace.total_time
    );
}
