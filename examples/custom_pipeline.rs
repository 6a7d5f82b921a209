//! Advanced use of the lower-level API: manual coloring inspection, a custom
//! heuristic configuration, a resolution (γ) sweep, and file round-tripping.
//!
//! Run with: `cargo run --release --example custom_pipeline`

use grappolo::coloring::is_valid_distance1;
use grappolo::prelude::*;

fn main() {
    let (graph, _truth) = planted_partition(&PlantedConfig {
        num_vertices: 20_000,
        num_communities: 100,
        ..Default::default()
    });

    // --- 1. Inspect the coloring the paper's heuristic would use. ---------
    let mut coloring = color_parallel(&graph, &ParallelColoringConfig::default());
    assert!(is_valid_distance1(&graph, &coloring));
    let before = ColoringStats::compute(&coloring);
    let moved = balance_colors(&graph, &mut coloring, 0.1);
    let after = ColoringStats::compute(&coloring);
    println!(
        "coloring: {} colors, size RSD {:.3} → balanced to {:.3} ({} vertices moved)",
        before.num_colors, before.size_rsd, after.size_rsd, moved
    );

    // --- 2. Drive a single colored phase directly. ------------------------
    let batches = ColorBatches::from_coloring(&coloring);
    let phase_config = LouvainConfig {
        max_iterations_per_phase: 100,
        ..LouvainConfig::default()
    };
    let phase = PhaseDriver::from_config(&phase_config, 1e-2).run_colored(&graph, &batches);
    println!(
        "one colored phase: Q = {:.4} after {} iterations",
        phase.final_modularity,
        phase.num_iterations()
    );

    // --- 3. A custom configuration: recursive VF, balanced coloring. -------
    let config = LouvainConfig {
        vf_rounds: 8,
        balanced_coloring: true,
        coloring_vertex_cutoff: 1_024,
        num_threads: Some(2),
        ..Scheme::BaselineVfColor.config()
    };
    let result = detect_communities(&graph, &config);
    println!(
        "custom config: {} communities, Q = {:.4}, {} phases",
        result.num_communities,
        result.modularity,
        result.trace.num_phases()
    );

    // --- 4. Resolution sweep (the paper's future-work item (iv)). ---------
    println!("\nresolution sweep (γ scales the null model):");
    for gamma in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let cfg = LouvainConfig {
            resolution: gamma,
            coloring_vertex_cutoff: 1_024,
            ..Scheme::BaselineVfColor.config()
        };
        let r = detect_communities(&graph, &cfg);
        println!(
            "  γ={gamma:<5} → {:>6} communities, Q_γ = {:.4}",
            r.num_communities, r.modularity
        );
    }

    // --- 5. Round-trip the graph through the binary format. ---------------
    let path = std::env::temp_dir().join("grappolo_example.grb");
    grappolo::graph::io::save_path(&graph, &path).expect("save");
    let reloaded = grappolo::graph::io::load_path(&path).expect("load");
    assert_eq!(reloaded.num_edges(), graph.num_edges());
    println!("\nround-tripped graph through {}", path.display());
}
