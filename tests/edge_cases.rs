//! Edge cases and failure injection across the public API: degenerate
//! graphs, malformed inputs, extreme configurations, and panic contracts.
//!
//! The colored differential cases pin the production `PhaseDriver` against
//! the rescan reference in `grappolo::core::reference`.

use grappolo::coloring::color_parallel;
use grappolo::core::config::{LouvainConfig, SweepMode};
use grappolo::core::modularity::{
    community_degrees, community_sizes, IndependentMove, ModularityTracker, NeighborScratch,
};
use grappolo::core::reference::parallel_phase_colored_rescan;
use grappolo::graph::io;
use grappolo::prelude::*;

/// One full-sweep colored phase through the production driver at the fixed
/// threshold 1e-9, at most `max_iterations` iterations.
fn colored_phase(g: &CsrGraph, batches: &ColorBatches, max_iterations: usize) -> PhaseOutcome {
    let config = LouvainConfig {
        max_iterations_per_phase: max_iterations,
        ..LouvainConfig::default()
    };
    PhaseDriver::from_config(&config, 1e-9).run_colored(g, batches)
}

#[test]
fn complete_graph_is_one_community() {
    // A clique has no internal structure: everything merges, Q = 0.
    let n = 12u32;
    let mut b = GraphBuilder::new(n as usize);
    for u in 0..n {
        for v in u + 1..n {
            b = b.add_edge(u, v, 1.0);
        }
    }
    let g = b.build().unwrap();
    for scheme in Scheme::ALL {
        let r = detect_with_scheme(&g, scheme);
        assert_eq!(r.num_communities, 1, "{}", scheme.name());
        assert!(r.modularity.abs() < 1e-9, "{}", scheme.name());
    }
}

#[test]
fn disconnected_components_stay_separate() {
    // Two triangles with NO bridge: two communities, never merged (merging
    // them has negative gain).
    let g = from_unweighted_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
    for scheme in Scheme::ALL {
        let r = detect_with_scheme(&g, scheme);
        assert_eq!(r.num_communities, 2, "{}", scheme.name());
        assert_ne!(r.assignment[0], r.assignment[3]);
    }
}

#[test]
fn self_loop_only_graph() {
    let g = from_weighted_edges(3, [(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)]).unwrap();
    let r = detect_with_scheme(&g, Scheme::Baseline);
    assert_eq!(r.num_communities, 3);
    // Q = Σ w_loop/2m − Σ (k/2m)²; every vertex isolated in its own comm.
    assert!(r.modularity.is_finite());
}

#[test]
fn two_vertex_worlds() {
    // Smallest possible non-trivial graphs.
    let pair = from_unweighted_edges(2, [(0, 1)]).unwrap();
    for scheme in Scheme::ALL {
        let r = detect_with_scheme(&pair, scheme);
        assert_eq!(r.num_communities, 1, "{}", scheme.name());
    }
    let single = from_weighted_edges(1, [(0, 0, 5.0)]).unwrap();
    let r = detect_with_scheme(&single, Scheme::BaselineVf);
    assert_eq!(r.num_communities, 1);
}

#[test]
fn extreme_weights_do_not_break_math() {
    let g =
        from_weighted_edges(4, [(0, 1, 1e-12), (1, 2, 1e12), (2, 3, 1.0), (3, 0, 1e-12)]).unwrap();
    let r = detect_with_scheme(&g, Scheme::Baseline);
    assert!(r.modularity.is_finite());
    // The overwhelming edge forces 1 and 2 together.
    assert_eq!(r.assignment[1], r.assignment[2]);
}

#[test]
fn star_graph_all_schemes() {
    let g = from_unweighted_edges(50, (1..50).map(|v| (0, v))).unwrap();
    for scheme in Scheme::ALL {
        let r = detect_with_scheme(&g, scheme);
        // A star is one community (spokes follow the hub, Lemma 3).
        assert_eq!(r.num_communities, 1, "{}", scheme.name());
    }
}

#[test]
fn heavy_multi_edge_merging() {
    // 1000 copies of the same edge collapse into weight 1000.
    let edges = std::iter::repeat_n((0u32, 1u32, 1.0), 1000);
    let g = GraphBuilder::new(2).extend_edges(edges).build().unwrap();
    assert_eq!(g.num_edges(), 1);
    assert_eq!(g.edge_weight(0, 1), Some(1000.0));
}

#[test]
#[should_panic(expected = "invalid LouvainConfig")]
fn invalid_config_panics() {
    let g = from_unweighted_edges(2, [(0, 1)]).unwrap();
    let cfg = LouvainConfig {
        final_threshold: -1.0,
        ..Default::default()
    };
    detect_communities(&g, &cfg);
}

/// The dirty-vertex schedule on degenerate graphs: empty, edgeless,
/// isolated-vertex, and self-loop-only inputs behave exactly like the full
/// sweep (no vertex ever becomes active after iteration 0 resolves).
#[test]
fn active_sweep_degenerate_graphs_match_full() {
    let graphs: Vec<CsrGraph> = vec![
        CsrGraph::empty(0),
        CsrGraph::empty(7),
        from_weighted_edges(3, [(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)]).unwrap(), // loops only
        from_unweighted_edges(5, [(0, 1)]).unwrap(), // isolated 2, 3, 4
        from_weighted_edges(4, [(0, 0, 5.0), (2, 3, 1.0)]).unwrap(), // loop + edge + isolated
    ];
    for (i, g) in graphs.iter().enumerate() {
        for scheme in Scheme::ALL {
            let mut cfg = scheme.config();
            let full = detect_communities(g, &cfg);
            cfg.sweep_mode = SweepMode::Active;
            let active = detect_communities(g, &cfg);
            assert_eq!(
                full.assignment,
                active.assignment,
                "graph {i}, {}",
                scheme.name()
            );
            assert_eq!(
                full.modularity.to_bits(),
                active.modularity.to_bits(),
                "graph {i}, {}",
                scheme.name()
            );
        }
    }
}

/// Isolated vertices never enter a frontier after iteration 0: on a graph
/// that is mostly isolated vertices the active run must finish in no more
/// iterations than the full run, with the same partition.
#[test]
fn active_sweep_isolated_heavy_graph_terminates_fast() {
    let mut b = GraphBuilder::new(1_000);
    for v in 0..10u32 {
        b = b.add_edge(v, (v + 1) % 10, 1.0);
    }
    let g = b.build().unwrap();
    let mut cfg = Scheme::Baseline.config();
    let full = detect_communities(&g, &cfg);
    cfg.sweep_mode = SweepMode::Active;
    let r = detect_communities(&g, &cfg);
    assert_eq!(r.assignment.len(), 1_000);
    assert_eq!(r.assignment, full.assignment);
    assert!(
        r.trace.total_iterations() <= full.trace.total_iterations(),
        "active took {} iterations vs full's {}",
        r.trace.total_iterations(),
        full.trace.total_iterations()
    );
    // The 990 isolated vertices stay singletons.
    let mut seen = std::collections::HashSet::new();
    for v in 10..1_000 {
        assert!(
            seen.insert(r.assignment[v]),
            "vertex {v} merged unexpectedly"
        );
    }
}

#[test]
fn max_phases_one_still_terminates() {
    let (g, _) = planted_partition(&PlantedConfig {
        num_vertices: 500,
        num_communities: 5,
        ..Default::default()
    });
    let cfg = LouvainConfig {
        max_phases: 1,
        ..Scheme::Baseline.config()
    };
    let r = detect_communities(&g, &cfg);
    assert_eq!(r.trace.num_phases(), 1);
    assert!(r.modularity > 0.0);
}

#[test]
fn io_malformed_inputs_error_not_panic() {
    assert!(io::read_edge_list("1 2 zzz\n".as_bytes()).is_err());
    assert!(io::read_metis("not a header\n".as_bytes()).is_err());
    assert!(io::read_grb(&b"garbage"[..]).is_err());
    assert!(io::load_path("/nonexistent/path/graph.grb").is_err());
}

#[test]
fn io_negative_weight_rejected_at_build() {
    let err = io::read_edge_list("0 1 -3.0\n".as_bytes()).unwrap_err();
    assert!(matches!(err, io::IoError::Build(_)), "{err}");
}

/// Empty color batches (a coloring whose color ids have gaps) are legal
/// input to the colored sweep and change nothing.
#[test]
fn colored_phase_tolerates_empty_batches() {
    let (g, _) = ring_of_cliques(&CliqueRingConfig {
        num_cliques: 6,
        clique_size: 5,
        ..Default::default()
    });
    let coloring = color_parallel(&g, &ParallelColoringConfig::default());
    let dense = ColorBatches::from_coloring(&coloring);
    // Skip color id 1: every color above 0 shifts up by one.
    let skipping: Vec<u32> = coloring.iter().map(|&c| c + u32::from(c > 0)).collect();
    let gappy = ColorBatches::from_coloring(&skipping);
    assert!(gappy.class(1).is_empty());
    assert_eq!(gappy.num_classes(), dense.num_classes() + 1);

    let a = colored_phase(&g, &dense, 100);
    let b = colored_phase(&g, &gappy, 100);
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.iterations, b.iterations);
}

/// A graph whose only edges are self-loops: every community stays a
/// singleton, no batch commits a move, and the incremental accounting agrees
/// with the rescan reference without drifting.
#[test]
fn colored_phase_singleton_communities_and_self_loops() {
    let g = from_weighted_edges(4, [(0, 0, 2.0), (1, 1, 1.0), (3, 3, 4.0)]).unwrap();
    let coloring = color_parallel(&g, &ParallelColoringConfig::default());
    let batches = ColorBatches::from_coloring(&coloring);
    let inc = colored_phase(&g, &batches, 50);
    let ref_ = parallel_phase_colored_rescan(&g, &batches, SweepMode::Full, 1e-9, 50, 1.0);
    assert_eq!(inc.assignment, vec![0, 1, 2, 3]);
    assert_eq!(inc.assignment, ref_.assignment);
    assert_eq!(inc.iterations.len(), 1);
    assert_eq!(inc.iterations[0].1, 0, "self-loops must not induce moves");
    assert_eq!(
        inc.final_modularity.to_bits(),
        ref_.final_modularity.to_bits()
    );
}

/// A vertex that moves out of its community and back again inside one
/// iteration (two consecutive batches) must restore the tracker's `e_in`
/// and `Σ a_C²` *bitwise* — the round trip cancels exactly in the
/// incremental accounting.
#[test]
fn tracker_move_away_and_back_restores_state_bitwise() {
    let g =
        from_unweighted_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]).unwrap();
    let mut assignment = vec![0u32, 0, 0, 1, 1, 1];
    let mut a = community_degrees(&g, &assignment);
    let mut sizes = community_sizes(&assignment);
    let mut tracker = ModularityTracker::new(&g, &assignment, &a, 1.0);
    let e_in_0 = tracker.e_in.to_bits();
    let null_0 = tracker.null_sum.to_bits();

    let mut scratch = NeighborScratch::default();
    let weight_to = |scratch: &NeighborScratch, c: u32| {
        scratch
            .entries
            .iter()
            .find(|&&(cc, _)| cc == c)
            .map_or(0.0, |&(_, w)| w)
    };
    // Batch 1: bridge vertex 2 defects to community 1; batch 2: back home.
    for (from, to) in [(0u32, 1u32), (1, 0)] {
        scratch.gather(&g, &assignment, 2);
        let moves = [IndependentMove {
            k: g.weighted_degree(2),
            e_src: weight_to(&scratch, from),
            e_tgt: weight_to(&scratch, to),
            from,
            to,
        }];
        tracker.apply_independent_batch(&moves, &mut a, &mut sizes);
        assignment[2] = to;
    }

    assert_eq!(assignment, vec![0, 0, 0, 1, 1, 1]);
    assert_eq!(tracker.e_in.to_bits(), e_in_0, "e_in round trip not exact");
    assert_eq!(
        tracker.null_sum.to_bits(),
        null_0,
        "null_sum round trip not exact"
    );
    assert_eq!(a, community_degrees(&g, &assignment));
    assert_eq!(sizes, community_sizes(&assignment));
}

/// Zero-weight edges are rejected at graph construction (§2 requires
/// positive weights), so the incremental accounting never has to reason
/// about them; self-loop-only adjacency plus an isolated vertex is the
/// closest legal degenerate input and flows through both the incremental
/// sweep and the rescan reference.
#[test]
fn colored_accounting_zero_weight_and_self_loop_contract() {
    assert!(GraphBuilder::new(2).add_edge(0, 1, 0.0).build().is_err());
    assert!(io::read_edge_list("0 1 0.0\n".as_bytes()).is_err());

    // Mixed self-loops + a real edge + an isolated vertex, exact weights.
    let g = from_weighted_edges(4, [(0, 0, 2.5), (0, 1, 1.5), (2, 2, 3.0)]).unwrap();
    let coloring = color_parallel(&g, &ParallelColoringConfig::default());
    let batches = ColorBatches::from_coloring(&coloring);
    let inc = colored_phase(&g, &batches, 50);
    let ref_ = parallel_phase_colored_rescan(&g, &batches, SweepMode::Full, 1e-9, 50, 1.0);
    assert_eq!(inc.assignment, ref_.assignment);
    assert_eq!(inc.assignment[3], 3, "isolated vertex must stay singleton");
    assert_eq!(
        inc.final_modularity.to_bits(),
        ref_.final_modularity.to_bits()
    );
}

#[test]
fn huge_label_space_metrics() {
    // Labels far above the vertex count must not break the metrics.
    let a = vec![u32::MAX - 1, u32::MAX - 1, 7];
    let b = vec![0, 0, 1];
    let m = pairwise_comparison(&a, &b);
    assert_eq!(m.rand_index(), 1.0);
}

#[test]
fn zero_threads_clamps_to_one() {
    let g = from_unweighted_edges(4, [(0, 1), (2, 3)]).unwrap();
    let cfg = LouvainConfig {
        num_threads: Some(0),
        ..Scheme::Baseline.config()
    };
    let r = detect_communities(&g, &cfg);
    assert_eq!(r.num_communities, 2);
}

#[test]
fn oversubscribed_threads_work() {
    let (g, _) = planted_partition(&PlantedConfig {
        num_vertices: 400,
        num_communities: 4,
        ..Default::default()
    });
    let cfg = LouvainConfig {
        num_threads: Some(64),
        ..Scheme::Baseline.config()
    };
    let r = detect_communities(&g, &cfg);
    assert!(r.modularity > 0.3);
}

#[test]
fn coloring_cutoff_zero_always_colors() {
    let (g, _) = planted_partition(&PlantedConfig {
        num_vertices: 300,
        num_communities: 3,
        ..Default::default()
    });
    let cfg = LouvainConfig {
        coloring_vertex_cutoff: 0,
        ..Scheme::BaselineVfColor.config()
    };
    let r = detect_communities(&g, &cfg);
    assert!(r.trace.phases[0].colored);
}

#[test]
fn dense_labels_after_every_scheme() {
    let g = PaperInput::EuropeOsm.generate(0.02, 9);
    for scheme in Scheme::ALL {
        let r = detect_with_scheme(&g, scheme);
        let mut seen = vec![false; r.num_communities];
        for &c in &r.assignment {
            seen[c as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "{}: holes in label space",
            scheme.name()
        );
    }
}
