//! Integration tests spanning the workspace crates: generators → coloring →
//! solver → metrics, exercised through the umbrella crate's public API only.

use grappolo::coloring::{color_classes, is_valid_distance1};
use grappolo::core::vf::vf_preprocess;
use grappolo::prelude::*;

/// Full pipeline: generate, detect with every scheme, compare to ground
/// truth with every metric.
#[test]
fn pipeline_planted_recovery_all_schemes() {
    let (g, truth) = planted_partition(&PlantedConfig {
        num_vertices: 3_000,
        num_communities: 30,
        avg_intra_degree: 14.0,
        avg_inter_degree: 1.0,
        ..Default::default()
    });
    for scheme in Scheme::ALL {
        let mut cfg = scheme.config();
        cfg.coloring_vertex_cutoff = 128;
        let result = detect_communities(&g, &cfg);
        let m = pairwise_comparison(&truth, &result.assignment);
        assert!(
            m.rand_index() > 0.95,
            "{}: rand index {} too low",
            scheme.name(),
            m.rand_index()
        );
        let nmi = normalized_mutual_information(&truth, &result.assignment);
        assert!(nmi > 0.8, "{}: NMI {nmi} too low", scheme.name());
    }
}

/// The coloring consumed by the solver is a valid distance-1 coloring and
/// the color classes partition the vertex set.
#[test]
fn coloring_feeds_solver_correctly() {
    let g = rmat(&RmatConfig {
        scale: 12,
        num_edges: 30_000,
        ..Default::default()
    });
    let coloring = color_parallel(&g, &ParallelColoringConfig::default());
    assert!(is_valid_distance1(&g, &coloring));
    let classes = color_classes(&coloring);
    let total: usize = classes.iter().map(Vec::len).sum();
    assert_eq!(total, g.num_vertices());
    // Every class is an independent set.
    for class in &classes {
        for &v in class {
            for &u in g.neighbor_ids(v) {
                if u != v {
                    assert_ne!(
                        coloring[u as usize], coloring[v as usize],
                        "adjacent same-color pair ({u},{v})"
                    );
                }
            }
        }
    }
}

/// VF projection, solver assignment, and metrics agree about the vertex set.
#[test]
fn vf_projection_is_consistent_with_driver() {
    let (g, _) = hub_spoke(&HubSpokeConfig {
        num_hubs: 50,
        spokes_per_hub: 6,
        ..Default::default()
    });
    let vf = vf_preprocess(&g);
    assert_eq!(vf.graph.num_vertices() + vf.merged, g.num_vertices());

    // Driver with VF produces an assignment over the ORIGINAL vertices where
    // each spoke shares its hub's community (Lemma 3's guarantee).
    let result = detect_communities(&g, &Scheme::BaselineVf.config());
    assert_eq!(result.assignment.len(), g.num_vertices());
    for v in 0..g.num_vertices() as u32 {
        if grappolo::graph::stats::is_single_degree(&g, v) {
            let hub = g.neighbor_ids(v)[0];
            assert_eq!(
                result.assignment[v as usize], result.assignment[hub as usize],
                "spoke {v} not in hub {hub}'s community"
            );
        }
    }
}

/// Lemma 3 also holds WITHOUT the VF heuristic: single-degree vertices end
/// up co-clustered with their neighbor through the normal iterations.
#[test]
fn lemma3_holds_for_plain_louvain() {
    let (g, _) = hub_spoke(&HubSpokeConfig {
        num_hubs: 30,
        spokes_per_hub: 4,
        ..Default::default()
    });
    for scheme in [Scheme::Serial, Scheme::Baseline] {
        let result = detect_with_scheme(&g, scheme);
        for v in 0..g.num_vertices() as u32 {
            if grappolo::graph::stats::is_single_degree(&g, v) {
                let hub = g.neighbor_ids(v)[0];
                assert_eq!(
                    result.assignment[v as usize],
                    result.assignment[hub as usize],
                    "{}: single-degree {v} split from its neighbor {hub}",
                    scheme.name()
                );
            }
        }
    }
}

/// I/O round trip feeds the solver identically: detection on the reloaded
/// graph gives the same partition (baseline scheme is deterministic).
#[test]
fn io_round_trip_preserves_detection() {
    let (g, _) = planted_partition(&PlantedConfig {
        num_vertices: 800,
        num_communities: 8,
        ..Default::default()
    });
    let dir = std::env::temp_dir().join("grappolo_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.grb");
    grappolo::graph::io::save_path(&g, &path).unwrap();
    let g2 = grappolo::graph::io::load_path(&path).unwrap();

    let r1 = detect_with_scheme(&g, Scheme::Baseline);
    let r2 = detect_with_scheme(&g2, Scheme::Baseline);
    assert_eq!(r1.assignment, r2.assignment);
    assert_eq!(r1.modularity, r2.modularity);
}

/// Vertex relabeling leaves modularity invariant (solver quality should not
/// depend on vertex order beyond heuristic tie-breaks).
#[test]
fn relabeling_preserves_quality_band() {
    let (g, _) = planted_partition(&PlantedConfig {
        num_vertices: 2_000,
        num_communities: 20,
        ..Default::default()
    });
    let (shuffled, _) = grappolo::graph::perm::shuffle_vertices(&g, 99);
    let q1 = detect_with_scheme(&g, Scheme::Baseline).modularity;
    let q2 = detect_with_scheme(&shuffled, Scheme::Baseline).modularity;
    assert!(
        (q1 - q2).abs() < 0.05,
        "vertex order changed quality too much: {q1} vs {q2}"
    );
}

/// The paper-suite proxies flow through the full stack at smoke scale.
#[test]
fn paper_suite_end_to_end_smoke() {
    for input in [
        PaperInput::Cnr,
        PaperInput::EuropeOsm,
        PaperInput::Nlpkkt240,
    ] {
        let g = input.generate(0.03, 7);
        let mut cfg = Scheme::BaselineVfColor.config();
        cfg.coloring_vertex_cutoff = 256;
        let result = detect_communities(&g, &cfg);
        assert!(
            result.modularity > 0.2,
            "{}: Q {} suspiciously low",
            input.id(),
            result.modularity
        );
        assert!(result.num_communities > 1);
        assert_eq!(result.assignment.len(), g.num_vertices());
    }
}

/// Dendrogram levels refine monotonically and the final level matches the
/// reported assignment, across crates.
#[test]
fn hierarchy_contract() {
    let (g, _) = planted_partition(&PlantedConfig {
        num_vertices: 1_500,
        num_communities: 15,
        ..Default::default()
    });
    let result = detect_with_scheme(&g, Scheme::BaselineVf);
    let levels = result.dendrogram.num_levels();
    assert!(levels >= 1);
    let mut prev_communities = usize::MAX;
    for l in 0..levels {
        let flat = result.dendrogram.flatten_to_level(l);
        let distinct = {
            let mut v: Vec<u32> = flat.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(distinct <= prev_communities, "level {l} got finer");
        prev_communities = distinct;
        // Each level's labels are dense 0..k.
        assert_eq!(*flat.iter().max().unwrap() as usize + 1, distinct);
    }
}
