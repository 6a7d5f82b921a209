//! Component-split detection: independent Louvain runs per weakly connected
//! component, dispatched across the resident pool.
//!
//! The paper's parallelism is all intra-sweep (coloring, vertex-parallel
//! moves). Disconnected inputs expose a coarser grain: no edge crosses a
//! component boundary, so no Louvain move, modularity term, or rebuild ever
//! couples two components — each component is an embarrassingly parallel
//! whole-detection job (the strategy Staudt & Meyerhenke's engineering work
//! exploits). The splitter:
//!
//! 1. labels components ([`grappolo_graph::connected_components`],
//!    ascending-min-vertex ids) and extracts per-component subgraphs with
//!    vertex remap tables ([`grappolo_graph::extract_components`]);
//! 2. runs full detection per component in **largest-first** order — big
//!    components one at a time with the whole pool inside the run, the `k`
//!    small ones (below [`SPLIT_SERIAL_THRESHOLD`] vertices) fanned out
//!    across the pool in tasks of ⌈k/64⌉ consecutive components, each run's
//!    own regions nesting on the same pool;
//! 3. stitches per-component assignments back into global labels, with
//!    label blocks laid out in **component-id order** — never completion
//!    order — so the result is bitwise independent of thread count.
//!
//! Every per-component run evaluates modularity against the **parent**
//! graph's `2m` normalization (`CsrGraph::with_total_weight_override`,
//! carried through VF and rebuilds by the driver), so per-vertex decisions
//! are exactly the unsplit run's. The only remaining coupling to the
//! unsplit trajectory is the aggregate convergence tests (a component that
//! alone falls below θ stops, where the unsplit run would keep iterating it
//! while *other* components still gain): on inputs whose components reach
//! their local optima independently — the common case — split and unsplit
//! detection produce the identical partition, which CI pins on the
//! scenario-matrix inputs.

use crate::cancel::CancelToken;
use crate::config::LouvainConfig;
use crate::dendrogram::{Dendrogram, DendrogramLevel};
use crate::driver::{detect, CommunityResult};
use crate::history::RunTrace;
use crate::modularity::{modularity_with_resolution, Community};
use grappolo_graph::{connected_components, extract_components, CsrGraph};
use rayon::prelude::*;
use std::time::Instant;

/// Vertex count at or above which a component runs alone with the full
/// intra-run parallel pipeline; smaller components are fanned out across
/// the pool, many to a task.
pub const SPLIT_SERIAL_THRESHOLD: usize = 8192;

/// Detects communities per weakly connected component and stitches the
/// results (see the module docs). Falls through to the plain driver when the
/// graph has one component (or none). Components of at least
/// `serial_threshold` vertices take the one-at-a-time path (production
/// passes [`SPLIT_SERIAL_THRESHOLD`]; the tests force either path).
///
/// `token` is polled before each component's run: once it is set, the
/// remaining components are not detected and keep one community per vertex,
/// so the stitched result stays well-formed for the caller to discard.
pub(crate) fn detect_split(
    g: &CsrGraph,
    config: &LouvainConfig,
    token: &CancelToken,
    serial_threshold: usize,
) -> CommunityResult {
    let t_start = Instant::now();
    let mut comp_config = config.clone();
    comp_config.split_components = false; // no recursive splitting
    let labeling = connected_components(g);
    let k = labeling.num_components();
    if k <= 1 {
        return detect(g, &comp_config, token);
    }

    let m = g.total_weight();
    let n = g.num_vertices();
    let mut subs = extract_components(g, &labeling);
    for sub in &mut subs {
        // Every component run scores moves against the parent graph's 2m.
        sub.graph = std::mem::take(&mut sub.graph).with_total_weight_override(m);
    }
    let run =
        |c: usize| (!token.is_cancelled()).then(|| detect(&subs[c].graph, &comp_config, token));

    // Largest-first order (ties to the lower component id): the longest
    // jobs start first, so the tail of the schedule is short jobs that pack
    // tightly — classic LPT. The order only affects scheduling; label
    // stitching below is by component id.
    let threshold = serial_threshold.max(2);
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&c| (std::cmp::Reverse(labeling.sizes()[c]), c));

    let mut results: Vec<Option<CommunityResult>> = (0..k).map(|_| None).collect();
    let mut small: Vec<usize> = Vec::new();
    for &c in &order {
        let size = labeling.sizes()[c];
        if size >= threshold {
            // Large component: run alone; its inner sweeps use the whole
            // pool.
            results[c] = run(c);
        } else if size > 1 || subs[c].graph.num_adjacency_entries() > 0 {
            small.push(c);
        }
        // Isolated vertices (no self-loop) stay trivial singletons — no run.
    }
    // Small components: pool tasks of ⌈k/64⌉ consecutive components each,
    // in the same largest-first order; `with_min_len(1)` keeps a few hundred
    // of them from running inline on the caller. Nested parallel regions
    // inside a task execute on the shared pool (the claiming worker drains
    // them), and per-component detection is bitwise deterministic, so the
    // fan-out cannot perturb any result.
    let small_results: Vec<(usize, Option<CommunityResult>)> = small
        .par_iter()
        .with_min_len(1)
        .map(|&c| (c, run(c)))
        .collect();
    for (c, r) in small_results {
        results[c] = r;
    }

    // Stitch: label blocks in component-id order (component ids are
    // ascending-min-vertex, a pure function of the graph), local labels
    // mapped through each component's remap table; the trace appends each
    // component's phase records in the same order. A component without a
    // result (an isolated vertex, or one the token stopped) keeps one
    // community per vertex.
    let mut assignment = vec![0 as Community; n];
    let mut trace = RunTrace::default();
    let mut total = 0usize;
    for (sub, result) in subs.iter().zip(results) {
        let (labels, count) = match result {
            Some(r) => {
                trace.phases.extend(r.trace.phases);
                trace.vf_time += r.trace.vf_time;
                trace.vf_merged += r.trace.vf_merged;
                (Some(r.assignment), r.num_communities)
            }
            None => (None, sub.vertices.len()),
        };
        for (local, &global) in sub.vertices.iter().enumerate() {
            let label = labels.as_ref().map_or(local as Community, |l| l[local]);
            assignment[global as usize] = total as Community + label;
        }
        total += count;
    }

    let modularity = modularity_with_resolution(g, &assignment, config.resolution);
    trace.total_time = t_start.elapsed();

    // A single synthetic dendrogram level keeps the flatten invariant
    // (`dendrogram.flatten() == assignment`); per-component hierarchies are
    // not merged.
    let dendrogram = Dendrogram {
        vf_mapping: (0..n as Community).collect(),
        levels: vec![DendrogramLevel {
            assignment: assignment.clone(),
            renumber: (0..total as Community).collect(),
            num_communities: total,
        }],
    };

    CommunityResult {
        assignment,
        num_communities: total,
        modularity,
        trace,
        dendrogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use crate::driver::detect_communities;
    use grappolo_graph::builder::GraphBuilder;
    use grappolo_graph::gen::{planted_partition, PlantedConfig};
    use grappolo_graph::VertexId;

    /// Canonical first-appearance relabeling: two assignments describe the
    /// same partition iff their canonical forms are equal.
    fn canonical(assignment: &[Community]) -> Vec<Community> {
        let mut map = std::collections::HashMap::new();
        assignment
            .iter()
            .map(|&c| {
                let next = map.len() as Community;
                *map.entry(c).or_insert(next)
            })
            .collect()
    }

    /// A multi-component input: several planted-partition blocks of varying
    /// sizes plus isolated vertices, disjointly offset into one graph.
    fn multi_component(block_sizes: &[usize], isolated: usize, seed: u64) -> CsrGraph {
        let total: usize = block_sizes.iter().sum::<usize>() + isolated;
        let mut b = GraphBuilder::new(total);
        let mut base = 0u32;
        for (i, &size) in block_sizes.iter().enumerate() {
            let (block, _) = planted_partition(&PlantedConfig {
                num_vertices: size,
                num_communities: (size / 64).max(2),
                avg_intra_degree: 12.0,
                avg_inter_degree: 1.0,
                seed: seed + i as u64,
                ..Default::default()
            });
            for (u, v, w) in block.undirected_edges() {
                b = b.add_edge(base + u, base + v, w);
            }
            base += size as u32;
        }
        b.build().unwrap()
    }

    #[test]
    fn split_matches_unsplit_partition_baseline() {
        let g = multi_component(&[600, 400, 300], 5, 7);
        for scheme in [Scheme::Baseline, Scheme::Serial] {
            let mut cfg = scheme.config();
            let plain = detect_communities(&g, &cfg);
            cfg.split_components = true;
            let split = detect_communities(&g, &cfg);
            assert_eq!(
                canonical(&split.assignment),
                canonical(&plain.assignment),
                "{}: split and unsplit partitions differ",
                scheme.name()
            );
            // Raw labels (not just the partition) agree because the input's
            // components occupy ascending vertex ranges: the unsplit run's
            // ascending-label renumber then orders communities exactly in
            // component-block order. Interleaved components are only
            // guaranteed partition equality.
            assert_eq!(
                split.assignment,
                plain.assignment,
                "{}: raw labels differ despite equal partitions",
                scheme.name()
            );
            assert!(
                (split.modularity - plain.modularity).abs() < 1e-12,
                "{}: Q {} vs {}",
                scheme.name(),
                split.modularity,
                plain.modularity
            );
            assert_eq!(split.num_communities, plain.num_communities);
        }
    }

    #[test]
    fn split_single_component_falls_through() {
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 500,
            num_communities: 5,
            avg_intra_degree: 12.0,
            avg_inter_degree: 1.0,
            ..Default::default()
        });
        let mut cfg = Scheme::Baseline.config();
        let plain = detect_communities(&g, &cfg);
        cfg.split_components = true;
        let split = detect_communities(&g, &cfg);
        assert_eq!(split.assignment, plain.assignment);
        assert_eq!(split.modularity.to_bits(), plain.modularity.to_bits());
    }

    #[test]
    fn split_stable_across_thread_counts() {
        let g = multi_component(&[500, 350, 200, 150], 3, 11);
        let mut cfg = Scheme::Baseline.config();
        cfg.split_components = true;
        cfg.num_threads = Some(1);
        let r1 = detect_communities(&g, &cfg);
        cfg.num_threads = Some(2);
        let r2 = detect_communities(&g, &cfg);
        cfg.num_threads = Some(8);
        let r8 = detect_communities(&g, &cfg);
        assert_eq!(r1.assignment, r2.assignment);
        assert_eq!(r1.assignment, r8.assignment);
        assert_eq!(r1.modularity.to_bits(), r2.modularity.to_bits());
        assert_eq!(r1.modularity.to_bits(), r8.modularity.to_bits());
    }

    #[test]
    fn split_respects_serial_threshold_paths() {
        // Force both dispatch paths: threshold 2 sends everything through
        // the "large" path, usize::MAX through the small fan-out; results
        // must be bitwise identical.
        let g = multi_component(&[400, 300], 2, 3);
        let cfg = Scheme::Baseline.config();
        let large_path = detect_split(&g, &cfg, &CancelToken::new(), 2);
        let small_path = detect_split(&g, &cfg, &CancelToken::new(), usize::MAX);
        assert_eq!(large_path.assignment, small_path.assignment);
        assert_eq!(
            large_path.modularity.to_bits(),
            small_path.modularity.to_bits()
        );
    }

    #[test]
    fn split_reported_modularity_matches_assignment() {
        let g = multi_component(&[300, 250], 4, 5);
        let mut cfg = Scheme::Baseline.config();
        cfg.split_components = true;
        let r = detect_communities(&g, &cfg);
        let q = modularity_with_resolution(&g, &r.assignment, 1.0);
        assert!((q - r.modularity).abs() < 1e-12);
        let max = *r.assignment.iter().max().unwrap() as usize;
        assert_eq!(max + 1, r.num_communities, "labels must be dense");
        assert_eq!(r.dendrogram.flatten(), r.assignment);
    }

    #[test]
    fn split_handles_edgeless_and_tiny_graphs() {
        let cfg = LouvainConfig {
            split_components: true,
            ..Scheme::Baseline.config()
        };
        let g = CsrGraph::empty(5);
        let r = detect_communities(&g, &cfg);
        assert_eq!(r.assignment, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.num_communities, 5);

        // Tiny two-edge graph with a self-loop singleton.
        let g = GraphBuilder::new(4)
            .add_edge(0, 1, 1.0)
            .add_edge(2, 2, 3.0)
            .build()
            .unwrap();
        let r = detect_split(&g, &cfg, &CancelToken::new(), 2);
        assert_eq!(r.assignment.len(), 4);
        assert_eq!(r.assignment[0], r.assignment[1], "edge endpoints merge");
        assert_ne!(r.assignment[2], r.assignment[3]);
    }

    #[test]
    fn split_colored_scheme_is_valid_and_stable() {
        // Colored split runs are valid detections (coloring is
        // component-local, so quality holds) and bitwise thread-stable;
        // exact equality with the unsplit colored run is not part of the
        // contract (the colored θ couples components through the aggregate
        // stop).
        let g = multi_component(&[600, 400], 2, 13);
        let mut cfg = LouvainConfig {
            coloring_vertex_cutoff: 64,
            split_components: true,
            ..Scheme::BaselineVfColor.config()
        };
        let plain_cfg = LouvainConfig {
            split_components: false,
            ..cfg.clone()
        };
        let plain = detect_communities(&g, &plain_cfg);
        let split = detect_communities(&g, &cfg);
        assert!(
            split.modularity >= 0.98 * plain.modularity,
            "split colored Q {} vs unsplit {}",
            split.modularity,
            plain.modularity
        );
        cfg.num_threads = Some(1);
        let r1 = detect_communities(&g, &cfg);
        cfg.num_threads = Some(8);
        let r8 = detect_communities(&g, &cfg);
        assert_eq!(r1.assignment, r8.assignment);
        assert_eq!(r1.modularity.to_bits(), r8.modularity.to_bits());
    }

    #[test]
    fn cancelled_token_runs_no_component() {
        // A token set before the split starts stops it ahead of every
        // component run, on both dispatch paths: no phase is recorded, and
        // the stitched result keeps one community per vertex.
        let g = multi_component(&[600, 400, 300], 5, 7);
        let token = CancelToken::new();
        token.cancel();
        for threshold in [2, usize::MAX] {
            let r = detect_split(&g, &Scheme::Baseline.config(), &token, threshold);
            assert!(r.trace.phases.is_empty(), "threshold {threshold}");
            assert_eq!(r.num_communities, g.num_vertices());
            let mut labels = r.assignment.clone();
            labels.sort_unstable();
            assert!(labels.iter().enumerate().all(|(i, &c)| c as usize == i));
        }
    }

    #[test]
    fn trace_appends_component_phases_in_id_order() {
        // The split trace is each component run's phase records, appended
        // in component-id order (not in the largest-first run order).
        let g = multi_component(&[300, 500, 200], 0, 21);
        let cfg = Scheme::Baseline.config();
        let split = detect_split(&g, &cfg, &CancelToken::new(), usize::MAX);
        let mut expected = Vec::new();
        for sub in extract_components(&g, &connected_components(&g)) {
            if sub.vertices.len() > 1 || sub.graph.num_adjacency_entries() > 0 {
                let graph = sub.graph.with_total_weight_override(g.total_weight());
                expected.extend(detect(&graph, &cfg, &CancelToken::new()).trace.phases);
            }
        }
        let key = |p: &crate::PhaseRecord| (p.num_vertices, p.iterations.clone());
        assert_eq!(
            split.trace.phases.iter().map(key).collect::<Vec<_>>(),
            expected.iter().map(key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stitched_labels_follow_component_id_order() {
        // Component ids are ascending-min-vertex; label blocks must follow.
        let g = GraphBuilder::new(6)
            .add_edge(0, 5, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(3, 4, 1.0)
            .build()
            .unwrap();
        let r = detect_split(&g, &Scheme::Baseline.config(), &CancelToken::new(), 2);
        // {0,5} is component 0, {1,2} component 1, {3,4} component 2.
        assert!(r.assignment[0] < r.assignment[1]);
        assert!(r.assignment[1] < r.assignment[3]);
    }

    #[test]
    fn vertex_id_type_is_consistent() {
        // Compile-time guard that remap tables use the graph's VertexId.
        let g = multi_component(&[64], 1, 1);
        let l = connected_components(&g);
        let subs = extract_components(&g, &l);
        let _: &Vec<VertexId> = &subs[0].vertices;
    }
}
