//! Batched dynamic updates: apply an edge batch to a graph whose communities
//! are already known and **re-converge locally** instead of rerunning
//! detection from scratch.
//!
//! The driver composes machinery every prior layer already guarantees to be
//! bitwise deterministic across thread counts:
//!
//! 1. [`CsrGraph::apply_edge_batch_diff`] rebuilds the CSR arrays through
//!    the builder's count → prefix → scatter path and reports the net
//!    per-edge changes;
//! 2. the previous assignment is carried forward (new vertices enter as
//!    singletons labeled with their own id — old labels are `< old_n`, so
//!    the label spaces cannot collide);
//! 3. the [`ModularityTracker`] is reconstructed **algebraically**: given
//!    the old partition's modularity, `Σ e_in` is inverted from Eq. 3 (the
//!    same trick [`crate::refine`] uses for its `from_parts` tracker) and
//!    patched with the touched edges' weight deltas — no O(m) rescan of the
//!    updated graph;
//! 4. the endpoints of changed edges seed the [`crate::ActiveSet`] frontier
//!    and the phase driver's unordered sweep resumes from the carried state
//!    with pruning engaged from iteration 0, so vertices outside the dirty
//!    closure are never re-examined and keep their labels **bitwise** (the
//!    quiesced-region guarantee).
//!
//! Batches that change more than [`LouvainConfig::dynamic_fallback_fraction`]
//! of the updated graph's edges fall back to a from-scratch detection — the
//! same run [`detect_communities`] makes, component splitting included,
//! inside the update's own pool. Past that density the carried state is
//! mostly invalidated and local moving would do full-sweep work for worse
//! quality.
//!
//! [`detect_communities`]: crate::detect_communities

use crate::cancel::{CancelToken, Cancelled};
use crate::config::LouvainConfig;
use crate::driver::{detect, run_in_pool};
use crate::modularity::{
    community_degrees, community_sizes, det_sum, intra_community_weight, Community,
    ModularityTracker,
};
use crate::phase::{PhaseDriver, PhaseOutcome, SweepState};
use crate::rebuild::renumber_communities;
use grappolo_graph::{CsrGraph, EdgeChange, EdgeDelta, MergePolicy, VertexId};

/// Result of one batched dynamic update.
#[derive(Clone, Debug)]
pub struct DynamicOutcome {
    /// The updated graph (batch applied).
    pub graph: CsrGraph,
    /// Community labels on the updated graph's vertices. On the incremental
    /// path labels are **carried**, not renumbered: a vertex untouched by
    /// the batch's dirty closure keeps its previous label bitwise. On the
    /// fallback path labels are the from-scratch run's dense labels.
    pub assignment: Vec<Community>,
    /// Modularity of `assignment` on the updated graph.
    pub modularity: f64,
    /// Number of (non-empty) communities.
    pub num_communities: usize,
    /// Local re-convergence iterations (0 when the batch was a no-op; the
    /// from-scratch total when `fell_back`).
    pub iterations: usize,
    /// Net per-edge changes the batch resolved to.
    pub changed_edges: usize,
    /// Dirty seed vertices (endpoints of changed edges).
    pub seed_vertices: usize,
    /// Whether the driver fell back to from-scratch detection.
    pub fell_back: bool,
}

/// Applies `batch` to `g` and re-converges the communities in `assignment`
/// locally around the changed edges.
///
/// `prev_modularity` is the modularity of (`g`, `assignment`) if the caller
/// tracked it (e.g. from a previous [`detect_communities`] or
/// `update_communities` run): the tracker is then seeded purely
/// algebraically. With `None`, one deterministic O(m) intra-weight scan of
/// the updated graph replaces it — still far cheaper than re-detection.
///
/// Duplicate inserts merge with [`MergePolicy::Sum`], matching
/// [`detect_communities`]' ingestion semantics.
///
/// Errors on an invalid config (where [`detect_communities`] panics), an
/// assignment that does not cover the graph (`assignment has N entries,
/// graph has M vertices`), out-of-range labels, or a batch the delta API
/// rejects.
///
/// [`detect_communities`]: crate::detect_communities
pub fn update_communities(
    g: &CsrGraph,
    assignment: &[Community],
    prev_modularity: Option<f64>,
    batch: &[EdgeDelta],
    config: &LouvainConfig,
) -> Result<DynamicOutcome, String> {
    update_communities_cancellable(
        g,
        assignment,
        prev_modularity,
        batch,
        config,
        &CancelToken::new(),
    )
    .map_err(|e| match e {
        DynamicError::Failed(msg) => msg,
        DynamicError::Cancelled(_) => unreachable!("fresh token cannot be cancelled"),
    })
}

/// Why a cancellable dynamic update did not produce an outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DynamicError {
    /// The supervisor set the [`CancelToken`] before the update finished;
    /// the carried assignment was discarded, nothing was mutated.
    Cancelled(Cancelled),
    /// Invalid input or config (same messages as [`update_communities`]).
    Failed(String),
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::Cancelled(c) => c.fmt(f),
            DynamicError::Failed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for DynamicError {}

/// [`update_communities`] with cooperative cancellation: the token is
/// polled before the update starts, after the batch is applied and once the
/// update finishes (the from-scratch fallback also polls it at every phase
/// boundary, as [`detect_communities_cancellable`] does). A run that
/// completes with the token unset is bitwise identical to the
/// uncancellable entry point.
///
/// [`detect_communities_cancellable`]: crate::detect_communities_cancellable
pub fn update_communities_cancellable(
    g: &CsrGraph,
    assignment: &[Community],
    prev_modularity: Option<f64>,
    batch: &[EdgeDelta],
    config: &LouvainConfig,
    token: &CancelToken,
) -> Result<DynamicOutcome, DynamicError> {
    config.validate().map_err(DynamicError::Failed)?;
    run_in_pool(config, token, || {
        update_inner(g, assignment, prev_modularity, batch, config, token)
    })
    .map_err(DynamicError::Cancelled)?
}

/// The update inside the pool [`run_in_pool`] picked: validates the
/// assignment, applies the batch, then re-detects from scratch (a dense
/// batch) or resumes from the carried labels.
fn update_inner(
    g: &CsrGraph,
    assignment: &[Community],
    prev_modularity: Option<f64>,
    batch: &[EdgeDelta],
    config: &LouvainConfig,
    token: &CancelToken,
) -> Result<DynamicOutcome, DynamicError> {
    let fail = DynamicError::Failed;
    let old_n = g.num_vertices();
    if assignment.len() != old_n {
        return Err(fail(format!(
            "assignment has {} entries, graph has {} vertices",
            assignment.len(),
            old_n
        )));
    }
    if let Some(&c) = assignment.iter().find(|&&c| c as usize >= old_n.max(1)) {
        return Err(fail(format!(
            "assignment label {c} out of range for a {old_n}-vertex graph"
        )));
    }

    let (g_new, changes) = g
        .apply_edge_batch_diff(batch, MergePolicy::Sum)
        .map_err(|e| fail(e.to_string()))?;
    if token.is_cancelled() {
        return Err(DynamicError::Cancelled(Cancelled));
    }

    // Dense batches invalidate the carried state: rerun from scratch.
    let edges_after = g_new.num_edges();
    if edges_after > 0
        && changes.len() as f64 > config.dynamic_fallback_fraction * edges_after as f64
    {
        let result = detect(&g_new, config, token);
        return Ok(DynamicOutcome {
            modularity: result.modularity,
            num_communities: result.num_communities,
            iterations: result.trace.total_iterations(),
            changed_edges: changes.len(),
            seed_vertices: 0,
            fell_back: true,
            assignment: result.assignment,
            graph: g_new,
        });
    }

    // Carry the assignment; vertices the batch created enter as singletons
    // labeled with their own id (old labels < old_n, so no collision).
    let new_n = g_new.num_vertices();
    let mut carried: Vec<Community> = Vec::with_capacity(new_n);
    carried.extend_from_slice(assignment);
    carried.extend(old_n as Community..new_n as Community);

    // Dirty seeds: endpoints of changed edges, ascending, deduplicated.
    let mut seeds: Vec<VertexId> = changes.iter().flat_map(|c| [c.u, c.v]).collect();
    seeds.sort_unstable();
    seeds.dedup();

    let outcome = resume_inner(
        g,
        &g_new,
        carried,
        prev_modularity,
        &changes,
        &seeds,
        config,
    );
    let (_, num_communities) = renumber_communities(&outcome.assignment, config.renumber);
    Ok(DynamicOutcome {
        graph: g_new,
        modularity: outcome.final_modularity,
        num_communities,
        iterations: outcome.iterations.len(),
        changed_edges: changes.len(),
        seed_vertices: seeds.len(),
        fell_back: false,
        assignment: outcome.assignment,
    })
}

/// Rebuilds the sweep state for the carried labels on the updated graph and
/// resumes the phase driver's unordered sweep from the dirty `seeds`.
fn resume_inner(
    g_old: &CsrGraph,
    g_new: &CsrGraph,
    carried: Vec<Community>,
    prev_modularity: Option<f64>,
    changes: &[EdgeChange],
    seeds: &[VertexId],
    config: &LouvainConfig,
) -> PhaseOutcome {
    let new_n = g_new.num_vertices();
    let gamma = config.resolution;
    let two_m_old = 2.0 * g_old.total_weight();

    // Σ e_in on the updated graph under the carried labels, without scanning
    // its m edges: invert Eq. 3 on the old graph (Q_old is known), then
    // patch in the touched edges' weight deltas. An intra adjacency entry
    // counts from both endpoints, self-loops once.
    let e_in_new = match prev_modularity {
        Some(q_old) if two_m_old > 0.0 => {
            let a_old = community_degrees(g_old, &carried[..g_old.num_vertices()]);
            let null_old = det_sum(a_old.len(), |c| a_old[c] * a_old[c]);
            let e_in_old = (q_old + gamma * null_old / (two_m_old * two_m_old)) * two_m_old;
            let patch: f64 = changes
                .iter()
                .filter(|c| carried[c.u as usize] == carried[c.v as usize])
                .map(|c| c.weight_delta() * if c.u == c.v { 1.0 } else { 2.0 })
                .sum();
            e_in_old + patch
        }
        _ => intra_community_weight(g_new, &carried),
    };
    let a_new = community_degrees(g_new, &carried);
    let null_new = det_sum(a_new.len(), |c| a_new[c] * a_new[c]);
    let tracker = ModularityTracker::from_parts(g_new, e_in_new, null_new, gamma);
    let mut sizes = community_sizes(&carried);
    sizes.resize(new_n, 0);

    let state = SweepState {
        assignment: carried,
        a: a_new,
        sizes,
        tracker,
    };
    // Note: `config.refine` is deliberately NOT applied here. Leiden-style
    // refinement relabels every community to its minimum member vertex id,
    // which would destroy the quiesced-region guarantee (vertices untouched
    // by the batch keep their previous labels bitwise). Refinement still
    // runs on the from-scratch fallback path, where no labels are carried.
    PhaseDriver::from_config(config, config.final_threshold).resume(g_new, state, seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LouvainConfigBuilder, SweepMode};
    use crate::driver::detect_communities;
    use grappolo_graph::gen::{
        erdos_renyi, planted_partition, rmat, ErConfig, PlantedConfig, RmatConfig,
    };

    /// Deterministic synthetic batch: delete every `stride`-th undirected
    /// edge, reweight the next one, and insert a few LCG-picked new edges.
    fn synth_batch(g: &CsrGraph, stride: usize, inserts: usize) -> Vec<EdgeDelta> {
        let mut batch = Vec::new();
        for (i, (u, v, w)) in g.undirected_edges().enumerate() {
            if i % stride == 0 {
                batch.push(EdgeDelta::Delete { u, v });
            } else if i % stride == 1 {
                batch.push(EdgeDelta::Reweight {
                    u,
                    v,
                    weight: w + 0.5,
                });
            }
        }
        let n = g.num_vertices() as u64;
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut step = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) % n
        };
        while batch
            .iter()
            .filter(|d| matches!(d, EdgeDelta::Insert { .. }))
            .count()
            < inserts
        {
            let (u, v) = (step() as VertexId, step() as VertexId);
            if u != v && !g.has_edge(u, v) {
                batch.push(EdgeDelta::Insert { u, v, weight: 1.0 });
            }
        }
        batch
    }

    fn base_config() -> LouvainConfig {
        LouvainConfig::builder()
            .sweep(SweepMode::Active)
            .build()
            .unwrap()
    }

    fn q_within_1pct(g: &CsrGraph, name: &str, stride: usize) {
        let config = base_config();
        let before = detect_communities(g, &config);
        // ISSUE-scale dirty set: ~2/stride of the edges deleted + reweighted
        // plus a few inserts (the differential contract's 0.1–10% regime).
        let batch = synth_batch(g, stride, g.num_edges() / stride + 1);
        let out = update_communities(
            g,
            &before.assignment,
            Some(before.modularity),
            &batch,
            &config,
        )
        .unwrap();
        assert!(!out.fell_back, "{name}: unexpected fallback");
        let scratch = detect_communities(&out.graph, &config);
        assert!(
            out.modularity >= scratch.modularity - 0.01 * scratch.modularity.abs(),
            "{name}: incremental Q {} vs from-scratch Q {}",
            out.modularity,
            scratch.modularity
        );
        // The reported Q is the real Q of the reported assignment.
        let full = crate::modularity::modularity_with_resolution(
            &out.graph,
            &out.assignment,
            config.resolution,
        );
        assert!(
            (out.modularity - full).abs() < 1e-9,
            "{name}: tracker Q {} vs rescan {}",
            out.modularity,
            full
        );
    }

    #[test]
    fn incremental_q_within_1pct_er() {
        let g = erdos_renyi(&ErConfig {
            num_vertices: 1_000,
            ..Default::default()
        });
        q_within_1pct(&g, "er", 1000);
    }

    #[test]
    fn incremental_q_within_1pct_planted() {
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 2_000,
            num_communities: 20,
            ..Default::default()
        });
        q_within_1pct(&g, "planted", 200);
    }

    #[test]
    fn incremental_q_within_1pct_rmat() {
        let g = rmat(&RmatConfig {
            scale: 11,
            num_edges: 16_000,
            ..Default::default()
        });
        q_within_1pct(&g, "rmat", 200);
    }

    #[test]
    fn bitwise_identical_across_thread_counts() {
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 3_000,
            num_communities: 30,
            ..Default::default()
        });
        let config = base_config();
        let before = detect_communities(&g, &config);
        let batch = synth_batch(&g, 40, 100);
        let run = |threads: usize| {
            let c = LouvainConfigBuilder::from_base(config.clone())
                .threads(Some(threads))
                .build()
                .unwrap();
            update_communities(&g, &before.assignment, Some(before.modularity), &batch, &c).unwrap()
        };
        let r1 = run(1);
        for threads in [2usize, 4, 8, 16] {
            let rt = run(threads);
            assert_eq!(r1.assignment, rt.assignment, "{threads} threads");
            assert_eq!(
                r1.modularity.to_bits(),
                rt.modularity.to_bits(),
                "{threads} threads"
            );
            assert_eq!(r1.iterations, rt.iterations, "{threads} threads");
        }
    }

    #[test]
    fn quiesced_regions_keep_labels_bitwise() {
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 2_000,
            num_communities: 20,
            ..Default::default()
        });
        let config = base_config();
        let before = detect_communities(&g, &config);
        // Touch a handful of edges near vertex 0 only.
        let edges: Vec<_> = g.undirected_edges().take(5).collect();
        let batch: Vec<EdgeDelta> = edges
            .iter()
            .map(|&(u, v, w)| EdgeDelta::Reweight {
                u,
                v,
                weight: w + 1.0,
            })
            .collect();
        let out = update_communities(
            &g,
            &before.assignment,
            Some(before.modularity),
            &batch,
            &config,
        )
        .unwrap();
        assert!(!out.fell_back);
        // Every vertex outside the dirty closure (seeds ∪ the moved
        // frontier's reach) must keep its exact previous label. The frontier
        // can expand, so compare via the conservative outer bound: vertices
        // whose label changed must be reachable from a seed (checked here
        // as: the far half of the graph, which shares no edge with the
        // touched ones, is untouched).
        let touched: std::collections::HashSet<VertexId> =
            edges.iter().flat_map(|&(u, v, _)| [u, v]).collect();
        let mut near: std::collections::HashSet<VertexId> = touched.clone();
        for _ in 0..out.iterations + 1 {
            let prev: Vec<VertexId> = near.iter().copied().collect();
            for v in prev {
                near.extend(g.neighbor_ids(v).iter().copied());
            }
        }
        for v in 0..g.num_vertices() {
            if !near.contains(&(v as VertexId)) {
                assert_eq!(
                    out.assignment[v], before.assignment[v],
                    "quiesced vertex {v} changed label"
                );
            }
        }
    }

    #[test]
    fn algebraic_seeding_matches_rescan_seeding() {
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 1_500,
            num_communities: 15,
            ..Default::default()
        });
        let config = base_config();
        let before = detect_communities(&g, &config);
        let batch = synth_batch(&g, 30, 50);
        let algebraic = update_communities(
            &g,
            &before.assignment,
            Some(before.modularity),
            &batch,
            &config,
        )
        .unwrap();
        let rescan = update_communities(&g, &before.assignment, None, &batch, &config).unwrap();
        assert_eq!(algebraic.assignment, rescan.assignment);
        assert!(
            (algebraic.modularity - rescan.modularity).abs() < 1e-9,
            "{} vs {}",
            algebraic.modularity,
            rescan.modularity
        );
    }

    #[test]
    fn empty_batch_returns_carried_assignment() {
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 500,
            num_communities: 5,
            ..Default::default()
        });
        let config = base_config();
        let before = detect_communities(&g, &config);
        let out = update_communities(
            &g,
            &before.assignment,
            Some(before.modularity),
            &[],
            &config,
        )
        .unwrap();
        assert_eq!(out.assignment, before.assignment);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.changed_edges, 0);
        assert!(g.bitwise_eq(&out.graph));
        assert!((out.modularity - before.modularity).abs() < 1e-9);
    }

    #[test]
    fn dense_batch_falls_back_to_full_detection() {
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 400,
            num_communities: 4,
            ..Default::default()
        });
        let config = base_config();
        let before = detect_communities(&g, &config);
        // Reweight every edge: 100% of edges change ≫ 25% fallback bound.
        let batch: Vec<EdgeDelta> = g
            .undirected_edges()
            .map(|(u, v, w)| EdgeDelta::Reweight {
                u,
                v,
                weight: w + 1.0,
            })
            .collect();
        let out = update_communities(
            &g,
            &before.assignment,
            Some(before.modularity),
            &batch,
            &config,
        )
        .unwrap();
        assert!(out.fell_back);
        let scratch = detect_communities(&out.graph, &config);
        assert_eq!(out.assignment, scratch.assignment);
    }

    #[test]
    fn dense_batch_fallback_runs_the_split_detection() {
        // Under `split_components` the fallback is the split detection,
        // run inside the update's pool: labels, Q and the per-component
        // iteration total all match a from-scratch split run.
        let g = grappolo_graph::gen::planted_blocks(&[300, 200], 3, 5);
        let config = LouvainConfig {
            split_components: true,
            dynamic_fallback_fraction: 0.0,
            num_threads: Some(2),
            ..base_config()
        };
        let before = detect_communities(&g, &config);
        let batch = synth_batch(&g, 50, 5);
        let out = update_communities(
            &g,
            &before.assignment,
            Some(before.modularity),
            &batch,
            &config,
        )
        .unwrap();
        assert!(out.fell_back);
        let scratch = detect_communities(&out.graph, &config);
        assert_eq!(out.assignment, scratch.assignment);
        assert_eq!(out.modularity.to_bits(), scratch.modularity.to_bits());
        assert_eq!(out.iterations, scratch.trace.total_iterations());
    }

    #[test]
    fn cancelled_token_returns_cancelled_on_both_paths() {
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 500,
            num_communities: 5,
            ..Default::default()
        });
        let config = base_config();
        let before = detect_communities(&g, &config);
        let batch = synth_batch(&g, 40, 10);
        let token = CancelToken::new();
        token.cancel();
        for fallback in [1.0, 0.0] {
            let config = LouvainConfig {
                dynamic_fallback_fraction: fallback,
                ..config.clone()
            };
            let err = update_communities_cancellable(
                &g,
                &before.assignment,
                Some(before.modularity),
                &batch,
                &config,
                &token,
            )
            .unwrap_err();
            assert_eq!(err, DynamicError::Cancelled(Cancelled), "{fallback}");
        }
    }

    #[test]
    fn rejects_mismatched_assignment_length() {
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 100,
            num_communities: 2,
            ..Default::default()
        });
        let short = vec![0u32; 50];
        let err = update_communities(&g, &short, None, &[], &base_config()).unwrap_err();
        assert!(
            err.contains("assignment has 50 entries, graph has 100 vertices"),
            "{err}"
        );
        let bad_label = vec![100u32; 100];
        let err = update_communities(&g, &bad_label, None, &[], &base_config()).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn update_on_empty_graph_is_well_defined() {
        let g = CsrGraph::empty(0);
        let out = update_communities(
            &g,
            &[],
            None,
            &[EdgeDelta::Insert {
                u: 0,
                v: 1,
                weight: 1.0,
            }],
            &base_config(),
        )
        .unwrap();
        // A single-edge batch on an empty graph exceeds any fallback
        // fraction < 1, so it re-detects from scratch — either way the two
        // endpoints must end up together.
        assert_eq!(out.graph.num_vertices(), 2);
        assert_eq!(out.assignment[0], out.assignment[1]);
    }

    #[test]
    fn new_vertices_join_their_neighborhood() {
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 500,
            num_communities: 5,
            ..Default::default()
        });
        let config = base_config();
        let before = detect_communities(&g, &config);
        // Attach a new vertex to vertex 0 by three parallel-merged edges.
        let n = g.num_vertices() as VertexId;
        let batch = vec![
            EdgeDelta::Insert {
                u: n,
                v: 0,
                weight: 2.0,
            },
            EdgeDelta::Insert {
                u: n,
                v: 1,
                weight: 2.0,
            },
        ];
        let out = update_communities(
            &g,
            &before.assignment,
            Some(before.modularity),
            &batch,
            &config,
        )
        .unwrap();
        assert!(!out.fell_back);
        assert_eq!(out.graph.num_vertices(), 501);
        // The new vertex should have joined an existing community rather
        // than staying a singleton labeled with its own id.
        assert_ne!(out.assignment[500], 500);
    }
}
