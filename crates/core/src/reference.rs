//! Reference (pre-optimization) kernels, kept as test oracles and benchmark
//! baselines. Production code never calls them; phases run through
//! [`crate::PhaseDriver`].
//!
//! [`gather_sorted`] is the historical sort-based neighbor-community
//! aggregation — O(deg·log deg) per vertex — and
//! [`parallel_phase_unordered_sortbased`] is the historical phase loop that
//! rebuilds `community_degrees` (O(n)) and recomputes full-graph modularity
//! (O(m)) every iteration. [`parallel_phase_colored_rescan`] is the colored
//! analogue: the same deterministic batch sweep as the production path, but
//! with a per-iteration O(m) modularity rescan instead of incremental
//! accounting. On integer-weight graphs these implementations make
//! bitwise-identical decisions to the optimized paths (all sums are exact),
//! which is what the equivalence tests in `tests/properties.rs` assert; the
//! optimized paths' advantage is purely time.
//!
//! [`rebuild_stamp_rows_reference`] and [`rebuild_stamp_flat_assembly`]
//! force one of the rebuild's two bitwise-identical CSR assemblies, which
//! the production rebuild picks between by size.

use crate::config::RenumberStrategy;
use crate::modularity::{
    best_move, community_degrees, community_sizes, modularity_with_resolution, Community,
    ModularityTracker, MoveContext, ScratchPool,
};
use crate::phase::{evaluate, should_stop, singlet_veto, IterationStats, PhaseOutcome};
use crate::rebuild::{
    condense_stamped_flat, condense_stamped_rows, group_by_row, renumber_communities,
};
use grappolo_coloring::ColorBatches;
use grappolo_graph::{CsrGraph, VertexId};
use rayon::prelude::*;

/// The historical sort-based gather: collect `(community, weight)` per
/// neighbor, sort by label, merge duplicates. Entries come out sorted by
/// ascending community label.
pub fn gather_sorted(
    g: &CsrGraph,
    assignment: &[Community],
    v: VertexId,
    entries: &mut Vec<(Community, f64)>,
) {
    entries.clear();
    for (u, w) in g.neighbors(v) {
        if u == v {
            continue;
        }
        entries.push((assignment[u as usize], w));
    }
    entries.sort_unstable_by_key(|&(c, _)| c);
    let mut out = 0usize;
    for i in 0..entries.len() {
        if out > 0 && entries[out - 1].0 == entries[i].0 {
            entries[out - 1].1 += entries[i].1;
        } else {
            entries[out] = entries[i];
            out += 1;
        }
    }
    entries.truncate(out);
}

/// The historical unordered phase: sort-based gathers, an O(n)
/// `community_degrees` rebuild and an O(m) modularity recomputation every
/// iteration. Semantics match the production unordered sweep (now behind
/// [`crate::PhaseDriver::run`]); only the constants differ.
pub fn parallel_phase_unordered_sortbased(
    g: &CsrGraph,
    threshold: f64,
    max_iterations: usize,
    resolution: f64,
) -> PhaseOutcome {
    let n = g.num_vertices();
    let m = g.total_weight();
    if n == 0 || m <= 0.0 {
        return PhaseOutcome::trivial(n);
    }
    let mut c_prev: Vec<Community> = (0..n as Community).collect();

    let mut iterations: Vec<(f64, usize)> = Vec::new();
    let mut stats: Vec<IterationStats> = Vec::new();
    let mut q_prev = modularity_with_resolution(g, &c_prev, resolution);

    for _iter in 0..max_iterations {
        let a = community_degrees(g, &c_prev);
        let sizes = community_sizes(&c_prev);

        let c_curr: Vec<Community> = (0..n as VertexId)
            .into_par_iter()
            .map_init(Vec::new, |entries, v| {
                let cur = c_prev[v as usize];
                gather_sorted(g, &c_prev, v, entries);
                if entries.is_empty() {
                    return cur;
                }
                let ctx = MoveContext {
                    current: cur,
                    k: g.weighted_degree(v),
                    m,
                    a_current: a[cur as usize],
                    gamma: resolution,
                };
                let decision = best_move(&ctx, entries, |c| a[c as usize]);
                if decision.target != cur
                    && singlet_veto(cur, decision.target, |c| sizes[c as usize])
                {
                    return cur;
                }
                decision.target
            })
            .collect();

        let moves = c_prev
            .par_iter()
            .zip(c_curr.par_iter())
            .filter(|(a, b)| a != b)
            .count();
        let q_curr = modularity_with_resolution(g, &c_curr, resolution);
        iterations.push((q_curr, moves));
        stats.push(IterationStats {
            gate: 0.0,
            frontier: n,
            converged: 0,
        });
        c_prev = c_curr;
        if should_stop(q_prev, q_curr, moves, threshold) {
            break;
        }
        q_prev = q_curr;
    }

    let final_modularity = iterations.last().map(|&(q, _)| q).unwrap_or(q_prev);
    PhaseOutcome {
        assignment: c_prev,
        iterations,
        stats,
        final_modularity,
        refinement: None,
    }
}

/// The historical **recompute** variant of the colored phase (full sweep,
/// fixed threshold): identical decisions and barrier commits to the
/// production colored sweep (the same move kernel and singlet veto, the
/// same ascending commit order), but the per-iteration modularity comes
/// from a full O(m) + O(n) rescan — a fresh [`ModularityTracker::new`]
/// every iteration — instead of the carried incremental state. This is the
/// differential baseline: on exact-weight graphs its assignments, move
/// counts, and per-iteration modularities are bitwise identical to the
/// incremental path (both
/// evaluate `e_in/2m − γ·Σa²/(2m)²` over exactly representable sums), so
/// any divergence indicts the incremental accounting. The benches measure
/// the rescan's per-iteration overhead.
pub fn parallel_phase_colored_rescan(
    g: &CsrGraph,
    batches: &ColorBatches,
    threshold: f64,
    max_iterations: usize,
    resolution: f64,
) -> PhaseOutcome {
    let n = g.num_vertices();
    let m = g.total_weight();
    if n == 0 || m <= 0.0 {
        return PhaseOutcome::trivial(n);
    }
    let mut assignment: Vec<Community> = (0..n as Community).collect();

    let mut a: Vec<f64> = (0..n).map(|v| g.weighted_degree(v as VertexId)).collect();
    let mut sizes: Vec<u32> = vec![1; n];

    let mut iterations: Vec<(f64, usize)> = Vec::new();
    let mut stats: Vec<IterationStats> = Vec::new();
    let mut q_prev = ModularityTracker::new(g, &assignment, &a, resolution).modularity();
    let scratches = ScratchPool::global();

    for _iter in 0..max_iterations {
        let mut moves = 0usize;
        for batch in batches.iter() {
            // Decide through the production move kernel against the state
            // frozen at the barrier, with the singlet veto and no gate.
            let targets: Vec<Community> = batch
                .par_iter()
                .map_init(
                    || scratches.take(),
                    |scratch, &v| {
                        let cur = assignment[v as usize];
                        let d = evaluate(g, &assignment, &a, resolution, scratch, v);
                        if singlet_veto(cur, d.target, |c| sizes[c as usize]) {
                            cur
                        } else {
                            d.target
                        }
                    },
                )
                .collect();
            // Commit in ascending vertex order. Same arithmetic, same order
            // as ModularityTracker's commit, so the maintained `a` evolves
            // bitwise identically — only the e_in/null_sum bookkeeping is
            // (deliberately) absent here.
            for (&v, &to) in batch.iter().zip(&targets) {
                let from = assignment[v as usize];
                if to == from {
                    continue;
                }
                let k = g.weighted_degree(v);
                a[from as usize] -= k;
                a[to as usize] += k;
                sizes[from as usize] -= 1;
                sizes[to as usize] += 1;
                assignment[v as usize] = to;
                moves += 1;
            }
        }

        // The full rescan the incremental path eliminated: O(n) community-
        // degree scatter (the historical recompute went through
        // `modularity_with_resolution`, which rebuilds it), O(m) intra-weight
        // scan, and O(n) Σ a² reduction — every iteration. On exact-weight
        // graphs `a_rescan` is bitwise equal to the maintained `a`, so the
        // reported modularity is bitwise comparable to the tracker's.
        let a_rescan = community_degrees(g, &assignment);
        let q_curr = ModularityTracker::new(g, &assignment, &a_rescan, resolution).modularity();
        iterations.push((q_curr, moves));
        stats.push(IterationStats {
            gate: 0.0,
            frontier: n,
            converged: 0,
        });
        if should_stop(q_prev, q_curr, moves, threshold) {
            break;
        }
        q_prev = q_curr;
    }

    let final_modularity = iterations.last().map(|&(q, _)| q).unwrap_or(q_prev);
    PhaseOutcome {
        assignment,
        iterations,
        stats,
        final_modularity,
        refinement: None,
    }
}

/// The historical **rows-based** stamped rebuild assembly: per-community
/// `Vec<(Community, f64)>` rows collected in parallel, mirrored, then
/// copied into CSR (`rows_to_csr`). The production path now assembles
/// directly into preallocated `offsets`/`targets`/`weights` arrays
/// (two-pass count + scatter, [`crate::rebuild`]); this reference produces
/// bitwise-identical graphs (property-tested) and is the `rebuild` bench's
/// `assembly_rows` baseline.
pub fn rebuild_stamp_rows_reference(g: &CsrGraph, assignment: &[Community]) -> CsrGraph {
    assert_eq!(assignment.len(), g.num_vertices());
    let (renumber, num_communities) = renumber_communities(assignment, RenumberStrategy::Serial);
    let row_of = |u: usize| renumber[assignment[u] as usize];
    let (offsets, members) = group_by_row(assignment.len(), num_communities, row_of);
    condense_stamped_rows(g, num_communities, &offsets, &members, row_of)
}

/// The flat two-pass stamped rebuild assembly (count pass → prefix-sum
/// offsets → parallel scatter into preallocated `targets`/`weights`),
/// forced regardless of the production path's size-adaptive dispatch —
/// the `rebuild` bench's `assembly_flat` arm and the other half of the
/// assembly differential tests.
pub fn rebuild_stamp_flat_assembly(g: &CsrGraph, assignment: &[Community]) -> CsrGraph {
    assert_eq!(assignment.len(), g.num_vertices());
    let (renumber, num_communities) = renumber_communities(assignment, RenumberStrategy::Serial);
    let row_of = |u: usize| renumber[assignment[u] as usize];
    let (offsets, members) = group_by_row(assignment.len(), num_communities, row_of);
    condense_stamped_flat(g, num_communities, &offsets, &members, row_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modularity::NeighborScratch;
    use grappolo_graph::gen::{ring_of_cliques, CliqueRingConfig};

    #[test]
    fn sorted_gather_agrees_with_flat_gather() {
        let (g, truth) = ring_of_cliques(&CliqueRingConfig::default());
        let mut sorted = Vec::new();
        let mut flat = NeighborScratch::default();
        for v in 0..g.num_vertices() as VertexId {
            gather_sorted(&g, &truth, v, &mut sorted);
            flat.gather(&g, &truth, v);
            let mut flat_entries = flat.entries.clone();
            flat_entries.sort_unstable_by_key(|&(c, _)| c);
            assert_eq!(sorted, flat_entries, "vertex {v}");
        }
    }

    #[test]
    fn sortbased_phase_recovers_cliques() {
        let (g, _) = ring_of_cliques(&CliqueRingConfig {
            num_cliques: 6,
            clique_size: 5,
            ..Default::default()
        });
        let out = parallel_phase_unordered_sortbased(&g, 1e-6, 1000, 1.0);
        assert!(out.final_modularity > 0.7);
    }

    #[test]
    fn colored_rescan_recovers_cliques() {
        let (g, _) = ring_of_cliques(&CliqueRingConfig {
            num_cliques: 6,
            clique_size: 5,
            ..Default::default()
        });
        let coloring = grappolo_coloring::color_parallel(
            &g,
            &grappolo_coloring::ParallelColoringConfig::default(),
        );
        let batches = ColorBatches::from_coloring(&coloring);
        let out = parallel_phase_colored_rescan(&g, &batches, 1e-6, 1000, 1.0);
        assert!(out.final_modularity > 0.7);
    }
}
