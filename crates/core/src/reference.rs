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

use crate::active::ActiveSet;
use crate::config::SweepMode;
use crate::modularity::{
    best_move, community_degrees, community_sizes, modularity_with_resolution, thread_scratch,
    Community, ModularityTracker, MoveContext,
};
use crate::phase::{evaluate, singlet_veto, IterationStats, PhaseOutcome};
use crate::schedule::{Gate, ScheduleSpec};
use grappolo_coloring::ColorBatches;
use grappolo_graph::{CsrGraph, VertexId};
use rayon::prelude::*;

/// Vertices per task of the colored rescan's decide: the rayon shim's
/// default grain, so a class of at most this many vertices runs inline.
const DECIDE_PIECE: usize = 1024;

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
    let gate = Gate::new(ScheduleSpec::Fixed, threshold, 0.0, m);

    for iter in 0..max_iterations {
        let a = community_degrees(g, &c_prev);
        let sizes = community_sizes(&c_prev);

        let c_curr: Vec<Community> = (0..n as VertexId)
            .into_par_iter()
            .map(|v| {
                let cur = c_prev[v as usize];
                let mut scratch = thread_scratch();
                let entries = &mut scratch.entries;
                gather_sorted(g, &c_prev, v, entries);
                if entries.is_empty() {
                    return cur;
                }
                let ctx = MoveContext {
                    current: cur,
                    k: g.weighted_degree(v),
                    m,
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

        let moves = (0..n)
            .into_par_iter()
            .filter(|&v| c_prev[v] != c_curr[v])
            .count();
        let q_curr = modularity_with_resolution(g, &c_curr, resolution);
        iterations.push((q_curr, moves));
        stats.push(IterationStats {
            gate: 0.0,
            frontier: n,
            converged: 0,
        });
        c_prev = c_curr;
        if gate.should_stop(iter, q_prev, q_curr, moves, 0) {
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

/// The historical **recompute** variant of the colored phase (fixed
/// threshold): identical decisions and barrier commits to the production
/// colored sweep (the same move kernel and singlet veto, the same ascending
/// commit order), but the per-iteration modularity comes from a full
/// O(m) + O(n) rescan — a fresh [`ModularityTracker::new`] every iteration
/// — instead of the carried incremental state. This is the differential
/// baseline: on exact-weight graphs its assignments, move counts, and
/// per-iteration modularities are bitwise identical to the incremental path
/// (both evaluate `e_in/2m − γ·Σa²/(2m)²` over exactly representable sums),
/// so any divergence indicts the incremental accounting. The benches
/// measure the rescan's per-iteration overhead.
///
/// Under [`SweepMode::Active`] it prunes as the production driver does:
/// once an iteration moves at most [`ActiveSet::engages`]' share of the
/// vertices, each later iteration decides only the movers of the one
/// before and their neighbors, each class filtered to them.
pub fn parallel_phase_colored_rescan(
    g: &CsrGraph,
    batches: &ColorBatches,
    sweep: SweepMode,
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
    let gate = Gate::new(ScheduleSpec::Fixed, threshold, 0.0, m);
    let mut active = ActiveSet::full(n);
    let mut engaged = false;
    let mut movers: Vec<VertexId> = Vec::new();

    for iter in 0..max_iterations {
        if active.is_empty() {
            break;
        }
        movers.clear();
        let mut examined = 0usize;
        for class in batches.classes() {
            let filtered: Vec<VertexId>;
            let batch = if active.is_saturated() {
                class
            } else {
                filtered = class
                    .iter()
                    .copied()
                    .filter(|&v| active.contains(v))
                    .collect();
                &filtered
            };
            examined += batch.len();
            // Decide through the production move kernel against the state
            // frozen at the barrier, with the singlet veto and no gate. Each
            // piece checks its scratch out once: per vertex, the checkout is
            // a measurable share of a low-degree vertex's decide.
            let mut targets: Vec<Community> = vec![0; batch.len()];
            let mut pieces: Vec<_> = batch
                .chunks(DECIDE_PIECE)
                .zip(targets.chunks_mut(DECIDE_PIECE))
                .collect();
            pieces
                .par_iter_mut()
                .with_min_len(1)
                .for_each(|(vertices, out)| {
                    let mut scratch = thread_scratch();
                    for (&v, to) in vertices.iter().zip(out.iter_mut()) {
                        let cur = assignment[v as usize];
                        let d = evaluate(g, &assignment, &a, resolution, &mut scratch, v);
                        let vetoed = singlet_veto(cur, d.target, |c| sizes[c as usize]);
                        *to = if vetoed { cur } else { d.target };
                    }
                });
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
                movers.push(v);
            }
        }
        let moves = movers.len();
        engaged = engaged || (sweep == SweepMode::Active && ActiveSet::engages(n, moves));
        if engaged {
            active.rebuild_from_moves(g, &movers);
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
            frontier: examined,
            converged: 0,
        });
        if gate.should_stop(iter, q_prev, q_curr, moves, 0) {
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
        let out = parallel_phase_colored_rescan(&g, &batches, SweepMode::Full, 1e-6, 1000, 1.0);
        assert!(out.final_modularity > 0.7);
    }
}
