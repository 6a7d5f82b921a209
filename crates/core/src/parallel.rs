//! The two parallel commit strategies of the local-moving engine
//! ([`crate::phase`] runs the iterations around them) — Algorithm 1 with
//! the minimum-label heuristics (§5.1), in both flavors the paper
//! evaluates:
//!
//! * **unordered** — no coloring: one lock-free parallel sweep per
//!   iteration, every decision reading the *previous* iteration's
//!   assignment and community degrees (Algorithm 1 lines 8–14 with a single
//!   color set), all moves committed as one snapshot batch
//!   ([`ModularityTracker::apply_batch`]). Deterministic for any thread
//!   count: decisions read frozen state, the move list is assembled in
//!   ascending vertex order, and every reduction is order-deterministic
//!   (§5.4's stability property).
//! * **colored** — vertices are processed one color batch at a time; each
//!   batch is decided in parallel against the state frozen at its barrier,
//!   then committed in ascending vertex order
//!   ([`ModularityTracker::apply_independent_batch`], exact because a color
//!   class is an independent set). Later batches observe earlier commits —
//!   the colored analogue of serial freshness — and the phase stays
//!   bitwise deterministic across thread counts, unlike the historical
//!   atomic-commit scheme (`__sync_fetch_and_add`, §5.5), whose
//!   schedule-dependent float commits forced an O(m) modularity rescan per
//!   iteration (kept as the test oracle
//!   [`crate::reference::parallel_phase_colored_rescan`]).
//!
//! Both decide through the engine's shared move kernel and apply the same
//! per-vertex policy to its decision: a move gaining less than the
//! iteration's gate is suppressed (the vertex is locally converged), and a
//! surviving move is subject to the §5.1 singlet veto.
//!
//! [`ModularityTracker::apply_batch`]: crate::modularity::ModularityTracker::apply_batch
//! [`ModularityTracker::apply_independent_batch`]: crate::modularity::ModularityTracker::apply_independent_batch

use crate::active::ActiveSet;
use crate::modularity::{Community, IndependentMove, MoveDecision, NeighborScratch, ScratchPool};
use crate::phase::{evaluate, singlet_veto, SweepState};
use grappolo_coloring::ColorBatches;
use grappolo_graph::{CsrGraph, VertexId};
use rayon::prelude::*;

/// The snapshot sweeps' per-vertex policy on the kernel's decision `d` for
/// a vertex in community `cur`: a move gaining less than `gate` is
/// suppressed, and a surviving move is dropped by the §5.1 singlet veto.
/// Returns the target to commit and whether the gate suppressed a move (the
/// vertex is locally converged at this gate level; vetoes and genuine stays
/// are not). `gate = 0.0` never suppresses: a chosen move gains > 0.
#[inline]
fn snapshot_policy(
    d: &MoveDecision,
    cur: Community,
    gate: f64,
    sizes: &[u32],
) -> (Community, bool) {
    if d.target != cur {
        if d.gain < gate {
            return (cur, true);
        }
        if singlet_veto(cur, d.target, |c| sizes[c as usize]) {
            return (cur, false);
        }
    }
    (d.target, false)
}

/// The unordered sweep's per-iteration step for the phase driver.
///
/// Every examined vertex decides in parallel against the state as the
/// previous iteration left it; the moves then commit together through
/// [`crate::modularity::ModularityTracker::apply_batch`] (O(Σ deg(moved))
/// accounting, applied in ascending vertex order). Before pruning engages
/// the step examines all `n` vertices and collects the new assignment
/// directly; once the driver has engaged a frontier, only frontier vertices
/// decide — they see exactly the frozen state a full sweep would show them,
/// so their decisions and the accounting are unchanged — and the commit
/// goes through a second assignment buffer.
pub(crate) fn unordered_step(
    g: &CsrGraph,
) -> impl FnMut(&mut SweepState, Option<&ActiveSet>, f64, &mut Vec<VertexId>) -> (usize, usize) + '_
{
    let n = g.num_vertices();
    // The process-global per-worker arena: scratches checked out here were
    // warmed by earlier iterations — and earlier *phases* — on the same
    // resident worker.
    let scratches = ScratchPool::global();
    let mut spare: Vec<Community> = Vec::new();
    move |state, active, gate, movers| {
        let gamma = state.tracker.gamma();
        let frozen = &*state;
        let target_of = |scratch: &mut NeighborScratch, v: VertexId| {
            let d = evaluate(g, &frozen.assignment, &frozen.a, gamma, scratch, v);
            snapshot_policy(&d, frozen.assignment[v as usize], gate, &frozen.sizes)
        };
        match active {
            None => {
                // With the gate inactive (Fixed + ε = 0, the default and
                // the perf-gated baseline) nothing can be suppressed, so
                // the sweep keeps its single-collect shape; the gated shape
                // pays two extra O(n) passes to split targets from
                // suppression flags.
                let (c_curr, converged): (Vec<Community>, usize) = if gate > 0.0 {
                    let decisions: Vec<(Community, bool)> = (0..n as VertexId)
                        .into_par_iter()
                        .map_init(|| scratches.take(), |scratch, v| target_of(scratch, v))
                        .collect();
                    (
                        decisions.par_iter().map(|&(c, _)| c).collect(),
                        decisions.par_iter().filter(|&&(_, gated)| gated).count(),
                    )
                } else {
                    let c_curr = (0..n as VertexId)
                        .into_par_iter()
                        .map_init(|| scratches.take(), |scratch, v| target_of(scratch, v).0)
                        .collect();
                    (c_curr, 0)
                };
                // The committed moves, in ascending vertex order.
                *movers = (0..n as VertexId)
                    .into_par_iter()
                    .filter(|&v| frozen.assignment[v as usize] != c_curr[v as usize])
                    .collect();
                state.tracker.apply_batch(
                    g,
                    &state.assignment,
                    &c_curr,
                    movers,
                    &mut state.a,
                    &mut state.sizes,
                );
                state.assignment = c_curr;
                (n, converged)
            }
            Some(set) => {
                let frontier = set.frontier();
                let decisions: Vec<(Community, bool)> = frontier
                    .par_iter()
                    .map_init(|| scratches.take(), |scratch, &v| target_of(scratch, v))
                    .collect();
                // Copy the snapshot (an O(n) memcpy, cheap next to the O(m)
                // gathers pruning saves), then apply the frontier's
                // decisions in ascending vertex order.
                spare.clone_from(&state.assignment);
                let mut converged = 0usize;
                for (&v, &(to, gated)) in frontier.iter().zip(&decisions) {
                    if to != state.assignment[v as usize] {
                        spare[v as usize] = to;
                        movers.push(v);
                    }
                    converged += gated as usize;
                }
                state.tracker.apply_batch(
                    g,
                    &state.assignment,
                    &spare,
                    movers,
                    &mut state.a,
                    &mut state.sizes,
                );
                std::mem::swap(&mut state.assignment, &mut spare);
                (frontier.len(), converged)
            }
        }
    }
}

/// The colored sweep's per-iteration step for the phase driver.
///
/// `batches` partitions the vertices into independent sets (distance-1
/// color classes) under [`ColorBatches`]' stable-ordering guarantee. The
/// batches run in ascending color order; each is decided in parallel
/// against the state frozen at its barrier — a vertex's neighbors sit in
/// other classes, so the frozen state is also their freshest — and then
/// committed in ascending vertex order: per-move `e_in` deltas reduce in a
/// fixed left-biased order (`det_sum`) and the `a`/`Σ a_C²`/size updates
/// apply in commit order, O(#moves) and schedule-independent.
///
/// Once the driver has engaged a frontier, each batch is first filtered to
/// its active vertices ([`ColorBatches::filter_batch_into`]) — a filtered
/// batch is still an independent set, so the barrier commit and the
/// incremental accounting stay exact. Vertices whose neighborhood changes
/// mid-iteration (an earlier batch's commit) are picked up by the next
/// iteration's frontier, which the driver rebuilds from all the batches'
/// movers.
pub(crate) fn colored_step<'a>(
    g: &'a CsrGraph,
    batches: &'a ColorBatches,
) -> impl FnMut(&mut SweepState, Option<&ActiveSet>, f64, &mut Vec<VertexId>) -> (usize, usize) + 'a
{
    // Scratch allocations amortize across all color batches, iterations,
    // and phases instead of recurring per parallel region.
    let scratches = ScratchPool::global();
    let mut filtered: Vec<VertexId> = Vec::new();
    let mut moved: Vec<IndependentMove> = Vec::new();
    move |state, active, gate, movers| {
        let gamma = state.tracker.gamma();
        let mut examined = 0usize;
        let mut converged = 0usize;
        for (color, full_batch) in batches.as_classes().iter().enumerate() {
            let batch: &[VertexId] = match active {
                // A filtered batch is a subset of an independent set —
                // still independent, still ascending.
                Some(set) if !set.is_saturated() => {
                    batches.filter_batch_into(color, |v| set.contains(v), &mut filtered);
                    &filtered
                }
                _ => full_batch.as_slice(),
            };
            if batch.is_empty() {
                continue;
            }
            examined += batch.len();
            let frozen = &*state;
            let decisions: Vec<(MoveDecision, bool)> = batch
                .par_iter()
                .map_init(
                    || scratches.take(),
                    |scratch, &v| {
                        let d = evaluate(g, &frozen.assignment, &frozen.a, gamma, scratch, v);
                        let cur = frozen.assignment[v as usize];
                        let (target, gated) = snapshot_policy(&d, cur, gate, &frozen.sizes);
                        (MoveDecision { target, ..d }, gated)
                    },
                )
                .collect();
            moved.clear();
            for (&v, &(d, gated)) in batch.iter().zip(&decisions) {
                converged += gated as usize;
                let from = state.assignment[v as usize];
                if d.target != from {
                    moved.push(IndependentMove {
                        k: g.weighted_degree(v),
                        e_src: d.e_src,
                        e_tgt: d.e_tgt,
                        from,
                        to: d.target,
                    });
                    movers.push(v);
                    state.assignment[v as usize] = d.target;
                }
            }
            state
                .tracker
                .apply_independent_batch(&moved, &mut state.a, &mut state.sizes);
        }
        (examined, converged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LouvainConfig, SweepMode};
    use crate::phase::{PhaseDriver, PhaseOutcome};
    use grappolo_coloring::{color_parallel, ParallelColoringConfig};
    use grappolo_graph::from_unweighted_edges;
    use grappolo_graph::gen::{
        planted_partition, ring_of_cliques, CliqueRingConfig, PlantedConfig,
    };

    fn classes_of(g: &CsrGraph) -> ColorBatches {
        let coloring = color_parallel(g, &ParallelColoringConfig::default());
        ColorBatches::from_coloring(&coloring)
    }

    // The historical fixed-threshold entry signatures, kept local so the
    // tests keep reading like the paper's experiments; they resolve through
    // the production `PhaseDriver`.
    fn driver(
        sweep: SweepMode,
        threshold: f64,
        max_iterations: usize,
        resolution: f64,
    ) -> PhaseDriver {
        let config = LouvainConfig {
            sweep_mode: sweep,
            max_iterations_per_phase: max_iterations,
            resolution,
            ..LouvainConfig::default()
        };
        PhaseDriver::from_config(&config, threshold)
    }

    fn parallel_phase_unordered(
        g: &CsrGraph,
        threshold: f64,
        max_iterations: usize,
        resolution: f64,
    ) -> PhaseOutcome {
        parallel_phase_unordered_sweep(g, SweepMode::Full, threshold, max_iterations, resolution)
    }

    fn parallel_phase_unordered_sweep(
        g: &CsrGraph,
        sweep: SweepMode,
        threshold: f64,
        max_iterations: usize,
        resolution: f64,
    ) -> PhaseOutcome {
        driver(sweep, threshold, max_iterations, resolution).run(g)
    }

    fn parallel_phase_colored(
        g: &CsrGraph,
        batches: &ColorBatches,
        threshold: f64,
        max_iterations: usize,
        resolution: f64,
    ) -> PhaseOutcome {
        parallel_phase_colored_sweep(
            g,
            batches,
            SweepMode::Full,
            threshold,
            max_iterations,
            resolution,
        )
    }

    fn parallel_phase_colored_sweep(
        g: &CsrGraph,
        batches: &ColorBatches,
        sweep: SweepMode,
        threshold: f64,
        max_iterations: usize,
        resolution: f64,
    ) -> PhaseOutcome {
        driver(sweep, threshold, max_iterations, resolution).run_colored(g, batches)
    }

    #[test]
    fn unordered_recovers_cliques() {
        let (g, truth) = ring_of_cliques(&CliqueRingConfig {
            num_cliques: 10,
            clique_size: 6,
            ..Default::default()
        });
        let out = parallel_phase_unordered(&g, 1e-6, 1000, 1.0);
        assert!(out.final_modularity > 0.7, "Q={}", out.final_modularity);
        for c in 0..10u32 {
            let members: Vec<_> = (0..60)
                .filter(|&v| truth[v] == c)
                .map(|v| out.assignment[v])
                .collect();
            assert!(members.windows(2).all(|w| w[0] == w[1]), "clique {c} split");
        }
    }

    #[test]
    fn colored_recovers_cliques() {
        let (g, truth) = ring_of_cliques(&CliqueRingConfig {
            num_cliques: 10,
            clique_size: 6,
            ..Default::default()
        });
        let out = parallel_phase_colored(&g, &classes_of(&g), 1e-6, 1000, 1.0);
        assert!(out.final_modularity > 0.7, "Q={}", out.final_modularity);
        for c in 0..10u32 {
            let members: Vec<_> = (0..60)
                .filter(|&v| truth[v] == c)
                .map(|v| out.assignment[v])
                .collect();
            assert!(members.windows(2).all(|w| w[0] == w[1]), "clique {c} split");
        }
    }

    #[test]
    fn min_label_prevents_two_vertex_swap() {
        // §4.2's swap scenario: a single edge. Without the singlet rule the
        // pair could swap labels forever; with it, exactly one converges into
        // the other (the smaller label) after one iteration.
        let g = from_unweighted_edges(2, [(0, 1)]).unwrap();
        let out = parallel_phase_unordered(&g, 1e-9, 100, 1.0);
        assert_eq!(out.assignment[0], out.assignment[1]);
        assert_eq!(out.assignment[0], 0, "minimum label must win");
    }

    #[test]
    fn four_clique_local_maxima_avoided() {
        // Fig. 2 case 2: a 4-clique starting as singletons. The generalized
        // ML heuristic sends every vertex toward the smallest-label maximal-
        // gain community instead of splitting into {i4,i6},{i5,i7}.
        let g = from_unweighted_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let out = parallel_phase_unordered(&g, 1e-9, 100, 1.0);
        let c = out.assignment[0];
        assert!(
            out.assignment.iter().all(|&x| x == c),
            "4-clique should be one community, got {:?}",
            out.assignment
        );
    }

    #[test]
    fn unordered_deterministic_across_thread_counts() {
        // §5.4: the non-colored algorithm is stable regardless of core count.
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 3_000,
            num_communities: 30,
            ..Default::default()
        });
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| parallel_phase_unordered(&g, 1e-6, 1000, 1.0))
        };
        let out1 = run(1);
        let out2 = run(2);
        let out4 = run(4);
        assert_eq!(out1.assignment, out2.assignment);
        assert_eq!(out1.assignment, out4.assignment);
        assert_eq!(out1.iterations.len(), out2.iterations.len());
        assert_eq!(out1.final_modularity, out2.final_modularity);
        assert_eq!(out1.final_modularity, out4.final_modularity);
    }

    #[test]
    fn colored_uses_fewer_iterations_than_unordered() {
        // The design intent of coloring (§5.2): faster convergence. On a
        // community-rich graph the colored phase should need no more
        // iterations than the unordered one.
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 2_000,
            num_communities: 20,
            ..Default::default()
        });
        let un = parallel_phase_unordered(&g, 1e-4, 1000, 1.0);
        let co = parallel_phase_colored(&g, &classes_of(&g), 1e-4, 1000, 1.0);
        assert!(
            co.num_iterations() <= un.num_iterations(),
            "colored {} vs unordered {}",
            co.num_iterations(),
            un.num_iterations()
        );
        assert!(co.final_modularity > 0.5);
    }

    #[test]
    fn empty_graph_phases() {
        let g = CsrGraph::empty(0);
        let out = parallel_phase_unordered(&g, 1e-6, 10, 1.0);
        assert!(out.assignment.is_empty());
        let out2 = parallel_phase_colored(&g, &ColorBatches::default(), 1e-6, 10, 1.0);
        assert!(out2.assignment.is_empty());
    }

    #[test]
    fn colored_deterministic_across_thread_counts() {
        // The tentpole guarantee: with barrier commits and incremental
        // accounting, the colored phase inherits the §5.4 stability claim —
        // bitwise-identical assignments, iterations, and modularity at any
        // pool size.
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 3_000,
            num_communities: 30,
            ..Default::default()
        });
        let batches = classes_of(&g);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| parallel_phase_colored(&g, &batches, 1e-6, 1000, 1.0))
        };
        let out1 = run(1);
        for threads in [2usize, 4, 8] {
            let out = run(threads);
            assert_eq!(out1.assignment, out.assignment, "{threads} threads");
            assert_eq!(out1.iterations, out.iterations, "{threads} threads");
            assert_eq!(
                out1.final_modularity.to_bits(),
                out.final_modularity.to_bits(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn isolated_vertices_stay_singleton() {
        let g = from_unweighted_edges(4, [(0, 1)]).unwrap();
        let out = parallel_phase_unordered(&g, 1e-9, 100, 1.0);
        assert_eq!(out.assignment[2], 2);
        assert_eq!(out.assignment[3], 3);
    }

    #[test]
    fn active_first_iteration_bitwise_matches_full() {
        // Iteration 0's active set is saturated, so the pruned sweep must
        // make bitwise-identical decisions to the full sweep — for both the
        // unordered and the colored variants.
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 2_000,
            num_communities: 20,
            ..Default::default()
        });
        let full = parallel_phase_unordered_sweep(&g, SweepMode::Full, 1e-9, 1, 1.0);
        let active = parallel_phase_unordered_sweep(&g, SweepMode::Active, 1e-9, 1, 1.0);
        assert_eq!(full.assignment, active.assignment);
        assert_eq!(full.iterations, active.iterations);
        assert_eq!(
            full.final_modularity.to_bits(),
            active.final_modularity.to_bits()
        );

        let batches = classes_of(&g);
        let full_c = parallel_phase_colored_sweep(&g, &batches, SweepMode::Full, 1e-9, 1, 1.0);
        let active_c = parallel_phase_colored_sweep(&g, &batches, SweepMode::Active, 1e-9, 1, 1.0);
        assert_eq!(full_c.assignment, active_c.assignment);
        assert_eq!(full_c.iterations, active_c.iterations);
    }

    #[test]
    fn active_unordered_quality_matches_full() {
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 3_000,
            num_communities: 30,
            ..Default::default()
        });
        let full = parallel_phase_unordered_sweep(&g, SweepMode::Full, 1e-6, 1000, 1.0);
        let active = parallel_phase_unordered_sweep(&g, SweepMode::Active, 1e-6, 1000, 1.0);
        assert!(
            active.final_modularity >= 0.95 * full.final_modularity,
            "active Q {} vs full Q {}",
            active.final_modularity,
            full.final_modularity
        );
    }

    #[test]
    fn active_colored_quality_matches_full() {
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 3_000,
            num_communities: 30,
            ..Default::default()
        });
        let batches = classes_of(&g);
        let full = parallel_phase_colored_sweep(&g, &batches, SweepMode::Full, 1e-6, 1000, 1.0);
        let active = parallel_phase_colored_sweep(&g, &batches, SweepMode::Active, 1e-6, 1000, 1.0);
        assert!(
            active.final_modularity >= 0.95 * full.final_modularity,
            "active Q {} vs full Q {}",
            active.final_modularity,
            full.final_modularity
        );
    }

    #[test]
    fn active_sweeps_deterministic_across_thread_counts() {
        // The tentpole guarantee: the dirty-vertex frontier is rebuilt from
        // the committed move list, so the whole pruned phase — unordered and
        // colored — is bitwise identical at any pool size.
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 3_000,
            num_communities: 30,
            ..Default::default()
        });
        let batches = classes_of(&g);
        let run = |threads: usize, colored: bool| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                if colored {
                    parallel_phase_colored_sweep(&g, &batches, SweepMode::Active, 1e-6, 1000, 1.0)
                } else {
                    parallel_phase_unordered_sweep(&g, SweepMode::Active, 1e-6, 1000, 1.0)
                }
            })
        };
        for colored in [false, true] {
            let r1 = run(1, colored);
            for threads in [2usize, 4, 8] {
                let rt = run(threads, colored);
                assert_eq!(
                    r1.assignment, rt.assignment,
                    "colored={colored} t={threads}"
                );
                assert_eq!(
                    r1.iterations, rt.iterations,
                    "colored={colored} t={threads}"
                );
                assert_eq!(
                    r1.final_modularity.to_bits(),
                    rt.final_modularity.to_bits(),
                    "colored={colored} t={threads}"
                );
            }
        }
    }

    #[test]
    fn active_empty_graphs() {
        let g = CsrGraph::empty(0);
        assert!(
            parallel_phase_unordered_sweep(&g, SweepMode::Active, 1e-6, 10, 1.0)
                .assignment
                .is_empty()
        );
        let g5 = CsrGraph::empty(5); // edgeless: m = 0 short-circuits
        let out = parallel_phase_unordered_sweep(&g5, SweepMode::Active, 1e-6, 10, 1.0);
        assert_eq!(out.assignment, vec![0, 1, 2, 3, 4]);
        assert_eq!(out.num_iterations(), 0);
    }

    #[test]
    fn active_converges_with_terminal_zero_move_iteration() {
        // Once nothing moves, the frontier empties and the phase stops —
        // the active schedule may not run longer than the iteration cap nor
        // spin on an empty frontier.
        let (g, _) = ring_of_cliques(&CliqueRingConfig {
            num_cliques: 6,
            clique_size: 5,
            ..Default::default()
        });
        // Negative threshold: only the zero-move condition can stop the
        // phase, which is exactly when the frontier would empty.
        let out = parallel_phase_unordered_sweep(&g, SweepMode::Active, -1.0, 10_000, 1.0);
        assert!(out.num_iterations() < 10_000, "phase failed to terminate");
        assert_eq!(out.iterations.last().unwrap().1, 0);
        assert!(out.final_modularity > 0.7);
    }

    #[test]
    fn moves_counted() {
        let (g, _) = ring_of_cliques(&CliqueRingConfig {
            num_cliques: 4,
            clique_size: 4,
            ..Default::default()
        });
        let out = parallel_phase_unordered(&g, 1e-9, 100, 1.0);
        assert!(
            out.iterations[0].1 > 0,
            "first iteration must move vertices"
        );
        // Iterations should be recorded in order with the final Q last.
        assert_eq!(out.final_modularity, out.iterations.last().unwrap().0);
    }

    #[test]
    fn singleton_community_graph_converges_fast() {
        // A graph with no edges converges in one iteration (no moves).
        let g = CsrGraph::empty(10);
        let out = parallel_phase_unordered(&g, 1e-9, 100, 1.0);
        assert_eq!(out.num_iterations(), 0); // m = 0 short-circuits
    }
}
