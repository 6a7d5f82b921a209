//! The three parallel commit strategies of the local-moving engine
//! ([`crate::phase`] runs the iterations around them): Algorithm 1 with
//! the minimum-label heuristics (§5.1), in both flavors the paper
//! evaluates, and the dynamic-update path's screened immediate pass:
//!
//! * **unordered** — no coloring: one lock-free parallel sweep per
//!   iteration over the frontier, every decision reading the *previous*
//!   iteration's assignment and community degrees (Algorithm 1 lines 8–14
//!   with a single color set), all moves committed as one snapshot batch
//!   ([`ModularityTracker::apply_batch`]). Deterministic for any thread
//!   count: decisions read frozen state, the move list is assembled in
//!   ascending vertex order, and every reduction is order-deterministic
//!   (§5.4's stability property).
//! * **colored** — vertices are processed one color batch at a time,
//!   filtered to the frontier once it is no longer saturated; each
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
//! * **screened immediate** — the resume of a dynamic update: the frontier
//!   is decided in parallel against the previous iteration's state, as the
//!   unordered sweep decides it, but only whether each vertex would move
//!   is kept. Those vertices are then re-decided against the live state and
//!   committed one at a time, in ascending vertex order, by the serial
//!   sweep's immediate pass ([`crate::serial`]), each with
//!   [`ModularityTracker::apply_move`]'s exact accounting. Every commit
//!   gains, so Q never decreases between iterations, where a snapshot batch
//!   can lower it (Lemma 1) and swing a vertex back to the label it held
//!   two iterations earlier. Detection's sweeps keep the paper's commits:
//!   they start from singletons on a saturated frontier, where nearly every
//!   vertex would move.
//!
//! All three decide through the engine's shared move kernel and apply the
//! same per-vertex policy to its parallel decision: a move gaining less
//! than the iteration's gate is suppressed (the vertex is locally
//! converged), and a surviving move is subject to the §5.1 singlet veto.
//!
//! # The sliced decide
//!
//! Every step decides a vertex list (a color class, or the frontier) in
//! contiguous slices of about equal adjacency work ([`slice_bounds`]): a
//! vertex costs its degree plus a fixed [`VERTEX_WORK`], and each slice is
//! one pool task. Cutting by work rather than by vertex count matters on
//! skewed graphs: an RMAT class of a few hundred vertices can hold a hub
//! with tens of thousands of entries, and a count-cut region of 1 024 or
//! fewer vertices would run on the caller alone. A slice is a plain loop
//! that, before deciding `slice[j]`, prefetches the first neighbor-id and
//! weight cache lines of `slice[j + PREFETCH_AHEAD]`'s row, so a color
//! class's scattered rows are on their way while the vertices before them
//! decide. Decisions land in one buffer the step keeps across classes and
//! iterations, slot `i` for `list[i]`.
//!
//! None of this can change an output bit. Every decision is a pure
//! function of the state frozen at the barrier and of its vertex, the
//! commit stays serial in ascending vertex order, and the bounds are a pure
//! function of the list and the degrees, never of the thread count. The
//! slicing only chooses which thread fills which slot; the prefetch is a
//! hint that reads nothing the program sees.
//!
//! [`ModularityTracker::apply_batch`]: crate::modularity::ModularityTracker::apply_batch
//! [`ModularityTracker::apply_independent_batch`]: crate::modularity::ModularityTracker::apply_independent_batch
//! [`ModularityTracker::apply_move`]: crate::modularity::ModularityTracker::apply_move

use crate::active::ActiveSet;
use crate::modularity::{
    thread_scratch, Community, IndependentMove, MoveDecision, NeighborScratch,
};
use crate::phase::{evaluate, singlet_veto, SweepState};
use crate::serial::immediate_pass;
use grappolo_coloring::ColorBatches;
use grappolo_graph::shared::{carve, cut_by_work, MAX_PIECES, MIN_PIECE_WORK};
use grappolo_graph::{CsrGraph, VertexId};
use rayon::prelude::*;

/// The fixed cost of deciding one vertex, in adjacency entries: a slice's
/// work is `degree(v) + VERTEX_WORK` summed over its vertices.
pub const VERTEX_WORK: usize = 4;

/// The most slices a list is cut into: the rayon shim's per-region task
/// bound, shared by every row-parallel step.
pub const MAX_SLICES: usize = MAX_PIECES;

/// The least work a slice holds, the last one excepted, so a light list
/// stays one slice, which runs inline on the caller.
pub const MIN_SLICE_WORK: usize = MIN_PIECE_WORK;

/// How far ahead of the vertex it decides a slice prefetches a row.
const PREFETCH_AHEAD: usize = 16;

/// Cuts `list` into contiguous slices of about equal decide work and writes
/// their bounds to `bounds`: slice `s` is `list[bounds[s]..bounds[s + 1]]`.
///
/// The cut is [`cut_by_work`]'s greedy rule with a vertex costing
/// `degree + VERTEX_WORK`: the bounds start at 0, end at `list.len()` and
/// strictly increase (an empty list has the single bound 0 and no slice).
/// Each slice but the last holds at least `max(total / MAX_SLICES,
/// MIN_SLICE_WORK)` work, so there are at most [`MAX_SLICES`] of them, and a
/// vertex whose row alone reaches that target closes its slice, so a hub
/// after a closed slice stands alone. The bounds are a pure function of the
/// list and the degrees, never of the thread count.
pub fn slice_bounds(g: &CsrGraph, list: &[VertexId], bounds: &mut Vec<usize>) {
    cut_by_work(
        list.len(),
        MAX_SLICES,
        |i| g.degree(list[i]) + VERTEX_WORK,
        bounds,
    );
}

/// Decides every vertex of `list` into `out`, slot `i` for `list[i]`: one
/// pool task per slice of `bounds` ([`slice_bounds`] of `list`), each a
/// loop that gathers in its thread's scratch ([`thread_scratch`]) and
/// prefetches the row [`PREFETCH_AHEAD`] places ahead. `out` grows to the
/// list's length and is never shrunk, so one buffer serves a whole phase.
fn decide_sliced<D: Default + Copy + Send>(
    g: &CsrGraph,
    list: &[VertexId],
    bounds: &[usize],
    out: &mut Vec<D>,
    decide: impl Fn(&mut NeighborScratch, VertexId) -> D + Sync,
) {
    if out.len() < list.len() {
        out.resize(list.len(), D::default());
    }
    let mut slices: Vec<(&[VertexId], &mut [D])> = bounds
        .windows(2)
        .map(|w| &list[w[0]..w[1]])
        .zip(carve(out, bounds.windows(2).map(|w| w[1] - w[0])))
        .collect();
    // A slice is a coarse unit of work, and slices differ in length.
    slices
        .par_iter_mut()
        .with_min_len(1)
        .for_each(|(vertices, slots)| {
            let mut scratch = thread_scratch();
            for (j, (&v, slot)) in vertices.iter().zip(slots.iter_mut()).enumerate() {
                if let Some(&ahead) = vertices.get(j + PREFETCH_AHEAD) {
                    prefetch_row(g, ahead);
                }
                *slot = decide(&mut scratch, v);
            }
        });
}

/// Asks the CPU to start loading the first cache line of `v`'s neighbor ids
/// and of its weights. A no-op off x86-64.
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch_row(g: &CsrGraph, v: VertexId) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = g.adjacency_offsets()[v as usize];
        let ids = g.adjacency_targets().as_ptr().wrapping_add(start);
        let weights = g.adjacency_weights().as_ptr().wrapping_add(start);
        // SAFETY: `_mm_prefetch` is a hint: it never faults, whatever the
        // address, and neither reads nor writes anything the program can
        // observe. The pointers are never dereferenced (an empty last row
        // points one past its array, which a prefetch may name).
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(ids.cast::<i8>());
            _mm_prefetch::<_MM_HINT_T0>(weights.cast::<i8>());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (g, v);
}

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
/// Every frontier vertex decides in parallel against the state as the
/// previous iteration left it; the moves then commit together through
/// [`crate::modularity::ModularityTracker::apply_batch`] (O(Σ deg(moved))
/// accounting, applied in ascending vertex order). The commit copies the
/// snapshot into a second assignment buffer, applies the frontier's
/// decisions to it in ascending vertex order and swaps it in. Vertices off
/// the frontier keep their labels; a frontier vertex decides against
/// exactly the frozen state an unpruned sweep would show it, so the
/// saturated frontier `0..n` commits what an unpruned sweep commits.
pub(crate) fn unordered_step(
    g: &CsrGraph,
) -> impl FnMut(&mut SweepState, &ActiveSet, f64, &mut Vec<VertexId>) -> (usize, usize) + '_ {
    let mut bounds: Vec<usize> = Vec::new();
    let mut decisions: Vec<(Community, bool)> = Vec::new();
    let mut spare: Vec<Community> = Vec::new();
    move |state, active, gate, movers| {
        let gamma = state.tracker.gamma();
        let frontier = active.frontier();
        // O(frontier) reads of the offsets, next to the frontier's O(m)
        // gathers.
        slice_bounds(g, frontier, &mut bounds);
        let frozen = &*state;
        decide_sliced(g, frontier, &bounds, &mut decisions, |scratch, v| {
            let d = evaluate(g, &frozen.assignment, &frozen.a, gamma, scratch, v);
            snapshot_policy(&d, frozen.assignment[v as usize], gate, &frozen.sizes)
        });
        // Copy the snapshot (an O(n) memcpy, cheap next to the O(m)
        // gathers), then apply the frontier's decisions in ascending vertex
        // order.
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

/// The resumed sweep's per-iteration step for the phase driver
/// ([`crate::phase::PhaseDriver::resume`]): a parallel screen, then one
/// immediate pass.
///
/// The screen decides every frontier vertex in parallel against the state
/// as the previous iteration left it, under the snapshot sweeps' policy,
/// exactly as [`unordered_step`] decides, and keeps only whether the vertex
/// would move. The pass ([`crate::serial::immediate_pass`]) then re-decides
/// those vertices against the live state in ascending id order and commits
/// each surviving move at once, with [`ModularityTracker::apply_move`]'s
/// exact accounting. Every commit gains at least the gate and more than 0,
/// so Q never falls between iterations, no vertex swings back to a label a
/// simultaneous move made stale (Lemma 1's scenario), and the driver
/// rebuilds the next frontier from the vertices that really moved. A
/// vertex's suppressed move counts as converged where it was last decided:
/// in the screen if it would stay, in the pass otherwise.
///
/// The screen is a pure function of the frozen state and the pass is
/// serial and ordered, so the step is bitwise deterministic across thread
/// counts.
///
/// [`ModularityTracker::apply_move`]: crate::modularity::ModularityTracker::apply_move
pub(crate) fn resume_step(
    g: &CsrGraph,
) -> impl FnMut(&mut SweepState, &ActiveSet, f64, &mut Vec<VertexId>) -> (usize, usize) + '_ {
    let mut bounds: Vec<usize> = Vec::new();
    let mut screen: Vec<(bool, bool)> = Vec::new();
    move |state, active, gate, movers| {
        let gamma = state.tracker.gamma();
        let frontier = active.frontier();
        slice_bounds(g, frontier, &mut bounds);
        let frozen = &*state;
        decide_sliced(g, frontier, &bounds, &mut screen, |scratch, v| {
            let d = evaluate(g, &frozen.assignment, &frozen.a, gamma, scratch, v);
            let cur = frozen.assignment[v as usize];
            let (to, gated) = snapshot_policy(&d, cur, gate, &frozen.sizes);
            (to != cur, gated)
        });
        let screened = frontier.iter().zip(&screen);
        let gated = screened.clone().filter(|(_, &(_, gated))| gated).count();
        let would_move = screened.filter(|(_, &(moves, _))| moves).map(|(&v, _)| v);
        // Checked out after the decide, so the caller's slices gather in
        // the thread's warmed scratch.
        let mut scratch = thread_scratch();
        let push = |v: VertexId, _: Community| movers.push(v);
        let converged = immediate_pass(g, state, &mut scratch, would_move, gate, |_, _| true, push);
        (frontier.len(), gated + converged)
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
/// While the frontier is not saturated, each batch is first filtered to its
/// frontier vertices ([`ColorBatches::filter_batch_into`]) — a filtered
/// batch is still an independent set, so the barrier commit and the
/// incremental accounting stay exact. Vertices whose neighborhood changes
/// mid-iteration (an earlier batch's commit) are picked up by the next
/// iteration's frontier, which the driver rebuilds from all the batches'
/// movers.
///
/// A whole class is the same list all phase long, so its slices are cut
/// once, when the step is made; a filtered class is cut each iteration.
pub(crate) fn colored_step<'a>(
    g: &'a CsrGraph,
    batches: &'a ColorBatches,
) -> impl FnMut(&mut SweepState, &ActiveSet, f64, &mut Vec<VertexId>) -> (usize, usize) + 'a {
    let class_bounds: Vec<Vec<usize>> = batches
        .classes()
        .map(|class| {
            let mut bounds = Vec::new();
            slice_bounds(g, class, &mut bounds);
            bounds
        })
        .collect();
    let mut filtered: Vec<VertexId> = Vec::new();
    let mut filtered_bounds: Vec<usize> = Vec::new();
    let mut decisions: Vec<(MoveDecision, bool)> = Vec::new();
    let mut moved: Vec<IndependentMove> = Vec::new();
    move |state, active, gate, movers| {
        let gamma = state.tracker.gamma();
        let mut examined = 0usize;
        let mut converged = 0usize;
        for (color, full_batch) in batches.classes().enumerate() {
            let (batch, bounds): (&[VertexId], &[usize]) = if active.is_saturated() {
                (full_batch, &class_bounds[color])
            } else {
                // A filtered batch is a subset of an independent set —
                // still independent, still ascending.
                batches.filter_batch_into(color, |v| active.contains(v), &mut filtered);
                slice_bounds(g, &filtered, &mut filtered_bounds);
                (&filtered, &filtered_bounds)
            };
            if batch.is_empty() {
                continue;
            }
            examined += batch.len();
            let frozen = &*state;
            decide_sliced(g, batch, bounds, &mut decisions, |scratch, v| {
                let d = evaluate(g, &frozen.assignment, &frozen.a, gamma, scratch, v);
                let cur = frozen.assignment[v as usize];
                let (target, gated) = snapshot_policy(&d, cur, gate, &frozen.sizes);
                (MoveDecision { target, ..d }, gated)
            });
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

    /// The slice layout's contract on `list`: bounds from 0 to the list's
    /// length, strictly increasing, at most [`MAX_SLICES`] slices, every
    /// slice but the last holding the target work. Returns the bounds.
    fn checked_bounds(g: &CsrGraph, list: &[VertexId]) -> Vec<usize> {
        let mut bounds = vec![7, 7]; // stale contents are cleared
        slice_bounds(g, list, &mut bounds);
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&list.len()));
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
        assert!(
            bounds.len() - 1 <= MAX_SLICES,
            "{} slices",
            bounds.len() - 1
        );
        let work = |s: &[VertexId]| s.iter().map(|&v| g.degree(v) + VERTEX_WORK).sum::<usize>();
        let target = work(list).div_ceil(MAX_SLICES).max(MIN_SLICE_WORK);
        for w in bounds.windows(2).take(bounds.len().saturating_sub(2)) {
            assert!(work(&list[w[0]..w[1]]) >= target, "slice {w:?} is light");
        }
        bounds
    }

    #[test]
    fn slice_bounds_cut_lists_by_adjacency_work() {
        // A star: hub 0 has 9 999 entries, each leaf one.
        let star = from_unweighted_edges(10_000, (1..10_000u32).map(|v| (0, v))).unwrap();
        let leaves: Vec<VertexId> = (1..10_000).collect();
        let all: Vec<VertexId> = (0..10_000).collect();

        // Below the minimum work: one slice, which runs inline.
        assert_eq!(checked_bounds(&star, &leaves[..100]), vec![0, 100]);
        assert_eq!(checked_bounds(&star, &[0]), vec![0, 1]);
        assert_eq!(checked_bounds(&star, &[]), vec![0]);
        // 9 999 leaves of work 5: the minimum (4 096) closes a slice every
        // 820 leaves, well under 64 slices.
        let bounds = checked_bounds(&star, &leaves);
        assert_eq!(bounds[1], 820);
        assert_eq!(bounds.len() - 1, 9_999usize.div_ceil(820));
        // The hub leads its list, so it is a slice on its own.
        let bounds = checked_bounds(&star, &all);
        assert_eq!(bounds[1], 1, "the hub does not stand alone");

        // A heavy list is cut into at most 64 slices.
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 20_000,
            num_communities: 200,
            ..Default::default()
        });
        let list: Vec<VertexId> = (0..20_000).collect();
        let heavy = checked_bounds(&g, &list);
        assert!(heavy.len() - 1 > 32, "{} slices", heavy.len() - 1);

        // The bounds depend on the list alone, not on the pool.
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                assert_eq!(checked_bounds(&g, &list), heavy, "{threads} threads");
                assert_eq!(checked_bounds(&star, &all)[1], 1, "{threads} threads");
            });
        }
    }

    #[test]
    fn singleton_community_graph_converges_fast() {
        // A graph with no edges converges in one iteration (no moves).
        let g = CsrGraph::empty(10);
        let out = parallel_phase_unordered(&g, 1e-9, 100, 1.0);
        assert_eq!(out.num_iterations(), 0); // m = 0 short-circuits
    }
}
