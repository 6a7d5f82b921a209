//! The parallel Louvain phase (Algorithm 1) with the minimum-label
//! heuristics (§5.1) — in both flavors the paper evaluates. Both are run
//! through [`crate::PhaseDriver`]:
//!
//! * [`unordered_scheduled_impl`] — no coloring: one lock-free parallel
//!   sweep per iteration, every decision reading the *previous* iteration's
//!   assignment and community degrees (Algorithm 1 lines 8–14 with a single
//!   color set). Deterministic for any thread count: writes go to
//!   `C_curr[i]`, reads to `C_prev`, and all reductions are
//!   order-deterministic (§5.4's stability property).
//! * [`colored_scheduled_impl`] — vertices are processed one color batch at
//!   a time; each batch is decided in parallel against the state frozen at
//!   its barrier, then committed in ascending vertex order. Later batches
//!   observe earlier commits — the colored analogue of serial freshness.
//!   Because a batch is an independent set, the barrier commit is exact and
//!   feeds the same incremental [`ModularityTracker`] accounting as the
//!   unordered sweep (`Σ e_in` deltas reduced in fixed left-biased order via
//!   `det_sum`, `a`/`Σ a_C²` updates applied in commit order), so the phase
//!   is bitwise deterministic across thread counts — unlike the historical
//!   atomic-commit scheme (`__sync_fetch_and_add`, §5.5), whose
//!   schedule-dependent float commits forced an O(m) modularity rescan per
//!   iteration (retained as the test oracle
//!   [`crate::reference::parallel_phase_colored_rescan`]).

use crate::active::ActiveSet;
use crate::config::SweepMode;
use crate::modularity::{
    best_move_with_src, Community, IndependentMove, ModularityTracker, MoveContext, MoveDecision,
    NeighborScratch, ScratchPool, TRACKER_DRIFT_TOLERANCE,
};
use crate::phase::{singlet_veto, IterationStats, PhaseOutcome};
use crate::schedule::Convergence;
use grappolo_coloring::ColorBatches;
use grappolo_graph::{CsrGraph, VertexId};
use rayon::prelude::*;

/// Runs one **unordered** (non-colored) parallel phase to convergence under
/// an explicit [`Convergence`] policy — the full convergence engine behind
/// [`crate::PhaseDriver::run`].
///
/// Per-iteration bookkeeping is incremental: community degrees, sizes, and
/// the `Σ e_in` / `Σ a_C²` modularity terms are carried across iterations
/// and updated only for the committed moves
/// ([`ModularityTracker::apply_batch`]), so the historical O(n) degree
/// rebuild and O(m) modularity rescan are gone from the hot path (the
/// rescan survives as a `debug_assert` cross-check). All updates are
/// applied in deterministic order, preserving the §5.4 bitwise-stability
/// guarantee across thread counts.
///
/// `sweep` selects the iteration schedule: [`SweepMode::Full`] re-examines
/// every vertex each iteration (the paper's scheme); [`SweepMode::Active`]
/// re-examines only the dirty vertices — those whose neighborhood changed in
/// the previous iteration ([`ActiveSet`], rebuilt from the committed move
/// list) — making late iterations activity-proportional while staying
/// bitwise deterministic across thread counts. Pruning is **deferred**: the
/// phase runs the plain full-iteration path (bitwise identical to `Full`,
/// zero overhead) until an iteration's move count first drops to the
/// [`ActiveSet::engages`] bound, because a frontier derived from a dense
/// move set would be near-saturated and save nothing.
///
/// Each iteration decides under the policy's per-vertex gain gate
/// ([`Convergence::gate`]): a vertex whose best move gains less than the
/// gate stays put and counts as **locally converged**, so it commits no
/// move and drops out of the next dirty-vertex frontier until a neighbor
/// moves. `Convergence::fixed(θ)` (gate 0) reproduces the historical
/// fixed-threshold sweep bit-for-bit; a geometric schedule tightens the
/// gate per iteration and terminates on "frontier empty at the floor"
/// instead of the aggregate-gain stop ([`Convergence::should_stop`]). The
/// gate sequence is a pure function of the iteration index, so scheduled
/// sweeps remain bitwise deterministic across thread counts.
pub(crate) fn unordered_scheduled_impl(
    g: &CsrGraph,
    sweep: SweepMode,
    conv: &Convergence,
    max_iterations: usize,
    resolution: f64,
) -> PhaseOutcome {
    let n = g.num_vertices();
    let m = g.total_weight();
    if n == 0 || m <= 0.0 {
        return PhaseOutcome::trivial(n);
    }

    // Incremental state, initialized once for the singleton partition and
    // carried across iterations (Algorithm 1 line 8's "previous iteration"
    // view is exactly this state before the batch is applied).
    let mut c_prev: Vec<Community> = (0..n as Community).collect();
    let mut a: Vec<f64> = (0..n).map(|v| g.weighted_degree(v as VertexId)).collect();
    let mut sizes: Vec<u32> = vec![1; n];
    let mut tracker = ModularityTracker::new(g, &c_prev, &a, resolution);

    let mut iterations: Vec<(f64, usize)> = Vec::new();
    let mut stats: Vec<IterationStats> = Vec::new();
    let mut q_prev = tracker.modularity();

    // Deferred pruning: `active` stays disengaged (`None`) — the plain
    // full-iteration path below, bitwise identical to `SweepMode::Full` —
    // until an iteration's move count drops to the engagement bound; from
    // then on the work list and a second assignment buffer prune every
    // iteration.
    let prune = sweep == SweepMode::Active;
    let mut active: Option<(ActiveSet, Vec<Community>)> = None;
    // The process-global per-worker arena: scratches checked out here were
    // warmed by earlier iterations — and earlier *phases* — on the same
    // resident worker.
    let scratches = ScratchPool::global();

    for iter in 0..max_iterations {
        let gate = conv.gate(iter);
        let (q_curr, moves, converged) = match &mut active {
            // Lines 9–14, full schedule: one parallel sweep over every
            // vertex without locks, against snapshot state.
            None => {
                // With the gate inactive (Fixed + ε = 0, the default and
                // the perf-gated baseline) nothing can be suppressed, so
                // the sweep keeps its historical single-collect shape; the
                // gated shape pays two extra O(n) passes to split targets
                // from suppression flags.
                let (c_curr, converged) = if gate > 0.0 {
                    let decisions: Vec<(Community, bool)> = (0..n as VertexId)
                        .into_par_iter()
                        .map_init(
                            || scratches.take(),
                            |scratch, v| {
                                decide(g, &c_prev, &a, &sizes, m, resolution, gate, scratch, v)
                            },
                        )
                        .collect();
                    let c_curr: Vec<Community> = decisions.par_iter().map(|&(c, _)| c).collect();
                    let converged = decisions.par_iter().filter(|&&(_, gated)| gated).count();
                    (c_curr, converged)
                } else {
                    let c_curr: Vec<Community> = (0..n as VertexId)
                        .into_par_iter()
                        .map_init(
                            || scratches.take(),
                            |scratch, v| {
                                decide(g, &c_prev, &a, &sizes, m, resolution, gate, scratch, v).0
                            },
                        )
                        .collect();
                    (c_curr, 0)
                };

                // The committed moves, in ascending vertex order
                // (deterministic).
                let moved: Vec<VertexId> = (0..n as VertexId)
                    .into_par_iter()
                    .filter(|&v| c_prev[v as usize] != c_curr[v as usize])
                    .collect();
                let moves = moved.len();
                tracker.apply_batch(g, &c_prev, &c_curr, &moved, &mut a, &mut sizes);
                c_prev = c_curr;
                // Engagement additionally waits for the gate to reach its
                // floor: while the gate still tightens, a vertex gated this
                // iteration may clear the next one, and only the full path
                // re-examines it then (a frontier would park it until a
                // neighbor moved). Under `Fixed` the gate is constant, so
                // this clause never defers.
                if prune && conv.gate_at_floor(iter) && ActiveSet::engages(n, moves) {
                    let mut set = ActiveSet::empty(n);
                    set.rebuild_from_moves(g, &moved);
                    active = Some((set, c_prev.clone()));
                }
                stats.push(IterationStats {
                    gate,
                    frontier: n,
                    converged,
                });
                (tracker.modularity(), moves, converged)
            }
            // Active schedule: decide only the frontier. Frontier vertices
            // see exactly the frozen state a full sweep would show them, so
            // their decisions (and the incremental accounting) are
            // unchanged; skipped vertices keep their label by construction.
            Some((set, c_curr)) => {
                if set.is_empty() {
                    // Converged: nothing moved last iteration, so no vertex
                    // can have a changed neighborhood. (Unreachable through
                    // the normal loop — `should_stop` fires on zero moves —
                    // but an explicit guard keeps the invariant local.)
                    break;
                }
                let frontier = set.frontier();
                let decisions: Vec<(Community, bool)> = frontier
                    .par_iter()
                    .map_init(
                        || scratches.take(),
                        |scratch, &v| {
                            decide(g, &c_prev, &a, &sizes, m, resolution, gate, scratch, v)
                        },
                    )
                    .collect();

                // Commit: copy the previous assignment (O(n) memcpy — cheap
                // next to the O(m) gathers pruning saves), then apply the
                // frontier's decisions in ascending vertex order.
                c_curr.copy_from_slice(&c_prev);
                let mut moved: Vec<VertexId> = Vec::new();
                let mut converged = 0usize;
                for (&v, &(to, gated)) in frontier.iter().zip(&decisions) {
                    if to != c_prev[v as usize] {
                        c_curr[v as usize] = to;
                        moved.push(v);
                    }
                    converged += gated as usize;
                }
                let moves = moved.len();
                let frontier_len = frontier.len();
                tracker.apply_batch(g, &c_prev, c_curr, &moved, &mut a, &mut sizes);
                set.rebuild_from_moves(g, &moved);
                std::mem::swap(&mut c_prev, c_curr);
                stats.push(IterationStats {
                    gate,
                    frontier: frontier_len,
                    converged,
                });
                (tracker.modularity(), moves, converged)
            }
        };
        debug_assert!(
            tracker.drift_from_full(g, &c_prev) < TRACKER_DRIFT_TOLERANCE,
            "incremental modularity drifted: {} vs full recompute",
            tracker.drift_from_full(g, &c_prev),
        );
        iterations.push((q_curr, moves));
        if conv.should_stop(iter, q_prev, q_curr, moves, converged) {
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

/// Carried-forward sweep state for [`unordered_resume_impl`]: a converged
/// (or at least meaningful) prior assignment plus its incremental
/// bookkeeping, as the dynamic driver reconstructs it after an edge batch.
pub(crate) struct ResumeState {
    /// Prior community labels, one per vertex of the *updated* graph
    /// (labels `< n`, not necessarily dense).
    pub assignment: Vec<Community>,
    /// Per-community weighted degree sums on the updated graph.
    pub a: Vec<f64>,
    /// Per-community member counts.
    pub sizes: Vec<u32>,
    /// Tracker already seeded for (`assignment`, updated graph).
    pub tracker: ModularityTracker,
    /// Vertices whose incident edges changed — the dirty seed set
    /// (ascending, deduplicated).
    pub seeds: Vec<VertexId>,
}

/// Resumes the **unordered** parallel sweep from carried-forward state
/// instead of the singleton partition — the dynamic-update analogue of
/// [`unordered_scheduled_impl`].
///
/// The [`ActiveSet`] engages *immediately*, seeded from `state.seeds` (the
/// endpoints of changed edges) via the same movers ∪ neighbors closure used
/// mid-phase, so iteration 0 already examines only the dirty frontier.
/// Vertices outside the frontier are never examined and therefore keep
/// their labels bitwise — the quiesced-region guarantee — and every
/// per-iteration mechanism (snapshot decisions, ascending-order commits,
/// incremental tracker accounting, frontier rebuild from the committed move
/// list) is shared with the static phase, so the resumed sweep stays
/// bitwise deterministic across thread counts.
pub(crate) fn unordered_resume_impl(
    g: &CsrGraph,
    state: ResumeState,
    conv: &Convergence,
    max_iterations: usize,
    resolution: f64,
) -> PhaseOutcome {
    let n = g.num_vertices();
    let m = g.total_weight();
    let ResumeState {
        assignment: mut c_prev,
        mut a,
        mut sizes,
        mut tracker,
        seeds,
    } = state;
    if n == 0 || m <= 0.0 {
        return PhaseOutcome {
            assignment: c_prev,
            iterations: Vec::new(),
            stats: Vec::new(),
            final_modularity: 0.0,
            refinement: None,
        };
    }

    let mut set = ActiveSet::empty(n);
    set.rebuild_from_moves(g, &seeds);
    let mut c_curr = c_prev.clone();

    let mut iterations: Vec<(f64, usize)> = Vec::new();
    let mut stats: Vec<IterationStats> = Vec::new();
    let mut q_prev = tracker.modularity();
    let scratches = ScratchPool::global();

    for iter in 0..max_iterations {
        if set.is_empty() {
            break;
        }
        let gate = conv.gate(iter);
        let frontier = set.frontier();
        let decisions: Vec<(Community, bool)> = frontier
            .par_iter()
            .map_init(
                || scratches.take(),
                |scratch, &v| decide(g, &c_prev, &a, &sizes, m, resolution, gate, scratch, v),
            )
            .collect();

        c_curr.copy_from_slice(&c_prev);
        let mut moved: Vec<VertexId> = Vec::new();
        let mut converged = 0usize;
        for (&v, &(to, gated)) in frontier.iter().zip(&decisions) {
            if to != c_prev[v as usize] {
                c_curr[v as usize] = to;
                moved.push(v);
            }
            converged += gated as usize;
        }
        let moves = moved.len();
        let frontier_len = frontier.len();
        tracker.apply_batch(g, &c_prev, &c_curr, &moved, &mut a, &mut sizes);
        set.rebuild_from_moves(g, &moved);
        std::mem::swap(&mut c_prev, &mut c_curr);
        stats.push(IterationStats {
            gate,
            frontier: frontier_len,
            converged,
        });
        let q_curr = tracker.modularity();
        debug_assert!(
            tracker.drift_from_full(g, &c_prev) < TRACKER_DRIFT_TOLERANCE,
            "resumed incremental modularity drifted: {} vs full recompute",
            tracker.drift_from_full(g, &c_prev),
        );
        iterations.push((q_curr, moves));
        if conv.should_stop(iter, q_prev, q_curr, moves, converged) {
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

/// One vertex's migration decision against snapshot state, gated by the
/// iteration's per-vertex gain threshold. Returns `(target, gated)`:
/// `gated` is true iff the vertex had a strictly positive best gain that
/// the gate suppressed — it is *locally converged* at this gate level
/// (singlet vetoes and genuine stays are not gated). `gate = 0.0` can never
/// suppress (a chosen target always has gain > 0), so ungated callers get
/// the historical decision bit-for-bit.
#[allow(clippy::too_many_arguments)]
#[inline]
fn decide(
    g: &CsrGraph,
    assignment: &[Community],
    a: &[f64],
    sizes: &[u32],
    m: f64,
    resolution: f64,
    gate: f64,
    scratch: &mut NeighborScratch,
    v: VertexId,
) -> (Community, bool) {
    let cur = assignment[v as usize];
    scratch.gather(g, assignment, v);
    if scratch.entries.is_empty() {
        return (cur, false);
    }
    let ctx = MoveContext {
        current: cur,
        k: g.weighted_degree(v),
        m,
        a_current: a[cur as usize],
        gamma: resolution,
    };
    let decision = best_move_with_src(&ctx, &scratch.entries, scratch.weight_to(cur), |c| {
        a[c as usize]
    });
    if decision.target != cur {
        if decision.gain < gate {
            return (cur, true);
        }
        if singlet_veto(cur, decision.target, |c| sizes[c as usize]) {
            return (cur, false);
        }
    }
    (decision.target, false)
}

/// One color batch's migration decisions, evaluated in parallel against the
/// state frozen at the batch barrier (`assignment`/`a`/`sizes` are not
/// mutated while the batch is in flight). Returns one [`MoveDecision`] per
/// batch vertex, in batch order; a gated, vetoed, or stay decision has
/// `target == current` (a gated one keeps its positive `gain`, which is how
/// [`colored_collect_moves`] recognizes local convergence). Shared by the
/// incremental colored sweep and the full-rescan reference (which passes
/// `gate = 0.0`) so both make bitwise-identical decisions.
#[allow(clippy::too_many_arguments)]
pub(crate) fn colored_decide_batch(
    g: &CsrGraph,
    assignment: &[Community],
    a: &[f64],
    sizes: &[u32],
    m: f64,
    resolution: f64,
    gate: f64,
    batch: &[VertexId],
    scratches: &ScratchPool,
) -> Vec<MoveDecision> {
    batch
        .par_iter()
        .map_init(
            || scratches.take(),
            |scratch, &v| {
                let scratch: &mut NeighborScratch = scratch;
                let cur = assignment[v as usize];
                // Neighbors are in other color batches (distance-1 coloring), so
                // the barrier snapshot is also their freshest state.
                scratch.gather(g, assignment, v);
                if scratch.entries.is_empty() {
                    return MoveDecision {
                        target: cur,
                        gain: 0.0,
                        e_src: 0.0,
                        e_tgt: 0.0,
                    };
                }
                let ctx = MoveContext {
                    current: cur,
                    k: g.weighted_degree(v),
                    m,
                    a_current: a[cur as usize],
                    gamma: resolution,
                };
                let decision =
                    best_move_with_src(&ctx, &scratch.entries, scratch.weight_to(cur), |c| {
                        a[c as usize]
                    });
                if decision.target != cur
                    && (decision.gain < gate
                        || singlet_veto(cur, decision.target, |c| sizes[c as usize]))
                {
                    return MoveDecision {
                        target: cur,
                        ..decision
                    };
                }
                decision
            },
        )
        .collect()
}

/// Drains one batch's decisions into `moved` (ascending vertex order, since
/// batches are stably ordered) and commits the assignment writes; the
/// movers' vertex ids land in `movers` (same order, same length — the
/// active-set rebuild consumes them). Returns the number of **locally
/// converged** vertices: stays whose positive best gain fell below `gate`
/// (gate 0.0 ⇒ always 0). The `a`/`sizes`/modularity accounting is the
/// caller's responsibility — the only place the incremental sweep and the
/// rescan reference differ.
pub(crate) fn colored_collect_moves(
    g: &CsrGraph,
    batch: &[VertexId],
    decisions: &[MoveDecision],
    gate: f64,
    assignment: &mut [Community],
    moved: &mut Vec<IndependentMove>,
    movers: &mut Vec<VertexId>,
) -> usize {
    moved.clear();
    movers.clear();
    let mut converged = 0usize;
    for (&v, d) in batch.iter().zip(decisions) {
        let from = assignment[v as usize];
        if d.target == from {
            converged += (d.gain > 0.0 && d.gain < gate) as usize;
            continue;
        }
        moved.push(IndependentMove {
            k: g.weighted_degree(v),
            e_src: d.e_src,
            e_tgt: d.e_tgt,
            from,
            to: d.target,
        });
        movers.push(v);
        assignment[v as usize] = d.target;
    }
    converged
}

/// Runs one **colored** parallel phase to convergence under an explicit
/// [`Convergence`] policy — the colored side of the convergence engine,
/// behind [`crate::PhaseDriver::run_colored`].
///
/// `batches` partitions the vertices into independent sets (distance-1 color
/// classes) under [`ColorBatches`]' stable-ordering guarantee. Within an
/// iteration the batches are processed in ascending color order: each
/// batch's decisions are computed in parallel against the state frozen at
/// its barrier, then committed in ascending vertex order, so later batches
/// observe earlier commits (the colored analogue of serial freshness) while
/// the whole phase stays bitwise deterministic across thread counts.
///
/// Per-iteration bookkeeping is incremental, as in
/// [`unordered_scheduled_impl`]: community degrees, sizes, and the
/// `Σ e_in` / `Σ a_C²` terms are carried across batches and updated only for
/// committed moves ([`ModularityTracker::apply_independent_batch`], exact
/// precisely because a batch's movers form an independent set), replacing
/// the historical per-iteration O(m) modularity rescan with O(#moves)
/// accounting. The rescan survives as a `debug_assert` cross-check here and
/// as the retained [`crate::reference::parallel_phase_colored_rescan`]
/// differential baseline.
///
/// Under [`SweepMode::Active`] each color batch is filtered to its active
/// vertices ([`ColorBatches::filter_batch_into`]) before the batch decision
/// pass — a filtered batch is still an independent set, so the barrier
/// commit and incremental accounting stay exact. The work list is rebuilt
/// once per iteration from the concatenated per-batch move lists, so the
/// frontier (and hence the whole phase) remains bitwise deterministic
/// across thread counts; vertices whose neighborhood changes mid-iteration
/// (an earlier batch's commit) are picked up in the next iteration's
/// frontier. As in the unordered sweep, pruning is deferred until an
/// iteration's move count drops to the [`ActiveSet::engages`] bound — dense
/// iterations run the plain path, bitwise identical to `Full`.
///
/// The per-vertex gain gate is applied inside each batch's decision pass
/// ([`colored_decide_batch`]): a gated vertex stays put, so it neither
/// commits a move nor re-enters the dirty-vertex frontier until a neighbor
/// moves. Gating is vertex-local against the batch's frozen barrier state,
/// so the independent-set commit and the incremental accounting are
/// untouched, and the gate sequence (a pure function of the iteration
/// index) keeps the whole phase bitwise deterministic across thread counts.
/// `Convergence::fixed(θ)` reproduces the fixed-threshold colored sweep
/// bit-for-bit.
pub(crate) fn colored_scheduled_impl(
    g: &CsrGraph,
    batches: &ColorBatches,
    sweep: SweepMode,
    conv: &Convergence,
    max_iterations: usize,
    resolution: f64,
) -> PhaseOutcome {
    let n = g.num_vertices();
    let m = g.total_weight();
    if n == 0 || m <= 0.0 {
        return PhaseOutcome::trivial(n);
    }
    debug_assert!(batches.is_stably_ordered(), "unstable color batches");

    let mut assignment: Vec<Community> = (0..n as Community).collect();
    let mut a: Vec<f64> = (0..n).map(|v| g.weighted_degree(v as VertexId)).collect();
    let mut sizes: Vec<u32> = vec![1; n];
    let mut tracker = ModularityTracker::new(g, &assignment, &a, resolution);

    let mut iterations: Vec<(f64, usize)> = Vec::new();
    let mut stats: Vec<IterationStats> = Vec::new();
    let mut q_prev = tracker.modularity();
    let mut moved: Vec<IndependentMove> = Vec::new();
    let mut movers: Vec<VertexId> = Vec::new();
    // The process-global per-worker arena: scratch allocations amortize
    // across all color batches, iterations, and phases instead of recurring
    // per parallel region.
    let scratches = ScratchPool::global();

    // Deferred pruning, as in the unordered sweep: full-path iterations
    // (bitwise identical to `Full`) until the move count first drops to the
    // engagement bound, pruned iterations thereafter.
    let prune = sweep == SweepMode::Active;
    let mut active: Option<ActiveSet> = None;
    let mut filtered: Vec<VertexId> = Vec::new();
    let mut iter_movers: Vec<VertexId> = Vec::new();

    for iter in 0..max_iterations {
        if active.as_ref().is_some_and(ActiveSet::is_empty) {
            // Converged: nothing moved last iteration (see the unordered
            // sweep's identical guard).
            break;
        }
        let gate = conv.gate(iter);
        let mut moves = 0usize;
        let mut converged = 0usize;
        let mut examined = 0usize;
        iter_movers.clear();
        for (color, full_batch) in batches.as_classes().iter().enumerate() {
            let batch: &[VertexId] = match &active {
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
            let decisions = colored_decide_batch(
                g,
                &assignment,
                &a,
                &sizes,
                m,
                resolution,
                gate,
                batch,
                scratches,
            );
            converged += colored_collect_moves(
                g,
                batch,
                &decisions,
                gate,
                &mut assignment,
                &mut moved,
                &mut movers,
            );
            // Barrier commit: per-move e_in deltas reduced in a fixed
            // left-biased order (det_sum), a/null_sum/sizes updates applied
            // in ascending vertex order — O(#moves), schedule-independent.
            tracker.apply_independent_batch(&moved, &mut a, &mut sizes);
            moves += moved.len();
            if prune {
                iter_movers.extend_from_slice(&movers);
            }
        }
        match &mut active {
            Some(set) => set.rebuild_from_moves(g, &iter_movers),
            // As in the unordered sweep, engagement waits for the gate
            // floor: a pre-floor frontier would park vertices the
            // tightening gate is about to admit.
            None if prune && conv.gate_at_floor(iter) && ActiveSet::engages(n, moves) => {
                let mut set = ActiveSet::empty(n);
                set.rebuild_from_moves(g, &iter_movers);
                active = Some(set);
            }
            None => {}
        }

        let q_curr = tracker.modularity();
        debug_assert!(
            tracker.drift_from_full(g, &assignment) < TRACKER_DRIFT_TOLERANCE,
            "incremental colored modularity drifted: {} vs full recompute",
            tracker.drift_from_full(g, &assignment),
        );
        iterations.push((q_curr, moves));
        stats.push(IterationStats {
            gate,
            frontier: examined,
            converged,
        });
        if conv.should_stop(iter, q_prev, q_curr, moves, converged) {
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
    // tests keep reading like the paper's experiments; production callers go
    // through `crate::PhaseDriver`.
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
        unordered_scheduled_impl(
            g,
            sweep,
            &Convergence::fixed(threshold),
            max_iterations,
            resolution,
        )
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
        colored_scheduled_impl(
            g,
            batches,
            sweep,
            &Convergence::fixed(threshold),
            max_iterations,
            resolution,
        )
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
