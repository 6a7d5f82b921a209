//! Leiden-style refinement: split every community into connected
//! sub-communities between local-moving and the inter-phase rebuild, so
//! condensation never merges internally disconnected vertex sets.
//!
//! Louvain's local-moving step is known to emit **internally disconnected**
//! communities (Traag et al.'s Leiden paper; Staudt & Meyerhenke's PLM): a
//! bridge vertex can move away and leave the rest of its community in two
//! pieces that only ever get *more* entangled once `rebuild` collapses them
//! into a single vertex. The refinement pass here runs after a phase's sweep
//! converges and before its assignment is condensed:
//!
//! 1. **Connected-component split.** Each parent community is partitioned
//!    into its connected components by a breadth-first traversal constrained
//!    to intra-parent edges. A component's label is its minimum member
//!    vertex, and vertices are seeded in ascending id order, so the labeling
//!    is a pure function of the assignment — independent of traversal order,
//!    schedule, and thread count. Splitting never lowers modularity: the
//!    intra-community weight `e_in` is unchanged (components share no
//!    edges), while the null-model term `Σ a_C²` can only shrink
//!    (`(a_A + a_B)² ≥ a_A² + a_B²`), so `Q` is non-decreasing for every
//!    `γ ≥ 0`. The traversal visits every vertex and edge exactly once, so
//!    it also accumulates the per-community degree sums, sizes, and `e_in`
//!    the later stages need — no separate rescan.
//! 2. **Crumb absorption.** The split (and the geometric gate's forfeited
//!    sub-`1/m` "crumb" moves before it) strands singleton communities whose
//!    best move was suppressed or whose parent disintegrated. A serial
//!    ascending-order sweep re-examines every *singleton* community and
//!    greedily merges it into the best adjacent community when the
//!    modularity gain is strictly positive, committing immediately — the
//!    serial Louvain sweep's own immediate-commit pass ([`crate::serial`]),
//!    admitting only singletons. Only singletons move, and a
//!    singleton's target is by construction adjacent to it, so absorption
//!    preserves the connectivity invariant (the source community vanishes;
//!    the target gains an adjacent vertex) while strictly increasing `Q` at
//!    every commit. Sweeps repeat over an [`ActiveSet`] frontier rebuilt
//!    from the committed movers until a pass commits nothing.
//! 3. **Polish rounds.** The gate's forfeited crumbs are not all
//!    singletons — on structure-free inputs most are ordinary vertices
//!    whose sub-`1/m` move the schedule never admitted. Each round runs the
//!    same immediate-commit pass once more, committing any strictly
//!    positive-gain move out of a community of at most `POLISH_SOURCE_CAP`
//!    members. Such a move can disconnect its source community, so every
//!    productive round is followed by a **re-split** restricted to the
//!    communities the round's moves touched (untouched communities cannot
//!    have changed), with the degree sums and the tracker's `Σ a_C²`
//!    adjusted in place (`e_in` is untouched: components share no edges),
//!    and then by a seeded absorption series for the crumbs the re-split
//!    stranded. Only the first round sweeps the whole graph: later rounds
//!    seed their frontier from the previous round's movers and relabeled
//!    vertices — the same neighborhood-pruning heuristic as the phase's
//!    active sweep. The loop exits on a quiescent round or on the round
//!    cap; every exit lands right after a re-split + absorption or on
//!    quiescence, so the connectivity invariant holds on exit, and since
//!    splitting is itself monotone in `Q` the alternation only climbs.
//!
//! A "constrained move within the parent" step — the literal Leiden
//! recipe — is deliberately absent: two components of the same parent share
//! no edge, so an intra-parent move between them always has
//! `e_{v→target} = 0` and never beats staying. Absorption plus polish
//! against *any* adjacent community are the steps that actually recover the
//! forfeited crumbs (pinned in `tests/properties.rs`).
//!
//! # Determinism contract
//!
//! Every stage is serial with ascending immediate commits, the component
//! labeling is order-independent (labels are set minima), and the
//! accumulated sums are produced by the same deterministic traversal — so
//! the refined assignment is bitwise identical for any thread count, which
//! the property tests pin at 1/2/4/8/16 threads.

use crate::active::ActiveSet;
use crate::modularity::{
    community_sizes, det_sum, modularity_with_resolution, Community, ModularityTracker,
    NeighborScratch, ScratchPool,
};
use crate::phase::SweepState;
use crate::serial::immediate_pass;
use grappolo_graph::{CsrGraph, VertexId};
use serde::Serialize;

/// What one refinement pass did — attached to the phase outcome
/// ([`crate::PhaseOutcome::refinement`]) and to the phase's record in the
/// run trace ([`crate::PhaseRecord::refinement`]).
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct RefineStats {
    /// Parent communities entering refinement.
    pub parents: usize,
    /// Parents that were internally disconnected (split into ≥ 2
    /// components).
    pub split_parents: usize,
    /// Refined communities after the connected-component split (before
    /// absorption).
    pub sub_communities: usize,
    /// Singleton communities merged away by the absorption sweeps.
    pub absorbed: usize,
    /// Positive-gain moves committed by the polish sweeps (the re-admitted
    /// crumbs the within-phase gate forfeited).
    pub polished: usize,
    /// Absorption sweeps run (including the final empty one), summed over
    /// polish rounds.
    pub passes: usize,
    /// Modularity of the parent assignment entering refinement.
    pub pre_modularity: f64,
    /// Modularity of the refined assignment. Non-decreasing relative to
    /// `pre_modularity` for `γ ≥ 0`, up to the floating-point accumulation
    /// of the two sums.
    pub refined_modularity: f64,
}

impl RefineStats {
    /// Stats for a graph refinement never touched (empty or edgeless).
    fn trivial(parents: usize) -> Self {
        Self {
            parents,
            split_parents: 0,
            sub_communities: parents,
            absorbed: 0,
            polished: 0,
            passes: 0,
            pre_modularity: 0.0,
            refined_modularity: 0.0,
        }
    }
}

/// Sentinel for "not yet reached by the component traversal". Community
/// labels are vertex ids, so they are always `< n < u32::MAX`.
const UNSET: Community = Community::MAX;

/// Polish ⇄ re-split rounds: each round is one serial polish sweep (full
/// on the first round, frontier-seeded afterwards) followed by an
/// incremental re-split and a seeded absorption series. Only the first
/// round touches the whole graph — every later round costs work
/// proportional to the previous round's movers, and the mover count
/// shrinks geometrically in practice — so a generous cap is cheap; it is
/// purely a termination backstop.
const MAX_POLISH_ROUNDS: usize = 32;

/// Polish only moves vertices out of communities at most this large. A
/// move's source must be re-verified for connectivity, which costs a
/// traversal of the whole source community — unbounded for the giant
/// communities structure-free inputs produce, for a crumb-sized gain. The
/// gate's stranded crumbs sit in small fragments, so the cap forfeits
/// almost nothing while keeping every re-split traversal small. The test
/// depends only on the deterministic size table, so it is deterministic.
const POLISH_SOURCE_CAP: u32 = 4096;

/// Labels `v`'s component within its `parent`-community: every vertex
/// reachable from `v` along edges whose endpoints share `parent[v]` and
/// whose label in `out` is still [`UNSET`] gets label `v`, in breadth-first
/// order through `queue`. Returns the component's degree sum and size,
/// accumulated in that order.
fn label_component(
    g: &CsrGraph,
    parent: &[Community],
    out: &mut [Community],
    queue: &mut Vec<VertexId>,
    v: VertexId,
) -> (f64, u32) {
    let p = parent[v as usize];
    out[v as usize] = v;
    let mut a_c = 0.0f64;
    let mut size_c = 0u32;
    queue.clear();
    queue.push(v);
    let mut head = 0usize;
    while head < queue.len() {
        let x = queue[head];
        head += 1;
        a_c += g.weighted_degree(x);
        size_c += 1;
        for &u in g.neighbor_ids(x) {
            if u != x && out[u as usize] == UNSET && parent[u as usize] == p {
                out[u as usize] = v;
                queue.push(u);
            }
        }
    }
    (a_c, size_c)
}

/// Partitions every `parent`-community of `g` into its connected
/// components, writing component-minimum labels into `out` (ascending seed
/// order makes every component's label its minimum member without an
/// explicit min-reduction). The traversal touches every vertex and edge
/// exactly once, so it also fills the per-label degree sums `a` and member
/// counts `sizes`, plus the per-parent degree sums `a_parent` the caller
/// needs to reconstruct the parent assignment's null-model term (all three
/// must arrive zeroed). Returns `(parents, split_parents,
/// sub_communities)`.
fn split_components(
    g: &CsrGraph,
    parent: &[Community],
    out: &mut [Community],
    queue: &mut Vec<VertexId>,
    a: &mut [f64],
    sizes: &mut [u32],
    a_parent: &mut [f64],
) -> (usize, usize, usize) {
    let n = g.num_vertices();
    out.fill(UNSET);
    let mut components_of = vec![0u32; n];
    let mut sub_communities = 0usize;
    for v in 0..n as VertexId {
        if out[v as usize] != UNSET {
            continue;
        }
        let p = parent[v as usize];
        components_of[p as usize] += 1;
        sub_communities += 1;
        let (a_c, size_c) = label_component(g, parent, out, queue, v);
        a[v as usize] = a_c;
        sizes[v as usize] = size_c;
        a_parent[p as usize] += a_c;
    }
    let parents = components_of.iter().filter(|&&c| c > 0).count();
    let split_parents = components_of.iter().filter(|&&c| c > 1).count();
    (parents, split_parents, sub_communities)
}

/// Re-splits only the communities whose labels appear in `affected` — the
/// sources of a polish round's moves; a community that only gained
/// members cannot have become disconnected, and untouched communities
/// cannot have changed. Components are relabeled to their minimum member
/// (new labels cannot collide: every live label is a member of its
/// community, and communities are disjoint). The state's `a`, `sizes`, and
/// the tracker's `Σ a_C²` are adjusted in place; `e_in` needs no adjustment
/// because splitting removes no intra-community edge. Every vertex whose
/// label changed is appended to `seed`. `touched` and `prev` are n-sized
/// scratch buffers (`touched` all-false on entry and exit).
#[allow(clippy::too_many_arguments)]
fn resplit_affected(
    g: &CsrGraph,
    state: &mut SweepState,
    affected: &mut Vec<Community>,
    touched: &mut [bool],
    prev: &mut [Community],
    members: &mut Vec<VertexId>,
    queue: &mut Vec<VertexId>,
    seed: &mut Vec<VertexId>,
) {
    let SweepState {
        assignment: refined,
        a,
        sizes,
        tracker,
    } = state;
    // Dedup the affected labels through the scratch bitmap.
    let mut uniq = 0usize;
    for i in 0..affected.len() {
        let l = affected[i];
        if !touched[l as usize] {
            touched[l as usize] = true;
            affected[uniq] = l;
            uniq += 1;
        }
    }
    affected.truncate(uniq);

    // Snapshot the affected members (ascending) and mark them unvisited.
    members.clear();
    for v in 0..refined.len() as VertexId {
        let l = refined[v as usize];
        if touched[l as usize] {
            members.push(v);
            prev[v as usize] = l;
            refined[v as usize] = UNSET;
        }
    }
    for &l in affected.iter() {
        tracker.null_sum -= a[l as usize] * a[l as usize];
        a[l as usize] = 0.0;
        sizes[l as usize] = 0;
        touched[l as usize] = false;
    }

    // BFS each affected old community; ascending seeds make every new
    // label its component's minimum member. `refined[u] == UNSET` holds
    // exactly for the still-unvisited members, so `prev[u]` only decides
    // where it is valid.
    for &v in members.iter() {
        if refined[v as usize] != UNSET {
            continue;
        }
        let (a_c, size_c) = label_component(g, prev, refined, queue, v);
        a[v as usize] = a_c;
        sizes[v as usize] = size_c;
        tracker.null_sum += a_c * a_c;
    }
    for &v in members.iter() {
        if refined[v as usize] != prev[v as usize] {
            seed.push(v);
        }
    }
}

/// Refines `assignment` in place: splits every community into its connected
/// components, then absorbs profitable singleton crumbs. See the module
/// docs for the algorithm and its guarantees (connectivity of every output
/// community, `Q` non-decreasing, bitwise thread-count independence).
///
/// Labels in the refined assignment are component-minimum vertex ids; the
/// caller renumbers as usual.
pub fn refine_phase(g: &CsrGraph, assignment: &mut [Community], gamma: f64) -> RefineStats {
    let pre_modularity = modularity_with_resolution(g, assignment, gamma);
    refine_phase_from(g, assignment, gamma, pre_modularity)
}

/// [`refine_phase`] with the entering assignment's modularity supplied by
/// the caller (the phase driver already tracks it incrementally).
pub(crate) fn refine_phase_from(
    g: &CsrGraph,
    assignment: &mut [Community],
    gamma: f64,
    pre_modularity: f64,
) -> RefineStats {
    let n = g.num_vertices();
    let m = g.total_weight();
    debug_assert_eq!(assignment.len(), n);
    if n == 0 || m <= 0.0 {
        let parents = community_sizes(assignment)
            .iter()
            .filter(|&&s| s > 0)
            .count();
        return RefineStats::trivial(parents);
    }
    // ── 1. Connected-component split (accumulates degree sums) ──────────
    let mut refined: Vec<Community> = vec![UNSET; n];
    let mut queue: Vec<VertexId> = Vec::new();
    let mut a = vec![0.0f64; n];
    let mut sizes = vec![0u32; n];
    let mut a_parent = vec![0.0f64; n];
    let (parents, split_parents, sub_communities) = split_components(
        g,
        assignment,
        &mut refined,
        &mut queue,
        &mut a,
        &mut sizes,
        &mut a_parent,
    );
    let null_sum = det_sum(n, |c| a[c] * a[c]);
    let two_m = 2.0 * m;
    // Splitting changes no intra-community edge, so the parent
    // assignment's `e_in` carries over exactly: invert the Q formula on the
    // parent modularity instead of paying an O(m) edge rescan.
    let null_parent = det_sum(n, |c| a_parent[c] * a_parent[c]);
    let e_in = (pre_modularity + gamma * null_parent / (two_m * two_m)) * two_m;
    let mut state = SweepState {
        assignment: refined,
        a,
        sizes,
        tracker: ModularityTracker::from_parts(g, e_in, null_sum, gamma),
    };

    let mut movers: Vec<VertexId> = Vec::new();
    let mut scratch = ScratchPool::global().take();
    let mut polished = 0usize;

    // ── 2a. Absorption sweeps over the full frontier ────────────────────
    // Singleton communities only: moving a singleton cannot disconnect
    // anything (the source vanishes, the target gains an adjacent member).
    let (mut absorbed, mut passes) =
        absorb_singletons(g, &mut state, &mut scratch, ActiveSet::full(n), None);

    // ── 2b. Polish ⇄ re-split ⇄ absorb rounds ───────────────────────────
    let mut seed: Vec<VertexId> = Vec::new();
    let mut affected: Vec<Community> = Vec::new();
    let mut touched = vec![false; n];
    let mut prev: Vec<Community> = vec![UNSET; n];
    let mut members: Vec<VertexId> = Vec::new();
    let mut rounds = 0usize;
    loop {
        // One polish sweep: every frontier vertex, any strictly
        // positive-gain move — the forfeited crumbs that are not
        // singletons. May disconnect a source community, hence the
        // re-split below before any exit from a productive round.
        let active = if rounds == 0 {
            ActiveSet::full(n)
        } else {
            let mut s = ActiveSet::empty(n);
            s.rebuild_from_moves(g, &seed);
            s
        };
        movers.clear();
        affected.clear();
        immediate_pass(
            g,
            &mut state,
            &mut scratch,
            active.frontier().iter().copied(),
            0.0,
            |cur, sizes| sizes[cur as usize] <= POLISH_SOURCE_CAP,
            |v, from| {
                movers.push(v);
                // Only the source can end up disconnected — the target
                // gains an adjacent vertex — so only sources need the
                // re-split below.
                affected.push(from);
            },
        );
        if movers.is_empty() {
            // Quiescent round: nothing moved since the last re-split +
            // absorption, so the connectivity invariant is intact.
            break;
        }
        polished += movers.len();

        // Re-split the touched communities and re-absorb the crumbs the
        // split stranded; both feed the next round's seed frontier.
        seed.clear();
        seed.append(&mut movers);
        resplit_affected(
            g,
            &mut state,
            &mut affected,
            &mut touched,
            &mut prev,
            &mut members,
            &mut queue,
            &mut seed,
        );
        let mut active = ActiveSet::empty(n);
        active.rebuild_from_moves(g, &seed);
        let (round_absorbed, round_passes) =
            absorb_singletons(g, &mut state, &mut scratch, active, Some(&mut seed));
        absorbed += round_absorbed;
        passes += round_passes;

        rounds += 1;
        if rounds >= MAX_POLISH_ROUNDS {
            // Exiting right after a re-split + absorption: connectivity
            // intact.
            break;
        }
    }
    debug_assert!(
        state.tracker.drift_from_full(g, &state.assignment)
            < crate::modularity::TRACKER_DRIFT_TOLERANCE
    );

    assignment.copy_from_slice(&state.assignment);
    RefineStats {
        parents,
        split_parents,
        sub_communities,
        absorbed,
        polished,
        passes,
        pre_modularity,
        refined_modularity: state.tracker.modularity(),
    }
}

/// Absorption sweeps over `active` until one commits nothing: every
/// singleton community on the frontier merges into its best adjacent
/// community when that strictly gains, committed immediately through the
/// serial sweep's pass. Each productive pass re-arms the frontier from its
/// movers, which are also appended to `carry`. Returns `(absorbed moves,
/// passes run)`, the final empty pass included.
fn absorb_singletons(
    g: &CsrGraph,
    state: &mut SweepState,
    scratch: &mut NeighborScratch,
    mut active: ActiveSet,
    mut carry: Option<&mut Vec<VertexId>>,
) -> (usize, usize) {
    let (mut absorbed, mut passes) = (0usize, 0usize);
    let mut movers: Vec<VertexId> = Vec::new();
    loop {
        passes += 1;
        movers.clear();
        immediate_pass(
            g,
            state,
            scratch,
            active.frontier().iter().copied(),
            0.0,
            |cur, sizes| sizes[cur as usize] == 1,
            |v, _| movers.push(v),
        );
        if movers.is_empty() {
            return (absorbed, passes);
        }
        absorbed += movers.len();
        if let Some(carry) = carry.as_deref_mut() {
            carry.extend_from_slice(&movers);
        }
        // Each pass with moves deletes ≥ 1 community, so this terminates
        // in ≤ n passes.
        active.rebuild_from_moves(g, &movers);
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::modularity::{best_move_with_src, community_degrees, MoveContext};
    use grappolo_graph::from_unweighted_edges;
    use grappolo_graph::gen::{ring_of_cliques, CliqueRingConfig};

    /// Counts connected components inside each community; returns the number
    /// of communities with ≥ 2 (the invariant refinement must zero).
    fn disconnected_communities(g: &CsrGraph, assignment: &[Community]) -> usize {
        let n = g.num_vertices();
        let mut seen = vec![false; n];
        let mut comps = vec![0u32; n];
        let mut queue = Vec::new();
        for v in 0..n as VertexId {
            if seen[v as usize] {
                continue;
            }
            comps[assignment[v as usize] as usize] += 1;
            seen[v as usize] = true;
            queue.clear();
            queue.push(v);
            while let Some(x) = queue.pop() {
                for &u in g.neighbor_ids(x) {
                    if u != x
                        && assignment[u as usize] == assignment[v as usize]
                        && !seen[u as usize]
                    {
                        seen[u as usize] = true;
                        queue.push(u);
                    }
                }
            }
        }
        comps.iter().filter(|&&c| c > 1).count()
    }

    #[test]
    fn splits_a_disconnected_community() {
        // Two triangles with NO edge between them, forced into one parent
        // community: refinement must split them (and Q must not drop).
        let g = from_unweighted_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let mut assignment: Vec<Community> = vec![0, 0, 0, 0, 0, 0];
        let pre = modularity_with_resolution(&g, &assignment, 1.0);
        let stats = refine_phase(&g, &mut assignment, 1.0);
        assert_eq!(stats.parents, 1);
        assert_eq!(stats.split_parents, 1);
        assert_eq!(stats.sub_communities, 2);
        assert_eq!(assignment, vec![0, 0, 0, 3, 3, 3]);
        assert_eq!(disconnected_communities(&g, &assignment), 0);
        assert_eq!(stats.pre_modularity, pre);
        assert!(stats.refined_modularity >= pre);
        assert_eq!(
            stats.refined_modularity,
            modularity_with_resolution(&g, &assignment, 1.0)
        );
    }

    #[test]
    fn absorbs_profitable_singletons() {
        // A 4-clique with a pendant vertex stranded as its own community:
        // absorption must pull it into the clique (gain = 1/m − 2k·a/(2m)²
        // > 0 here).
        let g = from_unweighted_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
            .unwrap();
        let mut assignment: Vec<Community> = vec![0, 0, 0, 0, 4];
        let stats = refine_phase(&g, &mut assignment, 1.0);
        assert_eq!(stats.absorbed, 1);
        assert_eq!(assignment, vec![0, 0, 0, 0, 0]);
        assert!(stats.refined_modularity > stats.pre_modularity);
    }

    #[test]
    fn connected_optimum_is_a_fixed_point() {
        let (g, truth) = ring_of_cliques(&CliqueRingConfig {
            num_cliques: 6,
            clique_size: 5,
            ..Default::default()
        });
        let mut assignment = truth.clone();
        let stats = refine_phase(&g, &mut assignment, 1.0);
        assert_eq!(stats.split_parents, 0);
        assert_eq!(stats.absorbed, 0);
        assert_eq!(stats.sub_communities, stats.parents);
        // Labels become component minima, but the partition is unchanged.
        for (i, &ci) in truth.iter().enumerate() {
            for (j, &cj) in truth.iter().enumerate() {
                assert_eq!(ci == cj, assignment[i] == assignment[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn empty_and_edgeless_graphs_are_trivial() {
        let g = from_unweighted_edges(0, std::iter::empty::<(u32, u32)>()).unwrap();
        let mut empty: Vec<Community> = Vec::new();
        let stats = refine_phase(&g, &mut empty, 1.0);
        assert_eq!(stats.passes, 0);
        let g3 = from_unweighted_edges(3, std::iter::empty::<(u32, u32)>()).unwrap();
        let mut assignment = vec![0, 1, 2];
        let stats = refine_phase(&g3, &mut assignment, 1.0);
        assert_eq!(stats.passes, 0);
        assert_eq!(assignment, vec![0, 1, 2]);
    }

    #[test]
    fn chained_absorption_converges_across_passes() {
        // A path 0–1–2 where 0,1,2 start as singletons attached to a far
        // heavier clique: pass 1 may only absorb the closest crumb, later
        // passes pick up vertices re-armed by the frontier rebuild.
        let g = from_unweighted_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let mut assignment: Vec<Community> = vec![0, 0, 0, 3, 4, 5];
        let stats = refine_phase(&g, &mut assignment, 1.0);
        assert_eq!(disconnected_communities(&g, &assignment), 0);
        assert!(stats.refined_modularity >= stats.pre_modularity);
        assert!(stats.passes >= 1);
        // Whatever the final partition, no singleton with a strictly
        // profitable merge remains.
        let sizes = community_sizes(&assignment);
        let a = community_degrees(&g, &assignment);
        let m = g.total_weight();
        let mut scratch = crate::modularity::NeighborScratch::with_capacity(6);
        for v in 0..6u32 {
            let cur = assignment[v as usize];
            if sizes[cur as usize] != 1 {
                continue;
            }
            scratch.gather(&g, &assignment, v);
            let ctx = MoveContext {
                current: cur,
                k: g.weighted_degree(v),
                m,
                gamma: 1.0,
            };
            let d = best_move_with_src(&ctx, &scratch.entries, 0.0, |c| a[c as usize]);
            assert!(
                d.gain <= 0.0 || d.target == cur,
                "vertex {v} still wants to move"
            );
        }
    }
}
