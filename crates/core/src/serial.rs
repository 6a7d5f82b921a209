//! The serial Louvain method (§3) — a faithful reimplementation of the
//! Blondel et al. template used as the paper's comparison baseline \[10\] —
//! as the local-moving engine's **immediate-commit** strategy
//! ([`crate::phase`] runs the iterations around it).
//!
//! Within an iteration the vertices are scanned **sequentially in a
//! predefined order** (vertex id, or the ascending active frontier), each
//! decision seeing "the latest information available from all the preceding
//! vertices" — the property §4 identifies as the obstacle to
//! parallelization. Every move is committed the moment it is decided
//! (community degrees, sizes, and the tracker's `Σ e_in` / `Σ a_C²` via
//! [`ModularityTracker::apply_move`]), so modularity is monotonically
//! non-decreasing across iterations of a phase (tested). The same pass runs
//! the Leiden-style refinement's absorption and polish sweeps
//! ([`crate::refine`]).
//!
//! This module intentionally contains no rayon, and neither does the
//! driver's serial path: the serial baseline must not silently parallelize,
//! or Table 2 / Fig. 7's absolute speedups would be meaningless.
//!
//! [`ModularityTracker::apply_move`]: crate::modularity::ModularityTracker::apply_move

use crate::active::ActiveSet;
use crate::modularity::{Community, NeighborScratch};
use crate::phase::{evaluate, SweepState};
use grappolo_graph::{CsrGraph, VertexId};

/// One immediate-commit pass over `vertices`, in order. A vertex is examined
/// only when `admit(its community, sizes)` holds; it decides through the
/// shared kernel against the live state, so it sees every earlier commit of
/// the pass. A move gaining less than `gate` is suppressed — the vertex is
/// locally converged at this gate level; any other move commits at once
/// and is reported to `on_move(vertex, source community)`. Returns the
/// number of suppressed moves (always 0 for `gate = 0.0`: a chosen move
/// gains > 0).
pub(crate) fn immediate_pass(
    g: &CsrGraph,
    state: &mut SweepState,
    scratch: &mut NeighborScratch,
    vertices: impl IntoIterator<Item = VertexId>,
    gate: f64,
    admit: impl Fn(Community, &[u32]) -> bool,
    mut on_move: impl FnMut(VertexId, Community),
) -> usize {
    let gamma = state.tracker.gamma();
    let mut converged = 0usize;
    for v in vertices {
        let cur = state.assignment[v as usize];
        if !admit(cur, &state.sizes) {
            continue;
        }
        let d = evaluate(g, &state.assignment, &state.a, gamma, scratch, v);
        if d.target == cur {
            continue;
        }
        if d.gain < gate {
            converged += 1;
            continue;
        }
        let k = g.weighted_degree(v);
        state
            .tracker
            .apply_move(k, d.e_src, d.e_tgt, cur, d.target, &mut state.a);
        state.sizes[cur as usize] -= 1;
        state.sizes[d.target as usize] += 1;
        state.assignment[v as usize] = d.target;
        on_move(v, cur);
    }
    converged
}

/// The serial sweep's per-iteration step for the phase driver: one
/// immediate pass over every vertex in id order (Blondel et al.'s scheme)
/// or, once pruning has engaged, over the ascending frontier — the same
/// vertices a full scan would visit, minus the provably unchanged ones, in
/// the same order.
pub(crate) fn immediate_step(
    g: &CsrGraph,
) -> impl FnMut(&mut SweepState, Option<&ActiveSet>, f64, &mut Vec<VertexId>) -> (usize, usize) + '_
{
    let n = g.num_vertices();
    let mut scratch = NeighborScratch::with_capacity(n);
    move |state, active, gate, movers| {
        let push = |v: VertexId, _: Community| movers.push(v);
        match active {
            Some(set) => {
                let frontier = set.frontier().iter().copied();
                let converged =
                    immediate_pass(g, state, &mut scratch, frontier, gate, |_, _| true, push);
                (set.len(), converged)
            }
            None => {
                let all = 0..n as VertexId;
                let converged =
                    immediate_pass(g, state, &mut scratch, all, gate, |_, _| true, push);
                (n, converged)
            }
        }
    }
}

/// Single-threaded modularity (Eq. 3) — same math as
/// [`crate::modularity::modularity`] but with plain loops so the serial
/// scheme never touches the rayon pool.
pub fn serial_modularity(g: &CsrGraph, assignment: &[Community], gamma: f64) -> f64 {
    let m = g.total_weight();
    if m <= 0.0 {
        return 0.0;
    }
    let n = g.num_vertices();
    let two_m = 2.0 * m;
    let mut e_in = 0.0f64;
    let mut a = vec![0.0f64; n];
    for v in 0..n as VertexId {
        let cv = assignment[v as usize];
        a[cv as usize] += g.weighted_degree(v);
        for (u, w) in g.neighbors(v) {
            if assignment[u as usize] == cv {
                e_in += w;
            }
        }
    }
    let mut null = 0.0f64;
    for &ac in &a {
        let x = ac / two_m;
        null += x * x;
    }
    e_in / two_m - gamma * null
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LouvainConfig, SweepMode};
    use crate::modularity::modularity;
    use crate::phase::{PhaseDriver, PhaseOutcome};
    use grappolo_graph::from_unweighted_edges;
    use grappolo_graph::gen::{ring_of_cliques, CliqueRingConfig};

    // The historical fixed-threshold serial entry signatures, kept local for
    // the tests; they resolve through the production `PhaseDriver`.
    fn serial_phase(
        g: &CsrGraph,
        threshold: f64,
        max_iterations: usize,
        resolution: f64,
    ) -> PhaseOutcome {
        serial_phase_sweep(g, SweepMode::Full, threshold, max_iterations, resolution)
    }

    fn serial_phase_sweep(
        g: &CsrGraph,
        sweep: SweepMode,
        threshold: f64,
        max_iterations: usize,
        resolution: f64,
    ) -> PhaseOutcome {
        let config = LouvainConfig {
            parallel: false,
            sweep_mode: sweep,
            max_iterations_per_phase: max_iterations,
            resolution,
            ..LouvainConfig::default()
        };
        PhaseDriver::from_config(&config, threshold).run(g)
    }

    #[test]
    fn serial_modularity_matches_parallel_kernel() {
        let (g, truth) = ring_of_cliques(&CliqueRingConfig::default());
        let qs = serial_modularity(&g, &truth, 1.0);
        let qp = modularity(&g, &truth);
        assert!((qs - qp).abs() < 1e-12);
    }

    #[test]
    fn recovers_ring_of_cliques() {
        let (g, truth) = ring_of_cliques(&CliqueRingConfig {
            num_cliques: 8,
            clique_size: 6,
            ..Default::default()
        });
        let out = serial_phase(&g, 1e-6, 1000, 1.0);
        // Every clique must be one community (optimum for this size ratio).
        for c in 0..8 {
            let members: Vec<_> = (0..48)
                .filter(|&v| truth[v] == c)
                .map(|v| out.assignment[v])
                .collect();
            assert!(
                members.windows(2).all(|w| w[0] == w[1]),
                "clique {c} split: {members:?}"
            );
        }
        assert!(out.final_modularity > 0.7);
    }

    #[test]
    fn modularity_monotone_within_phase() {
        let (g, _) = ring_of_cliques(&CliqueRingConfig {
            num_cliques: 12,
            clique_size: 5,
            ..Default::default()
        });
        let out = serial_phase(&g, 1e-9, 1000, 1.0);
        for w in out.iterations.windows(2) {
            assert!(
                w[1].0 >= w[0].0 - 1e-12,
                "serial modularity decreased: {} → {}",
                w[0].0,
                w[1].0
            );
        }
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let g = CsrGraph::empty(0);
        let out = serial_phase(&g, 1e-6, 100, 1.0);
        assert!(out.assignment.is_empty());

        let g1 = CsrGraph::empty(5); // no edges: everyone stays singleton
        let out1 = serial_phase(&g1, 1e-6, 100, 1.0);
        assert_eq!(out1.assignment, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn two_vertices_merge() {
        let g = from_unweighted_edges(2, [(0, 1)]).unwrap();
        let out = serial_phase(&g, 1e-6, 100, 1.0);
        assert_eq!(out.assignment[0], out.assignment[1]);
        assert!((out.final_modularity - 0.0).abs() < 1e-12); // single community Q=0
    }

    #[test]
    fn final_modularity_matches_recomputation() {
        let (g, _) = ring_of_cliques(&CliqueRingConfig::default());
        let out = serial_phase(&g, 1e-6, 1000, 1.0);
        let q = serial_modularity(&g, &out.assignment, 1.0);
        assert!((q - out.final_modularity).abs() < 1e-12);
    }

    #[test]
    fn threshold_limits_iterations() {
        let (g, _) = ring_of_cliques(&CliqueRingConfig {
            num_cliques: 20,
            clique_size: 4,
            ..Default::default()
        });
        let loose = serial_phase(&g, 0.5, 1000, 1.0);
        let tight = serial_phase(&g, 1e-9, 1000, 1.0);
        assert!(loose.num_iterations() <= tight.num_iterations());
    }

    #[test]
    fn active_serial_matches_full_quality_and_stays_monotone() {
        let (g, truth) = ring_of_cliques(&CliqueRingConfig {
            num_cliques: 8,
            clique_size: 6,
            ..Default::default()
        });
        let full = serial_phase_sweep(&g, SweepMode::Full, 1e-6, 1000, 1.0);
        let active = serial_phase_sweep(&g, SweepMode::Active, 1e-6, 1000, 1.0);
        assert!(
            active.final_modularity >= 0.95 * full.final_modularity,
            "active Q {} vs full Q {}",
            active.final_modularity,
            full.final_modularity
        );
        // Immediate commits keep the monotonicity property under pruning.
        for w in active.iterations.windows(2) {
            assert!(w[1].0 >= w[0].0 - 1e-12);
        }
        // Structure recovered: every clique still lands in one community.
        for c in 0..8 {
            let members: Vec<_> = (0..48)
                .filter(|&v| truth[v] == c)
                .map(|v| active.assignment[v])
                .collect();
            assert!(members.windows(2).all(|w| w[0] == w[1]), "clique {c} split");
        }
    }

    #[test]
    fn active_serial_first_iteration_bitwise_matches_full() {
        // A saturated frontier in ascending order is exactly the full
        // serial scan, so iteration 0 is bitwise identical.
        let (g, _) = ring_of_cliques(&CliqueRingConfig::default());
        let full = serial_phase_sweep(&g, SweepMode::Full, 1e-9, 1, 1.0);
        let active = serial_phase_sweep(&g, SweepMode::Active, 1e-9, 1, 1.0);
        assert_eq!(full.assignment, active.assignment);
        assert_eq!(full.iterations, active.iterations);
    }

    #[test]
    fn respects_iteration_cap() {
        let (g, _) = ring_of_cliques(&CliqueRingConfig::default());
        let out = serial_phase(&g, 1e-12, 1, 1.0);
        assert_eq!(out.num_iterations(), 1);
    }

    #[test]
    fn gamma_zero_merges_everything_connected() {
        // With γ=0 there is no null-model penalty: any positive-weight edge
        // makes merging attractive, so a connected graph collapses fast.
        let g = from_unweighted_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let out = serial_phase(&g, 1e-9, 100, 0.0);
        let c = out.assignment[0];
        assert!(out.assignment.iter().all(|&x| x == c));
    }
}
