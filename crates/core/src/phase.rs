//! One Louvain phase — the iteration loop of Algorithm 1 on a fixed graph —
//! and the [`PhaseDriver`], the single public entry point that resolves
//! sweep mode × schedule × refinement from a [`LouvainConfig`] and runs it.
//!
//! Every local-moving sweep in the crate is one engine with three parts:
//!
//! * the **sweep state**: the assignment, the community degrees `a`, the
//!   community sizes and the incremental [`ModularityTracker`], carried
//!   across iterations;
//! * the **move kernel**: gather the vertex's neighbor communities, build
//!   its [`MoveContext`], and pick the best move with
//!   [`best_move_with_src`]. The kernel applies no policy; each caller gates
//!   the decision on the iteration's per-vertex gain threshold and, in the
//!   parallel sweeps, applies the §5.1 singlet veto;
//! * the **iteration driver**: it owns the per-iteration gate, the deferred
//!   [`ActiveSet`] engagement and the frontier rebuild from committed
//!   movers, the [`IterationStats`], the incremental-vs-full drift
//!   cross-check, the [`Convergence::should_stop`] test and the
//!   [`PhaseOutcome`].
//!
//! The sweeps differ only in how one iteration commits its moves, which is
//! the step the driver runs each iteration:
//!
//! * **immediate** commits in vertex order — the serial Louvain scan
//!   ([`crate::serial`]), which is also the pass refinement's absorption
//!   and polish sweeps run;
//! * the **unordered snapshot batch** — every decision reads the previous
//!   iteration's state and all moves commit together ([`crate::parallel`]);
//! * the **color-batch barrier** — one snapshot batch per color class, each
//!   class seeing the commits of the classes before it
//!   ([`crate::parallel`]).
//!
//! [`PhaseDriver::run`] and [`PhaseDriver::run_colored`] start the driver
//! from the singleton partition. The dynamic-update path
//! ([`crate::dynamic`]) starts it from the carried state, with the frontier
//! already engaged from the endpoints of the changed edges.

use crate::active::ActiveSet;
use crate::config::{LouvainConfig, RefineMode, SweepMode};
use crate::modularity::{
    best_move_with_src, Community, ModularityTracker, MoveContext, MoveDecision, NeighborScratch,
    TRACKER_DRIFT_TOLERANCE,
};
use crate::refine::RefineStats;
use crate::schedule::Convergence;
use crate::serial::serial_modularity;
use grappolo_coloring::ColorBatches;
use grappolo_graph::{CsrGraph, VertexId};

/// Per-iteration convergence-engine telemetry: what the schedule gated and
/// what the sweep actually examined. Parallel to
/// [`PhaseOutcome::iterations`]; the `active_trace` bin renders these as the
/// schedule-trajectory columns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationStats {
    /// Effective per-vertex gain gate this iteration decided under
    /// ([`crate::schedule::Convergence::gate`]; 0 when ungated).
    pub gate: f64,
    /// Vertices the iteration examined (`n` on the full path, the frontier
    /// length once the active set engages, the filtered batch total for
    /// colored sweeps).
    pub frontier: usize,
    /// Vertices whose best positive-gain move the gate suppressed — locally
    /// converged at this gate level.
    pub converged: usize,
}

/// Result of running one phase to convergence.
#[derive(Clone, Debug)]
pub struct PhaseOutcome {
    /// Final community label per phase-graph vertex (labels ⊆ `0..n`, not
    /// necessarily dense).
    pub assignment: Vec<Community>,
    /// Per-iteration `(modularity, moves)` records, in order.
    pub iterations: Vec<(f64, usize)>,
    /// Per-iteration schedule telemetry, parallel to `iterations`.
    pub stats: Vec<IterationStats>,
    /// Modularity after the last iteration — and after refinement, when the
    /// driver ran one (refinement never lowers it).
    pub final_modularity: f64,
    /// What the Leiden-style refinement pass did, when the driver ran one
    /// ([`RefineMode::Leiden`]); `None` under [`RefineMode::None`] and for
    /// outcomes of the [`crate::reference`] oracles.
    pub refinement: Option<RefineStats>,
}

impl PhaseOutcome {
    /// Number of iterations executed.
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// The degenerate outcome every sweep returns for an empty or
    /// zero-weight graph: the identity partition, no iterations, Q = 0.
    pub fn trivial(n: usize) -> Self {
        Self {
            assignment: (0..n as Community).collect(),
            iterations: Vec::new(),
            stats: Vec::new(),
            final_modularity: 0.0,
            refinement: None,
        }
    }
}

/// The state a local-moving sweep carries across iterations (and
/// refinement across its passes).
#[derive(Debug)]
pub(crate) struct SweepState {
    /// Community label per vertex (labels `< n`, not necessarily dense).
    pub assignment: Vec<Community>,
    /// Community weighted degrees `a_C`, indexed by label.
    pub a: Vec<f64>,
    /// Community member counts, indexed by label.
    pub sizes: Vec<u32>,
    /// `Σ e_in` and `Σ a_C²` of `assignment`.
    pub tracker: ModularityTracker,
}

impl SweepState {
    /// The singleton partition a phase starts from. `serial` selects the
    /// tracker's rayon-free constructor.
    fn singletons(g: &CsrGraph, gamma: f64, serial: bool) -> Self {
        let assignment: Vec<Community> = (0..g.num_vertices() as Community).collect();
        let a = g.weighted_degrees().to_vec();
        let tracker = if serial {
            ModularityTracker::new_serial(g, &assignment, &a, gamma)
        } else {
            ModularityTracker::new(g, &assignment, &a, gamma)
        };
        Self {
            sizes: vec![1; assignment.len()],
            assignment,
            a,
            tracker,
        }
    }
}

/// The move kernel every sweep decides through: gathers `v`'s neighbor
/// communities under `assignment`, builds its [`MoveContext`] and returns
/// the Eq. 4 best move with the minimum-label tie-break
/// ([`best_move_with_src`]). A vertex with no neighbor besides itself gets
/// the zero-gain stay. No policy is applied: callers gate, veto and commit.
#[inline]
pub(crate) fn evaluate(
    g: &CsrGraph,
    assignment: &[Community],
    a: &[f64],
    gamma: f64,
    scratch: &mut NeighborScratch,
    v: VertexId,
) -> MoveDecision {
    let current = assignment[v as usize];
    scratch.gather(g, assignment, v);
    let ctx = MoveContext {
        current,
        k: g.weighted_degree(v),
        m: g.total_weight(),
        a_current: a[current as usize],
        gamma,
    };
    best_move_with_src(&ctx, &scratch.entries, scratch.weight_to(current), |c| {
        a[c as usize]
    })
}

/// The unified phase entry point: one configured runner for every sweep
/// variant the crate ships.
///
/// A driver is resolved once per phase from the [`LouvainConfig`] — sweep
/// mode, threshold schedule, and refinement — via
/// [`PhaseDriver::from_config`], then run with [`PhaseDriver::run`]
/// (serial or unordered, per the config) or [`PhaseDriver::run_colored`]
/// (colored batches). When the config selects [`RefineMode::Leiden`], the
/// runner applies [`crate::refine::refine_phase`] to the converged assignment before
/// returning, records the [`RefineStats`] in
/// [`PhaseOutcome::refinement`], and reports the refined modularity as
/// [`PhaseOutcome::final_modularity`].
///
/// Every path preserves the repo's determinism contract: outcomes are
/// bitwise identical across thread counts. Note the serial path is
/// rayon-free only in its sweep; refinement and the colored/unordered paths
/// use the ambient pool (the multi-phase driver pins serial runs to a
/// 1-thread pool).
#[derive(Clone, Debug)]
pub struct PhaseDriver {
    serial: bool,
    sweep: SweepMode,
    refine: RefineMode,
    conv: Convergence,
    max_iterations: usize,
    resolution: f64,
}

impl PhaseDriver {
    /// Resolves a driver from `config` and the phase's aggregate threshold
    /// θ (`colored_threshold` for colored phases, `final_threshold`
    /// otherwise — the multi-phase driver picks; standalone callers usually
    /// pass `config.final_threshold`). The caller is expected to have run
    /// [`LouvainConfig::validate`] (the builder does).
    pub fn from_config(config: &LouvainConfig, phase_threshold: f64) -> Self {
        Self {
            serial: !config.parallel,
            sweep: config.sweep_mode,
            refine: config.refine,
            conv: config.convergence(phase_threshold),
            max_iterations: config.max_iterations_per_phase,
            resolution: config.resolution,
        }
    }

    /// Runs one uncolored phase to convergence: the faithful serial sweep
    /// when the config selected `parallel = false`, the unordered parallel
    /// sweep otherwise. Applies refinement per the config.
    pub fn run(&self, g: &CsrGraph) -> PhaseOutcome {
        let state = SweepState::singletons(g, self.resolution, self.serial);
        let mut outcome = if self.serial {
            self.sweep(g, state, None, crate::serial::immediate_step(g))
        } else {
            self.sweep(g, state, None, crate::parallel::unordered_step(g))
        };
        self.finish(g, &mut outcome);
        outcome
    }

    /// Runs one colored phase to convergence over `batches` (distance-1
    /// color classes) with the incremental barrier-batch sweep. Applies
    /// refinement per the config.
    pub fn run_colored(&self, g: &CsrGraph, batches: &ColorBatches) -> PhaseOutcome {
        debug_assert!(batches.is_stably_ordered(), "unstable color batches");
        let state = SweepState::singletons(g, self.resolution, false);
        let step = crate::parallel::colored_step(g, batches);
        let mut outcome = self.sweep(g, state, None, step);
        self.finish(g, &mut outcome);
        outcome
    }

    /// Resumes the unordered sweep from carried `state` instead of the
    /// singleton partition — the dynamic-update path. Pruning is engaged
    /// from iteration 0 with the frontier seeded from `seeds` (the
    /// endpoints of changed edges), so vertices outside the dirty closure
    /// are never examined and keep their labels bitwise. Refinement is not
    /// applied: it relabels every community, which would break that
    /// guarantee.
    pub(crate) fn resume(
        &self,
        g: &CsrGraph,
        state: SweepState,
        seeds: &[VertexId],
    ) -> PhaseOutcome {
        let mut frontier = ActiveSet::empty(g.num_vertices());
        frontier.rebuild_from_moves(g, seeds);
        self.sweep(g, state, Some(frontier), crate::parallel::unordered_step(g))
    }

    /// The iteration driver every sweep runs through, from `state` with
    /// pruning pre-engaged on `active` (or deferred, when `None`).
    ///
    /// `step` is the commit strategy: called once per iteration with the
    /// state, the engaged frontier (`None` while every vertex is examined),
    /// the iteration's gate and an empty mover list, it decides, commits
    /// the moves into the state, pushes each mover onto the list, and
    /// returns `(examined, converged)` — the vertices it examined and those
    /// whose move the gate suppressed.
    ///
    /// The driver owns everything around the step:
    /// * the gate sequence ([`Convergence::gate`]), a pure function of the
    ///   iteration index;
    /// * deferred pruning under [`SweepMode::Active`]: the full path runs
    ///   (bitwise identical to [`SweepMode::Full`]) until an iteration's
    ///   move count first drops to the [`ActiveSet::engages`] bound with the
    ///   gate at its floor — a frontier built from a dense move set would
    ///   be near-saturated, and a pre-floor one would park vertices the
    ///   tightening gate is about to admit; from then on the frontier is
    ///   rebuilt from each iteration's movers;
    /// * the per-iteration records, the drift cross-check against a full
    ///   recompute (debug builds), the stop test
    ///   ([`Convergence::should_stop`]) and the outcome.
    ///
    /// Everything it reads is a function of the committed moves, so the
    /// phase is bitwise deterministic across thread counts whenever the
    /// step is; it uses no rayon itself.
    fn sweep(
        &self,
        g: &CsrGraph,
        mut state: SweepState,
        mut active: Option<ActiveSet>,
        mut step: impl FnMut(
            &mut SweepState,
            Option<&ActiveSet>,
            f64,
            &mut Vec<VertexId>,
        ) -> (usize, usize),
    ) -> PhaseOutcome {
        let n = g.num_vertices();
        let mut iterations: Vec<(f64, usize)> = Vec::new();
        let mut stats: Vec<IterationStats> = Vec::new();
        if n == 0 || g.total_weight() <= 0.0 {
            return PhaseOutcome {
                assignment: state.assignment,
                iterations,
                stats,
                final_modularity: 0.0,
                refinement: None,
            };
        }
        let prune = self.sweep == SweepMode::Active;
        let mut q_prev = state.tracker.modularity();
        let mut movers: Vec<VertexId> = Vec::new();

        for iter in 0..self.max_iterations {
            if active.as_ref().is_some_and(ActiveSet::is_empty) {
                // Converged: nothing moved last iteration, so no vertex has
                // a changed neighborhood.
                break;
            }
            let gate = self.conv.gate(iter);
            movers.clear();
            let (examined, converged) = step(&mut state, active.as_ref(), gate, &mut movers);
            let moves = movers.len();
            match &mut active {
                Some(set) => set.rebuild_from_moves(g, &movers),
                None if prune && self.conv.gate_at_floor(iter) && ActiveSet::engages(n, moves) => {
                    let mut set = ActiveSet::empty(n);
                    set.rebuild_from_moves(g, &movers);
                    active = Some(set);
                }
                None => {}
            }
            let q_curr = state.tracker.modularity();
            debug_assert!(
                (q_curr - serial_modularity(g, &state.assignment, self.resolution)).abs()
                    < TRACKER_DRIFT_TOLERANCE,
                "incremental modularity drifted from the full recompute",
            );
            iterations.push((q_curr, moves));
            stats.push(IterationStats {
                gate,
                frontier: examined,
                converged,
            });
            if self
                .conv
                .should_stop(iter, q_prev, q_curr, moves, converged)
            {
                break;
            }
            q_prev = q_curr;
        }

        let final_modularity = iterations.last().map(|&(q, _)| q).unwrap_or(q_prev);
        PhaseOutcome {
            assignment: state.assignment,
            iterations,
            stats,
            final_modularity,
            refinement: None,
        }
    }

    /// The post-sweep refinement hook — the one place refinement slots into
    /// every phase variant.
    fn finish(&self, g: &CsrGraph, outcome: &mut PhaseOutcome) {
        if self.refine == RefineMode::Leiden {
            // The phase already tracked the converged assignment's
            // modularity — hand it over so refinement skips its standalone
            // entry point's full rescan.
            let stats = crate::refine::refine_phase_from(
                g,
                &mut outcome.assignment,
                self.resolution,
                outcome.final_modularity,
            );
            outcome.final_modularity = stats.refined_modularity;
            outcome.refinement = Some(stats);
        }
    }
}

/// The **singlet minimum-label heuristic** (§5.1): a vertex alone in its
/// community may move into another *singleton* community only when the
/// target's label is smaller. Returns `true` if the move should be vetoed.
///
/// `size_of(c)` must report the current member count of community `c`.
#[inline]
pub fn singlet_veto(
    current: Community,
    target: Community,
    size_of: impl Fn(Community) -> u32,
) -> bool {
    target != current && size_of(current) == 1 && size_of(target) == 1 && target > current
}

/// Phase-loop termination test shared by all variants: stop when the net
/// modularity gain falls below `threshold` (which, per Lemma 1, also stops
/// on *negative* parallel gains) or when no vertex moved.
#[inline]
pub fn should_stop(q_prev: f64, q_curr: f64, moves: usize, threshold: f64) -> bool {
    moves == 0 || (q_curr - q_prev) < threshold
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singlet_veto_blocks_only_upward_swaps() {
        let sizes = |c: Community| if c <= 2 { 1 } else { 5 };
        // both singletons, target label larger → veto
        assert!(singlet_veto(1, 2, sizes));
        // both singletons, target label smaller → allowed
        assert!(!singlet_veto(2, 1, sizes));
        // target not a singleton → allowed
        assert!(!singlet_veto(1, 3, sizes));
        // source not a singleton → allowed
        assert!(!singlet_veto(3, 1, sizes));
        // staying is never vetoed
        assert!(!singlet_veto(2, 2, sizes));
    }

    #[test]
    fn stop_conditions() {
        // no moves → stop
        assert!(should_stop(0.1, 0.2, 0, 1e-6));
        // large gain → continue
        assert!(!should_stop(0.1, 0.2, 5, 1e-6));
        // sub-threshold gain → stop
        assert!(should_stop(0.1, 0.1 + 1e-9, 5, 1e-6));
        // negative gain (parallel Lemma 1 case) → stop
        assert!(should_stop(0.2, 0.1, 5, 1e-6));
    }

    #[test]
    fn trivial_outcome_is_identity() {
        let o = PhaseOutcome::trivial(3);
        assert_eq!(o.assignment, vec![0, 1, 2]);
        assert_eq!(o.num_iterations(), 0);
        assert_eq!(o.final_modularity, 0.0);
        assert!(PhaseOutcome::trivial(0).assignment.is_empty());
    }

    #[test]
    fn outcome_counts_iterations() {
        let o = PhaseOutcome {
            assignment: vec![0, 1],
            iterations: vec![(0.1, 2), (0.2, 1)],
            stats: Vec::new(),
            final_modularity: 0.2,
            refinement: None,
        };
        assert_eq!(o.num_iterations(), 2);
    }

    #[test]
    fn driver_matrix_runs_and_refines() {
        use crate::config::RefineMode;
        use grappolo_graph::gen::{ring_of_cliques, CliqueRingConfig};

        let (g, _) = ring_of_cliques(&CliqueRingConfig {
            num_cliques: 6,
            clique_size: 5,
            ..Default::default()
        });
        for parallel in [false, true] {
            for refine in [RefineMode::None, RefineMode::Leiden] {
                let config = LouvainConfig {
                    parallel,
                    refine,
                    ..LouvainConfig::default()
                };
                let driver = PhaseDriver::from_config(&config, 1e-6);
                let out = driver.run(&g);
                assert!(out.final_modularity > 0.7, "parallel={parallel}");
                assert_eq!(out.refinement.is_some(), refine == RefineMode::Leiden);
                if let Some(stats) = out.refinement {
                    assert!(stats.refined_modularity >= stats.pre_modularity);
                }
            }
        }
        // Colored path through the same driver.
        let coloring = grappolo_coloring::color_parallel(
            &g,
            &grappolo_coloring::ParallelColoringConfig::default(),
        );
        let batches = ColorBatches::from_coloring(&coloring);
        let driver = PhaseDriver::from_config(&LouvainConfig::default(), 1e-6);
        let out = driver.run_colored(&g, &batches);
        assert!(out.final_modularity > 0.7);
    }
}
