//! Shared types and helpers for one Louvain phase (the iteration loop of
//! Algorithm 1 on a fixed graph), and the [`PhaseDriver`] — the single
//! public entry point that resolves sweep mode × schedule × refinement from
//! a [`LouvainConfig`] and runs one phase.

use crate::config::{LouvainConfig, RefineMode, SweepMode};
use crate::modularity::Community;
use crate::refine::RefineStats;
use crate::schedule::Convergence;
use grappolo_coloring::ColorBatches;
use grappolo_graph::CsrGraph;

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
        let mut outcome = if self.serial {
            crate::serial::serial_scheduled_impl(
                g,
                self.sweep,
                &self.conv,
                self.max_iterations,
                self.resolution,
            )
        } else {
            crate::parallel::unordered_scheduled_impl(
                g,
                self.sweep,
                &self.conv,
                self.max_iterations,
                self.resolution,
            )
        };
        self.finish(g, &mut outcome);
        outcome
    }

    /// Runs one colored phase to convergence over `batches` (distance-1
    /// color classes) with the incremental barrier-batch sweep. Applies
    /// refinement per the config.
    pub fn run_colored(&self, g: &CsrGraph, batches: &ColorBatches) -> PhaseOutcome {
        let mut outcome = crate::parallel::colored_scheduled_impl(
            g,
            batches,
            self.sweep,
            &self.conv,
            self.max_iterations,
            self.resolution,
        );
        self.finish(g, &mut outcome);
        outcome
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
