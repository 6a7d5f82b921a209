//! Execution traces: each phase's own record of its sweep, and the run's
//! timing breakdown.
//!
//! These records are the raw material for the paper's evaluation artifacts:
//! * Figs. 3–6 plot "the evolution of modularity from the first iteration of
//!   the first phase to the last iteration of the last phase" — each
//!   phase's [`PhaseRecord::iterations`], in phase order;
//! * Fig. 8 breaks total run-time into coloring / rebuild (incl. VF) /
//!   clustering ([`RunTrace::timing_breakdown`]); Fig. 9 isolates rebuild
//!   speedup ([`RunTrace::rebuild_time`]);
//! * Tables 4–5 report total iteration counts.
//!
//! A trace serializes to JSON (`grappolo detect --trace`). Apart from the
//! durations (`vf_time`, `total_time` and each phase's `timings`), it is a
//! pure function of the graph and the config, so it is byte-identical at
//! every thread count.

use crate::phase::IterationStats;
use crate::refine::RefineStats;
use serde::Serialize;
use std::time::Duration;

/// Wall-clock breakdown of one phase, each category measured on its own.
/// VF runs once, before phase 0, and is timed in [`RunTrace::vf_time`];
/// [`RunTrace::timing_breakdown`] folds it into rebuild the way Fig. 8
/// counts it.
#[derive(Clone, Debug, Default, Serialize)]
pub struct PhaseTimings {
    /// Coloring preprocessing time (zero when coloring is off).
    pub coloring: Duration,
    /// Clustering time (the iteration loop, refinement included).
    pub clustering: Duration,
    /// Graph rebuild time: the phase's renumbering and condensed graph.
    pub rebuild: Duration,
}

impl PhaseTimings {
    /// Total of all categories.
    pub fn total(&self) -> Duration {
        self.coloring + self.clustering + self.rebuild
    }
}

/// One phase's record: its graph, its coloring, and everything its sweep
/// measured. A phase's index in [`RunTrace::phases`] is its phase number.
#[derive(Clone, Debug, Serialize)]
pub struct PhaseRecord {
    /// Vertices in this phase's input graph.
    pub num_vertices: usize,
    /// Edges in this phase's input graph.
    pub num_edges: usize,
    /// Whether the coloring heuristic was active this phase.
    pub colored: bool,
    /// Number of colors used (0 when not colored).
    pub num_colors: usize,
    /// Modularity at phase entry (singleton assignment on the phase graph).
    pub start_modularity: f64,
    /// Modularity at phase exit.
    pub end_modularity: f64,
    /// Per-iteration `(modularity, moves)`, in order: the modularity after
    /// the iteration, on the phase's graph, and the vertices it moved.
    pub iterations: Vec<(f64, usize)>,
    /// Per-iteration convergence counters, parallel to `iterations`.
    pub stats: Vec<IterationStats>,
    /// What the refinement pass did; `None` unless the run refines.
    pub refinement: Option<RefineStats>,
    /// Wall-clock breakdown.
    pub timings: PhaseTimings,
}

/// Complete trace of one community-detection run: one [`PhaseRecord`] per
/// phase, in phase order (a component-split run appends each component's
/// phases in component-id order), plus the VF preprocessing and the
/// end-to-end wall clock.
#[derive(Clone, Debug, Default, Serialize)]
pub struct RunTrace {
    /// Per-phase records.
    pub phases: Vec<PhaseRecord>,
    /// VF preprocessing time (summed over components in a split run).
    pub vf_time: Duration,
    /// Vertices removed by VF preprocessing.
    pub vf_merged: usize,
    /// End-to-end wall-clock (everything, including trace bookkeeping).
    pub total_time: Duration,
}

impl RunTrace {
    /// Total iterations across phases — the paper's "#iter" columns
    /// (Tables 4, 5).
    pub fn total_iterations(&self) -> usize {
        self.phases.iter().map(|p| p.iterations.len()).sum()
    }

    /// Number of phases executed.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Aggregate timing breakdown across phases (Fig. 8 input). VF counts
    /// once, as rebuild time — the paper's accounting ("time to rebuild
    /// the graph between phases (VF cost is included here)").
    pub fn timing_breakdown(&self) -> PhaseTimings {
        let mut t = PhaseTimings {
            rebuild: self.vf_time,
            ..PhaseTimings::default()
        };
        for p in &self.phases {
            t.coloring += p.timings.coloring;
            t.clustering += p.timings.clustering;
            t.rebuild += p.timings.rebuild;
        }
        t
    }

    /// Total rebuild time, VF included (Fig. 9's numerator).
    pub fn rebuild_time(&self) -> Duration {
        self.timing_breakdown().rebuild
    }

    /// Checks the monotonicity property the paper relies on for serial runs
    /// (§3: "modularity is a monotonically increasing function across
    /// iterations of a phase"); returns the first violation as
    /// `(phase, iteration, drop)`.
    pub fn check_monotone_within_phases(&self, tol: f64) -> Result<(), (usize, usize, f64)> {
        for (phase, p) in self.phases.iter().enumerate() {
            for (i, pair) in p.iterations.windows(2).enumerate() {
                let drop = pair[0].0 - pair[1].0;
                if drop > tol {
                    return Err((phase, i + 1, drop));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A phase with the given `(Q, moves)` list and coloring, clustering
    /// and rebuild milliseconds.
    fn phase(iterations: Vec<(f64, usize)>, ms: [u64; 3]) -> PhaseRecord {
        let [coloring, clustering, rebuild] = ms.map(Duration::from_millis);
        let stat = IterationStats {
            gate: 0.0,
            frontier: 100,
            converged: 1,
        };
        PhaseRecord {
            num_vertices: 100,
            num_edges: 500,
            colored: false,
            num_colors: 7,
            start_modularity: -0.1,
            end_modularity: 0.5,
            stats: vec![stat; iterations.len()],
            iterations,
            refinement: None,
            timings: PhaseTimings {
                coloring,
                clustering,
                rebuild,
            },
        }
    }

    fn mk_trace() -> RunTrace {
        RunTrace {
            phases: vec![
                phase(vec![(0.1, 10), (0.3, 5)], [3, 20, 5]),
                phase(vec![(0.5, 2)], [0, 2, 1]),
            ],
            vf_time: Duration::from_millis(4),
            ..Default::default()
        }
    }

    #[test]
    fn totals() {
        let t = mk_trace();
        assert_eq!(t.total_iterations(), 3);
        assert_eq!(t.num_phases(), 2);
        let b = t.timing_breakdown();
        assert_eq!(b.coloring, Duration::from_millis(3));
        assert_eq!(b.clustering, Duration::from_millis(22));
        assert_eq!(b.total(), Duration::from_millis(35));
    }

    #[test]
    fn vf_time_counts_once_as_rebuild() {
        // Fig. 8's accounting: the phases' own rebuilds (5 + 1 ms) plus the
        // run's VF time (4 ms), once — also when no phase ran.
        let t = mk_trace();
        assert_eq!(t.timing_breakdown().rebuild, Duration::from_millis(10));
        assert_eq!(t.rebuild_time(), Duration::from_millis(10));
        let vf_only = RunTrace {
            vf_time: Duration::from_millis(4),
            ..Default::default()
        };
        assert_eq!(vf_only.rebuild_time(), Duration::from_millis(4));
    }

    #[test]
    fn monotone_check_passes_and_fails() {
        let mut t = mk_trace();
        assert!(t.check_monotone_within_phases(1e-12).is_ok());
        t.phases[0].iterations[1].0 = 0.05; // drop within phase 0
        let err = t.check_monotone_within_phases(1e-12).unwrap_err();
        assert_eq!(err.0, 0);
        assert_eq!(err.1, 1);
        // Drops across phase boundaries are not violations.
        let mut t2 = mk_trace();
        t2.phases[1].iterations[0].0 = 0.0;
        assert!(t2.check_monotone_within_phases(1e-12).is_ok());
    }

    #[test]
    fn serializes_each_phase_with_its_record() {
        let t = RunTrace {
            phases: vec![phase(vec![(0.5, 2)], [0, 2, 1])],
            ..Default::default()
        };
        let zero = r#"{"secs":0,"nanos":0}"#;
        let expected = format!(
            r#"{{"phases":[{{"num_vertices":100,"num_edges":500,"colored":false,"num_colors":7,"start_modularity":-0.1,"end_modularity":0.5,"iterations":[[0.5,2]],"stats":[{{"gate":0,"frontier":100,"converged":1}}],"refinement":null,"timings":{{"coloring":{zero},"clustering":{{"secs":0,"nanos":2000000}},"rebuild":{{"secs":0,"nanos":1000000}}}}}}],"vf_time":{zero},"vf_merged":0,"total_time":{zero}}}"#
        );
        assert_eq!(serde_json::to_string(&t).unwrap(), expected);
    }
}
