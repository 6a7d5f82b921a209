//! Execution traces: per-iteration modularity evolution and per-phase timing
//! breakdowns.
//!
//! These records are the raw material for the paper's evaluation artifacts:
//! * Figs. 3–6 plot "the evolution of modularity from the first iteration of
//!   the first phase to the last iteration of the last phase";
//! * Fig. 8 breaks total run-time into coloring / rebuild (incl. VF) /
//!   clustering; Fig. 9 isolates rebuild speedup;
//! * Tables 4–5 report total iteration counts.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One iteration's record within a phase.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Phase index (0-based).
    pub phase: usize,
    /// Iteration index within the phase (0-based).
    pub iteration: usize,
    /// Modularity after the iteration, measured on the phase's graph.
    pub modularity: f64,
    /// Number of vertices that changed community this iteration.
    pub moves: usize,
}

/// Wall-clock breakdown of one phase (Fig. 8's categories).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Coloring preprocessing time (zero when coloring is off).
    pub coloring: Duration,
    /// Clustering time (the iteration loop).
    pub clustering: Duration,
    /// Graph rebuild time; for phase 0 this includes VF preprocessing, the
    /// paper's accounting ("time to rebuild the graph between phases (VF
    /// cost is included here)").
    pub rebuild: Duration,
}

impl PhaseTimings {
    /// Total of all categories.
    pub fn total(&self) -> Duration {
        self.coloring + self.clustering + self.rebuild
    }
}

/// Summary of one phase.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Phase index (0-based).
    pub phase: usize,
    /// Vertices in this phase's input graph.
    pub num_vertices: usize,
    /// Edges in this phase's input graph.
    pub num_edges: usize,
    /// Whether the coloring heuristic was active this phase.
    pub colored: bool,
    /// Number of colors used (0 when not colored).
    pub num_colors: usize,
    /// Iterations executed this phase.
    pub iterations: usize,
    /// Modularity at phase entry (singleton assignment on the phase graph).
    pub start_modularity: f64,
    /// Modularity at phase exit.
    pub end_modularity: f64,
    /// Wall-clock breakdown.
    pub timings: PhaseTimings,
}

/// Complete trace of one community-detection run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunTrace {
    /// Per-iteration modularity curve across all phases.
    pub iterations: Vec<IterationRecord>,
    /// Per-phase summaries.
    pub phases: Vec<PhaseRecord>,
    /// VF preprocessing time (phase 0 only; also folded into phase 0's
    /// rebuild per the paper's accounting).
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
        self.phases.iter().map(|p| p.iterations).sum()
    }

    /// Number of phases executed.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Aggregate timing breakdown across phases (Fig. 8 input).
    pub fn timing_breakdown(&self) -> PhaseTimings {
        let mut t = PhaseTimings::default();
        for p in &self.phases {
            t.coloring += p.timings.coloring;
            t.clustering += p.timings.clustering;
            t.rebuild += p.timings.rebuild;
        }
        t
    }

    /// Total rebuild time (Fig. 9's numerator).
    pub fn rebuild_time(&self) -> Duration {
        self.phases.iter().map(|p| p.timings.rebuild).sum()
    }

    /// Checks the monotonicity property the paper relies on for serial runs
    /// (§3: "modularity is a monotonically increasing function across
    /// iterations of a phase"); returns the first violation.
    pub fn check_monotone_within_phases(&self, tol: f64) -> Result<(), (usize, usize, f64)> {
        for pair in self.iterations.windows(2) {
            if pair[0].phase == pair[1].phase {
                let drop = pair[0].modularity - pair[1].modularity;
                if drop > tol {
                    return Err((pair[1].phase, pair[1].iteration, drop));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_trace() -> RunTrace {
        RunTrace {
            iterations: vec![
                IterationRecord {
                    phase: 0,
                    iteration: 0,
                    modularity: 0.1,
                    moves: 10,
                },
                IterationRecord {
                    phase: 0,
                    iteration: 1,
                    modularity: 0.3,
                    moves: 5,
                },
                IterationRecord {
                    phase: 1,
                    iteration: 0,
                    modularity: 0.5,
                    moves: 2,
                },
            ],
            phases: vec![
                PhaseRecord {
                    phase: 0,
                    num_vertices: 100,
                    num_edges: 500,
                    colored: true,
                    num_colors: 7,
                    iterations: 2,
                    start_modularity: -0.1,
                    end_modularity: 0.3,
                    timings: PhaseTimings {
                        coloring: Duration::from_millis(3),
                        clustering: Duration::from_millis(20),
                        rebuild: Duration::from_millis(5),
                    },
                },
                PhaseRecord {
                    phase: 1,
                    num_vertices: 10,
                    num_edges: 30,
                    colored: false,
                    num_colors: 0,
                    iterations: 1,
                    start_modularity: 0.3,
                    end_modularity: 0.5,
                    timings: PhaseTimings {
                        coloring: Duration::ZERO,
                        clustering: Duration::from_millis(2),
                        rebuild: Duration::from_millis(1),
                    },
                },
            ],
            ..Default::default()
        }
    }

    #[test]
    fn totals() {
        let t = mk_trace();
        assert_eq!(t.total_iterations(), 3);
        assert_eq!(t.num_phases(), 2);
        assert_eq!(t.rebuild_time(), Duration::from_millis(6));
        let b = t.timing_breakdown();
        assert_eq!(b.coloring, Duration::from_millis(3));
        assert_eq!(b.clustering, Duration::from_millis(22));
        assert_eq!(b.total(), Duration::from_millis(31));
    }

    #[test]
    fn monotone_check_passes_and_fails() {
        let mut t = mk_trace();
        assert!(t.check_monotone_within_phases(1e-12).is_ok());
        t.iterations[1].modularity = 0.05; // drop within phase 0
        let err = t.check_monotone_within_phases(1e-12).unwrap_err();
        assert_eq!(err.0, 0);
        assert_eq!(err.1, 1);
        // Drops across phase boundaries are not violations.
        let mut t2 = mk_trace();
        t2.iterations[2].modularity = 0.0;
        assert!(t2.check_monotone_within_phases(1e-12).is_ok());
    }

    #[test]
    fn serde_round_trip() {
        let t = mk_trace();
        let json = serde_json::to_string(&t).unwrap();
        let back: RunTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.total_iterations(), t.total_iterations());
        assert_eq!(back.phases[0].num_colors, 7);
        assert_eq!(back.iterations, t.iterations);
    }
}
