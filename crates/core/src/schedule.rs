//! Adaptive threshold schedules and per-vertex convergence gating — the
//! convergence engine behind the local-moving sweeps.
//!
//! The paper terminates a phase on an **aggregate** net-modularity-gain
//! threshold θ (1e-2 for colored phases, 1e-6 for the rest). On inputs
//! without crisp structure the unordered sweep hits that stop while 20–40 %
//! of vertices still move every iteration, so the dirty-vertex work lists
//! ([`crate::active::ActiveSet`]) never engage and every iteration stays
//! O(m). Staudt & Meyerhenke's PLM points at the fix: drive convergence
//! **per vertex** — a vertex whose best available gain is below an epsilon
//! is locally converged and drops out of the frontier until a neighbor
//! moves.
//!
//! [`ThresholdSchedule`] supplies the per-iteration gain threshold —
//! `Fixed(θ)` reproduces the paper's aggregate stop bit-for-bit, while
//! `Geometric { start, factor, floor }` tightens a **per-vertex** gain gate
//! from `start` toward `floor` as the phase ages (coarse-to-fine *within* a
//! phase, the within-phase analogue of the paper's 1e-2 → 1e-6 phase
//! schedule). [`Convergence`] packages a schedule with a constant
//! `vertex_epsilon` floor and owns the sweep-facing queries: the effective
//! gate for iteration `k` and the phase-termination test.
//!
//! # Determinism contract
//!
//! Every quantity here is a **pure function of the iteration index** — no
//! state accumulates across calls, nothing reads the graph or the thread
//! pool — so scheduled sweeps inherit the §5.4 bitwise-stability guarantee
//! unchanged: the gate sequence is identical for any thread count, and the
//! per-vertex suppression decisions it drives are made vertex-locally
//! against snapshot state.
//!
//! # Gain scale
//!
//! Per-vertex modularity gains live on the `1/m` scale (moving a vertex
//! along one unit-weight edge gains ≈ `w/m`), so useful `start` / `floor` /
//! `vertex_epsilon` values are *graph-relative*. [`crate::PhaseDriver`]
//! derives [`ScheduleSpec::Geometric`]'s gate from each phase graph's total
//! weight: `start = 4/m`, `factor = 0.5`, `floor = 0.5/m`
//! ([`crate::config::GEOMETRIC_START_EDGE_UNITS`] and its siblings). VF,
//! every rebuild and the component splitter carry the input's `m` forward,
//! so every phase of one detection gates on the same `m`.

use serde::{Deserialize, Serialize};

/// Per-iteration net-gain threshold schedule for one phase.
///
/// `Fixed(θ)` is the paper's scheme: the sweep stops when the *aggregate*
/// modularity gain of an iteration falls below θ (and per-vertex gating is
/// left to [`Convergence::vertex_epsilon`] alone). `Geometric` tightens a
/// **per-vertex** gain gate geometrically from `start` to `floor`; the
/// aggregate stop is replaced by "frontier empty at the floor threshold"
/// ([`Convergence::should_stop`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ThresholdSchedule {
    /// Constant aggregate threshold θ — the decision-identical baseline.
    Fixed(f64),
    /// `θ_k = max(floor, start · factor^k)`: iteration 0 gates at `start`,
    /// each iteration multiplies by `factor` (< 1), clamped at `floor`.
    Geometric {
        /// Gate for iteration 0.
        start: f64,
        /// Per-iteration tightening multiplier, in (0, 1).
        factor: f64,
        /// Tightest gate the schedule reaches (> 0).
        floor: f64,
    },
}

impl ThresholdSchedule {
    /// The scheduled threshold for iteration `k` — a pure function of `k`,
    /// monotone non-increasing, clamped at the floor.
    pub fn threshold_at(&self, k: usize) -> f64 {
        match *self {
            ThresholdSchedule::Fixed(theta) => theta,
            ThresholdSchedule::Geometric {
                start,
                factor,
                floor,
            } => {
                let mut t = start;
                for _ in 0..k {
                    if t <= floor {
                        return floor;
                    }
                    t *= factor;
                }
                t.max(floor)
            }
        }
    }

    /// The tightest threshold the schedule can reach.
    pub fn floor(&self) -> f64 {
        match *self {
            ThresholdSchedule::Fixed(theta) => theta,
            ThresholdSchedule::Geometric { floor, .. } => floor,
        }
    }
}

/// The convergence policy one phase runs under: a threshold schedule plus a
/// constant per-vertex epsilon.
///
/// The per-vertex **gate** for iteration `k` is the pointwise maximum of the
/// two: under `Fixed` it is `vertex_epsilon` alone (0 ⇒ the paper's
/// behavior, bit-for-bit); under `Geometric` it is
/// `max(vertex_epsilon, θ_k)`. A vertex whose best move gains less than the
/// gate is **locally converged** for the iteration: it stays put, commits no
/// move, and therefore drops out of the next dirty-vertex frontier until a
/// neighbor moves (before [`crate::active::ActiveSet`] engagement the full
/// path simply re-examines it each iteration at the ever-tighter gate).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Convergence {
    /// Per-iteration threshold schedule.
    pub schedule: ThresholdSchedule,
    /// Constant per-vertex gain epsilon (0 disables epsilon gating).
    pub vertex_epsilon: f64,
}

impl Convergence {
    /// The paper's policy: aggregate stop at θ, no per-vertex gating. All
    /// legacy fixed-threshold entry points route through this.
    pub fn fixed(theta: f64) -> Self {
        Self {
            schedule: ThresholdSchedule::Fixed(theta),
            vertex_epsilon: 0.0,
        }
    }

    /// The per-vertex gain gate for iteration `k`: a move is taken only when
    /// its gain is at least this. Monotone non-increasing in `k`.
    pub fn gate(&self, k: usize) -> f64 {
        match self.schedule {
            ThresholdSchedule::Fixed(_) => self.vertex_epsilon,
            ThresholdSchedule::Geometric { .. } => {
                self.vertex_epsilon.max(self.schedule.threshold_at(k))
            }
        }
    }

    /// True once the gate can tighten no further after iteration `k` —
    /// always for `Fixed`, and from the clamp point on for `Geometric`.
    pub fn gate_at_floor(&self, k: usize) -> bool {
        self.gate(k + 1) == self.gate(k)
    }

    /// Phase-termination test after iteration `k` committed `moves` moves
    /// and locally converged `converged` vertices.
    ///
    /// * `Fixed(θ)` — the paper's stop, unchanged: no vertex moved, or the
    ///   aggregate gain `q_curr − q_prev` fell below θ (which, per Lemma 1,
    ///   also stops on negative parallel gains).
    /// * `Geometric` — "frontier empty at the floor threshold": stop when
    ///   nothing moved **and** tightening the gate further cannot admit new
    ///   moves (the gate is at its floor, or no vertex was suppressed by
    ///   it). While suppressed vertices remain and the gate still tightens,
    ///   the phase continues — the next, tighter iteration may admit them.
    ///   One safety net survives from the aggregate scheme: once the gate
    ///   is at its floor, a **non-improving** iteration (net gain ≤ 0) with
    ///   moves still committing stops the phase — without it, gate-clearing
    ///   oscillations (each move individually gainful against frozen state,
    ///   jointly cancelling; Lemma 1's scenario) could spin to the
    ///   iteration cap. Positive slow progress is never cut short: the
    ///   phase keeps draining toward the empty frontier.
    pub fn should_stop(
        &self,
        k: usize,
        q_prev: f64,
        q_curr: f64,
        moves: usize,
        converged: usize,
    ) -> bool {
        match self.schedule {
            ThresholdSchedule::Fixed(theta) => {
                crate::phase::should_stop(q_prev, q_curr, moves, theta)
            }
            ThresholdSchedule::Geometric { .. } => {
                if moves == 0 {
                    converged == 0 || self.gate_at_floor(k)
                } else {
                    self.gate_at_floor(k) && (q_curr - q_prev) <= 0.0
                }
            }
        }
    }
}

/// Which threshold schedule a [`crate::config::LouvainConfig`] selects —
/// the serializable, graph-agnostic form. `Fixed` resolves, per phase, to
/// [`ThresholdSchedule::Fixed`] with that phase's θ (`colored_threshold` /
/// `final_threshold`); `Geometric` resolves to
/// [`ThresholdSchedule::Geometric`] with parameters derived from the phase
/// graph's total weight (the gate lives on the per-vertex gain scale, not
/// the aggregate one, so it does not inherit the phase θ).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScheduleSpec {
    /// Aggregate stop at the phase threshold (paper's scheme; default).
    Fixed,
    /// Geometric per-vertex gate `4/m · 0.5^k`, clamped at `0.5/m`.
    Geometric,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_threshold_is_constant() {
        let s = ThresholdSchedule::Fixed(1e-6);
        for k in [0usize, 1, 7, 1000] {
            assert_eq!(s.threshold_at(k), 1e-6);
        }
        assert_eq!(s.floor(), 1e-6);
    }

    #[test]
    fn geometric_is_monotone_nonincreasing_and_clamps() {
        let s = ThresholdSchedule::Geometric {
            start: 1e-2,
            factor: 0.5,
            floor: 1e-6,
        };
        let mut prev = f64::INFINITY;
        for k in 0..64 {
            let t = s.threshold_at(k);
            assert!(t <= prev, "k={k}: {t} > {prev}");
            assert!(t >= 1e-6, "k={k}: {t} below floor");
            prev = t;
        }
        assert_eq!(s.threshold_at(0), 1e-2);
        assert_eq!(s.threshold_at(1), 5e-3);
        // 1e-2 · 0.5^k < 1e-6 for k ≥ 14 ⇒ clamped exactly at the floor.
        assert_eq!(s.threshold_at(14), 1e-6);
        assert_eq!(s.threshold_at(1_000_000), 1e-6);
        assert_eq!(s.floor(), 1e-6);
    }

    #[test]
    fn geometric_start_at_floor_is_constant() {
        let s = ThresholdSchedule::Geometric {
            start: 1e-4,
            factor: 0.5,
            floor: 1e-4,
        };
        for k in 0..8 {
            assert_eq!(s.threshold_at(k), 1e-4);
        }
    }

    #[test]
    fn fixed_convergence_gate_is_epsilon_only() {
        let c = Convergence::fixed(1e-6);
        assert_eq!(c.gate(0), 0.0);
        assert_eq!(c.gate(99), 0.0);
        assert!(c.gate_at_floor(0));
        let c_eps = Convergence {
            vertex_epsilon: 1e-7,
            ..Convergence::fixed(1e-6)
        };
        assert_eq!(c_eps.gate(0), 1e-7);
        assert_eq!(c_eps.gate(12), 1e-7);
    }

    #[test]
    fn geometric_gate_maxes_epsilon_and_schedule() {
        let c = Convergence {
            schedule: ThresholdSchedule::Geometric {
                start: 8e-6,
                factor: 0.5,
                floor: 1e-7,
            },
            vertex_epsilon: 1e-6,
        };
        assert_eq!(c.gate(0), 8e-6);
        assert_eq!(c.gate(1), 4e-6);
        assert_eq!(c.gate(2), 2e-6);
        // Schedule dips below ε ⇒ ε takes over; that is the effective floor.
        assert_eq!(c.gate(3), 1e-6);
        assert_eq!(c.gate(50), 1e-6);
        assert!(!c.gate_at_floor(0));
        assert!(c.gate_at_floor(3));
    }

    #[test]
    fn fixed_should_stop_matches_paper_rule() {
        let c = Convergence::fixed(1e-6);
        // No moves → stop; sub-threshold gain → stop; else continue —
        // converged counts are ignored under Fixed.
        assert!(c.should_stop(0, 0.1, 0.2, 0, 5));
        assert!(c.should_stop(3, 0.1, 0.1 + 1e-9, 5, 0));
        assert!(c.should_stop(3, 0.2, 0.1, 5, 0)); // negative gain
        assert!(!c.should_stop(3, 0.1, 0.2, 5, 100));
    }

    #[test]
    fn geometric_should_stop_is_frontier_empty_at_floor() {
        let c = Convergence {
            schedule: ThresholdSchedule::Geometric {
                start: 4e-6,
                factor: 0.5,
                floor: 1e-6,
            },
            vertex_epsilon: 0.0,
        };
        // Moves pending pre-floor → never stop, whatever the gain did.
        assert!(!c.should_stop(0, 0.5, 0.5, 1, 0));
        assert!(!c.should_stop(0, 0.5, 0.4, 1, 0));
        // At the floor, the safety net: a non-improving iteration (zero or
        // negative net gain) with moves still pending stops the phase;
        // positive progress — however slow — does not.
        assert!(c.should_stop(50, 0.5, 0.5, 1, 0));
        assert!(c.should_stop(50, 0.5, 0.4, 1, 0));
        assert!(!c.should_stop(50, 0.5, 0.5 + 1e-12, 1, 0));
        assert!(!c.should_stop(50, 0.5, 0.6, 1, 0));
        // No moves, but suppressed vertices and a still-tightening gate →
        // continue (the tighter next iteration may admit them).
        assert!(!c.should_stop(0, 0.5, 0.5, 0, 10));
        // No moves and nothing suppressed → stop even before the floor.
        assert!(c.should_stop(0, 0.5, 0.5, 0, 0));
        // At the floor (k = 2: 4e-6·0.25 = 1e-6), suppressed or not → stop.
        assert!(c.gate_at_floor(2));
        assert!(c.should_stop(2, 0.5, 0.5, 0, 10));
        assert!(c.should_stop(9, 0.5, 0.5, 0, 3));
    }
}
