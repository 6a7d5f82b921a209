//! Convergence gating for the local-moving sweeps: the [`ScheduleSpec`] a
//! config selects, and the crate-private gate the phase driver resolves it
//! into for each phase graph.
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
//! [`ScheduleSpec::Fixed`] keeps the paper's aggregate stop at the phase θ
//! bit-for-bit; [`ScheduleSpec::Geometric`] tightens a **per-vertex** gain
//! gate as the phase ages (coarse-to-fine *within* a phase, the
//! within-phase analogue of the paper's 1e-2 → 1e-6 phase schedule). Either
//! way a constant per-vertex epsilon ε
//! ([`crate::LouvainConfig::vertex_epsilon`]) bounds the gate from below.
//!
//! # Determinism contract
//!
//! The gate of iteration `k` is a **pure function of `k`** and the phase
//! graph's total weight — no state accumulates across calls, nothing reads
//! the thread pool — so gated sweeps inherit the §5.4 bitwise-stability
//! guarantee unchanged: the gate sequence is identical for any thread
//! count, and the per-vertex suppression decisions it drives are made
//! vertex-locally against snapshot state.
//!
//! # Gain scale
//!
//! Per-vertex modularity gains live on the `1/m` scale (moving a vertex
//! along one unit-weight edge gains ≈ `w/m`), so the geometric gate is
//! derived from each phase graph's total weight: it starts at `4/m`,
//! halves every iteration and clamps at `0.5/m`
//! ([`crate::config::GEOMETRIC_START_EDGE_UNITS`] and its siblings). VF,
//! every rebuild and the component splitter carry the input's `m` forward,
//! so every phase of one detection gates on the same `m`.

use crate::config::{GEOMETRIC_FACTOR, GEOMETRIC_FLOOR_EDGE_UNITS, GEOMETRIC_START_EDGE_UNITS};
use serde::{Deserialize, Serialize};

/// Which convergence gate a [`crate::config::LouvainConfig`] selects — the
/// serializable, graph-agnostic form. The phase driver resolves it per
/// phase: `Fixed` stops on that phase's θ (`colored_threshold` /
/// `final_threshold`); `Geometric` derives its per-vertex gate from the
/// phase graph's total weight (the gate lives on the per-vertex gain scale,
/// not the aggregate one, so it does not inherit the phase θ).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScheduleSpec {
    /// Aggregate stop at the phase threshold (paper's scheme; default).
    Fixed,
    /// Geometric per-vertex gate `4/m · 0.5^k`, clamped at `0.5/m`.
    Geometric,
}

/// The convergence gate one phase runs under: a [`ScheduleSpec`] resolved
/// against the phase θ, the vertex epsilon ε and the phase graph's total
/// weight `m`.
///
/// [`Gate::at`] is the per-vertex gain gate of iteration `k`: a vertex whose
/// best move gains less stays put, commits no move, and therefore drops out
/// of the next dirty-vertex frontier until a neighbor moves (before
/// [`crate::active::ActiveSet`] engagement the saturated frontier re-examines
/// it each iteration at the ever-tighter gate). [`Gate::should_stop`] is
/// the phase-termination test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Gate {
    /// The paper's aggregate stop at θ; the per-vertex gate is ε alone
    /// (0 ⇒ the paper's behavior, bit-for-bit).
    Fixed { theta: f64, epsilon: f64 },
    /// The per-vertex gate `max(ε, θ_k)` with `θ_k = max(floor, start ·
    /// 0.5^k)`, `start = 4/m` and `floor = 0.5/m`.
    Geometric {
        start: f64,
        floor: f64,
        epsilon: f64,
    },
}

impl Gate {
    /// Resolves `spec` for a phase with aggregate threshold `theta`, vertex
    /// epsilon `epsilon` and total weight `m`.
    pub(crate) fn new(spec: ScheduleSpec, theta: f64, epsilon: f64, m: f64) -> Self {
        match spec {
            ScheduleSpec::Fixed => Gate::Fixed { theta, epsilon },
            ScheduleSpec::Geometric => Gate::Geometric {
                start: GEOMETRIC_START_EDGE_UNITS / m,
                floor: GEOMETRIC_FLOOR_EDGE_UNITS / m,
                epsilon,
            },
        }
    }

    /// The per-vertex gain gate for iteration `k`: a move is taken only when
    /// its gain is at least this. Monotone non-increasing in `k`.
    pub(crate) fn at(&self, k: usize) -> f64 {
        match *self {
            Gate::Fixed { epsilon, .. } => epsilon,
            Gate::Geometric {
                start,
                floor,
                epsilon,
            } => {
                let mut t = start;
                for _ in 0..k {
                    if t <= floor {
                        break;
                    }
                    t *= GEOMETRIC_FACTOR;
                }
                epsilon.max(t.max(floor))
            }
        }
    }

    /// True once the gate can tighten no further after iteration `k` —
    /// always for `Fixed`, and from the clamp point on for `Geometric`.
    pub(crate) fn at_floor(&self, k: usize) -> bool {
        self.at(k + 1) == self.at(k)
    }

    /// Phase-termination test after iteration `k` committed `moves` moves
    /// and locally converged `converged` vertices.
    ///
    /// * `Fixed` — the paper's stop: no vertex moved, or the aggregate gain
    ///   `q_curr − q_prev` fell below θ (which, per Lemma 1, also stops on
    ///   negative parallel gains).
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
    pub(crate) fn should_stop(
        &self,
        k: usize,
        q_prev: f64,
        q_curr: f64,
        moves: usize,
        converged: usize,
    ) -> bool {
        match *self {
            Gate::Fixed { theta, .. } => moves == 0 || (q_curr - q_prev) < theta,
            Gate::Geometric { .. } => {
                if moves == 0 {
                    converged == 0 || self.at_floor(k)
                } else {
                    self.at_floor(k) && (q_curr - q_prev) <= 0.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometric(m: f64, epsilon: f64) -> Gate {
        Gate::new(ScheduleSpec::Geometric, 1e-6, epsilon, m)
    }

    #[test]
    fn fixed_threshold_is_constant() {
        // θ only stops the phase; the per-vertex gate never tightens.
        let g = Gate::new(ScheduleSpec::Fixed, 1e-6, 0.0, 1_000.0);
        for k in [0usize, 1, 7, 1000] {
            assert_eq!(g.at(k), 0.0);
            assert!(g.at_floor(k));
        }
        assert_eq!(
            g,
            Gate::Fixed {
                theta: 1e-6,
                epsilon: 0.0
            }
        );
    }

    #[test]
    fn geometric_is_monotone_nonincreasing_and_clamps() {
        // m = 400: 4/m = 1e-2 halving to the 0.5/m = 1.25e-3 floor.
        let g = geometric(400.0, 0.0);
        let mut prev = f64::INFINITY;
        for k in 0..64 {
            let t = g.at(k);
            assert!(t <= prev, "k={k}: {t} > {prev}");
            assert!(t >= 0.5 / 400.0, "k={k}: {t} below floor");
            prev = t;
        }
        assert_eq!(g.at(0), 4.0 / 400.0);
        assert_eq!(g.at(1), 2.0 / 400.0);
        assert_eq!(g.at(2), 1.0 / 400.0);
        // 4/m · 0.5³ = 0.5/m ⇒ clamped exactly at the floor from k = 3 on.
        assert_eq!(g.at(3), 0.5 / 400.0);
        assert_eq!(g.at(1_000_000), 0.5 / 400.0);
        assert!(!g.at_floor(2));
        assert!(g.at_floor(3));
    }

    #[test]
    fn geometric_start_at_floor_is_constant() {
        // An epsilon at or above 4/m dominates the whole geometric sequence:
        // the gate is ε from iteration 0 and never tightens.
        let g = geometric(400.0, 0.05);
        for k in 0..8 {
            assert_eq!(g.at(k), 0.05);
            assert!(g.at_floor(k));
        }
    }

    #[test]
    fn fixed_convergence_gate_is_epsilon_only() {
        let c = Gate::new(ScheduleSpec::Fixed, 1e-6, 0.0, 10.0);
        assert_eq!(c.at(0), 0.0);
        assert_eq!(c.at(99), 0.0);
        assert!(c.at_floor(0));
        let c_eps = Gate::new(ScheduleSpec::Fixed, 1e-6, 1e-7, 10.0);
        assert_eq!(c_eps.at(0), 1e-7);
        assert_eq!(c_eps.at(12), 1e-7);
    }

    #[test]
    fn geometric_gate_maxes_epsilon_and_schedule() {
        // m = 5e5: 4/m = 8e-6, then 4e-6 and 2e-6; the 1e-6 floor sits
        // below ε = 1.5e-6, so ε takes over as the effective floor.
        let c = geometric(5e5, 1.5e-6);
        assert_eq!(c.at(0), 4.0 / 5e5);
        assert_eq!(c.at(1), 2.0 / 5e5);
        assert_eq!(c.at(2), 1.0 / 5e5);
        assert_eq!(c.at(3), 1.5e-6);
        assert_eq!(c.at(50), 1.5e-6);
        assert!(!c.at_floor(0));
        assert!(!c.at_floor(2));
        assert!(c.at_floor(3));
    }

    #[test]
    fn fixed_should_stop_matches_paper_rule() {
        let c = Gate::new(ScheduleSpec::Fixed, 1e-6, 0.0, 10.0);
        // No moves → stop; sub-threshold gain → stop; negative gain (the
        // parallel Lemma 1 case) → stop; else continue — converged counts
        // and the iteration index are ignored under Fixed.
        assert!(c.should_stop(0, 0.1, 0.2, 0, 5));
        assert!(c.should_stop(3, 0.1, 0.1 + 1e-9, 5, 0));
        assert!(c.should_stop(3, 0.2, 0.1, 5, 0));
        assert!(!c.should_stop(3, 0.1, 0.2, 5, 100));
        assert!(!c.should_stop(0, 0.1, 0.2, 5, 0));
    }

    #[test]
    fn geometric_should_stop_is_frontier_empty_at_floor() {
        // m = 1e6: 4e-6, 2e-6, 1e-6, then the 5e-7 floor from k = 3.
        let c = geometric(1e6, 0.0);
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
        assert!(!c.should_stop(2, 0.5, 0.5, 0, 10));
        // No moves and nothing suppressed → stop even before the floor.
        assert!(c.should_stop(0, 0.5, 0.5, 0, 0));
        // At the floor, suppressed or not → stop.
        assert!(c.at_floor(3));
        assert!(c.should_stop(3, 0.5, 0.5, 0, 10));
        assert!(c.should_stop(9, 0.5, 0.5, 0, 3));
    }

    /// **Gate algebra** over random total weights m and epsilons ε: `Fixed`
    /// gates at ε; `Geometric` is monotone non-increasing, starts at
    /// max(ε, 4/m), reaches max(ε, 0.5/m) at k = 3 and stays there.
    #[test]
    fn geometric_schedule_monotone_and_clamped() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..256 {
            let m = 10f64.powf(9.0 * unit());
            let epsilon = match case % 4 {
                0 => 0.0,
                _ => 10f64.powf(-10.0 + 10.0 * unit()),
            };
            let theta = 10f64.powf(-8.0 + 6.0 * unit());
            let fixed = Gate::new(ScheduleSpec::Fixed, theta, epsilon, m);
            let g = Gate::new(ScheduleSpec::Geometric, theta, epsilon, m);
            let start = epsilon.max(4.0 / m);
            let floor = epsilon.max(0.5 / m);
            assert_eq!(g.at(0), start, "m={m} ε={epsilon}");
            let mut prev = f64::INFINITY;
            for k in 0..128 {
                assert_eq!(fixed.at(k), epsilon, "m={m} ε={epsilon} k={k}");
                let t = g.at(k);
                assert!(t <= prev, "m={m} ε={epsilon} k={k}: not monotone");
                assert!(t >= floor, "m={m} ε={epsilon} k={k}: below floor");
                assert!(t <= start, "m={m} ε={epsilon} k={k}: above start");
                if k >= 3 {
                    assert_eq!(t, floor, "m={m} ε={epsilon} k={k}: off the floor");
                    assert!(g.at_floor(k));
                }
                prev = t;
            }
        }
    }
}
