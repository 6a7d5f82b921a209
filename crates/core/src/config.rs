//! Algorithm configuration: which heuristics run, thresholds, and schedules.
//!
//! Defaults mirror the paper's experimental setup (§6.1): colored phases use
//! a net-modularity-gain threshold of 1e-2, the remaining phases 1e-6, and
//! coloring stops once the graph shrinks below 100 K vertices or the phase
//! gain drops below the colored threshold.

use crate::schedule::{Convergence, ScheduleMode, ThresholdSchedule};
use serde::{Deserialize, Serialize};

/// Which combination of the paper's heuristics to run — the four schemes of
/// the evaluation section.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// The original serial Louvain method (§3) — the comparison baseline.
    Serial,
    /// Parallel with only the minimum-label heuristic ("baseline", §6.1).
    Baseline,
    /// Baseline plus vertex-following preprocessing ("baseline + VF").
    BaselineVf,
    /// Baseline plus VF plus coloring ("baseline + VF + Color") — the
    /// headline configuration.
    BaselineVfColor,
}

impl Scheme {
    /// All four schemes in the paper's presentation order.
    pub const ALL: [Scheme; 4] = [
        Scheme::Serial,
        Scheme::Baseline,
        Scheme::BaselineVf,
        Scheme::BaselineVfColor,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Serial => "serial",
            Scheme::Baseline => "baseline",
            Scheme::BaselineVf => "baseline+VF",
            Scheme::BaselineVfColor => "baseline+VF+Color",
        }
    }

    /// Builds the matching [`LouvainConfig`].
    pub fn config(&self) -> LouvainConfig {
        match self {
            Scheme::Serial => LouvainConfig {
                parallel: false,
                use_vf: false,
                coloring: ColoringSchedule::Off,
                ..LouvainConfig::default()
            },
            Scheme::Baseline => LouvainConfig {
                parallel: true,
                use_vf: false,
                coloring: ColoringSchedule::Off,
                ..LouvainConfig::default()
            },
            Scheme::BaselineVf => LouvainConfig {
                parallel: true,
                use_vf: true,
                coloring: ColoringSchedule::Off,
                ..LouvainConfig::default()
            },
            Scheme::BaselineVfColor => LouvainConfig {
                parallel: true,
                use_vf: true,
                coloring: ColoringSchedule::MultiPhase,
                ..LouvainConfig::default()
            },
        }
    }
}

/// When the coloring preprocessing is applied (§6.3 compares the first two).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColoringSchedule {
    /// Never color (baseline / baseline+VF schemes).
    Off,
    /// Color only the first phase's input (§6.3's comparison arm).
    FirstPhaseOnly,
    /// Color every phase until the vertex-count cutoff or the phase-gain
    /// cutoff triggers (the paper's default scheme, §6.1).
    MultiPhase,
}

/// How the colored sweep accounts per-iteration modularity. There is one
/// way: the name survives only for callers that still pass it to
/// [`LouvainConfigBuilder::accounting`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColoredAccounting {
    /// Carry `Σ e_in` / `Σ a_C²` incrementally across color-batch barriers
    /// (O(#moves) per iteration, bitwise deterministic). The O(m) rescan
    /// survives as a `debug_assert` cross-check and as the test oracle
    /// [`crate::reference::parallel_phase_colored_rescan`].
    Incremental,
}

/// Which vertices a sweep iteration re-examines (PR 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SweepMode {
    /// Every iteration scans all `n` vertices and gathers all `m` adjacency
    /// entries — the paper's scheme, and the decision-trajectory reference
    /// (default).
    Full,
    /// Iteration `k` re-examines only the **active** vertices: those that
    /// moved in iteration `k−1` or had a neighbor move
    /// ([`crate::active::ActiveSet`], rebuilt deterministically from the
    /// committed move list). Pruning is deferred — iterations run the plain
    /// full path (bitwise identical to `Full`) until the move count first
    /// drops to the [`crate::active::ActiveSet::engages`] bound, then
    /// become activity-proportional: late iterations where <1% of vertices
    /// move cost O(activity) instead of O(m), while staying bitwise
    /// deterministic across thread counts. Final quality matches `Full`
    /// within the paper's tolerance (property-tested).
    Active,
}

/// Whether a Leiden-style refinement pass runs between local-moving and the
/// inter-phase rebuild ([`crate::refine`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RefineMode {
    /// No refinement — the paper's pipeline (default). Condensation may
    /// merge internally disconnected vertex sets (Louvain's known flaw).
    None,
    /// Split every community into its connected components (labels = the
    /// minimum member vertex, BFS over the stamped scratch) and then run a
    /// serial ascending-order crumb-absorption sweep over singleton
    /// communities before condensing. Guarantees every condensed community
    /// is internally connected and never lowers modularity; bitwise
    /// deterministic across thread counts.
    Leiden,
}

/// How the inter-phase graph rebuild aggregates community edges (§5.5 step
/// (iii)). There is one aggregation; the enum keeps the `rebuild` field and
/// [`crate::rebuild::rebuild`]'s signature stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RebuildStrategy {
    /// Per-community aggregation through the generation-stamped flat scratch
    /// (the same kernel as the local-moving sweep): O(deg) per community
    /// row, no global sort, no locks, bitwise deterministic across thread
    /// counts (the §5.4 stability guarantee).
    StampAggregate,
}

/// How new community ids are assigned during rebuild (§5.5 step (i)). There
/// is one renumbering; the enum keeps the `renumber` field and
/// [`crate::rebuild::renumber_communities`]'s signature stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RenumberStrategy {
    /// Serial scan — what the paper ships ("currently implemented in
    /// serial").
    Serial,
}

/// Full algorithm configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LouvainConfig {
    /// Parallel sweep (Algorithm 1) vs the faithful serial method (§3).
    pub parallel: bool,
    /// Apply vertex-following preprocessing (§5.3).
    pub use_vf: bool,
    /// Recursive VF rounds (chain compression, §5.3's extension); 1 = the
    /// paper's single-pass variant.
    pub vf_rounds: usize,
    /// Coloring schedule.
    pub coloring: ColoringSchedule,
    /// Stop coloring once the phase input has fewer vertices than this
    /// (paper: 100 K).
    pub coloring_vertex_cutoff: usize,
    /// Stop coloring once the net modularity gain between phases drops below
    /// this (paper: 1e-2).
    pub coloring_phase_gain_cutoff: f64,
    /// Apply the balanced-coloring post-pass (§6.2 extension).
    pub balanced_coloring: bool,
    /// Which vertices each sweep iteration re-examines (all sweeps: serial,
    /// unordered, colored).
    pub sweep_mode: SweepMode,
    /// Leiden-style refinement between local-moving and rebuild
    /// ([`crate::refine`]; applies to every phase, including the last).
    pub refine: RefineMode,
    /// Net modularity gain threshold θ within colored phases (paper: 1e-2;
    /// Table 5 sweeps this).
    pub colored_threshold: f64,
    /// Net modularity gain threshold θ for uncolored phases and overall
    /// termination (paper: 1e-6).
    pub final_threshold: f64,
    /// Within-phase threshold schedule ([`ScheduleMode::Fixed`] = the
    /// paper's aggregate stop at the phase θ; [`ScheduleMode::Geometric`] =
    /// a per-vertex gain gate tightening `schedule_start · schedule_factor^k`
    /// down to `schedule_floor`, with phase termination reworked to
    /// "frontier empty at the floor" — see [`crate::schedule`]).
    pub schedule: ScheduleMode,
    /// Geometric schedule: per-vertex gate for iteration 0. Gains live on
    /// the `1/m` scale, so use [`Self::with_geometric_schedule`] to derive
    /// a graph-appropriate value.
    pub schedule_start: f64,
    /// Geometric schedule: per-iteration tightening multiplier in (0, 1).
    pub schedule_factor: f64,
    /// Geometric schedule: tightest gate reached (> 0).
    pub schedule_floor: f64,
    /// Per-vertex convergence epsilon (all schedules): a vertex whose best
    /// available modularity gain is below this stays put and is treated as
    /// locally converged — it leaves the dirty-vertex frontier until a
    /// neighbor moves. 0 (default) disables the gate and reproduces the
    /// ungated trajectory bit-for-bit.
    pub vertex_epsilon: f64,
    /// Hard cap on phases (safety; the paper's runs need ≲ 10).
    pub max_phases: usize,
    /// Hard cap on iterations within one phase (safety).
    pub max_iterations_per_phase: usize,
    /// Rebuild edge-aggregation strategy.
    pub rebuild: RebuildStrategy,
    /// Rebuild renumbering strategy.
    pub renumber: RenumberStrategy,
    /// Resolution parameter γ (1.0 = the paper's Eq. 3/4).
    pub resolution: f64,
    /// Dynamic updates ([`crate::dynamic`]): when a batch's net edge changes
    /// exceed this fraction of the updated graph's edge count, incremental
    /// re-convergence falls back to a from-scratch
    /// [`crate::detect_communities`] run — a dense batch invalidates most of
    /// the carried state, so local re-optimization would cost full-sweep
    /// work for worse quality. Must be in [0, 1]; 1.0 disables the fallback.
    pub dynamic_fallback_fraction: f64,
    /// Component splitting (CLI: `--split-components`): label the weakly
    /// connected components first and run detection **per component**
    /// ([`crate::split`]), largest first, dispatching the small components
    /// across the resident pool as independent jobs. Modularity is still
    /// evaluated against the full graph's `2m` normalization, and the
    /// stitched labels are canonically renumbered, so on inputs whose
    /// components converge independently the result is identical to the
    /// unsplit run — and always bitwise stable across thread counts. A
    /// single-component graph falls through to the plain driver.
    pub split_components: bool,
    /// Components with at least this many vertices run one at a time with
    /// the full intra-run parallel pipeline; smaller components become
    /// pool-dispatched jobs whose inner regions execute inline on their
    /// worker ([`crate::split::SPLIT_SERIAL_THRESHOLD`] is the default).
    pub split_serial_threshold: usize,
    /// If set, run inside a dedicated rayon pool with this many threads;
    /// otherwise use the ambient pool.
    pub num_threads: Option<usize>,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        Self {
            parallel: true,
            use_vf: true,
            vf_rounds: 1,
            coloring: ColoringSchedule::MultiPhase,
            coloring_vertex_cutoff: 100_000,
            coloring_phase_gain_cutoff: 1e-2,
            balanced_coloring: false,
            sweep_mode: SweepMode::Full,
            refine: RefineMode::None,
            colored_threshold: 1e-2,
            final_threshold: 1e-6,
            schedule: ScheduleMode::Fixed,
            schedule_start: GEOMETRIC_START_EDGE_UNITS,
            schedule_factor: GEOMETRIC_FACTOR,
            schedule_floor: GEOMETRIC_FLOOR_EDGE_UNITS,
            vertex_epsilon: 0.0,
            max_phases: 64,
            max_iterations_per_phase: 10_000,
            rebuild: RebuildStrategy::StampAggregate,
            renumber: RenumberStrategy::Serial,
            resolution: 1.0,
            dynamic_fallback_fraction: DYNAMIC_FALLBACK_FRACTION,
            split_components: false,
            split_serial_threshold: crate::split::SPLIT_SERIAL_THRESHOLD,
            num_threads: None,
        }
    }
}

/// Geometric-schedule default: iteration-0 gate in **edge-weight units**
/// (multiples of `1/m`, the gain of moving a vertex along one unit-weight
/// edge). 4 ⇒ only moves worth ≳ 4 unit edges clear iteration 0.
pub const GEOMETRIC_START_EDGE_UNITS: f64 = 4.0;
/// Geometric-schedule default: per-iteration tightening multiplier.
pub const GEOMETRIC_FACTOR: f64 = 0.5;
/// Geometric-schedule default: floor gate in edge-weight units. 0.5 sits
/// below the single-unit-edge gain quantum, so at the floor only true
/// sub-edge noise stays suppressed.
pub const GEOMETRIC_FLOOR_EDGE_UNITS: f64 = 0.5;
/// Dynamic-update default: fall back to from-scratch detection once a batch
/// changes more than a quarter of the graph's edges.
pub const DYNAMIC_FALLBACK_FRACTION: f64 = 0.25;

impl LouvainConfig {
    /// Convenience: sets the thread count.
    pub fn with_threads(mut self, t: usize) -> Self {
        self.num_threads = Some(t);
        self
    }

    /// Selects the geometric schedule with the default edge-unit parameters
    /// scaled to a graph of total weight `m` (per-vertex gains live on the
    /// `1/m` scale): `start = 4/m`, `factor = 0.5`, `floor = 0.5/m`. `m ≤ 0`
    /// leaves the raw defaults in place (the degenerate-graph sweeps
    /// short-circuit before any gate is consulted).
    pub fn with_geometric_schedule(mut self, total_weight: f64) -> Self {
        self.schedule = ScheduleMode::Geometric;
        if total_weight > 0.0 {
            self.schedule_start = GEOMETRIC_START_EDGE_UNITS / total_weight;
            self.schedule_factor = GEOMETRIC_FACTOR;
            self.schedule_floor = GEOMETRIC_FLOOR_EDGE_UNITS / total_weight;
        }
        self
    }

    /// Resolves the config's schedule selection against one phase's
    /// aggregate threshold θ (`colored_threshold` or `final_threshold`) into
    /// the [`Convergence`] policy that phase's sweep runs under.
    pub fn convergence(&self, phase_threshold: f64) -> Convergence {
        let schedule = match self.schedule {
            ScheduleMode::Fixed => ThresholdSchedule::Fixed(phase_threshold),
            ScheduleMode::Geometric => ThresholdSchedule::Geometric {
                start: self.schedule_start,
                factor: self.schedule_factor,
                floor: self.schedule_floor,
            },
        };
        Convergence {
            schedule,
            vertex_epsilon: self.vertex_epsilon,
        }
    }

    /// Validates parameter sanity; returns the first problem found.
    // The negated comparisons are deliberate: `!(x > 0.0)` also rejects NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), String> {
        if !(self.final_threshold > 0.0) {
            return Err("final_threshold must be > 0".into());
        }
        if !(self.colored_threshold > 0.0) {
            return Err("colored_threshold must be > 0".into());
        }
        if self.max_phases == 0 || self.max_iterations_per_phase == 0 {
            return Err("max_phases and max_iterations_per_phase must be ≥ 1".into());
        }
        if !(self.resolution >= 0.0) {
            return Err("resolution must be ≥ 0".into());
        }
        if self.vf_rounds == 0 && self.use_vf {
            return Err("use_vf requires vf_rounds ≥ 1".into());
        }
        if !(self.dynamic_fallback_fraction >= 0.0 && self.dynamic_fallback_fraction <= 1.0) {
            return Err(format!(
                "dynamic_fallback_fraction must be in [0, 1], got {}",
                self.dynamic_fallback_fraction
            ));
        }
        if !(self.vertex_epsilon >= 0.0) {
            return Err(format!(
                "vertex_epsilon must be ≥ 0 (a per-vertex modularity-gain \
                 gate), got {}",
                self.vertex_epsilon
            ));
        }
        if self.schedule == ScheduleMode::Geometric {
            // Delegate the start/factor/floor sanity rules to the resolved
            // schedule so the error messages stay in one place.
            ThresholdSchedule::Geometric {
                start: self.schedule_start,
                factor: self.schedule_factor,
                floor: self.schedule_floor,
            }
            .validate()?;
        }
        Ok(())
    }
}

/// Within-phase schedule selection for the [`LouvainConfigBuilder`]. Unlike
/// the raw [`ScheduleMode`] + `schedule_*` fields, the geometric variant
/// carries the graph's total weight so the builder can derive the edge-unit
/// parameters itself — an unscaled geometric schedule is unconstructible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScheduleSpec {
    /// The paper's aggregate net-gain stop at the phase threshold.
    Fixed,
    /// Geometric per-vertex gate scaled to a graph of total weight `m`
    /// (`start = 4/m`, `factor = 0.5`, `floor = 0.5/m`). Build with
    /// [`geometric_for`].
    Geometric {
        /// The target graph's total edge weight (`CsrGraph::total_weight`).
        total_weight: f64,
    },
    /// Geometric gate with explicit parameters (already on the absolute
    /// modularity-gain scale, not edge units).
    GeometricRaw {
        /// Iteration-0 gate.
        start: f64,
        /// Per-iteration tightening multiplier in (0, 1).
        factor: f64,
        /// Tightest gate reached (> 0).
        floor: f64,
    },
}

/// The geometric schedule scaled for a graph of total weight `m` — sugar for
/// [`ScheduleSpec::Geometric`], reads well in builder chains:
/// `.schedule(geometric_for(g.total_weight()))`.
pub fn geometric_for(total_weight: f64) -> ScheduleSpec {
    ScheduleSpec::Geometric { total_weight }
}

/// Typed builder for [`LouvainConfig`]. Finishing with [`build`]
/// (`LouvainConfigBuilder::build`) runs [`LouvainConfig::validate`], so
/// invalid parameters (a negative γ, nonsensical schedule parameters) never
/// escape as constructed configs.
///
/// ```
/// use grappolo_core::{geometric_for, LouvainConfig, RefineMode, SweepMode};
/// let config = LouvainConfig::builder()
///     .sweep(SweepMode::Active)
///     .schedule(geometric_for(40_000.0))
///     .refine(RefineMode::Leiden)
///     .build()
///     .unwrap();
/// assert_eq!(config.refine, RefineMode::Leiden);
/// ```
#[derive(Clone, Debug)]
pub struct LouvainConfigBuilder {
    config: LouvainConfig,
}

impl LouvainConfigBuilder {
    /// Starts from an arbitrary base config (e.g. a [`Scheme`] preset).
    pub fn from_base(config: LouvainConfig) -> Self {
        Self { config }
    }

    /// Sweep mode (full vs dirty-vertex work lists).
    pub fn sweep(mut self, sweep: SweepMode) -> Self {
        self.config.sweep_mode = sweep;
        self
    }

    /// Within-phase threshold schedule.
    pub fn schedule(mut self, spec: ScheduleSpec) -> Self {
        match spec {
            ScheduleSpec::Fixed => self.config.schedule = ScheduleMode::Fixed,
            ScheduleSpec::Geometric { total_weight } => {
                self.config = self.config.with_geometric_schedule(total_weight);
            }
            ScheduleSpec::GeometricRaw {
                start,
                factor,
                floor,
            } => {
                self.config.schedule = ScheduleMode::Geometric;
                self.config.schedule_start = start;
                self.config.schedule_factor = factor;
                self.config.schedule_floor = floor;
            }
        }
        self
    }

    /// Refinement mode (Leiden-style split + crumb absorption vs none).
    pub fn refine(mut self, refine: RefineMode) -> Self {
        self.config.refine = refine;
        self
    }

    /// Colored-sweep accounting mode. Incremental accounting is the only
    /// mode, so this changes nothing.
    pub fn accounting(self, _accounting: ColoredAccounting) -> Self {
        self
    }

    /// Coloring schedule.
    pub fn coloring(mut self, coloring: ColoringSchedule) -> Self {
        self.config.coloring = coloring;
        self
    }

    /// Parallel vs serial sweep.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.config.parallel = parallel;
        self
    }

    /// Vertex-following preprocessing.
    pub fn vertex_following(mut self, use_vf: bool) -> Self {
        self.config.use_vf = use_vf;
        self
    }

    /// Resolution parameter γ.
    pub fn resolution(mut self, gamma: f64) -> Self {
        self.config.resolution = gamma;
        self
    }

    /// Per-vertex convergence epsilon.
    pub fn vertex_epsilon(mut self, eps: f64) -> Self {
        self.config.vertex_epsilon = eps;
        self
    }

    /// Dedicated-pool thread count (None = ambient pool).
    pub fn threads(mut self, t: Option<usize>) -> Self {
        self.config.num_threads = t;
        self
    }

    /// Dynamic-update fallback fraction (see
    /// [`LouvainConfig::dynamic_fallback_fraction`]).
    pub fn dynamic_fallback(mut self, fraction: f64) -> Self {
        self.config.dynamic_fallback_fraction = fraction;
        self
    }

    /// Component splitting (see [`LouvainConfig::split_components`]).
    pub fn split_components(mut self, split: bool) -> Self {
        self.config.split_components = split;
        self
    }

    /// Validates and returns the finished config.
    pub fn build(self) -> Result<LouvainConfig, String> {
        self.config.validate()?;
        Ok(self.config)
    }
}

impl LouvainConfig {
    /// Starts a [`LouvainConfigBuilder`] from the default config.
    pub fn builder() -> LouvainConfigBuilder {
        LouvainConfigBuilder::from_base(LouvainConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_configs_match_heuristic_sets() {
        assert!(!Scheme::Serial.config().parallel);
        let b = Scheme::Baseline.config();
        assert!(b.parallel && !b.use_vf && b.coloring == ColoringSchedule::Off);
        let v = Scheme::BaselineVf.config();
        assert!(v.parallel && v.use_vf && v.coloring == ColoringSchedule::Off);
        let c = Scheme::BaselineVfColor.config();
        assert!(c.parallel && c.use_vf && c.coloring == ColoringSchedule::MultiPhase);
    }

    #[test]
    fn default_sweep_mode_is_the_paper_trajectory() {
        // `Full` is the reference: every scheme config walks the paper's
        // full-sweep trajectory unless the caller opts into pruning.
        assert_eq!(LouvainConfig::default().sweep_mode, SweepMode::Full);
        for scheme in Scheme::ALL {
            assert_eq!(scheme.config().sweep_mode, SweepMode::Full, "{scheme:?}");
        }
    }

    #[test]
    fn default_thresholds_match_paper() {
        let c = LouvainConfig::default();
        assert_eq!(c.colored_threshold, 1e-2);
        assert_eq!(c.final_threshold, 1e-6);
        assert_eq!(c.coloring_vertex_cutoff, 100_000);
        assert_eq!(c.coloring_phase_gain_cutoff, 1e-2);
    }

    #[test]
    fn validation_catches_bad_params() {
        let c = LouvainConfig::default();
        assert!(c.validate().is_ok());
        let c1 = LouvainConfig {
            final_threshold: 0.0,
            ..Default::default()
        };
        assert!(c1.validate().is_err());
        let c2 = LouvainConfig {
            max_phases: 0,
            ..Default::default()
        };
        assert!(c2.validate().is_err());
        let c3 = LouvainConfig {
            resolution: -1.0,
            ..Default::default()
        };
        assert!(c3.validate().is_err());
        let mut c4 = LouvainConfig {
            use_vf: true,
            vf_rounds: 0,
            ..Default::default()
        };
        assert!(c4.validate().is_err());
        c4.vf_rounds = 1;
        assert!(c4.validate().is_ok());
    }

    #[test]
    fn validation_rejects_nonsensical_schedules() {
        // Growing or non-tightening factor.
        for factor in [1.0, 1.5, 0.0, -0.5, f64::NAN] {
            let c = LouvainConfig {
                schedule: ScheduleMode::Geometric,
                schedule_factor: factor,
                ..Default::default()
            };
            let err = c.validate().unwrap_err();
            assert!(err.contains("factor"), "factor={factor}: {err}");
        }
        // Floor above start (or non-positive).
        let c = LouvainConfig {
            schedule: ScheduleMode::Geometric,
            schedule_start: 1e-8,
            schedule_floor: 1e-4,
            ..Default::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("floor") && err.contains("start"), "{err}");
        let c0 = LouvainConfig {
            schedule: ScheduleMode::Geometric,
            schedule_floor: 0.0,
            ..Default::default()
        };
        assert!(c0.validate().unwrap_err().contains("floor"));
        // Negative (or NaN) per-vertex epsilon.
        for eps in [-1e-9, f64::NAN] {
            let c = LouvainConfig {
                vertex_epsilon: eps,
                ..Default::default()
            };
            let err = c.validate().unwrap_err();
            assert!(err.contains("vertex_epsilon"), "eps={eps}: {err}");
        }
        // The same parameters are fine under Fixed (they are simply unused).
        let fixed = LouvainConfig {
            schedule: ScheduleMode::Fixed,
            schedule_factor: 2.0,
            ..Default::default()
        };
        assert!(fixed.validate().is_ok());
    }

    #[test]
    fn geometric_helper_scales_to_graph_weight() {
        let c = LouvainConfig::default().with_geometric_schedule(2_000.0);
        assert_eq!(c.schedule, ScheduleMode::Geometric);
        assert_eq!(c.schedule_start, GEOMETRIC_START_EDGE_UNITS / 2_000.0);
        assert_eq!(c.schedule_floor, GEOMETRIC_FLOOR_EDGE_UNITS / 2_000.0);
        assert!(c.validate().is_ok());
        // Resolution: Fixed picks up the phase θ, Geometric its own params.
        let conv = c.convergence(1e-6);
        assert_eq!(
            conv.schedule,
            ThresholdSchedule::Geometric {
                start: c.schedule_start,
                factor: c.schedule_factor,
                floor: c.schedule_floor,
            }
        );
        let fixed_conv = LouvainConfig::default().convergence(1e-2);
        assert_eq!(fixed_conv, Convergence::fixed(1e-2));
    }

    #[test]
    fn builder_resolves_specs_and_validates() {
        let c = LouvainConfig::builder()
            .sweep(SweepMode::Active)
            .schedule(geometric_for(2_000.0))
            .refine(RefineMode::Leiden)
            .build()
            .unwrap();
        assert_eq!(c.sweep_mode, SweepMode::Active);
        assert_eq!(c.refine, RefineMode::Leiden);
        assert_eq!(c.schedule, ScheduleMode::Geometric);
        assert_eq!(c.schedule_start, GEOMETRIC_START_EDGE_UNITS / 2_000.0);
        // Invalid parameters never escape the builder.
        assert!(LouvainConfig::builder()
            .schedule(ScheduleSpec::GeometricRaw {
                start: 1e-4,
                factor: 1.5,
                floor: 1e-6,
            })
            .build()
            .is_err());
    }

    #[test]
    fn dynamic_fallback_fraction_is_validated() {
        for bad in [-0.1, 1.5, f64::NAN] {
            let c = LouvainConfig {
                dynamic_fallback_fraction: bad,
                ..Default::default()
            };
            let err = c.validate().unwrap_err();
            assert!(err.contains("dynamic_fallback_fraction"), "{bad}: {err}");
        }
        let c = LouvainConfig::builder()
            .dynamic_fallback(1.0)
            .build()
            .unwrap();
        assert_eq!(c.dynamic_fallback_fraction, 1.0);
        assert_eq!(
            LouvainConfig::default().dynamic_fallback_fraction,
            DYNAMIC_FALLBACK_FRACTION
        );
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::BaselineVfColor.name(), "baseline+VF+Color");
        assert_eq!(Scheme::ALL.len(), 4);
    }
}
