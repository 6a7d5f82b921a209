//! Algorithm configuration: which heuristics run, thresholds, and schedules.
//!
//! Defaults mirror the paper's experimental setup (§6.1): colored phases use
//! a net-modularity-gain threshold of 1e-2, the remaining phases 1e-6, and
//! coloring stops once the graph shrinks below 100 K vertices or the phase
//! gain drops below the colored threshold.

use crate::schedule::ScheduleSpec;

/// Which combination of the paper's heuristics to run — the four schemes of
/// the evaluation section.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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

    /// `base` with this scheme's heuristic set: parallel or serial sweeps,
    /// vertex following and the coloring schedule. Every other field of
    /// `base` is kept.
    pub fn apply(&self, base: LouvainConfig) -> LouvainConfig {
        let (parallel, use_vf, coloring) = match self {
            Scheme::Serial => (false, false, ColoringSchedule::Off),
            Scheme::Baseline => (true, false, ColoringSchedule::Off),
            Scheme::BaselineVf => (true, true, ColoringSchedule::Off),
            Scheme::BaselineVfColor => (true, true, ColoringSchedule::MultiPhase),
        };
        LouvainConfig {
            parallel,
            use_vf,
            coloring,
            ..base
        }
    }

    /// Builds the matching [`LouvainConfig`].
    pub fn config(&self) -> LouvainConfig {
        self.apply(LouvainConfig::default())
    }
}

/// When the coloring preprocessing is applied (§6.3 compares the first two).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColoredAccounting {
    /// Carry `Σ e_in` / `Σ a_C²` incrementally across color-batch barriers
    /// (O(#moves) per iteration, bitwise deterministic). The O(m) rescan
    /// survives as a `debug_assert` cross-check and as the test oracle
    /// [`crate::reference::parallel_phase_colored_rescan`].
    Incremental,
}

/// Which vertices a sweep iteration re-examines (PR 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SweepMode {
    /// Every iteration scans all `n` vertices and gathers all `m` adjacency
    /// entries — the paper's scheme, and the decision-trajectory reference
    /// (default).
    Full,
    /// Iteration `k` re-examines only the **active** vertices: those that
    /// moved in iteration `k−1` or had a neighbor move
    /// ([`crate::active::ActiveSet`], rebuilt deterministically from the
    /// committed move list). Pruning is deferred — iterations walk the
    /// saturated frontier (bitwise identical to `Full`) until the move
    /// count first drops to the [`crate::active::ActiveSet::engages`]
    /// bound, then become activity-proportional: late iterations where <1%
    /// of vertices move cost O(activity) instead of O(m), while staying bitwise
    /// deterministic across thread counts. Final quality matches `Full`
    /// within the paper's tolerance (property-tested).
    Active,
}

/// Whether a Leiden-style refinement pass runs between local-moving and the
/// inter-phase rebuild ([`crate::refine`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RenumberStrategy {
    /// Serial scan — what the paper ships ("currently implemented in
    /// serial").
    Serial,
}

/// Full algorithm configuration.
#[derive(Clone, Debug)]
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
    /// Within-phase threshold schedule ([`ScheduleSpec::Fixed`] = the
    /// paper's aggregate stop at the phase θ; [`ScheduleSpec::Geometric`] =
    /// a per-vertex gain gate derived from the phase graph's total weight
    /// `m`, tightening from `4/m` by `0.5` per iteration down to `0.5/m`,
    /// with phase termination reworked to "frontier empty at the floor" —
    /// see [`crate::schedule`]).
    pub schedule: ScheduleSpec,
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
    /// If set, run inside the resident rayon pool of this many threads;
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
            schedule: ScheduleSpec::Fixed,
            vertex_epsilon: 0.0,
            max_phases: 64,
            max_iterations_per_phase: 10_000,
            rebuild: RebuildStrategy::StampAggregate,
            renumber: RenumberStrategy::Serial,
            resolution: 1.0,
            dynamic_fallback_fraction: DYNAMIC_FALLBACK_FRACTION,
            split_components: false,
            num_threads: None,
        }
    }
}

/// Geometric schedule: iteration-0 gate in **edge-weight units**
/// (multiples of `1/m`, the gain of moving a vertex along one unit-weight
/// edge). 4 ⇒ only moves worth ≳ 4 unit edges clear iteration 0.
pub const GEOMETRIC_START_EDGE_UNITS: f64 = 4.0;
/// Geometric schedule: per-iteration tightening multiplier.
pub const GEOMETRIC_FACTOR: f64 = 0.5;
/// Geometric schedule: floor gate in edge-weight units. 0.5 sits below the
/// single-unit-edge gain quantum, so at the floor only true sub-edge noise
/// stays suppressed.
pub const GEOMETRIC_FLOOR_EDGE_UNITS: f64 = 0.5;
/// Dynamic-update default: fall back to from-scratch detection once a batch
/// changes more than a quarter of the graph's edges.
pub const DYNAMIC_FALLBACK_FRACTION: f64 = 0.25;

impl LouvainConfig {
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
        if !(self.resolution >= 0.0 && self.resolution.is_finite()) {
            return Err(format!(
                "resolution must be finite and ≥ 0, got {}",
                self.resolution
            ));
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
        Ok(())
    }
}

/// Typed builder for [`LouvainConfig`]. Finishing with
/// [`build`](LouvainConfigBuilder::build) runs [`LouvainConfig::validate`], so
/// invalid parameters (a negative γ, a negative vertex epsilon) never
/// escape as constructed configs.
///
/// ```
/// use grappolo_core::{LouvainConfig, RefineMode, ScheduleSpec, SweepMode};
/// let config = LouvainConfig::builder()
///     .sweep(SweepMode::Active)
///     .schedule(ScheduleSpec::Geometric)
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
        self.config.schedule = spec;
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
        // A scheme sets its heuristics and keeps every other field.
        let base = LouvainConfig {
            resolution: 2.0,
            sweep_mode: SweepMode::Active,
            ..Scheme::Serial.config()
        };
        let c = Scheme::BaselineVfColor.apply(base);
        assert!(c.parallel && c.use_vf && c.coloring == ColoringSchedule::MultiPhase);
        assert_eq!((c.resolution, c.sweep_mode), (2.0, SweepMode::Active));
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
        for resolution in [-1.0, f64::NAN, f64::INFINITY] {
            let c3 = LouvainConfig {
                resolution,
                ..Default::default()
            };
            let err = c3.validate().unwrap_err();
            assert!(err.contains("resolution"), "γ={resolution}: {err}");
        }
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
        // The geometric gate's parameters are derived from the graph, so the
        // per-vertex epsilon is the one schedule parameter a config carries:
        // negative (or NaN) is rejected.
        for eps in [-1e-9, f64::NAN] {
            let c = LouvainConfig {
                vertex_epsilon: eps,
                ..Default::default()
            };
            let err = c.validate().unwrap_err();
            assert!(err.contains("vertex_epsilon"), "eps={eps}: {err}");
        }
    }

    #[test]
    fn geometric_helper_scales_to_graph_weight() {
        // The phase driver derives the geometric gate from the phase graph's
        // total weight m — 4/m at iteration 0, halving down to 0.5/m — and a
        // graph carrying an overridden m (a VF'd or rebuilt phase graph, a
        // split component) gates on that m.
        use crate::phase::PhaseDriver;
        use grappolo_graph::gen::{ring_of_cliques, CliqueRingConfig};
        let (g, _) = ring_of_cliques(&CliqueRingConfig::default());
        let geometric = LouvainConfig {
            schedule: ScheduleSpec::Geometric,
            ..Default::default()
        };
        let driver = PhaseDriver::from_config(&geometric, 1e-6);
        for m in [g.total_weight(), 2_000.0] {
            let out = driver.run(&g.clone().with_total_weight_override(m));
            assert_eq!(out.stats[0].gate, GEOMETRIC_START_EDGE_UNITS / m);
            assert_eq!(
                out.stats[1].gate,
                GEOMETRIC_START_EDGE_UNITS * GEOMETRIC_FACTOR / m
            );
            assert!(out
                .stats
                .iter()
                .all(|s| s.gate >= GEOMETRIC_FLOOR_EDGE_UNITS / m));
        }
        // Fixed gates on the vertex epsilon alone (0 = ungated).
        let fixed = PhaseDriver::from_config(&LouvainConfig::default(), 1e-6).run(&g);
        assert!(fixed.stats.iter().all(|s| s.gate == 0.0));
    }

    #[test]
    fn builder_resolves_specs_and_validates() {
        let c = LouvainConfig::builder()
            .sweep(SweepMode::Active)
            .schedule(ScheduleSpec::Geometric)
            .refine(RefineMode::Leiden)
            .build()
            .unwrap();
        assert_eq!(c.sweep_mode, SweepMode::Active);
        assert_eq!(c.refine, RefineMode::Leiden);
        assert_eq!(c.schedule, ScheduleSpec::Geometric);
        // Invalid parameters never escape the builder.
        assert!(LouvainConfig::builder()
            .vertex_epsilon(-1.0)
            .build()
            .is_err());
        assert!(LouvainConfig::builder()
            .resolution(f64::NAN)
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
        let c = LouvainConfig {
            dynamic_fallback_fraction: 1.0,
            ..Default::default()
        };
        assert!(c.validate().is_ok());
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
