//! # grappolo-core
//!
//! Serial and parallel Louvain community detection — the Rust reproduction
//! of *"Parallel heuristics for scalable community detection"* (Lu,
//! Halappanavar, Kalyanaraman; Parallel Computing 47, 2015; extended from
//! IPDPS-W 2014), whose C++/OpenMP release is known as **Grappolo**.
//!
//! The three parallelization heuristics:
//! * **Minimum labeling** (§5.1) — [`modularity::best_move`] breaks
//!   equal-gain ties toward the smallest community label, and
//!   [`phase::singlet_veto`] blocks singleton↔singleton swaps.
//! * **Vertex following** (§5.3) — [`vf`] merges single-degree vertices into
//!   their neighbor before the iterations (Lemma 3 guarantees optimality of
//!   the merge), with a recursive chain-compression extension.
//! * **Coloring** (§5.2) — [`PhaseDriver::run_colored`] processes
//!   distance-1 color classes so no two adjacent vertices decide
//!   concurrently.
//!
//! Beyond the paper, [`refine`] adds an optional Leiden-style refinement
//! pass ([`RefineMode::Leiden`]) that splits internally disconnected
//! communities and re-absorbs the sub-`1/m` "crumb" singletons the
//! geometric gate forfeits, before each rebuild. All phase variants run
//! through one entry point, [`PhaseDriver`]; configs are best built with
//! [`LouvainConfig::builder`].
//!
//! Quick start:
//!
//! ```
//! use grappolo_graph::gen::{ring_of_cliques, CliqueRingConfig};
//! use grappolo_core::{detect_with_scheme, Scheme};
//!
//! let (graph, _truth) = ring_of_cliques(&CliqueRingConfig::default());
//! let result = detect_with_scheme(&graph, Scheme::BaselineVfColor);
//! assert!(result.modularity > 0.7);
//! println!("{} communities, Q = {:.4}", result.num_communities, result.modularity);
//! ```

#![warn(missing_docs)]

pub mod active;
pub mod cancel;
pub mod config;
pub mod dendrogram;
pub mod driver;
pub mod dynamic;
pub mod history;
pub mod modularity;
pub mod parallel;
pub mod phase;
pub mod rebuild;
pub mod reference;
pub mod refine;
pub mod schedule;
pub mod serial;
pub mod split;
pub mod vf;

pub use active::ActiveSet;
pub use cancel::{CancelToken, Cancelled};
pub use config::{
    ColoredAccounting, ColoringSchedule, LouvainConfig, LouvainConfigBuilder, RebuildStrategy,
    RefineMode, RenumberStrategy, Scheme, SweepMode,
};
pub use dendrogram::{Dendrogram, DendrogramLevel};
pub use driver::{
    detect_communities, detect_communities_cancellable, detect_with_scheme, CommunityResult,
};
pub use dynamic::{
    update_communities, update_communities_cancellable, DynamicError, DynamicOutcome,
};
pub use history::{IterationRecord, PhaseRecord, PhaseTimings, RunTrace};
pub use modularity::{modularity, modularity_with_resolution, Community};
pub use phase::{IterationStats, PhaseDriver, PhaseOutcome};
pub use refine::{refine_phase, RefineStats};
pub use schedule::ScheduleSpec;
pub use vf::{vf_preprocess, vf_preprocess_recursive, VfResult};
