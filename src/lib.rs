//! # grappolo
//!
//! A from-scratch Rust reproduction of *"Parallel heuristics for scalable
//! community detection"* (Hao Lu, Mahantesh Halappanavar, Ananth
//! Kalyanaraman; IPDPS-W 2014, extended in Parallel Computing 47, 2015) —
//! the parallel Louvain method released by the authors as **Grappolo**.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`graph`] — weighted undirected CSR graphs, builders, generators
//!   (including proxies for the paper's 11 evaluation inputs), I/O, and
//!   statistics;
//! * [`coloring`] — parallel distance-1 coloring with balancing;
//! * [`core`] — the serial Louvain baseline and the parallel algorithm with
//!   the paper's minimum-label, vertex-following, and coloring heuristics;
//! * [`metrics`] — partition comparison (SP/SE/OQ/Rand/NMI) and the Fig. 10
//!   performance profiles.
//!
//! ## Quick start
//!
//! ```
//! use grappolo::prelude::*;
//!
//! // A synthetic social-style network with planted community structure.
//! let (graph, truth) = planted_partition(&PlantedConfig {
//!     num_vertices: 1_000,
//!     num_communities: 10,
//!     ..Default::default()
//! });
//!
//! // Run the paper's headline configuration (baseline + VF + Color).
//! let result = detect_with_scheme(&graph, Scheme::BaselineVfColor);
//!
//! println!(
//!     "found {} communities at Q = {:.4} in {} iterations",
//!     result.num_communities,
//!     result.modularity,
//!     result.trace.total_iterations(),
//! );
//! assert!(result.modularity > 0.5);
//!
//! // Compare against the planted ground truth.
//! let agreement = pairwise_comparison(&truth, &result.assignment);
//! assert!(agreement.rand_index() > 0.9);
//! # let _ = agreement;
//! ```

#![forbid(unsafe_code)]

pub use grappolo_coloring as coloring;
pub use grappolo_core as core;
pub use grappolo_graph as graph;
pub use grappolo_metrics as metrics;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::coloring::{
        balance_colors, color_greedy_serial, color_parallel, ColorBatches, ColoringStats,
        ParallelColoringConfig,
    };
    pub use crate::core::{
        detect_communities, detect_with_scheme, modularity, modularity_with_resolution,
        ColoringSchedule, CommunityResult, Dendrogram, LouvainConfig, LouvainConfigBuilder,
        PhaseDriver, PhaseOutcome, RefineMode, RefineStats, RunTrace, ScheduleSpec, Scheme,
        SweepMode,
    };
    pub use crate::graph::gen::paper_suite::{PaperInput, PaperReference};
    pub use crate::graph::gen::{
        erdos_renyi, grid2d, grid3d, hub_spoke, planted_partition, random_geometric,
        ring_of_cliques, rmat, road_network, web_graph, CliqueRingConfig, ErConfig, GridConfig,
        HubSpokeConfig, PlantedConfig, RggConfig, RmatConfig, RoadConfig, WebConfig,
    };
    pub use crate::graph::{
        from_unweighted_edges, from_weighted_edges, CsrGraph, GraphBuilder, GraphStats,
        MergePolicy, VertexId,
    };
    pub use crate::metrics::{
        connectivity_report, normalized_mutual_information, pairwise_comparison,
        ConnectivityReport, PairwiseMetrics, PerfProfile,
    };
}
