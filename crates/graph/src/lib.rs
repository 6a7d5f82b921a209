//! # grappolo-graph
//!
//! Weighted undirected graph substrate for the grappolo-rs reproduction of
//! *"Parallel heuristics for scalable community detection"* (Lu,
//! Halappanavar, Kalyanaraman; Parallel Computing 47, 2015 — extended from
//! IPDPS-W 2014).
//!
//! Provides:
//! * [`CsrGraph`] — compressed sparse row storage with the paper's §2
//!   conventions (symmetric adjacency, self-loops stored once, `k_i` counts
//!   self-loops once, `m = ½ Σ k_i`);
//! * [`GraphBuilder`] — parallel edge-list → CSR construction with
//!   multi-edge merging: one counting-sort pipeline for every input and
//!   thread count, bitwise equal to its sort-based oracle;
//! * [`shared`] — how parallel tasks write one array: every parallel write
//!   in the workspace goes through the work cutter and the carver, which
//!   hands each task its own `&mut` pieces;
//! * [`io`] — every file format the tools exchange: graphs (edge-list and
//!   METIS (DIMACS10) text, the `.grb` binary format), `vertex community`
//!   assignments, and `+`/`-`/`=` edge batches;
//! * [`gen`] — synthetic workload generators, including
//!   [`gen::paper_suite::PaperInput`] proxies for the paper's 11 inputs;
//! * [`stats`] — the Table 1 statistics (degree max/avg/RSD, single-degree
//!   counts);
//! * [`perm`] — vertex relabeling utilities.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod builder;
pub mod components;
pub mod csr;
pub mod delta;
pub mod gen;
pub mod io;
pub mod perm;
pub mod shared;
pub mod stats;

pub use builder::{from_unweighted_edges, from_weighted_edges, BuildError, GraphBuilder};
pub use components::{
    connected_components, extract_components, ComponentLabeling, ComponentSubgraph,
};
pub use csr::{CsrGraph, VertexId, WeightRangeError, DEFAULT_WEIGHT};
pub use delta::{DeltaError, EdgeChange, EdgeDelta, MergePolicy};
pub use io::parse_edge_batch;
pub use stats::GraphStats;
