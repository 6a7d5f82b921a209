//! Synthetic graph generators.
//!
//! These stand in for the paper's 11 real-world inputs (Table 1), which we
//! cannot redistribute; each generator targets one structural *regime* the
//! evaluation depends on — degree skew (RSD), community strength, fraction of
//! single-degree vertices, mesh-like uniformity. Each
//! [`paper_suite::PaperInput`] names the generator that stands in for one
//! input and that input's Table 1 targets. All generators are deterministic
//! for a fixed seed.

mod cliques;
mod er;
mod grid;
mod planted;
mod rgg;
mod rmat;
mod road;
mod web;

pub mod paper_suite;

pub use cliques::{hub_spoke, ring_of_cliques, CliqueRingConfig, HubSpokeConfig};
pub use er::{erdos_renyi, ErConfig};
pub use grid::{grid2d, grid3d, GridConfig};
pub use planted::{planted_blocks, planted_partition, PlantedConfig};
pub use rgg::{random_geometric, RggConfig};
pub use rmat::{rmat, RmatConfig};
pub use road::{road_network, RoadConfig};
pub use web::{web_graph, WebConfig};
