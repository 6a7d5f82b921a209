//! The inputs several benchmarks share, each defined once.
//!
//! [`cached_graph`] trusts its key blindly, so a key spelled out beside a
//! copy of its generator config serves the old graph as soon as one copy is
//! edited without the other. Here each key sits next to the one config it
//! names.

use crate::cached_graph;
use grappolo_coloring::{color_parallel, ColorBatches, ParallelColoringConfig};
use grappolo_graph::gen::{planted_partition, rmat, PlantedConfig, RmatConfig};
use grappolo_graph::CsrGraph;

/// The ~1.15 M-edge RMAT graph (scale 18, 1.2 M sampled edges, seed 1): the
/// acceptance-bar input of the build, sweep, active, refine, scaling,
/// coloring, components and dynamic benches.
pub fn rmat1150k() -> CsrGraph {
    cached_graph("rmat_s18_m1200k_seed1", || {
        rmat(&RmatConfig {
            scale: 18,
            num_edges: 1_200_000,
            seed: 1,
            ..Default::default()
        })
    })
}

/// A planted partition of `n` vertices into `n / 100` communities.
pub fn planted(n: usize) -> CsrGraph {
    cached_graph(&format!("sweep_planted_{n}"), || {
        planted_partition(&PlantedConfig {
            num_vertices: n,
            num_communities: n / 100,
            ..Default::default()
        })
        .0
    })
}

/// `g`'s default parallel coloring, grouped into the batches a colored sweep
/// takes. Benches color outside the timed region.
pub fn color_batches(g: &CsrGraph) -> ColorBatches {
    ColorBatches::from_coloring(&color_parallel(g, &ParallelColoringConfig::default()))
}
