//! R-MAT recursive-matrix generator (Chakrabarti–Zhan–Faloutsos).
//!
//! Produces the heavy-tailed degree distributions of the paper's web/social
//! inputs (CNR, soc-LiveJournal1, uk-2002, friendster — degree RSD 2.5–17.4,
//! Table 1). Skew is controlled by the quadrant probabilities; `hub_boost`
//! optionally concentrates extra edges on vertex 0 to mimic friendster's
//! 8.6 M-degree monster hub.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`rmat`].
#[derive(Clone, Debug)]
pub struct RmatConfig {
    /// log2 of the vertex-id space; `n = 2^scale`.
    pub scale: u32,
    /// Number of (pre-merge) edges to sample.
    pub num_edges: usize,
    /// Quadrant probabilities; must sum to ~1. Classic skew: (.57,.19,.19,.05).
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// Fraction of additional edges attached to vertex 0 (hub amplification);
    /// 0.0 disables.
    pub hub_boost: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RmatConfig {
    fn default() -> Self {
        Self {
            scale: 14,
            num_edges: 131_072,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            hub_boost: 0.0,
            seed: 1,
        }
    }
}

impl RmatConfig {
    /// The largest `scale` [`rmat`] accepts: at most 2^30 vertices.
    pub const MAX_SCALE: u32 = 30;

    /// The implied `d = 1 - a - b - c`.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

/// Generates an R-MAT graph. Self-pairs are re-rolled, duplicate samples are
/// merged by the builder (weight = multiplicity, matching multigraph
/// collapse), and isolated ids may remain (real web crawls have them too).
///
/// # Panics
///
/// When `cfg.scale` is outside `1..=RmatConfig::MAX_SCALE` or a quadrant
/// probability is negative.
pub fn rmat(cfg: &RmatConfig) -> CsrGraph {
    assert!((1..=RmatConfig::MAX_SCALE).contains(&cfg.scale));
    assert!(cfg.a > 0.0 && cfg.b >= 0.0 && cfg.c >= 0.0 && cfg.d() >= 0.0);
    let n = 1usize << cfg.scale;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::with_capacity(cfg.num_edges);

    for _ in 0..cfg.num_edges {
        let (u, v) = sample_pair(cfg, &mut rng);
        edges.push((u, v, 1.0));
    }
    if cfg.hub_boost > 0.0 {
        let extra = (cfg.num_edges as f64 * cfg.hub_boost) as usize;
        for _ in 0..extra {
            let v = rng.gen_range(1..n) as VertexId;
            edges.push((0, v, 1.0));
        }
    }

    GraphBuilder::with_capacity(n, edges.len())
        .extend_edges(edges)
        .build()
        .expect("generator produces valid edges")
}

fn sample_pair(cfg: &RmatConfig, rng: &mut SmallRng) -> (VertexId, VertexId) {
    loop {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..cfg.scale {
            u <<= 1;
            v <<= 1;
            // Slightly perturb quadrant probabilities per level ("noise")
            // to avoid the staircase artifact of pure R-MAT.
            let jitter = 0.9 + 0.2 * rng.gen::<f64>();
            let a = cfg.a * jitter;
            let roll: f64 = rng.gen::<f64>() * (a + cfg.b + cfg.c + cfg.d());
            if roll < a {
                // upper-left: no bits set
            } else if roll < a + cfg.b {
                v |= 1;
            } else if roll < a + cfg.b + cfg.c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        if u != v {
            return (u, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn deterministic_for_seed() {
        let cfg = RmatConfig {
            scale: 10,
            num_edges: 5_000,
            ..Default::default()
        };
        let g1 = rmat(&cfg);
        let g2 = rmat(&cfg);
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(
            g1.neighbors(0).collect::<Vec<_>>(),
            g2.neighbors(0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn vertex_count_is_power_of_two() {
        let cfg = RmatConfig {
            scale: 8,
            num_edges: 1000,
            ..Default::default()
        };
        let g = rmat(&cfg);
        assert_eq!(g.num_vertices(), 256);
    }

    #[test]
    fn skewed_parameters_give_high_rsd() {
        let skewed = RmatConfig {
            scale: 12,
            num_edges: 40_000,
            ..Default::default()
        };
        let uniform = RmatConfig {
            a: 0.25,
            b: 0.25,
            c: 0.25,
            ..skewed.clone()
        };
        let rsd_skew = GraphStats::compute(&rmat(&skewed)).degree_rsd;
        let rsd_unif = GraphStats::compute(&rmat(&uniform)).degree_rsd;
        assert!(
            rsd_skew > 1.5 * rsd_unif,
            "skewed RSD {rsd_skew} should exceed uniform RSD {rsd_unif}"
        );
    }

    #[test]
    fn no_self_loops() {
        let cfg = RmatConfig {
            scale: 9,
            num_edges: 3000,
            ..Default::default()
        };
        let g = rmat(&cfg);
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(g.self_loop_weight(v), 0.0);
        }
    }

    #[test]
    fn hub_boost_creates_monster_vertex() {
        let base = RmatConfig {
            scale: 11,
            num_edges: 10_000,
            ..Default::default()
        };
        let boosted = RmatConfig {
            hub_boost: 1.0,
            ..base.clone()
        };
        let g0 = rmat(&base);
        let g1 = rmat(&boosted);
        assert!(g1.degree(0) > 2 * g0.degree(0));
        assert!(g1.degree(0) > g1.num_vertices() / 4);
    }

    #[test]
    fn duplicate_samples_merge_into_weights() {
        // Tiny id space + many samples forces duplicates; builder sums them.
        let cfg = RmatConfig {
            scale: 3,
            num_edges: 2_000,
            ..Default::default()
        };
        let g = rmat(&cfg);
        assert!(g.num_edges() <= 8 * 7 / 2);
        let heaviest = g
            .undirected_edges()
            .map(|(_, _, w)| w)
            .fold(0.0f64, f64::max);
        assert!(heaviest > 1.0, "expected merged multi-edges");
        assert!(g.validate().is_ok());
    }
}
