//! Regular 2-D / 3-D grid (mesh) generators with optional noise edges.
//!
//! Proxies for Channel (3-D channel-flow mesh: degree RSD 0.061, weak
//! communities, Q ≈ 0.93 only after many iterations) and NLPKKT240 (KKT
//! mesh, the paper's *worst* community structure: first-phase modularity
//! 0.038). Meshes exercise the "uniform degree + poor community structure →
//! many iterations" regime of §6.2.1. `noise_fraction` rewires a share of
//! edges to random endpoints, degrading community structure further
//! (NLPKKT-style).

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`grid2d`] / [`grid3d`].
#[derive(Clone, Debug)]
pub struct GridConfig {
    /// Side length; 2-D grids have `side²` vertices, 3-D `side³`.
    pub side: usize,
    /// Wrap edges around (torus) so every vertex has identical degree.
    pub periodic: bool,
    /// Fraction of mesh edges replaced by uniformly random edges (0 to 1).
    pub noise_fraction: f64,
    /// RNG seed (only used when `noise_fraction > 0`).
    pub seed: u64,
}

impl Default for GridConfig {
    fn default() -> Self {
        Self {
            side: 32,
            periodic: false,
            noise_fraction: 0.0,
            seed: 1,
        }
    }
}

/// Generates a 2-D grid graph.
pub fn grid2d(cfg: &GridConfig) -> CsrGraph {
    let s = cfg.side;
    assert!(s >= 2);
    let n = s * s;
    let id = |x: usize, y: usize| (y * s + x) as VertexId;
    let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::with_capacity(2 * n);
    for y in 0..s {
        for x in 0..s {
            if x + 1 < s {
                edges.push((id(x, y), id(x + 1, y), 1.0));
            } else if cfg.periodic && s > 2 {
                edges.push((id(x, y), id(0, y), 1.0));
            }
            if y + 1 < s {
                edges.push((id(x, y), id(x, y + 1), 1.0));
            } else if cfg.periodic && s > 2 {
                edges.push((id(x, y), id(x, 0), 1.0));
            }
        }
    }
    finish(n, edges, cfg)
}

/// Generates a 3-D grid graph.
pub fn grid3d(cfg: &GridConfig) -> CsrGraph {
    let s = cfg.side;
    assert!(s >= 2);
    let n = s * s * s;
    let id = |x: usize, y: usize, z: usize| ((z * s + y) * s + x) as VertexId;
    let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::with_capacity(3 * n);
    for z in 0..s {
        for y in 0..s {
            for x in 0..s {
                if x + 1 < s {
                    edges.push((id(x, y, z), id(x + 1, y, z), 1.0));
                } else if cfg.periodic && s > 2 {
                    edges.push((id(x, y, z), id(0, y, z), 1.0));
                }
                if y + 1 < s {
                    edges.push((id(x, y, z), id(x, y + 1, z), 1.0));
                } else if cfg.periodic && s > 2 {
                    edges.push((id(x, y, z), id(x, 0, z), 1.0));
                }
                if z + 1 < s {
                    edges.push((id(x, y, z), id(x, y, z + 1), 1.0));
                } else if cfg.periodic && s > 2 {
                    edges.push((id(x, y, z), id(x, y, 0), 1.0));
                }
            }
        }
    }
    finish(n, edges, cfg)
}

fn finish(n: usize, mut edges: Vec<(VertexId, VertexId, f64)>, cfg: &GridConfig) -> CsrGraph {
    if cfg.noise_fraction > 0.0 {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let rewire = (edges.len() as f64 * cfg.noise_fraction.clamp(0.0, 1.0)) as usize;
        for k in 0..rewire {
            // Rewire every (len/rewire)-th edge to a random pair.
            let idx = k * edges.len() / rewire.max(1);
            let u = rng.gen_range(0..n) as VertexId;
            let mut v = rng.gen_range(0..n) as VertexId;
            while v == u {
                v = rng.gen_range(0..n) as VertexId;
            }
            edges[idx] = (u, v, 1.0);
        }
    }
    GraphBuilder::with_capacity(n, edges.len())
        .extend_edges(edges)
        .build()
        .expect("generator produces valid edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{components::connected_components, stats::GraphStats};

    #[test]
    fn grid2d_counts() {
        let g = grid2d(&GridConfig {
            side: 4,
            ..Default::default()
        });
        assert_eq!(g.num_vertices(), 16);
        assert_eq!(g.num_edges(), 2 * 4 * 3); // 2 directions × side × (side-1)
        assert_eq!(connected_components(&g).num_components(), 1);
    }

    #[test]
    fn grid3d_counts() {
        let g = grid3d(&GridConfig {
            side: 3,
            ..Default::default()
        });
        assert_eq!(g.num_vertices(), 27);
        assert_eq!(g.num_edges(), 3 * 9 * 2);
        assert_eq!(connected_components(&g).num_components(), 1);
    }

    #[test]
    fn periodic_grid_has_uniform_degree() {
        let g = grid2d(&GridConfig {
            side: 5,
            periodic: true,
            ..Default::default()
        });
        let s = GraphStats::compute(&g);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.degree_rsd, 0.0);
    }

    #[test]
    fn periodic_3d_uniform_degree_six() {
        let g = grid3d(&GridConfig {
            side: 4,
            periodic: true,
            ..Default::default()
        });
        let s = GraphStats::compute(&g);
        assert_eq!(s.max_degree, 6);
        assert_eq!(s.degree_rsd, 0.0);
    }

    #[test]
    fn corner_degree_nonperiodic() {
        let g = grid2d(&GridConfig {
            side: 3,
            ..Default::default()
        });
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(4), 4); // center
    }

    #[test]
    fn noise_rewires_but_preserves_count_roughly() {
        let clean = grid3d(&GridConfig {
            side: 6,
            ..Default::default()
        });
        let noisy = grid3d(&GridConfig {
            side: 6,
            noise_fraction: 0.3,
            ..Default::default()
        });
        // Merges of coincidental duplicates may shave a few edges.
        assert!(noisy.num_edges() <= clean.num_edges());
        assert!(noisy.num_edges() > clean.num_edges() * 9 / 10);
        // Noise must actually change the structure.
        assert_ne!(
            (0..36).map(|v| noisy.degree(v)).collect::<Vec<_>>(),
            (0..36).map(|v| clean.degree(v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn noise_is_deterministic() {
        let cfg = GridConfig {
            side: 5,
            noise_fraction: 0.2,
            seed: 9,
            ..Default::default()
        };
        let a = grid2d(&cfg);
        let b = grid2d(&cfg);
        assert_eq!(
            a.adjacency_entries().collect::<Vec<_>>(),
            b.adjacency_entries().collect::<Vec<_>>()
        );
    }
}
