//! Random geometric graph in the unit square.
//!
//! Proxy for Rgg_n_2_24_s0: uniform degree distribution (RSD 0.25) *and*
//! strong community structure (paper Table 2: Q ≈ 0.99) — the combination
//! §6.2.1 highlights as favorable for parallel scaling. Vertices are points;
//! edges connect pairs within Euclidean distance `radius`, found via a
//! uniform grid spatial index (cell size = radius) so generation is
//! O(n + edges) expected rather than O(n²).

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Configuration for [`random_geometric`].
#[derive(Clone, Debug)]
pub struct RggConfig {
    /// Number of points/vertices.
    pub num_vertices: usize,
    /// Connection radius. The classic connectivity threshold is
    /// `sqrt(ln n / (π n))`; the DIMACS rgg inputs use ~1.5× that, giving
    /// average degree ≈ 15.8.
    pub radius: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RggConfig {
    fn default() -> Self {
        Self {
            num_vertices: 10_000,
            radius: 0.0,
            seed: 1,
        }
    }
}

impl RggConfig {
    /// Radius giving an expected average degree of `d`: solves
    /// `n π r² = d` for `r` (ignoring boundary effects).
    pub fn radius_for_avg_degree(n: usize, d: f64) -> f64 {
        (d / (std::f64::consts::PI * n as f64)).sqrt()
    }

    /// Resolved radius: explicit if set, else the avg-degree-15.8 default
    /// matching the DIMACS rgg family.
    pub fn effective_radius(&self) -> f64 {
        if self.radius > 0.0 {
            self.radius
        } else {
            Self::radius_for_avg_degree(self.num_vertices, 15.8)
        }
    }
}

/// Generates a random geometric graph.
pub fn random_geometric(cfg: &RggConfig) -> CsrGraph {
    let n = cfg.num_vertices;
    assert!(n > 0);
    let r = cfg.effective_radius();
    assert!(r > 0.0 && r < 1.0, "radius {r} out of (0,1)");
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let points: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();

    // Spatial hash: grid of cell size r; each point only compares against
    // its own and 4 forward-neighboring cells to emit each pair once.
    let cells_per_side = ((1.0 / r).floor() as usize).max(1);
    let cell_of = |p: (f64, f64)| -> (usize, usize) {
        let cx = ((p.0 * cells_per_side as f64) as usize).min(cells_per_side - 1);
        let cy = ((p.1 * cells_per_side as f64) as usize).min(cells_per_side - 1);
        (cx, cy)
    };
    let mut grid: Vec<Vec<VertexId>> = vec![Vec::new(); cells_per_side * cells_per_side];
    for (i, &p) in points.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        grid[cy * cells_per_side + cx].push(i as VertexId);
    }

    let r2 = r * r;
    // Forward neighborhood (self, E, N, NE, NW) covers each cell pair once.
    const FORWARD: [(isize, isize); 5] = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)];
    // One edge `Vec` per row of cells, joined in row order, which is cell
    // order: one `Vec` per cell raised `generate rgg --scale 4`'s peak RSS
    // from 95 to 142 MB.
    let edges: Vec<(VertexId, VertexId, f64)> = (0..cells_per_side)
        .into_par_iter()
        .with_min_len(1)
        .map(|cy| {
            let mut out = Vec::new();
            for cx in 0..cells_per_side {
                let cell = cy * cells_per_side + cx;
                for &(dx, dy) in &FORWARD {
                    let nx = cx as isize + dx;
                    let ny = cy as isize + dy;
                    if nx < 0
                        || ny < 0
                        || nx >= cells_per_side as isize
                        || ny >= cells_per_side as isize
                    {
                        continue;
                    }
                    let other = (ny as usize) * cells_per_side + nx as usize;
                    let a = &grid[cell];
                    let b = &grid[other];
                    if cell == other {
                        for i in 0..a.len() {
                            for j in i + 1..a.len() {
                                let (u, v) = (a[i], a[j]);
                                if dist2(points[u as usize], points[v as usize]) <= r2 {
                                    out.push((u, v, 1.0));
                                }
                            }
                        }
                    } else {
                        for &u in a {
                            for &v in b {
                                if dist2(points[u as usize], points[v as usize]) <= r2 {
                                    out.push((u, v, 1.0));
                                }
                            }
                        }
                    }
                }
            }
            out
        })
        .collect::<Vec<Vec<_>>>()
        .concat();

    GraphBuilder::with_capacity(n, edges.len())
        .extend_edges(edges)
        .build()
        .expect("generator produces valid edges")
}

#[inline]
fn dist2(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dx = a.0 - b.0;
    let dy = a.1 - b.1;
    dx * dx + dy * dy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn deterministic_for_seed() {
        let cfg = RggConfig {
            num_vertices: 2000,
            ..Default::default()
        };
        let g1 = random_geometric(&cfg);
        let g2 = random_geometric(&cfg);
        assert_eq!(g1.num_edges(), g2.num_edges());
    }

    #[test]
    fn avg_degree_near_target() {
        let cfg = RggConfig {
            num_vertices: 20_000,
            ..Default::default()
        };
        let g = random_geometric(&cfg);
        let s = GraphStats::compute(&g);
        assert!(
            (s.avg_degree - 15.8).abs() < 3.0,
            "avg degree {} should be near 15.8",
            s.avg_degree
        );
    }

    #[test]
    fn degree_rsd_is_low() {
        // The rgg family is near-uniform in degree (paper Table 1: RSD .251).
        let cfg = RggConfig {
            num_vertices: 20_000,
            ..Default::default()
        };
        let g = random_geometric(&cfg);
        let s = GraphStats::compute(&g);
        assert!(
            s.degree_rsd < 0.5,
            "rgg degree RSD {} should be low",
            s.degree_rsd
        );
    }

    #[test]
    fn grid_index_matches_brute_force() {
        // Exactness of the spatial index: compare against all-pairs.
        let cfg = RggConfig {
            num_vertices: 300,
            radius: 0.08,
            seed: 5,
        };
        let g = random_geometric(&cfg);
        let mut rng = SmallRng::seed_from_u64(5);
        let pts: Vec<(f64, f64)> = (0..300).map(|_| (rng.gen(), rng.gen())).collect();
        let mut brute = 0usize;
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                if dist2(pts[i], pts[j]) <= cfg.radius * cfg.radius {
                    brute += 1;
                }
            }
        }
        assert_eq!(g.num_edges(), brute);
    }

    #[test]
    fn radius_formula() {
        let r = RggConfig::radius_for_avg_degree(10_000, 15.8);
        let implied = 10_000.0 * std::f64::consts::PI * r * r;
        assert!((implied - 15.8).abs() < 1e-9);
    }

    #[test]
    fn no_self_loops() {
        let cfg = RggConfig {
            num_vertices: 1000,
            ..Default::default()
        };
        let g = random_geometric(&cfg);
        for v in 0..g.num_vertices() as VertexId {
            assert!(!g.has_edge(v, v));
        }
    }
}
