//! Road-network-like generator: a spatial spanning tree over random points
//! plus short local shortcut edges and dangling spurs.
//!
//! Proxy for Europe-osm (average degree 2.12, degree RSD 0.225, long chains,
//! a large single-degree-vertex population). This is the input family where
//! the paper found the VF heuristic could *prolong* convergence (§6.2,
//! "Effectiveness of the VF heuristic") — reproducing that regime requires
//! chains and spurs, which this generator creates explicitly.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`road_network`].
#[derive(Clone, Debug)]
pub struct RoadConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Fraction of vertices that become degree-1 spur endpoints hanging off
    /// the main network (Europe-osm-style dead ends).
    pub spur_fraction: f64,
    /// Extra local shortcut edges per vertex (beyond the spanning tree),
    /// connecting spatially nearby vertices. 0.12 gives avg degree ≈ 2.1.
    pub shortcut_per_vertex: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RoadConfig {
    fn default() -> Self {
        Self {
            num_vertices: 10_000,
            spur_fraction: 0.15,
            shortcut_per_vertex: 0.12,
            seed: 1,
        }
    }
}

/// Generates a road-network-like graph.
///
/// Construction: scatter points on a `k × k` virtual grid (`k ≈ √n`); build a
/// randomized spanning tree connecting each vertex to a previously placed
/// vertex in the same or an adjacent cell (keeping edges spatially short);
/// add local shortcuts; then re-point `spur_fraction` of leaf-candidates as
/// degree-1 spurs.
pub fn road_network(cfg: &RoadConfig) -> CsrGraph {
    let n = cfg.num_vertices;
    assert!(n >= 2);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    let num_spurs = ((n as f64) * cfg.spur_fraction.clamp(0.0, 0.9)) as usize;
    let core_n = n - num_spurs;
    assert!(core_n >= 2, "too many spurs for n={n}");

    // Points for core vertices in the unit square.
    let pts: Vec<(f64, f64)> = (0..core_n).map(|_| (rng.gen(), rng.gen())).collect();
    let k = ((core_n as f64).sqrt() as usize).max(1);
    let cell_of = |p: (f64, f64)| -> (usize, usize) {
        (
            ((p.0 * k as f64) as usize).min(k - 1),
            ((p.1 * k as f64) as usize).min(k - 1),
        )
    };
    let mut cells: Vec<Vec<VertexId>> = vec![Vec::new(); k * k];

    let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::with_capacity(n * 2);

    // Spanning connection: attach each new core vertex to a random already
    // placed vertex from its own or a neighboring cell (falling back to the
    // most recent vertex to guarantee connectivity).
    #[allow(clippy::needless_range_loop)] // `v` is a vertex id, not just an index
    for v in 0..core_n {
        let (cx, cy) = cell_of(pts[v]);
        if v > 0 {
            let mut candidates: Vec<VertexId> = Vec::new();
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    let nx = cx as isize + dx;
                    let ny = cy as isize + dy;
                    if nx >= 0 && ny >= 0 && (nx as usize) < k && (ny as usize) < k {
                        candidates.extend(&cells[ny as usize * k + nx as usize]);
                    }
                }
            }
            let target = if candidates.is_empty() {
                (v - 1) as VertexId
            } else {
                candidates[rng.gen_range(0..candidates.len())]
            };
            let w = 1.0 + rng.gen::<f64>(); // road lengths vary
            edges.push((v as VertexId, target, w));
        }
        cells[cy * k + cx].push(v as VertexId);
    }

    // Local shortcuts: connect random same-cell pairs.
    let num_shortcuts = ((core_n as f64) * cfg.shortcut_per_vertex) as usize;
    for _ in 0..num_shortcuts {
        let c = rng.gen_range(0..cells.len());
        let cell = &cells[c];
        if cell.len() >= 2 {
            let a = cell[rng.gen_range(0..cell.len())];
            let b = cell[rng.gen_range(0..cell.len())];
            if a != b {
                edges.push((a, b, 1.0 + rng.gen::<f64>()));
            }
        }
    }

    // Spurs: vertices core_n..n each hang off one random core vertex.
    for s in core_n..n {
        let anchor = rng.gen_range(0..core_n) as VertexId;
        edges.push((s as VertexId, anchor, 1.0 + rng.gen::<f64>()));
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
    fn deterministic_for_seed() {
        let cfg = RoadConfig {
            num_vertices: 3000,
            ..Default::default()
        };
        let g1 = road_network(&cfg);
        let g2 = road_network(&cfg);
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(
            g1.neighbors(100).collect::<Vec<_>>(),
            g2.neighbors(100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn connected() {
        let g = road_network(&RoadConfig {
            num_vertices: 5000,
            ..Default::default()
        });
        assert_eq!(connected_components(&g).num_components(), 1);
    }

    #[test]
    fn average_degree_is_road_like() {
        let g = road_network(&RoadConfig {
            num_vertices: 20_000,
            ..Default::default()
        });
        let s = GraphStats::compute(&g);
        assert!(
            s.avg_degree > 1.8 && s.avg_degree < 2.8,
            "avg degree {} should be ≈2.1 (Europe-osm regime)",
            s.avg_degree
        );
    }

    #[test]
    fn has_many_single_degree_vertices() {
        let g = road_network(&RoadConfig {
            num_vertices: 20_000,
            ..Default::default()
        });
        let s = GraphStats::compute(&g);
        // Spur fraction 0.15 plus natural tree leaves.
        assert!(
            s.num_single_degree as f64 > 0.10 * s.num_vertices as f64,
            "expected ≥10% single-degree vertices, got {}",
            s.num_single_degree
        );
    }

    #[test]
    fn degree_rsd_is_low() {
        let g = road_network(&RoadConfig {
            num_vertices: 20_000,
            ..Default::default()
        });
        let s = GraphStats::compute(&g);
        assert!(
            s.degree_rsd < 1.0,
            "road RSD {} should be low",
            s.degree_rsd
        );
    }

    #[test]
    fn spur_fraction_zero_still_builds() {
        let g = road_network(&RoadConfig {
            num_vertices: 1000,
            spur_fraction: 0.0,
            ..Default::default()
        });
        assert_eq!(g.num_vertices(), 1000);
        assert_eq!(connected_components(&g).num_components(), 1);
    }
}
