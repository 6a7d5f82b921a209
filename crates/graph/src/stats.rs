//! Graph statistics matching the columns of the paper's Table 1:
//! number of vertices, number of edges, and max / average / RSD of the
//! (unweighted) vertex degree. "RSD represents the relative standard
//! deviation of vertex degrees … the ratio between the standard deviation of
//! the degree and its mean."

use crate::csr::{CsrGraph, VertexId};
use rayon::prelude::*;

/// Summary statistics for one graph (one row of Table 1).
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices `n`.
    pub num_vertices: usize,
    /// Number of distinct undirected edges `M`.
    pub num_edges: usize,
    /// Maximum unweighted degree.
    pub max_degree: usize,
    /// Mean unweighted degree.
    pub avg_degree: f64,
    /// Relative standard deviation of the degree (σ / mean).
    pub degree_rsd: f64,
    /// Total edge weight `m`.
    pub total_weight: f64,
    /// Number of single-degree vertices (exactly one incident non-loop edge
    /// and no self-loop) — the vertices the VF heuristic removes (§5.3).
    pub num_single_degree: usize,
    /// Number of isolated vertices (degree 0).
    pub num_isolated: usize,
}

impl GraphStats {
    /// Computes statistics for `g` (parallel over vertices).
    pub fn compute(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        if n == 0 {
            return Self {
                num_vertices: 0,
                num_edges: 0,
                max_degree: 0,
                avg_degree: 0.0,
                degree_rsd: 0.0,
                total_weight: 0.0,
                num_single_degree: 0,
                num_isolated: 0,
            };
        }
        // Single pass folding (sum, sum of squares, max, singles, isolated).
        let (sum, sum_sq, max, singles, isolated) = (0..n as VertexId)
            .into_par_iter()
            .fold(
                || (0u64, 0u128, 0usize, 0usize, 0usize),
                |(s, sq, mx, single, iso), v| {
                    let d = g.degree(v);
                    let is_single = is_single_degree(g, v) as usize;
                    (
                        s + d as u64,
                        sq + (d as u128) * (d as u128),
                        mx.max(d),
                        single + is_single,
                        iso + (d == 0) as usize,
                    )
                },
            )
            .reduce(
                || (0u64, 0u128, 0usize, 0usize, 0usize),
                |a, b| (a.0 + b.0, a.1 + b.1, a.2.max(b.2), a.3 + b.3, a.4 + b.4),
            );

        let mean = sum as f64 / n as f64;
        let var = (sum_sq as f64 / n as f64) - mean * mean;
        let sd = var.max(0.0).sqrt();
        Self {
            num_vertices: n,
            num_edges: g.num_edges(),
            max_degree: max,
            avg_degree: mean,
            degree_rsd: if mean > 0.0 { sd / mean } else { 0.0 },
            total_weight: g.total_weight(),
            num_single_degree: singles,
            num_isolated: isolated,
        }
    }
}

/// True if `v` is a *single degree* vertex in the paper's §5.3 sense: its only
/// incident edge is one non-loop edge `(v, j)`.
///
/// (A *single neighbor* vertex may additionally carry a self-loop; that case
/// is handled by the recursive chain-compression extension, not here.)
pub fn is_single_degree(g: &CsrGraph, v: VertexId) -> bool {
    g.degree(v) == 1 && g.neighbor_ids(v)[0] != v
}

/// Relative standard deviation of an arbitrary set of sizes (used for the
/// color-class-size RSD the paper reports for uk-2002, §6.2).
pub fn relative_std_dev(sizes: &[usize]) -> f64 {
    if sizes.is_empty() {
        return 0.0;
    }
    let n = sizes.len() as f64;
    let mean = sizes.iter().sum::<usize>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = sizes
        .iter()
        .map(|&s| {
            let d = s as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_unweighted_edges;

    fn star(n: usize) -> CsrGraph {
        from_unweighted_edges(n, (1..n as VertexId).map(|v| (0, v))).unwrap()
    }

    #[test]
    fn star_stats() {
        let g = star(5); // hub 0 with 4 spokes
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 5);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.avg_degree, 8.0 / 5.0);
        assert_eq!(s.num_single_degree, 4);
        assert_eq!(s.num_isolated, 0);
        // degrees 4,1,1,1,1: mean 1.6, var (4-1.6)^2+4*(1-1.6)^2 over 5 = 1.44
        assert!((s.degree_rsd - 1.2 / 1.6).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats() {
        let g = CsrGraph::empty(0);
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.degree_rsd, 0.0);
    }

    #[test]
    fn isolated_vertices_counted() {
        let g = from_unweighted_edges(4, [(0, 1)]).unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_isolated, 2);
        assert_eq!(s.num_single_degree, 2);
    }

    #[test]
    fn uniform_degree_has_zero_rsd() {
        // 4-cycle: all degrees 2.
        let g = from_unweighted_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.degree_rsd, 0.0);
        assert_eq!(s.avg_degree, 2.0);
    }

    #[test]
    fn self_loop_is_not_single_degree() {
        let g = crate::builder::from_weighted_edges(2, [(0, 0, 1.0), (0, 1, 1.0)]).unwrap();
        // vertex 1 has only edge (1,0): single degree. vertex 0 has loop+edge.
        assert!(is_single_degree(&g, 1));
        assert!(!is_single_degree(&g, 0));
        // A vertex whose only entry is its own loop is not single-degree.
        let g2 = crate::builder::from_weighted_edges(1, [(0, 0, 1.0)]).unwrap();
        assert!(!is_single_degree(&g2, 0));
    }

    #[test]
    fn rsd_of_equal_sizes_is_zero() {
        assert_eq!(relative_std_dev(&[5, 5, 5]), 0.0);
        assert_eq!(relative_std_dev(&[]), 0.0);
    }

    #[test]
    fn rsd_of_skewed_sizes_positive() {
        assert!(relative_std_dev(&[1, 1, 98]) > 1.0);
    }
}
