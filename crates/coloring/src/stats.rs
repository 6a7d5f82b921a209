//! Coloring statistics and validity checks.
//!
//! The paper attributes uk-2002's poor colored-scheme speedup to "the highly
//! skewed color size distributions" — "943 colors were used … and the color
//! sets had a high Relative Standard Deviation (RSD) of 18.876 in their
//! sizes" (§6.2). [`ColoringStats`] reports exactly those quantities.

use crate::Coloring;
use grappolo_graph::{stats::relative_std_dev, CsrGraph, VertexId};

/// Summary of a coloring's shape.
#[derive(Clone, Debug, PartialEq)]
pub struct ColoringStats {
    /// Number of distinct colors.
    pub num_colors: usize,
    /// Size of each color class, indexed by color.
    pub class_sizes: Vec<usize>,
    /// Relative standard deviation of the class sizes (σ / mean) — the
    /// paper's skew metric.
    pub size_rsd: f64,
    /// Largest class size.
    pub max_class: usize,
    /// Smallest class size.
    pub min_class: usize,
}

impl ColoringStats {
    /// Computes statistics for `coloring`.
    pub fn compute(coloring: &Coloring) -> Self {
        let class_sizes = color_class_sizes(coloring);
        let size_rsd = relative_std_dev(&class_sizes);
        let max_class = class_sizes.iter().copied().max().unwrap_or(0);
        let min_class = class_sizes.iter().copied().min().unwrap_or(0);
        Self {
            num_colors: class_sizes.len(),
            class_sizes,
            size_rsd,
            max_class,
            min_class,
        }
    }
}

/// Returns `sizes[c]` = number of vertices with color `c`.
pub fn color_class_sizes(coloring: &Coloring) -> Vec<usize> {
    let num_colors = coloring.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut sizes = vec![0usize; num_colors];
    for &c in coloring {
        sizes[c as usize] += 1;
    }
    sizes
}

/// Groups vertex ids by color: `classes[c]` lists the vertices of color `c`
/// in ascending id order. This is the `ColorSets` partitioning consumed by
/// Algorithm 1 line 2.
pub fn color_classes(coloring: &Coloring) -> Vec<Vec<VertexId>> {
    let sizes = color_class_sizes(coloring);
    let mut classes: Vec<Vec<VertexId>> = sizes.iter().map(|&s| Vec::with_capacity(s)).collect();
    for (v, &c) in coloring.iter().enumerate() {
        classes[c as usize].push(v as VertexId);
    }
    classes
}

/// True if no two *distinct* adjacent vertices share a color (self-loops are
/// exempt by definition of distance-1 coloring).
pub fn is_valid_distance1(g: &CsrGraph, coloring: &Coloring) -> bool {
    if coloring.len() != g.num_vertices() {
        return false;
    }
    for v in 0..g.num_vertices() as VertexId {
        for &u in g.neighbor_ids(v) {
            if u != v && coloring[u as usize] == coloring[v as usize] {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use grappolo_graph::from_unweighted_edges;

    #[test]
    fn class_sizes_and_stats() {
        let coloring = vec![0, 1, 0, 2, 0];
        let sizes = color_class_sizes(&coloring);
        assert_eq!(sizes, vec![3, 1, 1]);
        let st = ColoringStats::compute(&coloring);
        assert_eq!(st.num_colors, 3);
        assert_eq!(st.max_class, 3);
        assert_eq!(st.min_class, 1);
        assert!(st.size_rsd > 0.0);
    }

    #[test]
    fn classes_group_vertices() {
        let coloring = vec![1, 0, 1];
        let classes = color_classes(&coloring);
        assert_eq!(classes, vec![vec![1], vec![0, 2]]);
    }

    #[test]
    fn validity_check_detects_conflict() {
        let g = from_unweighted_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert!(is_valid_distance1(&g, &vec![0, 1, 0]));
        assert!(!is_valid_distance1(&g, &vec![0, 0, 1]));
        assert!(!is_valid_distance1(&g, &vec![0, 1])); // wrong length
    }

    #[test]
    fn self_loop_exempt() {
        let g = grappolo_graph::from_weighted_edges(1, [(0, 0, 1.0)]).unwrap();
        assert!(is_valid_distance1(&g, &vec![0]));
    }

    #[test]
    fn empty_coloring() {
        let st = ColoringStats::compute(&Vec::new());
        assert_eq!(st.num_colors, 0);
        assert_eq!(st.size_rsd, 0.0);
    }

    #[test]
    fn uniform_classes_zero_rsd() {
        let st = ColoringStats::compute(&vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(st.size_rsd, 0.0);
    }
}
