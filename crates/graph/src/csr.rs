//! Compressed sparse row (CSR) storage for weighted undirected graphs.
//!
//! This is the substrate the paper's §5.5 describes: "a compressed storage
//! format … that store\[s\] the adjacency lists for all the vertices in a
//! contiguous memory location", with per-vertex offsets kept separately.
//!
//! Conventions (paper §2, restated in DESIGN.md §2):
//! * Each undirected edge `{i, j}` with `i != j` appears in **both** endpoint
//!   adjacency lists.
//! * A self-loop `(i, i)` appears **once** in `i`'s list.
//! * The weighted degree `k_i` is the sum of the weights in `i`'s list, so a
//!   self-loop counts once toward `k_i`.
//! * `m = ½ Σ_i k_i` is the graph's total weight used by all modularity math.

use std::ops::Range;

/// Vertex identifier. `u32` keeps the hot arrays compact (perf-book: smaller
/// integers for indices); graphs up to 4.29 B vertices are out of scope.
pub type VertexId = u32;

/// Default weight assigned to edges of unweighted input (paper §2 footnote 1).
pub const DEFAULT_WEIGHT: f64 = 1.0;

/// A weighted undirected graph in CSR form.
///
/// Immutable once built; construct via [`crate::builder::GraphBuilder`] or
/// [`CsrGraph::from_sorted_adjacency`].
#[derive(Clone, Debug, Default)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `targets`/`weights` for vertex `v`.
    offsets: Vec<usize>,
    /// Neighbor vertex ids, grouped per source vertex, sorted ascending.
    targets: Vec<VertexId>,
    /// Edge weights parallel to `targets`.
    weights: Vec<f64>,
    /// Cached weighted degrees `k_i`.
    weighted_degrees: Vec<f64>,
    /// Cached `m = ½ Σ k_i`.
    total_weight: f64,
    /// Number of distinct undirected edges (self-loops count once).
    num_edges: usize,
}

impl CsrGraph {
    /// Builds a graph directly from per-vertex sorted adjacency data.
    ///
    /// `offsets` must have length `n + 1`, be non-decreasing, and start at 0;
    /// `targets`/`weights` must have length `offsets[n]`. Every non-loop entry
    /// `(u, v, w)` must have a mirror `(v, u, w)`; self-loops appear once.
    /// These invariants are checked in debug builds and by
    /// [`CsrGraph::validate`].
    pub fn from_sorted_adjacency(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        weights: Vec<f64>,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets must contain at least [0]");
        assert_eq!(*offsets.first().unwrap(), 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len(),
            "offsets must end at targets.len()"
        );
        assert_eq!(targets.len(), weights.len());
        let g = Self::new_unchecked(offsets, targets, weights);
        debug_assert!(g.validate().is_ok(), "{:?}", g.validate());
        g
    }

    /// Replaces the cached total edge weight `m`, leaving every stored array
    /// untouched. This intentionally breaks the `m = ½ Σ k_i` identity: it
    /// exists for component-split detection, where modularity on an extracted
    /// component subgraph must be evaluated against the **parent** graph's
    /// `2m` normalization so per-component decisions reproduce the unsplit
    /// run's. Do not persist or merge a graph carrying an override.
    pub fn with_total_weight_override(mut self, total_weight: f64) -> Self {
        self.total_weight = total_weight;
        self
    }

    /// Computes the cached degree/weight fields without checking invariants.
    fn new_unchecked(offsets: Vec<usize>, targets: Vec<VertexId>, weights: Vec<f64>) -> Self {
        let n = offsets.len() - 1;
        let mut weighted_degrees = vec![0.0; n];
        let mut num_self_loops = 0usize;
        for v in 0..n {
            let mut k = 0.0;
            for e in offsets[v]..offsets[v + 1] {
                k += weights[e];
                if targets[e] as usize == v {
                    num_self_loops += 1;
                }
            }
            weighted_degrees[v] = k;
        }
        let total_weight = 0.5 * weighted_degrees.iter().sum::<f64>();
        let num_edges = (targets.len() - num_self_loops) / 2 + num_self_loops;

        Self {
            offsets,
            targets,
            weights,
            weighted_degrees,
            total_weight,
            num_edges,
        }
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Self::from_sorted_adjacency(vec![0; n + 1], Vec::new(), Vec::new())
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of distinct undirected edges `M` (self-loops count once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of stored adjacency entries (`2M` minus the self-loop mirrors).
    #[inline]
    pub fn num_adjacency_entries(&self) -> usize {
        self.targets.len()
    }

    /// Total edge weight `m = ½ Σ_i k_i` (paper §2).
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Weighted degree `k_v = Σ_{u ∈ Γ(v)} ω(v, u)`; self-loops count once.
    #[inline]
    pub fn weighted_degree(&self, v: VertexId) -> f64 {
        self.weighted_degrees[v as usize]
    }

    /// All weighted degrees, indexed by vertex.
    #[inline]
    pub fn weighted_degrees(&self) -> &[f64] {
        &self.weighted_degrees
    }

    /// Unweighted degree: the number of adjacency entries of `v`
    /// (a self-loop counts once).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Range of adjacency-array indices belonging to `v`.
    #[inline]
    pub fn neighbor_range(&self, v: VertexId) -> Range<usize> {
        let v = v as usize;
        self.offsets[v]..self.offsets[v + 1]
    }

    /// Iterates `(neighbor, weight)` pairs of `v` in ascending neighbor order.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        let r = self.neighbor_range(v);
        self.targets[r.clone()]
            .iter()
            .copied()
            .zip(self.weights[r].iter().copied())
    }

    /// Neighbor ids of `v` (ascending), without weights.
    #[inline]
    pub fn neighbor_ids(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.neighbor_range(v)]
    }

    /// Neighbor weights of `v`, parallel to [`CsrGraph::neighbor_ids`].
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> &[f64] {
        &self.weights[self.neighbor_range(v)]
    }

    /// The raw CSR offset array (`n + 1` entries, starting at 0). Together
    /// with [`CsrGraph::adjacency_targets`] and
    /// [`CsrGraph::adjacency_weights`] this exposes the exact storage for
    /// bitwise comparisons and binary serialization.
    #[inline]
    pub fn adjacency_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw neighbor-id array, grouped per source vertex.
    #[inline]
    pub fn adjacency_targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// The raw weight array, parallel to [`CsrGraph::adjacency_targets`].
    #[inline]
    pub fn adjacency_weights(&self) -> &[f64] {
        &self.weights
    }

    /// True when the raw CSR storage of `self` and `other` is bitwise
    /// identical: equal offsets, equal neighbor ids, and weights equal *as
    /// bit patterns* (so `-0.0 != 0.0` and NaNs compare by payload). This is
    /// the equivalence the parallel builder and the `.grb` round-trip
    /// guarantee against their serial references.
    pub fn bitwise_eq(&self, other: &CsrGraph) -> bool {
        self.offsets == other.offsets
            && self.targets == other.targets
            && self.weights.len() == other.weights.len()
            && self
                .weights
                .iter()
                .zip(&other.weights)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Weight of the self-loop at `v`, or 0.0 if none.
    pub fn self_loop_weight(&self, v: VertexId) -> f64 {
        match self.neighbor_ids(v).binary_search(&v) {
            Ok(pos) => self.weights[self.neighbor_range(v).start + pos],
            Err(_) => 0.0,
        }
    }

    /// Weight of edge `{u, v}` if present.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<f64> {
        match self.neighbor_ids(u).binary_search(&v) {
            Ok(pos) => Some(self.weights[self.neighbor_range(u).start + pos]),
            Err(_) => None,
        }
    }

    /// True if edge `{u, v}` exists (including `u == v` self-loops).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Maximum unweighted degree, 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Iterates every stored adjacency entry as `(source, target, weight)`.
    /// Non-loop edges are yielded twice (once per direction).
    pub fn adjacency_entries(&self) -> impl Iterator<Item = (VertexId, VertexId, f64)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |v| self.neighbors(v).map(move |(u, w)| (v, u, w)))
    }

    /// Iterates each distinct undirected edge once as `(u, v, w)` with
    /// `u <= v`.
    pub fn undirected_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, f64)> + '_ {
        self.adjacency_entries().filter(|&(u, v, _)| u <= v)
    }

    /// Checks structural invariants; returns a description of the first
    /// violation found.
    // The negated comparison is deliberate: `!(w > 0.0)` also rejects NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.offsets[0] != 0 {
            return Err("offsets[0] != 0".into());
        }
        for v in 0..n {
            if self.offsets[v] > self.offsets[v + 1] {
                return Err(format!("offsets decrease at vertex {v}"));
            }
        }
        if *self.offsets.last().unwrap() != self.targets.len() {
            return Err("offsets do not cover targets".into());
        }
        for v in 0..n as VertexId {
            let ids = self.neighbor_ids(v);
            for win in ids.windows(2) {
                if win[0] >= win[1] {
                    return Err(format!("adjacency of {v} not strictly sorted: {win:?}"));
                }
            }
            for (u, w) in self.neighbors(v) {
                if u as usize >= n {
                    return Err(format!("edge ({v},{u}) out of range"));
                }
                if !(w > 0.0) {
                    return Err(format!("edge ({v},{u}) has non-positive weight {w}"));
                }
                if u != v {
                    match self.edge_weight(u, v) {
                        Some(w2) if w2 == w => {}
                        Some(w2) => {
                            return Err(format!("asymmetric weight on ({v},{u}): {w} vs {w2}"))
                        }
                        None => return Err(format!("missing mirror of ({v},{u})")),
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Triangle 0-1-2 plus a self-loop on 2.
    fn triangle_with_loop() -> CsrGraph {
        GraphBuilder::new(3)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 2.0)
            .add_edge(0, 2, 3.0)
            .add_edge(2, 2, 4.0)
            .build()
            .unwrap()
    }

    #[test]
    fn counts_vertices_and_edges() {
        let g = triangle_with_loop();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_adjacency_entries(), 7); // 3 non-loops × 2 + 1 loop
    }

    #[test]
    fn weighted_degree_counts_self_loop_once() {
        let g = triangle_with_loop();
        assert_eq!(g.weighted_degree(0), 4.0); // 1 + 3
        assert_eq!(g.weighted_degree(1), 3.0); // 1 + 2
        assert_eq!(g.weighted_degree(2), 9.0); // 2 + 3 + 4
    }

    #[test]
    fn total_weight_is_half_degree_sum() {
        let g = triangle_with_loop();
        assert_eq!(g.total_weight(), 8.0); // (4 + 3 + 9) / 2
    }

    #[test]
    fn neighbors_sorted_with_weights() {
        let g = triangle_with_loop();
        let nbrs: Vec<_> = g.neighbors(2).collect();
        assert_eq!(nbrs, vec![(0, 3.0), (1, 2.0), (2, 4.0)]);
    }

    #[test]
    fn self_loop_lookup() {
        let g = triangle_with_loop();
        assert_eq!(g.self_loop_weight(2), 4.0);
        assert_eq!(g.self_loop_weight(0), 0.0);
    }

    #[test]
    fn edge_weight_lookup_both_directions() {
        let g = triangle_with_loop();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(1, 0), Some(1.0));
        assert_eq!(g.edge_weight(1, 1), None);
        assert!(g.has_edge(2, 2));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn degrees_and_max_degree() {
        let g = triangle_with_loop();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn undirected_edges_yields_each_once() {
        let g = triangle_with_loop();
        let mut edges: Vec<_> = g.undirected_edges().collect();
        edges.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(
            edges,
            vec![(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0), (2, 2, 4.0)]
        );
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_weight(), 0.0);
        assert_eq!(g.degree(3), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn zero_vertex_graph() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn validate_detects_asymmetry() {
        // Hand-build a broken graph: edge 0->1 without mirror.
        let g = CsrGraph {
            offsets: vec![0, 1, 1],
            targets: vec![1],
            weights: vec![1.0],
            weighted_degrees: vec![1.0, 0.0],
            total_weight: 0.5,
            num_edges: 1,
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_detects_nonpositive_weight() {
        let g = CsrGraph {
            offsets: vec![0, 1, 2],
            targets: vec![1, 0],
            weights: vec![0.0, 0.0],
            weighted_degrees: vec![0.0, 0.0],
            total_weight: 0.0,
            num_edges: 1,
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn adjacency_entries_double_counts_non_loops() {
        let g = triangle_with_loop();
        let total: f64 = g.adjacency_entries().map(|(_, _, w)| w).sum();
        // Non-loop weights twice (1+2+3)*2, self-loop once (4) = 16 = 2m.
        assert_eq!(total, 2.0 * g.total_weight());
    }
}
