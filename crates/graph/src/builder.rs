//! Edge-list → CSR graph construction.
//!
//! The builder symmetrizes, sorts, and merges duplicate edges in parallel
//! (rayon), since input preparation is itself a scalability concern for the
//! billion-edge graphs the paper targets — Staudt & Meyerhenke treat graph
//! construction as a first-class parallel phase, and this builder follows
//! suit. Multi-edges are not allowed in the paper's model (§2); the builder
//! sums the weights of duplicate edges.
//!
//! [`GraphBuilder::build`] is one counting-sort pipeline, whatever the
//! input and the pool: row counts → prefix-sum offsets → a scatter of each
//! row's entries in input order by tasks that own contiguous row ranges →
//! per-row sort + duplicate merge → packing the merged rows. No output bit
//! depends on the task layout, so its CSR is **bitwise identical** to the
//! sort-based oracle [`GraphBuilder::build_serial`] at every thread count;
//! the tests and benches check that, and production never calls the oracle.

use crate::csr::{CsrGraph, VertexId, WeightRangeError, DEFAULT_WEIGHT};
use crate::shared::{carve, cut_by_work};
use rayon::prelude::*;
use std::ops::Range;

/// Errors produced by [`GraphBuilder::build`].
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// An endpoint was `>= n`.
    VertexOutOfRange {
        /// The offending edge.
        edge: (VertexId, VertexId),
        /// Declared vertex count.
        n: usize,
    },
    /// A weight was zero, negative, NaN or infinite (paper §2 requires
    /// non-zero positive weights).
    InvalidWeight {
        /// The offending edge.
        edge: (VertexId, VertexId),
        /// The rejected weight value.
        weight: f64,
    },
    /// The allocator cannot provide the builder's `n`-sized arrays, the
    /// CSR offsets among them (a huge vertex id in a sparse input).
    OutOfMemory {
        /// Declared vertex count.
        n: usize,
    },
    /// The merged weights are out of the range modularity arithmetic
    /// needs.
    WeightRange(WeightRangeError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::VertexOutOfRange { edge, n } => {
                write!(f, "edge ({},{}) references vertex >= n={n}", edge.0, edge.1)
            }
            BuildError::InvalidWeight { edge, weight } => write!(
                f,
                "edge ({},{}) has invalid weight {weight}; weights must be finite and > 0",
                edge.0, edge.1
            ),
            BuildError::OutOfMemory { n } => {
                write!(f, "cannot allocate CSR offsets for n={n} vertices")
            }
            BuildError::WeightRange(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for BuildError {}

/// Accumulates an undirected edge list and produces a [`CsrGraph`].
///
/// ```
/// use grappolo_graph::GraphBuilder;
/// let g = GraphBuilder::new(4)
///     .add_edge(0, 1, 1.0)
///     .add_edge(1, 2, 0.5)
///     .add_edge(2, 3, 2.0)
///     .build()
///     .unwrap();
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId, f64)>,
}

impl GraphBuilder {
    /// A builder for a graph over vertices `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            num_vertices: n,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        Self {
            num_vertices: n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Adds an undirected weighted edge `{u, v}`; `u == v` adds a self-loop.
    pub fn add_edge(mut self, u: VertexId, v: VertexId, w: f64) -> Self {
        self.edges.push((u, v, w));
        self
    }

    /// Bulk-extends from `(u, v, w)` triples.
    pub fn extend_edges<I: IntoIterator<Item = (VertexId, VertexId, f64)>>(
        mut self,
        iter: I,
    ) -> Self {
        self.edges.extend(iter);
        self
    }

    /// Number of raw (pre-merge) edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no edges were added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Validates, symmetrizes, sums duplicates, and builds the CSR graph.
    ///
    /// Every input and pool size runs the same five steps:
    ///
    /// 1. the edges are validated in input order (the first invalid one is
    ///    the error);
    /// 2. each row's directed entries (`{u, v}` gives `u → v` and `v → u`,
    ///    a loop one entry) are counted into the offsets;
    /// 3. the rows are cut into at most 8 contiguous ranges of about equal
    ///    entries ([`cut_by_work`]), and one task per range scans the edge
    ///    list and writes its rows' entries, in input order, into its own
    ///    carved slices of the scratch arrays ([`carve`]);
    /// 4. the same task sorts each of its rows by `(target, weight bits)`
    ///    and sums each run of equal targets in sorted order;
    /// 5. the merged rows are packed in place, in row order.
    ///
    /// No bit depends on the task layout: a row's entries reach its sort in
    /// input order whichever task owns the row, entries that compare equal
    /// under the full key are bitwise identical, and the sort key is the one
    /// [`GraphBuilder::build_serial`] applies globally, so both sum every
    /// duplicate run in the same order. The layout itself is a pure function
    /// of the row counts, never of the thread count.
    ///
    /// Errors: the first invalid edge in input order,
    /// [`BuildError::OutOfMemory`] when the allocator cannot provide the
    /// n-sized arrays (a huge vertex id in a sparse input), and
    /// [`BuildError::WeightRange`] when the merged weights are out of the
    /// range modularity arithmetic needs.
    pub fn build(self) -> Result<CsrGraph, BuildError> {
        let n = self.num_vertices;
        let edges = &self.edges[..];
        validate_edges(edges, n)?;

        // 2. Row counts, then their prefix sums: row v's entries go to
        // `offsets[v]..offsets[v + 1]` of the scratch arrays.
        let mut offsets = try_zeroed(n + 1).ok_or(BuildError::OutOfMemory { n })?;
        for &(u, v, _) in edges {
            offsets[u as usize + 1] += 1;
            if u != v {
                offsets[v as usize + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // `ends[v]` ends row v's live entries: the scatter's cursor, then the
        // merged row's end.
        let mut ends = try_zeroed(n).ok_or(BuildError::OutOfMemory { n })?;
        ends.copy_from_slice(&offsets[..n]);
        let total = offsets[n];
        let mut targets = vec![0 as VertexId; total];
        let mut weights = vec![0f64; total];

        // 3 and 4. A row costs its entries plus one for its offsets.
        let mut bounds = Vec::new();
        cut_by_work(
            n,
            SCAN_PIECES,
            |v| offsets[v + 1] - offsets[v] + 1,
            &mut bounds,
        );
        let rows = || bounds.windows(2).map(|w| w[0]..w[1]);
        let entries = || rows().map(|r| offsets[r.end] - offsets[r.start]);
        let mut tasks: Vec<RowTask> = rows()
            .zip(carve(&mut ends, rows().map(|r| r.len())))
            .zip(carve(&mut targets, entries()))
            .zip(carve(&mut weights, entries()))
            .map(|(((rows, ends), targets), weights)| RowTask {
                rows,
                ends,
                targets,
                weights,
            })
            .collect();
        // A task is a coarse unit of work: one scan of the whole edge list.
        tasks
            .par_iter_mut()
            .with_min_len(1)
            .for_each(|task| task.fill(edges, &offsets));

        // 5. Pack the merged rows to the front, in row order; the offsets
        // become the final ones.
        let mut packed = 0;
        for v in 0..n {
            let (start, end) = (offsets[v], ends[v]);
            offsets[v] = packed;
            if start != packed {
                targets.copy_within(start..end, packed);
                weights.copy_within(start..end, packed);
            }
            packed += end - start;
        }
        offsets[n] = packed;
        targets.truncate(packed);
        targets.shrink_to_fit();
        weights.truncate(packed);
        weights.shrink_to_fit();

        checked(CsrGraph::from_sorted_adjacency(offsets, targets, weights))
    }

    /// The sort-based oracle: global sort of the symmetrized entries, then a
    /// single merge scan. Tests and benches check [`GraphBuilder::build`]
    /// against it bitwise; production never calls it.
    pub fn build_serial(self) -> Result<CsrGraph, BuildError> {
        let n = self.num_vertices;
        validate_edges(&self.edges, n)?;

        // Expand to directed entries: {u,v} u≠v → (u,v) and (v,u); loop once.
        let mut entries: Vec<(VertexId, VertexId, f64)> = Vec::with_capacity(self.edges.len() * 2);
        for &(u, v, w) in &self.edges {
            entries.push((u, v, w));
            if u != v {
                entries.push((v, u, w));
            }
        }
        // Sorting by weight too makes duplicate runs merge in the same order
        // for both directions of an edge, so float summation stays exactly
        // symmetric (CsrGraph::validate checks mirror weights bit-for-bit).
        entries.sort_unstable_by(entry_order);

        // Sum duplicate (u, v) runs. Duplicates of the same undirected edge
        // appear as identical consecutive directed pairs, so both directions
        // sum alike.
        let mut merged: Vec<(VertexId, VertexId, f64)> = Vec::with_capacity(entries.len());
        for e in entries {
            match merged.last_mut() {
                Some(last) if last.0 == e.0 && last.1 == e.1 => last.2 += e.2,
                _ => merged.push(e),
            }
        }

        // Offsets by counting per-vertex entries, then fill. `n` may come
        // from one huge vertex id in a sparse input.
        let mut offsets = try_zeroed(n + 1).ok_or(BuildError::OutOfMemory { n })?;
        for &(u, _, _) in &merged {
            offsets[u as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut targets = Vec::with_capacity(merged.len());
        let mut weights = Vec::with_capacity(merged.len());
        for (_, v, w) in merged {
            targets.push(v);
            weights.push(w);
        }

        checked(CsrGraph::from_sorted_adjacency(offsets, targets, weights))
    }
}

/// The most tasks [`GraphBuilder::build`] cuts the rows into. Each task
/// scans the whole edge list, so the scans read `SCAN_PIECES` edges per two
/// entries written.
const SCAN_PIECES: usize = 8;

/// One task of [`GraphBuilder::build`]: rows `rows`, their live-entry ends,
/// and the scratch slots they own, from the first row's offset on.
struct RowTask<'a> {
    rows: Range<usize>,
    ends: &'a mut [usize],
    targets: &'a mut [VertexId],
    weights: &'a mut [f64],
}

impl RowTask<'_> {
    /// Writes the task's rows' entries in input order (step 3), then sorts
    /// and merges each row (step 4), leaving each row's merged end in
    /// `ends`.
    fn fill(&mut self, edges: &[(VertexId, VertexId, f64)], offsets: &[usize]) {
        let (lo, first) = (self.rows.start, offsets[self.rows.start]);
        let mut put = |row: VertexId, target: VertexId, w: f64| {
            // A row outside the task's misses: one below them wraps past
            // their count.
            if let Some(end) = self.ends.get_mut((row as usize).wrapping_sub(lo)) {
                self.targets[*end - first] = target;
                self.weights[*end - first] = w;
                *end += 1;
            }
        };
        for &(u, v, w) in edges {
            put(u, v, w);
            if u != v {
                put(v, u, w);
            }
        }

        let mut sorted: Vec<(VertexId, u64)> = Vec::new();
        for (v, end) in self.rows.clone().zip(self.ends.iter_mut()) {
            let start = offsets[v] - first;
            let (targets, weights) = (
                &mut self.targets[start..*end - first],
                &mut self.weights[start..*end - first],
            );
            // All builder weights are validated > 0, so their bit order is
            // their order under IEEE total order, the oracle's key.
            sorted.clear();
            sorted.extend(
                targets
                    .iter()
                    .zip(weights.iter())
                    .map(|(&t, &w)| (t, w.to_bits())),
            );
            sorted.sort_unstable();
            let mut len = 0;
            for &(t, bits) in &sorted {
                let w = f64::from_bits(bits);
                if len > 0 && targets[len - 1] == t {
                    weights[len - 1] += w;
                } else {
                    targets[len] = t;
                    weights[len] = w;
                    len += 1;
                }
            }
            *end = offsets[v] + len;
        }
    }
}

/// Both builders' last step: the merged graph, unless its weights are
/// out of the range modularity arithmetic needs.
fn checked(g: CsrGraph) -> Result<CsrGraph, BuildError> {
    g.check_weight_range().map_err(BuildError::WeightRange)?;
    Ok(g)
}

/// The oracle's global entry order: `(source, target)` then the weight
/// under IEEE total order, so duplicate runs merge identically for both
/// directions of an edge.
fn entry_order(a: &(VertexId, VertexId, f64), b: &(VertexId, VertexId, f64)) -> std::cmp::Ordering {
    (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2))
}

/// Shared validation: first offending edge in input order.
fn validate_edges(edges: &[(VertexId, VertexId, f64)], n: usize) -> Result<(), BuildError> {
    for &(u, v, w) in edges {
        if u as usize >= n || v as usize >= n {
            return Err(BuildError::VertexOutOfRange { edge: (u, v), n });
        }
        if !w.is_finite() || w <= 0.0 {
            return Err(BuildError::InvalidWeight {
                edge: (u, v),
                weight: w,
            });
        }
    }
    Ok(())
}

/// A zeroed `len`-entry array, or `None` when the allocator cannot provide
/// it. `len` may come from one vertex id in the input, and a huge id must be
/// an error, not an abort.
fn try_zeroed(len: usize) -> Option<Vec<usize>> {
    let mut v = Vec::new();
    v.try_reserve_exact(len).ok()?;
    v.resize(len, 0);
    Some(v)
}

/// Convenience: builds a graph from an unweighted edge list.
pub fn from_unweighted_edges(
    n: usize,
    edges: impl IntoIterator<Item = (VertexId, VertexId)>,
) -> Result<CsrGraph, BuildError> {
    GraphBuilder::new(n)
        .extend_edges(edges.into_iter().map(|(u, v)| (u, v, DEFAULT_WEIGHT)))
        .build()
}

/// Convenience: builds a graph from a weighted edge list.
pub fn from_weighted_edges(
    n: usize,
    edges: impl IntoIterator<Item = (VertexId, VertexId, f64)>,
) -> Result<CsrGraph, BuildError> {
    GraphBuilder::new(n).extend_edges(edges).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_path() {
        let g = from_unweighted_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.weighted_degree(1), 2.0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn merges_duplicates_by_sum() {
        let g = GraphBuilder::new(2)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 0, 2.5)
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3.5));
        assert_eq!(g.edge_weight(1, 0), Some(3.5));
    }

    #[test]
    fn duplicate_self_loops_merge() {
        let g = GraphBuilder::new(1)
            .add_edge(0, 0, 1.0)
            .add_edge(0, 0, 2.0)
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.self_loop_weight(0), 3.0);
        assert_eq!(g.weighted_degree(0), 3.0);
        assert_eq!(g.total_weight(), 1.5);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = from_unweighted_edges(2, [(0, 2)]).unwrap_err();
        assert!(matches!(err, BuildError::VertexOutOfRange { .. }));
    }

    #[test]
    fn rejects_bad_weights() {
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = from_weighted_edges(2, [(0, 1, w)]).unwrap_err();
            assert!(matches!(err, BuildError::InvalidWeight { .. }), "w={w}");
        }
    }

    #[test]
    fn rejects_weights_out_of_range() {
        use crate::csr::WeightRangeError;
        let err = from_weighted_edges(3, [(0, 1, 1e308), (1, 0, 1e308), (1, 2, 1.0)]).unwrap_err();
        assert_eq!(
            err,
            BuildError::WeightRange(WeightRangeError::EdgeWeight {
                edge: (0, 1),
                weight: f64::INFINITY
            })
        );
        let err = from_weighted_edges(3, [(0, 1, 1e308), (1, 2, 1e308)]).unwrap_err();
        assert!(matches!(
            err,
            BuildError::WeightRange(WeightRangeError::Degree { vertex: 1, .. })
        ));
        for w in [1e200, 1e-300] {
            let err = from_weighted_edges(2, [(0, 1, w)]).unwrap_err();
            assert!(
                matches!(
                    err,
                    BuildError::WeightRange(WeightRangeError::TotalWeight { .. })
                ),
                "w={w}: {err}"
            );
        }
        // A pool of several threads checks too.
        let mut edges: Vec<(VertexId, VertexId, f64)> =
            (0..20_000u32).map(|i| (i, (i + 1) % 20_000, 1.0)).collect();
        edges.extend([(7, 8, f64::MAX), (8, 7, f64::MAX)]);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let err = pool.install(|| from_weighted_edges(20_000, edges).unwrap_err());
        assert!(matches!(
            err,
            BuildError::WeightRange(WeightRangeError::EdgeWeight { edge: (7, 8), .. })
        ));
    }

    #[test]
    fn empty_builder_builds_isolated_vertices() {
        let g = GraphBuilder::new(4).build().unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn adjacency_is_sorted_after_build() {
        let g = from_unweighted_edges(5, [(4, 0), (2, 0), (0, 3), (0, 1)]).unwrap();
        assert_eq!(g.neighbor_ids(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn large_random_graph_symmetry() {
        // Deterministic pseudo-random multigraph; checks symmetrization +
        // merge at a scale where the rows are cut into several tasks.
        let n = 2_000u32;
        let mut edges = Vec::new();
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..20_000 {
            let u = next() % n;
            let v = next() % n;
            edges.push((u, v, 1.0 + (next() % 5) as f64));
        }
        let g = from_weighted_edges(n as usize, edges).unwrap();
        assert!(g.validate().is_ok());
    }

    /// Deterministic multigraph with duplicate edges, self-loops, and
    /// repeated identical weights.
    fn dense_multigraph_edges(n: u32, m: usize, seed: u64) -> Vec<(VertexId, VertexId, f64)> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        (0..m)
            .map(|_| {
                let u = next() % n;
                // Bias towards collisions so duplicate runs are common.
                let v = if next() % 8 == 0 {
                    u
                } else {
                    next() % (n / 4).max(1)
                };
                (u, v, 0.25 + (next() % 7) as f64 * 0.5)
            })
            .collect()
    }

    fn assert_bitwise_equal(a: &CsrGraph, b: &CsrGraph, what: &str) {
        assert_eq!(a.adjacency_offsets(), b.adjacency_offsets(), "{what}");
        assert_eq!(a.adjacency_targets(), b.adjacency_targets(), "{what}");
        assert!(a.bitwise_eq(b), "{what}: weight bit patterns differ");
    }

    type EdgeList = Vec<(VertexId, VertexId, f64)>;

    /// `edges` in a seeded random order.
    fn permuted(mut edges: EdgeList, seed: u64) -> EdgeList {
        let mut state = seed;
        for i in (1..edges.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            edges.swap(i, (state >> 33) as usize % (i + 1));
        }
        edges
    }

    #[test]
    fn parallel_build_bitwise_matches_serial_across_thread_counts() {
        let multigraph = dense_multigraph_edges(1_500, 50_000, 42);
        let inputs: Vec<(&str, usize, EdgeList)> = vec![
            ("multigraph", 1_500, multigraph.clone()),
            ("permuted multigraph", 1_500, permuted(multigraph, 5)),
            (
                "under 16 384 edges",
                300,
                dense_multigraph_edges(300, 5_000, 7),
            ),
            // A sparse id space: n > 4m.
            ("n > 4m", 200_000, {
                let edges = dense_multigraph_edges(1_500, 20_000, 11);
                edges
                    .into_iter()
                    .map(|(u, v, w)| (u * 133, v * 133, w))
                    .collect()
            }),
            ("no edges", 10, Vec::new()),
            ("no vertices", 0, Vec::new()),
            (
                "self-loops only",
                1_000,
                (0..30_000u32)
                    .map(|i| (i % 1_000, i % 1_000, 0.5 + (i % 3) as f64))
                    .collect(),
            ),
        ];
        // One thread, a few, and more than the machine has.
        let pools: Vec<(usize, rayon::ThreadPool)> = [1usize, 2, 3, 8, 16]
            .into_iter()
            .map(|t| {
                (
                    t,
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(t)
                        .build()
                        .unwrap(),
                )
            })
            .collect();
        for (name, n, edges) in &inputs {
            let input = || GraphBuilder::new(*n).extend_edges(edges.iter().copied());
            let reference = input().build_serial().unwrap();
            assert!(reference.validate().is_ok(), "{name}");
            for (threads, pool) in &pools {
                let built = pool.install(|| input().build().unwrap());
                assert_bitwise_equal(&reference, &built, &format!("{name} at {threads} threads"));
            }
        }
    }

    #[test]
    fn parallel_build_validation_errors_match_serial() {
        // Over and under 16 384 edges; each list holds an out-of-range edge
        // and, later, an invalid weight, then only the invalid weight.
        for m in [20_000u32, 5_000] {
            let n = 30_000usize;
            let ring = || (0..m).map(|i| (i, (i + 1) % n as u32, 1.0));
            let mut edges: Vec<(VertexId, VertexId, f64)> = ring().collect();
            edges[m as usize * 17 / 20] = (5, n as u32, 1.0); // out of range
            edges[m as usize * 9 / 10] = (1, 2, f64::NAN);
            let mut edges2: Vec<(VertexId, VertexId, f64)> = ring().collect();
            edges2[100] = (1, 2, f64::NAN);
            for edges in [edges, edges2] {
                let input = || GraphBuilder::new(n).extend_edges(edges.iter().copied());
                let ser_err = input().build_serial().unwrap_err();
                assert!(
                    matches!(
                        ser_err,
                        BuildError::VertexOutOfRange {
                            edge: (5, 30_000),
                            ..
                        } | BuildError::InvalidWeight { edge: (1, 2), .. }
                    ),
                    "{ser_err}"
                );
                for threads in [1usize, 4] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let par_err = pool.install(|| input().build().unwrap_err());
                    // Debug, since a NaN weight never equals itself.
                    assert_eq!(
                        format!("{par_err:?}"),
                        format!("{ser_err:?}"),
                        "{m} edges at {threads} threads"
                    );
                }
            }
        }
    }
}
