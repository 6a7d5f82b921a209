//! Edge-list → CSR graph construction.
//!
//! The builder symmetrizes, sorts, and merges duplicate edges in parallel
//! (rayon), since input preparation is itself a scalability concern for the
//! billion-edge graphs the paper targets — Staudt & Meyerhenke treat graph
//! construction as a first-class parallel phase, and this builder follows
//! suit. Multi-edges are not allowed in the paper's model (§2); the builder
//! sums the weights of duplicate edges.
//!
//! [`GraphBuilder::build`] runs a chunked parallel pipeline (per-chunk degree
//! histograms → prefix-sum offsets → parallel scatter → per-vertex sort +
//! duplicate merge) that produces a CSR **bitwise identical** to the retained
//! sort-based reference path [`GraphBuilder::build_serial`]; the equivalence
//! is property-tested across thread counts.

use crate::csr::{CsrGraph, VertexId, WeightRangeError, DEFAULT_WEIGHT};
use crate::shared::SharedSlice;
use rayon::prelude::*;

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
    /// The allocator cannot provide the CSR offsets for `n` vertices (a
    /// huge vertex id in a sparse input).
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
    /// Large inputs take the chunked parallel path (per-chunk degree
    /// histograms, prefix-sum offsets, parallel scatter, per-vertex sort +
    /// merge); small inputs or single-thread budgets fall back to
    /// [`GraphBuilder::build_serial`]. Both paths produce bitwise-identical
    /// CSR arrays, independent of the thread count.
    pub fn build(self) -> Result<CsrGraph, BuildError> {
        // The parallel path keeps one dense n-sized histogram per chunk, so
        // it only pays off when the edge count dominates the vertex count;
        // extremely sparse id spaces (n ≫ m) stay serial.
        if self.edges.len() < PARALLEL_EDGE_CUTOFF
            || self.num_vertices > self.edges.len().saturating_mul(4)
            || rayon::current_num_threads() <= 1
        {
            self.build_serial()
        } else {
            self.build_parallel()
        }
    }

    /// Sequential reference path: global sort of the symmetrized entries,
    /// then a single merge scan. Retained as the cross-check oracle for the
    /// parallel path (the two must agree bitwise; see the tests).
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

        // Offsets by counting per-vertex entries, then fill. A sparse input
        // always takes this path, so `n` may come from one huge vertex id.
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

    /// Chunked parallel construction. Stages (edge chunks are contiguous
    /// input ranges of size `⌈m / threads⌉` — the layout therefore **varies
    /// with the thread count**; see the determinism note below for why the
    /// output does not):
    ///
    /// 1. chunked validation (first input-order error, matching serial);
    /// 2. per-chunk degree histograms of the symmetrized directed entries;
    /// 3. a column pass turning the histograms into per-chunk write cursors
    ///    plus the pre-merge CSR offsets (prefix sum);
    /// 4. parallel scatter of every directed entry into its vertex's slot
    ///    range (chunks own disjoint sub-ranges, so writes never race);
    /// 5. per-vertex sort by `(target, weight-bits)` + duplicate merge in
    ///    place, yielding merged degrees;
    /// 6. prefix sum of merged degrees + parallel compaction into the final
    ///    arrays.
    ///
    /// Determinism: scatter order *within* a vertex's range depends on the
    /// thread-count-dependent chunk layout, so cross-thread-count
    /// reproducibility rests **entirely** on stage 5 sorting each range by
    /// the full `(target, total_cmp(weight))` key: entries comparing equal
    /// under that key are bitwise identical, so every thread count yields
    /// the same sorted sequence, the same merge order, and therefore
    /// bitwise-identical output (equal to [`GraphBuilder::build_serial`],
    /// which sorts by the same key globally). Do not weaken that sort key —
    /// dropping the weight component would break the §5.4-style determinism
    /// contract that CI's determinism job and `tests/ingest.rs` enforce.
    fn build_parallel(self) -> Result<CsrGraph, BuildError> {
        let n = self.num_vertices;
        let edges = &self.edges[..];
        let m = edges.len();
        let threads = rayon::current_num_threads().max(1);
        let chunk = m.div_ceil(threads).max(1);

        // 1. Validation, first error in input order (chunks are in input
        // order and each chunk reports its first offender).
        let errors: Vec<Option<BuildError>> = edges
            .par_chunks(chunk)
            .map(|c| validate_edges(c, n).err())
            .collect();
        if let Some(e) = errors.into_iter().flatten().next() {
            return Err(e);
        }

        // 2. Per-chunk histograms of directed-entry counts per source vertex.
        let mut hists: Vec<Vec<u32>> = edges
            .par_chunks(chunk)
            .map(|c| {
                let mut h = vec![0u32; n];
                for &(u, v, _) in c {
                    h[u as usize] += 1;
                    if u != v {
                        h[v as usize] += 1;
                    }
                }
                h
            })
            .collect();

        // 3. Column pass: rewrite hists[c][v] into the exclusive prefix of
        // counts over chunks (the chunk's first write slot, relative to the
        // vertex start) and collect total pre-merge degrees.
        let rows: Vec<SharedSlice<u32>> = hists.iter_mut().map(|h| SharedSlice::new(h)).collect();
        let degrees: Vec<u32> = (0..n)
            .into_par_iter()
            .map(|v| {
                let mut running = 0u32;
                for row in &rows {
                    // SAFETY: each column v is touched by exactly one closure
                    // invocation; rows outlive the loop.
                    let count = unsafe { row.read(v) };
                    unsafe { row.write(v, running) };
                    running += count;
                }
                running
            })
            .collect();
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degrees[v] as usize;
        }
        let total = offsets[n];

        // 4. Scatter each chunk's directed entries into its reserved slots.
        let mut scratch_targets = vec![0 as VertexId; total];
        let mut scratch_weights = vec![0f64; total];
        {
            let st = SharedSlice::new(&mut scratch_targets);
            let sw = SharedSlice::new(&mut scratch_weights);
            let offsets = &offsets[..];
            hists
                .par_iter_mut()
                .enumerate()
                .with_min_len(1)
                .for_each(|(ci, cursor)| {
                    let lo = ci * chunk;
                    let hi = (lo + chunk).min(m);
                    let mut put = |x: VertexId, y: VertexId, w: f64| {
                        let slot = offsets[x as usize] + cursor[x as usize] as usize;
                        cursor[x as usize] += 1;
                        // SAFETY: slot lies in the sub-range of vertex x's
                        // slots reserved for chunk ci by the column pass;
                        // ranges of distinct chunks are disjoint.
                        unsafe {
                            st.write(slot, y);
                            sw.write(slot, w);
                        }
                    };
                    for &(u, v, w) in &edges[lo..hi] {
                        put(u, v, w);
                        if u != v {
                            put(v, u, w);
                        }
                    }
                });
        }
        // The cursors are spent; free them before the later stages allocate.
        drop(hists);

        // 5. Per-vertex sort + duplicate sum, in place in the scratch
        // arrays; collect merged degrees.
        let merged_degrees: Vec<u32> = {
            let st = SharedSlice::new(&mut scratch_targets);
            let sw = SharedSlice::new(&mut scratch_weights);
            let offsets = &offsets[..];
            (0..n)
                .into_par_iter()
                .map_init(Vec::new, move |buf: &mut Vec<(VertexId, u64)>, v| {
                    let (start, end) = (offsets[v], offsets[v + 1]);
                    buf.clear();
                    for slot in start..end {
                        // SAFETY: vertex ranges are disjoint across closure
                        // invocations; the scatter stage has finished.
                        unsafe { buf.push((st.read(slot), sw.read(slot).to_bits())) };
                    }
                    // Same key as the serial global sort restricted to this
                    // vertex: (target, weight by total order). total_cmp
                    // agrees with the lexicographic order of sign-flipped
                    // bits, but all builder weights are validated > 0, so
                    // plain bit order suffices.
                    buf.sort_unstable();
                    let mut out = start;
                    for &(t, wbits) in buf.iter() {
                        let w = f64::from_bits(wbits);
                        // SAFETY: in-place rewrite of this vertex's range;
                        // `out` never overtakes the read position.
                        unsafe {
                            if out > start && st.read(out - 1) == t {
                                sw.write(out - 1, sw.read(out - 1) + w);
                            } else {
                                st.write(out, t);
                                sw.write(out, w);
                                out += 1;
                            }
                        }
                    }
                    (out - start) as u32
                })
                .collect()
        };

        // 6. Final offsets + parallel compaction.
        let mut final_offsets = vec![0usize; n + 1];
        for v in 0..n {
            final_offsets[v + 1] = final_offsets[v] + merged_degrees[v] as usize;
        }
        let final_total = final_offsets[n];
        let mut targets = vec![0 as VertexId; final_total];
        let mut weights = vec![0f64; final_total];
        {
            let ft = SharedSlice::new(&mut targets);
            let fw = SharedSlice::new(&mut weights);
            let scratch_targets = &scratch_targets[..];
            let scratch_weights = &scratch_weights[..];
            let offsets = &offsets[..];
            let final_offsets = &final_offsets[..];
            (0..n).into_par_iter().for_each(|v| {
                let deg = final_offsets[v + 1] - final_offsets[v];
                let (src, dst) = (offsets[v], final_offsets[v]);
                for i in 0..deg {
                    // SAFETY: destination ranges are disjoint per vertex.
                    unsafe {
                        ft.write(dst + i, scratch_targets[src + i]);
                        fw.write(dst + i, scratch_weights[src + i]);
                    }
                }
            });
        }

        checked(CsrGraph::from_sorted_adjacency(
            final_offsets,
            targets,
            weights,
        ))
    }
}

/// Both build paths' last step: the merged graph, unless its weights are
/// out of the range modularity arithmetic needs.
fn checked(g: CsrGraph) -> Result<CsrGraph, BuildError> {
    g.check_weight_range().map_err(BuildError::WeightRange)?;
    Ok(g)
}

/// Edge count below which [`GraphBuilder::build`] stays on the serial path:
/// the parallel pipeline's histogram/scatter setup only pays for itself on
/// inputs big enough to amortize it.
const PARALLEL_EDGE_CUTOFF: usize = 1 << 14;

/// The serial path's global entry order: `(source, target)` then the weight
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
        // The parallel path checks too.
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
        // merge at a scale where the parallel build stages actually engage.
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

    /// Deterministic multigraph big enough to engage the parallel path
    /// (≥ `PARALLEL_EDGE_CUTOFF` edges), with duplicate edges, self-loops,
    /// and repeated identical weights.
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

    fn assert_bitwise_equal(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.adjacency_offsets(), b.adjacency_offsets());
        assert_eq!(a.adjacency_targets(), b.adjacency_targets());
        assert!(a.bitwise_eq(b), "weight bit patterns differ");
    }

    #[test]
    fn parallel_build_bitwise_matches_serial_across_thread_counts() {
        let n = 1_500u32;
        let edges = dense_multigraph_edges(n, 50_000, 42);
        let reference = GraphBuilder::new(n as usize)
            .extend_edges(edges.iter().copied())
            .build_serial()
            .unwrap();
        assert!(reference.validate().is_ok());
        for threads in [1usize, 2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let parallel = pool.install(|| {
                GraphBuilder::new(n as usize)
                    .extend_edges(edges.iter().copied())
                    .build()
                    .unwrap()
            });
            assert_bitwise_equal(&reference, &parallel);
        }
    }

    #[test]
    fn parallel_build_validation_errors_match_serial() {
        let n = 30_000usize;
        let mut edges: Vec<(VertexId, VertexId, f64)> = (0..20_000u32)
            .map(|i| (i, (i + 1) % n as u32, 1.0))
            .collect();
        edges[17_000] = (5, n as u32, 1.0); // out of range
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let par_err = pool.install(|| {
            GraphBuilder::new(n)
                .extend_edges(edges.iter().copied())
                .build()
                .unwrap_err()
        });
        let ser_err = GraphBuilder::new(n)
            .extend_edges(edges.iter().copied())
            .build_serial()
            .unwrap_err();
        assert_eq!(par_err, ser_err);

        let mut edges2: Vec<(VertexId, VertexId, f64)> = (0..20_000u32)
            .map(|i| (i, (i + 1) % n as u32, 1.0))
            .collect();
        edges2[100] = (1, 2, f64::NAN);
        let par_err2 = pool.install(|| {
            GraphBuilder::new(n)
                .extend_edges(edges2.iter().copied())
                .build()
                .unwrap_err()
        });
        assert!(matches!(
            par_err2,
            BuildError::InvalidWeight { edge: (1, 2), .. }
        ));
    }
}
