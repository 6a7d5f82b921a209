//! Inter-phase graph rebuild (§5.5): collapse each community into a
//! meta-vertex and aggregate edge weights.
//!
//! The paper's sequence: (i) renumber the non-empty communities with a
//! serial scan, as their release does; (ii)–(iii) aggregate edges per
//! community. Their map is guarded by locks ("the former requires one lock
//! and the latter requires two"), which makes float sums depend on thread
//! interleaving. Here each community row accumulates lock-free through the
//! same generation-stamped flat scratch
//! ([`NeighborScratch`](crate::modularity::NeighborScratch)) the
//! local-moving sweep uses: O(deg) per row, a small per-row sort for CSR
//! ordering, and results bitwise identical at any thread count.
//!
//! Weight convention: traversing every adjacency entry means an intra-
//! community non-loop edge contributes twice to the meta-vertex self-loop and
//! a self-loop once; this preserves `Σ k` per community and therefore
//! modularity across the phase transition (tested below).

use crate::config::{RebuildStrategy, RenumberStrategy};
use crate::modularity::{Community, ScratchPool};
use grappolo_graph::{CsrGraph, SharedSlice, VertexId};
use rayon::prelude::*;

/// Result of one rebuild.
#[derive(Clone, Debug)]
pub struct RebuildResult {
    /// The condensed graph; vertex `c` is renumbered community `c`.
    pub graph: CsrGraph,
    /// Maps an old community label to its new vertex id, `u32::MAX` for
    /// labels with no members.
    pub renumber: Vec<Community>,
    /// Number of non-empty communities (= new vertex count).
    pub num_communities: usize,
}

/// Renumbers the non-empty communities of `assignment` (labels in `0..n`)
/// to dense ids `0..k` in ascending label order, by serial scan (the only
/// [`RenumberStrategy`]).
pub fn renumber_communities(
    assignment: &[Community],
    _strategy: RenumberStrategy,
) -> (Vec<Community>, usize) {
    // Labels are phase-graph vertex ids (< len) in normal use, but accept any
    // label range defensively.
    let n = assignment
        .iter()
        .map(|&c| c as usize + 1)
        .max()
        .unwrap_or(0)
        .max(assignment.len());
    let mut renum = vec![Community::MAX; n];
    let mut present = vec![false; n];
    for &c in assignment {
        present[c as usize] = true;
    }
    let mut next = 0 as Community;
    for c in 0..n {
        if present[c] {
            renum[c] = next;
            next += 1;
        }
    }
    (renum, next as usize)
}

/// Builds the condensed graph for `assignment` over `g`: serial
/// renumbering, then [`condense_stamped`] over the renumbered communities.
/// Each strategy enum has one variant.
pub fn rebuild(
    g: &CsrGraph,
    assignment: &[Community],
    _strategy: RebuildStrategy,
    renumber_strategy: RenumberStrategy,
) -> RebuildResult {
    assert_eq!(assignment.len(), g.num_vertices());
    let (renumber, num_communities) = renumber_communities(assignment, renumber_strategy);
    let row_of = |u: usize| renumber[assignment[u] as usize];
    let (offsets, members) = group_by_row(assignment.len(), num_communities, row_of);
    let graph = condense_stamped(g, num_communities, &offsets, &members, row_of);
    RebuildResult {
        graph,
        renumber,
        num_communities,
    }
}

/// Groups vertices `0..n` by output row: returns `(offsets, members)` with
/// `members[offsets[r]..offsets[r + 1]]` listing row `r`'s vertices in
/// ascending id order (counting sort — deterministic).
pub(crate) fn group_by_row(
    n: usize,
    num_rows: usize,
    row_of: impl Fn(usize) -> Community,
) -> (Vec<usize>, Vec<VertexId>) {
    let mut offsets = vec![0usize; num_rows + 1];
    for v in 0..n {
        offsets[row_of(v) as usize + 1] += 1;
    }
    for r in 0..num_rows {
        offsets[r + 1] += offsets[r];
    }
    let mut cursor = offsets.clone();
    let mut members = vec![0 as VertexId; n];
    for v in 0..n {
        let r = row_of(v) as usize;
        members[cursor[r]] = v as VertexId;
        cursor[r] += 1;
    }
    (offsets, members)
}

/// Makes the low-id row authoritative for each inter-row pair: every entry
/// `v → u` with `u < v` takes the weight of row `u`'s entry for `v` (rows
/// sorted by target, binary-searched). This restores exact CSR symmetry
/// when the two directions were accumulated in different orders.
///
/// Rows run in parallel. A row writes only its entries that point to a
/// lower row and reads only entries that point to a higher row, so no entry
/// is both read and written, and the result equals the serial pass that
/// pushes each low-id weight onto its mirror.
pub(crate) fn mirror_low_id_csr(offsets: &[usize], targets: &[Community], weights: &mut [f64]) {
    let num_rows = offsets.len() - 1;
    let shared = SharedSlice::new(weights);
    (0..num_rows).into_par_iter().for_each(|v| {
        for idx in offsets[v]..offsets[v + 1] {
            let u = targets[idx] as usize;
            if u >= v {
                break; // sorted: the rest point at `v` or above
            }
            let row_u = &targets[offsets[u]..offsets[u + 1]];
            if let Ok(pos) = row_u.binary_search(&(v as Community)) {
                // SAFETY: `idx` (row `v`, target below `v`) is written only
                // by row `v`'s task; `offsets[u] + pos` (row `u`, target
                // above `u`) is never written by any task.
                unsafe { shared.write(idx, shared.read(offsets[u] + pos)) };
            }
        }
    });
}

/// Mirrors the low-id weights ([`mirror_low_id_csr`]) and builds the graph.
fn mirrored_csr(offsets: Vec<usize>, targets: Vec<Community>, mut weights: Vec<f64>) -> CsrGraph {
    mirror_low_id_csr(&offsets, &targets, &mut weights);
    CsrGraph::from_sorted_adjacency(offsets, targets, weights)
}

/// Assembles sorted per-community rows into a CSR graph, mirrored
/// ([`mirrored_csr`]).
fn rows_to_csr(rows: Vec<Vec<(Community, f64)>>) -> CsrGraph {
    let num_rows = rows.len();
    let mut offsets = vec![0usize; num_rows + 1];
    for (c, row) in rows.iter().enumerate() {
        offsets[c + 1] = offsets[c] + row.len();
    }
    let mut targets = Vec::with_capacity(offsets[num_rows]);
    let mut weights = Vec::with_capacity(offsets[num_rows]);
    for row in rows {
        for (c, w) in row {
            targets.push(c);
            weights.push(w);
        }
    }
    mirrored_csr(offsets, targets, weights)
}

/// Row count above which [`condense_stamped`] switches from the rows-based
/// assembly to the flat two-pass scatter. Measured crossover: with few
/// output rows the stamped mark array stays cache-resident, making the
/// flat path's second gather pass pure overhead (≈ 1.8× slower on a
/// 200-row condensation); by ~10⁵ rows the mark array spills past L2, the
/// two assemblies run at parity speed-wise, and the flat path wins on
/// memory — no per-row heap `Vec`s (one per community) and no doubled
/// `rows_to_csr` copy. 64 K rows ≈ a 512 KB mark array, the L2 boundary on
/// the reference container.
const FLAT_ASSEMBLY_MIN_ROWS: usize = 1 << 16;

/// Stamped-scratch condensation of the inter-phase rebuild (and the
/// bitwise oracle of VF's linear fold in `vf`'s tests), with `row_of`
/// mapping any original vertex to its output row.
/// Dispatches between the two bitwise-identical assemblies
/// ([`condense_stamped_flat`] / [`condense_stamped_rows`]) on
/// [`FLAT_ASSEMBLY_MIN_ROWS`]; since both produce identical CSR arrays
/// (property-tested), the dispatch cannot affect results — only speed and
/// peak memory.
pub(crate) fn condense_stamped(
    g: &CsrGraph,
    num_rows: usize,
    offsets: &[usize],
    members: &[VertexId],
    row_of: impl Fn(usize) -> Community + Sync + Send,
) -> CsrGraph {
    if num_rows >= FLAT_ASSEMBLY_MIN_ROWS {
        condense_stamped_flat(g, num_rows, offsets, members, row_of)
    } else {
        condense_stamped_rows(g, num_rows, offsets, members, row_of)
    }
}

/// Flat **two-pass** assembly directly into the output CSR arrays.
///
/// Pass 1 runs the stamped gather per output row counting its distinct
/// target rows; an exclusive prefix sum turns the counts into CSR offsets.
/// Pass 2 re-runs the gather and scatters each row's sorted `(target,
/// weight)` entries straight into its preallocated `targets`/`weights`
/// span — no per-row `Vec`, no `rows_to_csr` copy. Rows own disjoint
/// output spans, so the parallel scatter is race-free.
///
/// Every directed adjacency entry of the row's members is accumulated in
/// (member, adjacency) order — intra non-loop edges are seen from both
/// endpoints (doubling into the meta self-loop, the m-preserving
/// convention) and self-loops once. The accumulation order is fixed by the
/// CSR layout, so results are bitwise independent of the thread count; only
/// the final per-row sort (unique keys) orders the typically-short target
/// list. Mirror weights are then unified ([`mirror_low_id_csr`]) so the CSR
/// stays bitwise symmetric.
pub(crate) fn condense_stamped_flat(
    g: &CsrGraph,
    num_rows: usize,
    offsets: &[usize],
    members: &[VertexId],
    row_of: impl Fn(usize) -> Community + Sync + Send,
) -> CsrGraph {
    // Pass 1: count each row's distinct neighbor rows (the gather without
    // materializing entries beyond the scratch).
    let counts: Vec<usize> = (0..num_rows as Community)
        .into_par_iter()
        .map_init(
            || ScratchPool::global().take(),
            |scratch, c| {
                scratch.begin(num_rows);
                for &v in &members[offsets[c as usize]..offsets[c as usize + 1]] {
                    for (u, w) in g.neighbors(v) {
                        scratch.accumulate(row_of(u as usize), w);
                    }
                }
                scratch.entries.len()
            },
        )
        .collect();
    let mut row_offsets = vec![0usize; num_rows + 1];
    for r in 0..num_rows {
        row_offsets[r + 1] = row_offsets[r] + counts[r];
    }
    let total = row_offsets[num_rows];

    // Pass 2: re-gather and scatter each row's sorted entries into its
    // span. Disjointness: row `r` writes exactly
    // `targets/weights[row_offsets[r]..row_offsets[r + 1]]`, and the
    // prefix-sum spans are non-overlapping by construction.
    let mut targets = vec![0 as Community; total];
    let mut weights = vec![0.0f64; total];
    let t_shared = SharedSlice::new(&mut targets);
    let w_shared = SharedSlice::new(&mut weights);
    (0..num_rows as Community)
        .into_par_iter()
        .map_init(
            || ScratchPool::global().take(),
            |scratch, c| {
                scratch.begin(num_rows);
                for &v in &members[offsets[c as usize]..offsets[c as usize + 1]] {
                    for (u, w) in g.neighbors(v) {
                        scratch.accumulate(row_of(u as usize), w);
                    }
                }
                scratch.entries.sort_unstable_by_key(|&(t, _)| t);
                let base = row_offsets[c as usize];
                debug_assert_eq!(scratch.entries.len(), counts[c as usize]);
                for (i, &(t, w)) in scratch.entries.iter().enumerate() {
                    // Safety: in bounds (base + i < row_offsets[c + 1] ≤ total)
                    // and this row's span is written by this worker only.
                    unsafe {
                        t_shared.write(base + i, t);
                        w_shared.write(base + i, w);
                    }
                }
            },
        )
        .for_each(drop);
    mirrored_csr(row_offsets, targets, weights)
}

/// The rows-based assembly of the stamped condensation — per-row
/// `Vec<(Community, f64)>`s collected then copied through [`rows_to_csr`].
/// Bitwise identical output to [`condense_stamped_flat`]
/// (property-tested); the faster assembly while the mark array stays
/// cache-resident (small row counts), and the `rebuild` bench's
/// `assembly_rows` arm.
pub(crate) fn condense_stamped_rows(
    g: &CsrGraph,
    num_rows: usize,
    offsets: &[usize],
    members: &[VertexId],
    row_of: impl Fn(usize) -> Community + Sync + Send,
) -> CsrGraph {
    let rows: Vec<Vec<(Community, f64)>> = (0..num_rows as Community)
        .into_par_iter()
        .map_init(
            || ScratchPool::global().take(),
            |scratch, c| {
                scratch.begin(num_rows);
                for &v in &members[offsets[c as usize]..offsets[c as usize + 1]] {
                    for (u, w) in g.neighbors(v) {
                        scratch.accumulate(row_of(u as usize), w);
                    }
                }
                let mut row = std::mem::take(&mut scratch.entries);
                row.sort_unstable_by_key(|&(t, _)| t);
                row
            },
        )
        .collect();
    rows_to_csr(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modularity::modularity;
    use grappolo_graph::from_unweighted_edges;
    use grappolo_graph::gen::{planted_partition, PlantedConfig};

    fn condense(g: &CsrGraph, assignment: &[Community]) -> RebuildResult {
        rebuild(
            g,
            assignment,
            RebuildStrategy::StampAggregate,
            RenumberStrategy::Serial,
        )
    }

    #[test]
    fn two_triangles_condense() {
        let g = from_unweighted_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
            .unwrap();
        let assignment = vec![0, 0, 0, 5, 5, 5]; // labels need not be dense
        let res = condense(&g, &assignment);
        assert_eq!(res.num_communities, 2);
        let cg = &res.graph;
        assert_eq!(cg.num_vertices(), 2);
        // Each triangle: 3 intra edges → self-loop weight 6.
        assert_eq!(cg.self_loop_weight(0), 6.0);
        assert_eq!(cg.self_loop_weight(1), 6.0);
        assert_eq!(cg.edge_weight(0, 1), Some(1.0));
        // m preserved.
        assert_eq!(cg.total_weight(), g.total_weight());
    }

    #[test]
    fn renumber_maps_ascending() {
        let assignment = vec![7, 3, 7, 0];
        let (renum, k) = renumber_communities(&assignment, RenumberStrategy::Serial);
        assert_eq!(k, 3);
        assert_eq!(renum[0], 0);
        assert_eq!(renum[3], 1);
        assert_eq!(renum[7], 2);
        assert_eq!(renum[1], Community::MAX);
    }

    #[test]
    fn stamp_rebuild_bitwise_deterministic_across_thread_counts() {
        // The only aggregation must keep the §5.4 stability guarantee:
        // identical CSR arrays (weights bit-for-bit) for any pool size, on
        // a community-rich and on a singleton partition.
        let (g, truth) = planted_partition(&PlantedConfig {
            num_vertices: 3_000,
            num_communities: 30,
            ..Default::default()
        });
        let singleton: Vec<Community> = (0..g.num_vertices() as Community).collect();
        for assignment in [&truth, &singleton] {
            let run = |threads: usize| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let graph = pool.install(|| condense(&g, assignment).graph);
                (0..graph.num_vertices() as VertexId)
                    .map(|v| {
                        graph
                            .neighbors(v)
                            .map(|(u, w)| (u, w.to_bits()))
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            };
            let r1 = run(1);
            for threads in [2usize, 8, 16] {
                assert_eq!(r1, run(threads), "rows differ at {threads} threads");
            }
        }
    }

    #[test]
    fn flat_assembly_bitwise_matches_rows_reference() {
        // The two-pass count + scatter assembly must reproduce the retained
        // rows-based reference exactly: same offsets, same targets, weights
        // bit-for-bit — on a community-rich partition, a scattered one, and
        // a singleton one.
        let (g, truth) = planted_partition(&PlantedConfig {
            num_vertices: 2_000,
            num_communities: 20,
            ..Default::default()
        });
        let scattered: Vec<Community> = (0..g.num_vertices() as u32).map(|v| v % 97).collect();
        let singleton: Vec<Community> = (0..g.num_vertices() as u32).collect();
        for assignment in [&truth, &scattered, &singleton] {
            let flat = crate::reference::rebuild_stamp_flat_assembly(&g, assignment);
            let rows = crate::reference::rebuild_stamp_rows_reference(&g, assignment);
            assert_eq!(flat.num_vertices(), rows.num_vertices());
            assert_eq!(flat.num_edges(), rows.num_edges());
            for v in 0..flat.num_vertices() as VertexId {
                let a: Vec<(VertexId, u64)> =
                    flat.neighbors(v).map(|(u, w)| (u, w.to_bits())).collect();
                let b: Vec<(VertexId, u64)> =
                    rows.neighbors(v).map(|(u, w)| (u, w.to_bits())).collect();
                assert_eq!(a, b, "row {v} differs between assemblies");
            }
        }
    }

    /// The serial form of [`mirror_low_id_csr`]: each row pushes its
    /// weights onto the mirrors in higher rows.
    fn mirror_serial_push(offsets: &[usize], targets: &[Community], weights: &mut [f64]) {
        for u in 0..offsets.len() - 1 {
            for idx in offsets[u]..offsets[u + 1] {
                let v = targets[idx] as usize;
                if v > u {
                    let row_v = &targets[offsets[v]..offsets[v + 1]];
                    if let Ok(pos) = row_v.binary_search(&(u as Community)) {
                        weights[offsets[v] + pos] = weights[idx];
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_mirror_matches_serial_push() {
        // A small asymmetric input: low-id row authoritative, (0,1) = 1.0
        // both ways and (0,2) = 2.0.
        let offsets = vec![0usize, 2, 3, 4];
        let targets = vec![1u32, 2, 0, 0];
        let mut weights = vec![1.0, 2.0, 1.5, 2.5];
        mirror_low_id_csr(&offsets, &targets, &mut weights);
        assert_eq!(weights, vec![1.0, 2.0, 1.0, 2.0]);

        // A planted graph's rows with every weight perturbed per direction,
        // at several pool sizes.
        let (g, _) = planted_partition(&PlantedConfig {
            num_vertices: 3_000,
            num_communities: 30,
            ..Default::default()
        });
        let offsets = g.adjacency_offsets().to_vec();
        let targets = g.adjacency_targets().to_vec();
        let skewed: Vec<f64> = (0..targets.len())
            .map(|i| 1.0 + (i % 13) as f64 / 3.0)
            .collect();
        let mut expected = skewed.clone();
        mirror_serial_push(&offsets, &targets, &mut expected);
        for threads in [1usize, 2, 8, 16] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut got = skewed.clone();
            pool.install(|| mirror_low_id_csr(&offsets, &targets, &mut got));
            let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&expected), "{threads} threads");
        }
    }

    #[test]
    fn stamp_rebuild_rows_are_exactly_symmetric() {
        let (g, truth) = planted_partition(&PlantedConfig {
            num_vertices: 2_000,
            num_communities: 20,
            ..Default::default()
        });
        let res = condense(&g, &truth);
        let cg = &res.graph;
        for u in 0..cg.num_vertices() as VertexId {
            for (v, w) in cg.neighbors(u) {
                if v != u {
                    assert_eq!(cg.edge_weight(v, u), Some(w), "asymmetry at ({u},{v})");
                }
            }
        }
    }

    #[test]
    fn modularity_invariant_across_rebuild() {
        // Q(partition) on g == Q(singletons) on the condensed graph — the
        // fundamental invariant making multi-phase Louvain correct.
        let (g, truth) = planted_partition(&PlantedConfig {
            num_vertices: 1_500,
            num_communities: 15,
            ..Default::default()
        });
        let q_orig = modularity(&g, &truth);
        let res = condense(&g, &truth);
        let singleton: Vec<Community> = (0..res.graph.num_vertices() as Community).collect();
        let q_cond = modularity(&res.graph, &singleton);
        assert!(
            (q_orig - q_cond).abs() < 1e-12,
            "original {q_orig} vs condensed {q_cond}"
        );
    }

    #[test]
    fn singleton_assignment_rebuild_is_isomorphic() {
        let g = from_unweighted_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let assignment: Vec<Community> = (0..4).collect();
        let res = condense(&g, &assignment);
        assert_eq!(res.graph.num_vertices(), 4);
        assert_eq!(res.graph.num_edges(), 3);
        assert_eq!(res.graph.total_weight(), g.total_weight());
    }

    #[test]
    fn all_one_community_gives_single_loop() {
        let g = from_unweighted_edges(3, [(0, 1), (1, 2)]).unwrap();
        let res = condense(&g, &[0, 0, 0]);
        assert_eq!(res.graph.num_vertices(), 1);
        assert_eq!(res.graph.self_loop_weight(0), 4.0); // 2 edges × 2
        assert_eq!(res.graph.total_weight(), g.total_weight());
    }

    #[test]
    fn empty_graph_rebuild() {
        let g = CsrGraph::empty(0);
        let res = condense(&g, &[]);
        assert_eq!(res.num_communities, 0);
        assert_eq!(res.graph.num_vertices(), 0);
    }

    #[test]
    fn self_loops_carry_through() {
        let g = grappolo_graph::from_weighted_edges(2, [(0, 0, 3.0), (0, 1, 1.0)]).unwrap();
        let res = condense(&g, &[0, 0]);
        // loop 3.0 + edge doubled 2.0 = 5.0
        assert_eq!(res.graph.self_loop_weight(0), 5.0);
        assert_eq!(res.graph.total_weight(), g.total_weight());
    }
}
