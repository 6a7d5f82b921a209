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
//! ordering, and results bitwise identical at any thread count. There is
//! one assembly: each row is gathered once into the buffers of the task
//! that owns its contiguous row range, and the parts are copied in row
//! order into the CSR arrays (`condense_stamped`).
//!
//! Weight convention: traversing every adjacency entry means an intra-
//! community non-loop edge contributes twice to the meta-vertex self-loop and
//! a self-loop once; this preserves `Σ k` per community and therefore
//! modularity across the phase transition (tested below).

use crate::config::{RebuildStrategy, RenumberStrategy};
use crate::modularity::{thread_scratch, Community};
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
/// renumbering ([`renumber_communities`]), then the stamped condensation
/// over the renumbered communities. Each strategy enum has one variant.
pub fn rebuild(
    g: &CsrGraph,
    assignment: &[Community],
    _strategy: RebuildStrategy,
    renumber_strategy: RenumberStrategy,
) -> RebuildResult {
    let (renumber, num_communities) = renumber_communities(assignment, renumber_strategy);
    let graph = condense(g, assignment, &renumber, num_communities);
    RebuildResult {
        graph,
        renumber,
        num_communities,
    }
}

/// The condensed graph for `assignment` over `g` under a renumbering the
/// caller already made (`renumber` and `num_communities` as
/// [`renumber_communities`] returns them): vertex `c` of the result is
/// renumbered community `c`.
pub(crate) fn condense(
    g: &CsrGraph,
    assignment: &[Community],
    renumber: &[Community],
    num_communities: usize,
) -> CsrGraph {
    assert_eq!(assignment.len(), g.num_vertices());
    condense_stamped(g, num_communities, |u| renumber[assignment[u] as usize])
}

/// Groups vertices `0..n` by output row: returns `(offsets, members)` with
/// `members[offsets[r]..offsets[r + 1]]` listing row `r`'s vertices in
/// ascending id order (counting sort — deterministic).
fn group_by_row(
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

/// Most tasks [`condense_stamped`] splits its rows into: the rayon shim's
/// bound on the tasks of one region, so every task is one pool task.
const MAX_TASKS: usize = 64;

/// Stamped-scratch condensation of the inter-phase rebuild (and the
/// bitwise oracle of VF's linear fold in `vf`'s tests), with `row_of`
/// mapping any vertex of `g` to its output row in `0..num_rows`.
///
/// The rows split into at most [`MAX_TASKS`] contiguous ranges, one task
/// each; a 1-thread pool runs the tasks inline. A task gathers each of its
/// rows once, appends it to the task's own target and weight buffers, and
/// writes its length into the row's slot of the offsets array. A gather
/// accumulates every directed adjacency entry of the row's members in the
/// stamped scratch, members ascending ([`group_by_row`]), then adjacency
/// order: intra non-loop edges are seen from both endpoints (doubling into
/// the meta self-loop, the m-preserving convention) and self-loops once.
/// That order is fixed by the CSR layout, so every row is bitwise
/// independent of the thread count and of the task split; a per-row sort
/// (unique keys) then orders the row's targets.
///
/// A row has at most one entry per adjacency entry of its members, so a
/// task reserves its buffers for its members' degrees and returns the
/// unused tail once its rows are in. Buffers that grew by doubling raised
/// `detect`'s peak RSS on the RMAT benchmark input by 4 % (2 threads on a
/// 2-vCPU VM), through their slack and the holes their moves left in the
/// heap.
///
/// Once every task is done, the grouping is freed, a prefix sum turns the
/// lengths into offsets, and the parts are copied in row order into
/// exactly sized arrays, each part freed once copied. The mirror weights
/// are then unified ([`mirror_low_id_csr`]) so the CSR stays bitwise
/// symmetric.
pub(crate) fn condense_stamped(
    g: &CsrGraph,
    num_rows: usize,
    row_of: impl Fn(usize) -> Community + Sync + Send,
) -> CsrGraph {
    let (offsets, members) = group_by_row(g.num_vertices(), num_rows, &row_of);
    let task_rows = num_rows.div_ceil(MAX_TASKS).max(1);
    let mut row_offsets = vec![0usize; num_rows + 1];
    let mut task_lens: Vec<&mut [usize]> = row_offsets[1..].chunks_mut(task_rows).collect();
    let parts: Vec<(Vec<Community>, Vec<f64>)> = task_lens
        .par_iter_mut()
        .with_min_len(1)
        .enumerate()
        .map_init(thread_scratch, |scratch, (t, lens)| {
            let first = t * task_rows;
            let span = offsets[first]..offsets[first + lens.len()];
            let bound: usize = members[span].iter().map(|&v| g.degree(v)).sum();
            let (mut targets, mut weights) = (Vec::with_capacity(bound), Vec::with_capacity(bound));
            for (r, len) in (first..).zip(lens.iter_mut()) {
                scratch.begin(num_rows);
                for &v in &members[offsets[r]..offsets[r + 1]] {
                    for (u, w) in g.neighbors(v) {
                        scratch.accumulate(row_of(u as usize), w);
                    }
                }
                scratch.entries.sort_unstable_by_key(|&(c, _)| c);
                targets.extend(scratch.entries.iter().map(|&(c, _)| c));
                weights.extend(scratch.entries.iter().map(|&(_, w)| w));
                *len = scratch.entries.len();
            }
            targets.shrink_to_fit();
            weights.shrink_to_fit();
            (targets, weights)
        })
        .collect();
    drop((offsets, members));
    for r in 0..num_rows {
        row_offsets[r + 1] += row_offsets[r];
    }
    let total = row_offsets[num_rows];
    let mut targets = Vec::with_capacity(total);
    let mut weights = Vec::with_capacity(total);
    for (part_targets, part_weights) in parts {
        targets.extend_from_slice(&part_targets);
        weights.extend_from_slice(&part_weights);
    }
    mirrored_csr(row_offsets, targets, weights)
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
    fn condense_bitwise_matches_serial_condensation() {
        // The assembly against a serial condensation built here: one
        // `BTreeMap` per community, filled members ascending in adjacency
        // order, then the low-id mirror — weights bit for bit, on real-valued
        // weights under a community-rich, a scattered and a singleton
        // partition, at 1, 2 and 8 threads.
        use std::collections::BTreeMap;
        let (g, truth) = planted_partition(&PlantedConfig {
            num_vertices: 2_000,
            num_communities: 20,
            weight_range: Some((0.1, 10.0)),
            ..Default::default()
        });
        let scattered: Vec<Community> =
            (0..g.num_vertices() as Community).map(|v| v % 97).collect();
        let singleton: Vec<Community> = (0..g.num_vertices() as Community).collect();
        for assignment in [&truth, &scattered, &singleton] {
            let (renum, k) = renumber_communities(assignment, RenumberStrategy::Serial);
            let mut rows: Vec<BTreeMap<Community, f64>> = vec![BTreeMap::new(); k];
            for v in 0..g.num_vertices() as VertexId {
                let row = &mut rows[renum[assignment[v as usize] as usize] as usize];
                for (u, w) in g.neighbors(v) {
                    *row.entry(renum[assignment[u as usize] as usize])
                        .or_insert(0.0) += w;
                }
            }
            let expected: Vec<Vec<(Community, u64)>> = (0..k)
                .map(|c| {
                    rows[c]
                        .iter()
                        .map(|(&d, &w)| {
                            let w = if (d as usize) < c {
                                rows[d as usize][&(c as Community)]
                            } else {
                                w
                            };
                            (d, w.to_bits())
                        })
                        .collect()
                })
                .collect();
            for threads in [1usize, 2, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let graph = pool.install(|| condense(&g, assignment).graph);
                let got: Vec<Vec<(Community, u64)>> = (0..graph.num_vertices() as VertexId)
                    .map(|c| graph.neighbors(c).map(|(d, w)| (d, w.to_bits())).collect())
                    .collect();
                assert_eq!(got, expected, "rows differ at {threads} threads");
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
