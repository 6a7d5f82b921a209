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
//! one assembly: the vertices are grouped by row with the workspace's one
//! counting sort ([`group_by_label`]), each row is gathered once into the
//! buffers of the task that owns its contiguous row range, the parts are
//! copied in row order into the CSR arrays, and a mirror pass over the same
//! ranges copies each low-id row's weights onto their mirrors, each task
//! writing only its own carved piece of the weights (`condense_stamped`).
//! No task writes an index another task reads or writes, so nothing needs
//! a lock.
//!
//! Weight convention: traversing every adjacency entry means an intra-
//! community non-loop edge contributes twice to the meta-vertex self-loop and
//! a self-loop once; this preserves `Σ k` per community and therefore
//! modularity across the phase transition (tested below).

use crate::config::{RebuildStrategy, RenumberStrategy};
use crate::modularity::{thread_scratch, Community};
use grappolo_graph::components::group_by_label;
use grappolo_graph::shared::carve;
use grappolo_graph::CsrGraph;
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
/// stamped scratch, members ascending ([`group_by_label`]), then adjacency
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
/// exactly sized arrays. The mirror pass then makes the CSR bitwise
/// symmetric: the two directions of an inter-row pair sum their weights in
/// different orders, so the low-id row is authoritative, and every entry
/// `v → u` with `u < v` takes row `u`'s weight for `v`. It runs one task per
/// row range again, each writing its own carved piece of the weights
/// ([`carve`]) and reading row `u`'s weight from the buffer of `u`'s task,
/// which nothing writes; the buffers are freed after it.
pub(crate) fn condense_stamped(
    g: &CsrGraph,
    num_rows: usize,
    row_of: impl Fn(usize) -> Community + Sync + Send,
) -> CsrGraph {
    let (offsets, members) = group_by_label(g.num_vertices(), num_rows, &row_of);
    let task_rows = num_rows.div_ceil(MAX_TASKS).max(1);
    let mut row_offsets = vec![0usize; num_rows + 1];
    let mut task_lens: Vec<&mut [usize]> = row_offsets[1..].chunks_mut(task_rows).collect();
    let parts: Vec<(Vec<Community>, Vec<f64>)> = task_lens
        .par_iter_mut()
        .with_min_len(1)
        .enumerate()
        .map(|(t, lens)| {
            let mut scratch = thread_scratch();
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
    for (part_targets, part_weights) in &parts {
        targets.extend_from_slice(part_targets);
        weights.extend_from_slice(part_weights);
    }
    let mut pieces = carve(&mut weights, parts.iter().map(|(_, w)| w.len()));
    pieces
        .par_iter_mut()
        .with_min_len(1)
        .enumerate()
        .for_each(|(t, piece)| {
            let first = t * task_rows;
            for v in first..(first + task_rows).min(num_rows) {
                for idx in row_offsets[v]..row_offsets[v + 1] {
                    let u = targets[idx];
                    if u as usize >= v {
                        break; // sorted: the rest point at `v` or above
                    }
                    let row_u = row_offsets[u as usize]..row_offsets[u as usize + 1];
                    if let Ok(pos) = targets[row_u.clone()].binary_search(&(v as Community)) {
                        // A 32-bit division (row ids are `Community`
                        // values): cheaper than a 64-bit one on many cores.
                        let owner = (u / task_rows as Community) as usize;
                        let local = row_u.start + pos - row_offsets[owner * task_rows];
                        piece[idx - row_offsets[first]] = parts[owner].1[local];
                    }
                }
            }
        });
    drop(parts);
    CsrGraph::from_sorted_adjacency(row_offsets, targets, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modularity::modularity;
    use grappolo_graph::gen::{planted_partition, PlantedConfig};
    use grappolo_graph::{from_unweighted_edges, VertexId};

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

    /// The rows of `graph`, weights as bits.
    fn row_bits(graph: &CsrGraph) -> Vec<Vec<(Community, u64)>> {
        (0..graph.num_vertices() as VertexId)
            .map(|c| graph.neighbors(c).map(|(d, w)| (d, w.to_bits())).collect())
            .collect()
    }

    /// A serial condensation of `g` under `assignment`: one `BTreeMap` per
    /// community, filled members ascending in adjacency order, then the
    /// low-id mirror (each entry below its row takes the lower row's weight).
    fn serial_condensation(g: &CsrGraph, assignment: &[Community]) -> Vec<Vec<(Community, u64)>> {
        use std::collections::BTreeMap;
        let (renum, k) = renumber_communities(assignment, RenumberStrategy::Serial);
        let mut rows: Vec<BTreeMap<Community, f64>> = vec![BTreeMap::new(); k];
        for v in 0..g.num_vertices() as VertexId {
            let row = &mut rows[renum[assignment[v as usize] as usize] as usize];
            for (u, w) in g.neighbors(v) {
                *row.entry(renum[assignment[u as usize] as usize])
                    .or_insert(0.0) += w;
            }
        }
        (0..k)
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
            .collect()
    }

    #[test]
    fn condense_bitwise_matches_serial_condensation() {
        // The assembly and its mirror pass against the serial condensation,
        // weights bit for bit, at 1, 2, 8 and 16 threads. The planted graph
        // has real-valued weights, so a mirror entry read from the wrong
        // place shows. The degenerate shapes: a star whose hub sits mid-range
        // (under singletons its row has entries in every task, and reads
        // every lower task's buffer), a path, isolated vertices only, and one
        // edge of weight 2^53 among unit weights. Under blocks of 16 the
        // heavy edge joins blocks 0 and 1 beside 16 unit edges: block 0 adds
        // it first (vertex 0) and drops every unit after it, as 2^53 + 1
        // rounds back to 2^53, while block 1 adds it last (vertex 31), so the
        // two directions differ by 16 until the mirror unifies them.
        let (planted, truth) = planted_partition(&PlantedConfig {
            num_vertices: 2_000,
            num_communities: 20,
            weight_range: Some((0.1, 10.0)),
            ..Default::default()
        });
        let n = 1_000u32;
        let star = grappolo_graph::from_weighted_edges(
            n as usize,
            (0..n)
                .filter(|&v| v != n / 2)
                .map(|v| (n / 2, v, 1.0 + f64::from(v % 7) / 4.0)),
        )
        .unwrap();
        let path = grappolo_graph::from_weighted_edges(
            n as usize,
            (1..n).map(|v| (v - 1, v, 0.5 + f64::from(v % 5) / 3.0)),
        )
        .unwrap();
        let isolated = CsrGraph::empty(n as usize);
        let units = (1..n).map(|v| (v - 1, v, 1.0));
        let chords = (1..16).map(|v| (v, v + 15, 1.0));
        let dominant = grappolo_graph::from_weighted_edges(
            n as usize,
            units.chain(chords).chain([(0, 31, 2f64.powi(53))]),
        )
        .unwrap();
        let threads = [1usize, 2, 8, 16];
        let pools: Vec<rayon::ThreadPool> = threads
            .iter()
            .map(|&t| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .unwrap()
            })
            .collect();
        for (name, g) in [
            ("planted", &planted),
            ("star", &star),
            ("path", &path),
            ("isolated", &isolated),
            ("dominant", &dominant),
        ] {
            let ids = 0..g.num_vertices() as Community;
            let mut assignments = vec![
                ids.clone().collect::<Vec<Community>>(),
                ids.clone().map(|v| v / 16).collect(),
                ids.map(|v| v % 97).collect(),
            ];
            if name == "planted" {
                assignments.push(truth.clone());
            }
            for assignment in &assignments {
                let expected = serial_condensation(g, assignment);
                for (pool, t) in pools.iter().zip(threads) {
                    let graph = pool.install(|| condense(g, assignment).graph);
                    assert_eq!(row_bits(&graph), expected, "{name} differs at {t} threads");
                }
            }
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
