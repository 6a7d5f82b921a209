//! Vertex-following (VF) preprocessing (§5.3).
//!
//! Lemma 3 guarantees that a *single-degree* vertex `i` (one incident edge
//! `(i, j)`, no self-loop) always ends up in `j`'s community; VF therefore
//! merges such vertices into their neighbor before the Louvain iterations,
//! shrinking the sweep working set and letting hub vertices drive migration
//! decisions.
//!
//! Weight convention note (the §2 weight rules are in
//! [`grappolo_graph::csr`]'s module doc): the paper's §5.3 prose sets
//! `ω(j′,j′) = ω(j,j) + ω(i,j)`, which under the paper's own §2
//! degree definition (self-loop counted once in `k`) would shrink `m` by
//! `ω(i,j)/2` per merge and silently change all modularity values. We use the
//! m-preserving Louvain-condensation rule instead — the merged edge
//! contributes `2·ω(i,j)` to the meta-vertex self-loop — which keeps
//! modularity exactly comparable before and after preprocessing (enforced by
//! tests below).
//!
//! The recursive variant ([`vf_preprocess_recursive`]) re-applies the rule
//! until no single-degree vertices remain (chain compression, the §5.3
//! extension "to lead to fast compression of chains within the input graph").

use crate::config::RenumberStrategy;
use crate::parallel::slice_bounds;
use crate::rebuild::renumber_communities;
use grappolo_graph::shared::carve;
use grappolo_graph::{stats::is_single_degree, CsrGraph, VertexId};
use rayon::prelude::*;

/// Result of VF preprocessing.
#[derive(Clone, Debug)]
pub struct VfResult {
    /// The compacted graph.
    pub graph: CsrGraph,
    /// Maps each original vertex to its vertex id in `graph`.
    pub mapping: Vec<VertexId>,
    /// Number of vertices merged away (`original n − compacted n`).
    pub merged: usize,
}

impl VfResult {
    /// Projects a community assignment on the compacted graph back to the
    /// original vertex set: `result[v] = assignment[mapping[v]]`.
    pub fn project_assignment(&self, assignment: &[u32]) -> Vec<u32> {
        self.mapping
            .par_iter()
            .map(|&m| assignment[m as usize])
            .collect()
    }

    /// An identity result (no merging) for `n` vertices.
    pub fn identity(graph: CsrGraph) -> Self {
        let n = graph.num_vertices();
        Self {
            graph,
            mapping: (0..n as VertexId).collect(),
            merged: 0,
        }
    }
}

/// For the recursive extension: `v` is a *single-neighbor* vertex (§5.3) if
/// its adjacency is exactly one non-loop edge `(v, j)` plus an optional
/// self-loop. Returns `(j, ω(v, j))`.
fn single_neighbor(g: &CsrGraph, v: VertexId) -> Option<(VertexId, f64)> {
    let ids = g.neighbor_ids(v);
    let ws = g.neighbor_weights(v);
    match ids {
        [j] if *j != v => Some((*j, ws[0])),
        [a, b] if *a == v && *b != v => Some((*b, ws[1])),
        [a, b] if *b == v && *a != v => Some((*a, ws[0])),
        _ => None,
    }
}

/// Merge test for single-neighbor vertices: the positive part of inequality
/// (10) must dominate, i.e. `ω(i,j)/m > 2·k_i·a_{C(j)}/(2m)²`, which at
/// preprocessing time (singleton communities, `a_{C(j)} = k_j`) reduces to
/// `2m·ω(i,j) > k_i·k_j`. For a plain single-degree vertex (`k_i = ω`) this
/// always holds (Lemma 3); with a self-loop it can fail, which is the
/// paper's "until the negative component … starts to dominate" cutoff.
fn merge_profitable(g: &CsrGraph, v: VertexId, j: VertexId, w_vj: f64) -> bool {
    2.0 * g.total_weight() * w_vj > g.weighted_degree(v) * g.weighted_degree(j)
}

/// One VF round; `None` when no vertex merges.
fn vf_round(g: &CsrGraph, allow_single_neighbor: bool) -> Option<VfResult> {
    let n = g.num_vertices();

    // A vertex is mergeable if it is single-degree (paper's rule, always
    // profitable per Lemma 3) or — in recursive rounds — single-neighbor
    // with a profitable merge.
    let mergeable = |v: VertexId| -> Option<VertexId> {
        if is_single_degree(g, v) {
            return Some(g.neighbor_ids(v)[0]);
        }
        if allow_single_neighbor {
            if let Some((j, w)) = single_neighbor(g, v) {
                if merge_profitable(g, v, j, w) {
                    return Some(j);
                }
            }
        }
        None
    };

    // Step 1 (parallel): each mergeable vertex names its neighbor as its
    // representative. For a two-vertex pair where both are mergeable, the
    // higher id merges into the lower so exactly one survives.
    let rep: Vec<VertexId> = (0..n as VertexId)
        .into_par_iter()
        .map(|v| match mergeable(v) {
            None => v,
            Some(j) => {
                if mergeable(j).is_some() && j > v {
                    v // the pair's lower id survives; j will point at v
                } else {
                    j
                }
            }
        })
        .collect();

    // Step 2: renumber survivors densely ("Label the resulting vertices from
    // 1…n using an arbitrary ordering", §5.4 step (1)). `rep` labels every
    // vertex with its survivor, so the rebuild's renumbering of it gives the
    // survivors ascending ids and every merged vertex `VertexId::MAX`.
    let (new_id, num_survivors) = renumber_communities(&rep, RenumberStrategy::Serial);
    let merged = n - num_survivors;
    if merged == 0 {
        return None;
    }
    let survivors: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| rep[v as usize] == v)
        .collect();
    // mapping: original vertex → new id of its representative. rep chains
    // have length ≤ 1 (a single-degree vertex's neighbor either survives or
    // is the lower half of a mutual pair, which survives).
    let mapping: Vec<VertexId> = (0..n)
        .into_par_iter()
        .map(|v| {
            let r = rep[v] as usize;
            debug_assert_eq!(rep[r] as usize, r, "rep chains must have length ≤ 1");
            new_id[r]
        })
        .collect();

    let graph = fold_into_survivors(g, &rep, &new_id, &survivors);
    debug_assert!(
        graph.validate().is_ok(),
        "VF rebuild produced an invalid CSR"
    );
    Some(VfResult {
        graph,
        mapping,
        merged,
    })
}

/// The compacted graph of one VF round: one count pass and one fill pass
/// over the survivors' rows ([`folded_row`]). The fill runs one task per
/// slice of the survivors ([`slice_bounds`]), each writing its rows into its
/// own carved pieces of the output arrays.
fn fold_into_survivors(
    g: &CsrGraph,
    rep: &[VertexId],
    new_id: &[VertexId],
    survivors: &[VertexId],
) -> CsrGraph {
    // A row keeps its entries to survivors, plus one loop if any entry folds.
    let row_len = |s: VertexId| {
        let ids = g.neighbor_ids(s);
        let folded = ids.iter().filter(|&&u| rep[u as usize] == s).count();
        ids.len() - folded + usize::from(folded > 0)
    };
    let lens: Vec<usize> = survivors.par_iter().map(|&s| row_len(s)).collect();
    let mut offsets = vec![0usize; survivors.len() + 1];
    for (r, len) in lens.iter().enumerate() {
        offsets[r + 1] = offsets[r] + len;
    }
    let total = offsets[survivors.len()];
    let mut targets = vec![0 as VertexId; total];
    let mut weights = vec![0.0f64; total];
    let mut bounds = Vec::new();
    slice_bounds(g, survivors, &mut bounds);
    let entries = || bounds.windows(2).map(|w| offsets[w[1]] - offsets[w[0]]);
    let mut slices: Vec<_> = bounds
        .windows(2)
        .zip(carve(&mut targets, entries()))
        .zip(carve(&mut weights, entries()))
        .collect();
    // A slice is a coarse unit of work, and slices differ in length.
    slices
        .par_iter_mut()
        .with_min_len(1)
        .for_each(|((w, targets), weights)| {
            let first = offsets[w[0]];
            for r in w[0]..w[1] {
                let row = offsets[r] - first..offsets[r + 1] - first;
                let mut folded = folded_row(g, rep, new_id, survivors[r]);
                for (t, x) in targets[row.clone()].iter_mut().zip(&mut weights[row]) {
                    (*t, *x) = folded.next().expect("VF row shorter than counted");
                }
                assert!(folded.next().is_none(), "VF row longer than counted");
            }
        });
    CsrGraph::from_sorted_adjacency(offsets, targets, weights)
}

/// Survivor `s`'s row after the round. A merged vertex is always a neighbor
/// of its survivor and has no other neighbor, so only `s`'s own row changes:
/// its entries to survivors keep their weights under the monotone
/// relabeling (the row stays sorted, and the input's bitwise-symmetric
/// weights stay symmetric), and every entry inside the group — `s`'s loop,
/// `s`'s entries to its merged neighbors and all of theirs — becomes one
/// self-loop at `s`'s sorted position. The loop sums its terms members
/// ascending, then adjacency order, as the stamped condensation
/// (`rebuild::condense_stamped`) accumulates them, so the CSR is bitwise the
/// one that condensation builds from the same mapping: a merged pair's edge
/// contributes twice (the m-preserving rule) and an existing loop once.
fn folded_row<'a>(
    g: &'a CsrGraph,
    rep: &'a [VertexId],
    new_id: &'a [VertexId],
    s: VertexId,
) -> impl Iterator<Item = (VertexId, f64)> + 'a {
    let (ids, ws) = (g.neighbor_ids(s), g.neighbor_weights(s));
    let split = ids.partition_point(|&u| u < s);
    let folds = move |u: VertexId| rep[u as usize] == s;
    let member_terms = move |members: &'a [VertexId]| {
        let merged = members.iter().filter(move |&&u| u != s && folds(u));
        merged.flat_map(|&u| g.neighbor_weights(u))
    };
    let own_terms = ids.iter().zip(ws).filter(|&(&u, _)| folds(u));
    let self_loop = member_terms(&ids[..split])
        .chain(own_terms.map(|(_, w)| w))
        .chain(member_terms(&ids[split..]))
        .copied()
        .reduce(|acc, w| acc + w);
    let kept = move |(&u, &w): (&VertexId, &f64)| (!folds(u)).then(|| (new_id[u as usize], w));
    let below = ids[..split].iter().zip(&ws[..split]).filter_map(kept);
    let above = ids[split..].iter().zip(&ws[split..]).filter_map(kept);
    below
        .chain(self_loop.map(|w| (new_id[s as usize], w)))
        .chain(above)
}

/// Applies VF repeatedly (at most `max_rounds`): the first round is the
/// paper's single-degree rule; later rounds extend to *single-neighbor*
/// vertices under the inequality-(10) profitability test, which compresses
/// chains (§5.3's extension).
pub fn vf_preprocess_recursive(g: &CsrGraph, max_rounds: usize) -> VfResult {
    vf_compact(g, max_rounds).unwrap_or_else(|| VfResult::identity(g.clone()))
}

/// [`vf_preprocess_recursive`] without the identity copy: `None` when the
/// first round merges nothing, so the caller keeps using `g`.
pub(crate) fn vf_compact(g: &CsrGraph, max_rounds: usize) -> Option<VfResult> {
    let mut result = vf_round(g, false)?;
    for _ in 1..max_rounds {
        let Some(next) = vf_round(&result.graph, true) else {
            break;
        };
        // Compose mappings: original → round-k id → round-(k+1) id.
        let mapping: Vec<VertexId> = result
            .mapping
            .par_iter()
            .map(|&m| next.mapping[m as usize])
            .collect();
        result = VfResult {
            merged: result.merged + next.merged,
            graph: next.graph,
            mapping,
        };
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modularity::modularity;
    use crate::rebuild::condense_stamped;
    use grappolo_graph::gen::{
        erdos_renyi, grid2d, hub_spoke, planted_partition, rmat, road_network, web_graph, ErConfig,
        GridConfig, HubSpokeConfig, PlantedConfig, RmatConfig, RoadConfig, WebConfig,
    };
    use grappolo_graph::{from_unweighted_edges, from_weighted_edges};

    /// The stamped condensation of `g` under `r.mapping`: how VF compacted
    /// before the linear fold, and the fold's bitwise oracle.
    fn condensed(g: &CsrGraph, r: &VfResult) -> CsrGraph {
        condense_stamped(g, r.graph.num_vertices(), |u| r.mapping[u])
    }

    /// Fractional weights (so the summation order shows in the bits), hubs
    /// with merged neighbors on both sides of their id and their own
    /// self-loops, mutual leaf pairs, leaves carrying a self-loop (merged as
    /// single-neighbor vertices from the second round), and chains hanging
    /// off the core for the recursive rounds.
    fn weighted_mixed() -> CsrGraph {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut weight = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            0.1 + ((state >> 33) % 1000) as f64 / 7.0
        };
        let core = erdos_renyi(&ErConfig {
            num_vertices: 2_000,
            num_edges: 6_000,
            seed: 11,
        });
        let mut edges: Vec<(VertexId, VertexId, f64)> = core
            .undirected_edges()
            .map(|(u, v, _)| (u + 1_000, v + 1_000, weight()))
            .collect();
        let (mut low, mut next) = (0u32, 3_000u32);
        for hub in (1_000..3_000u32).step_by(7) {
            edges.push((hub, hub, weight()));
            // Leaves below the hub (ids 0..1000) and above it (3000..).
            for _ in 0..(hub % 5) {
                edges.push((low, hub, weight()));
                low += 1;
            }
            for _ in 0..(hub % 4) {
                edges.push((next, hub, weight()));
                next += 1;
            }
        }
        for hub in (1_003..3_000u32).step_by(11) {
            // A leaf with its own loop, and a 3-chain.
            edges.push((next, hub, weight()));
            edges.push((next, next, weight()));
            edges.push((next + 1, hub, weight()));
            edges.push((next + 1, next + 2, weight()));
            edges.push((next + 2, next + 3, weight()));
            next += 4;
        }
        for _ in 0..200 {
            // Mutual leaf pairs.
            edges.push((next, next + 1, weight()));
            next += 2;
        }
        from_weighted_edges(next as usize, edges).unwrap()
    }

    #[test]
    fn fold_matches_stamped_condensation_bitwise() {
        let graphs: Vec<(&str, CsrGraph)> = vec![
            (
                "er",
                erdos_renyi(&ErConfig {
                    num_vertices: 6_000,
                    num_edges: 9_000,
                    seed: 1,
                }),
            ),
            (
                "rmat",
                rmat(&RmatConfig {
                    scale: 13,
                    num_edges: 40_000,
                    ..Default::default()
                }),
            ),
            (
                "planted",
                planted_partition(&PlantedConfig {
                    num_vertices: 5_000,
                    num_communities: 50,
                    avg_intra_degree: 2.0,
                    avg_inter_degree: 0.5,
                    ..Default::default()
                })
                .0,
            ),
            (
                "road",
                road_network(&RoadConfig {
                    num_vertices: 6_000,
                    ..Default::default()
                }),
            ),
            (
                "hub_spoke",
                hub_spoke(&HubSpokeConfig {
                    num_hubs: 200,
                    spokes_per_hub: 20,
                    ..Default::default()
                })
                .0,
            ),
            (
                "web",
                web_graph(&WebConfig {
                    num_vertices: 5_000,
                    num_communities: 50,
                    avg_intra_degree: 2.0,
                    ..Default::default()
                })
                .0,
            ),
            (
                "grid",
                grid2d(&GridConfig {
                    side: 60,
                    noise_fraction: 0.2,
                    ..Default::default()
                }),
            ),
            ("weighted_mixed", weighted_mixed()),
        ];
        for (name, g) in &graphs {
            let once = vf_preprocess_recursive(g, 1);
            assert!(once.graph.bitwise_eq(&condensed(g, &once)), "{name}");

            // The recursive chain, checked round by round against the
            // condensation of that round's input.
            let mut current = g.clone();
            let mut mapping: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
            for round in 0..4 {
                let Some(r) = vf_round(&current, round > 0) else {
                    break;
                };
                assert!(
                    r.graph.bitwise_eq(&condensed(&current, &r)),
                    "{name}: round {round} differs from the condensation"
                );
                mapping = mapping.iter().map(|&m| r.mapping[m as usize]).collect();
                current = r.graph;
            }
            let recursive = vf_preprocess_recursive(g, 4);
            assert!(recursive.graph.bitwise_eq(&current), "{name}");
            assert_eq!(recursive.mapping, mapping, "{name}");
        }
    }

    #[test]
    fn star_collapses_to_single_vertex() {
        // Star: hub 0, spokes 1..5 — all spokes single-degree.
        let g = from_unweighted_edges(5, (1..5).map(|v| (0, v))).unwrap();
        let r = vf_preprocess_recursive(&g, 1);
        assert_eq!(r.graph.num_vertices(), 1);
        assert_eq!(r.merged, 4);
        assert!(r.mapping.iter().all(|&m| m == 0));
        // Self-loop = 2 × total spoke weight; m preserved.
        assert_eq!(r.graph.self_loop_weight(0), 8.0);
        assert_eq!(r.graph.total_weight(), g.total_weight());
    }

    #[test]
    fn pair_merges_to_one() {
        let g = from_unweighted_edges(2, [(0, 1)]).unwrap();
        let r = vf_preprocess_recursive(&g, 1);
        assert_eq!(r.graph.num_vertices(), 1);
        assert_eq!(r.merged, 1);
        assert_eq!(r.graph.total_weight(), g.total_weight());
    }

    #[test]
    fn preserves_total_weight_on_hub_spoke() {
        let (g, _) = hub_spoke(&HubSpokeConfig::default());
        let r = vf_preprocess_recursive(&g, 1);
        assert!((r.graph.total_weight() - g.total_weight()).abs() < 1e-9);
        // All spokes merged: 64 hubs remain.
        assert_eq!(r.graph.num_vertices(), 64);
    }

    #[test]
    fn modularity_is_preserved_under_projection() {
        // Q of any partition of the compacted graph equals Q of the projected
        // partition of the original — the invariant the m-preserving weight
        // rule buys (and the paper's prose formula would break).
        let (g, _) = hub_spoke(&HubSpokeConfig {
            num_hubs: 10,
            spokes_per_hub: 3,
            ..Default::default()
        });
        let r = vf_preprocess_recursive(&g, 1);
        // Partition compacted hubs into two halves.
        let nc = r.graph.num_vertices();
        let compact: Vec<u32> = (0..nc as u32)
            .map(|v| if v < nc as u32 / 2 { 0 } else { 1 })
            .collect();
        let original = r.project_assignment(&compact);
        let q_compact = modularity(&r.graph, &compact);
        let q_original = modularity(&g, &original);
        assert!(
            (q_compact - q_original).abs() < 1e-12,
            "compact {q_compact} vs original {q_original}"
        );
    }

    #[test]
    fn no_single_degree_is_identity() {
        let g = from_unweighted_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let r = vf_preprocess_recursive(&g, 1);
        assert_eq!(r.merged, 0);
        assert_eq!(r.graph.num_vertices(), 3);
        assert_eq!(r.mapping, vec![0, 1, 2]);
    }

    #[test]
    fn vertex_with_self_loop_and_one_edge_not_merged() {
        // v1 has entries [(0), (1,1 loop)] → degree 2, not single-degree.
        let g = from_weighted_edges(2, [(0, 1, 1.0), (1, 1, 2.0)]).unwrap();
        let r = vf_preprocess_recursive(&g, 1);
        // vertex 0 IS single-degree and merges into 1.
        assert_eq!(r.graph.num_vertices(), 1);
        assert_eq!(r.merged, 1);
        // loop: own 2.0 + merged edge 2×1.0
        assert_eq!(r.graph.self_loop_weight(0), 4.0);
    }

    #[test]
    fn chain_needs_recursion() {
        // Path 0-1-2-3-4: single pass merges only the endpoints.
        let g = from_unweighted_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let once = vf_preprocess_recursive(&g, 1);
        assert_eq!(once.graph.num_vertices(), 3);
        let rec = vf_preprocess_recursive(&g, 16);
        assert_eq!(rec.graph.num_vertices(), 1, "chain should fully compress");
        assert!((rec.graph.total_weight() - g.total_weight()).abs() < 1e-12);
        assert_eq!(rec.merged, 4);
    }

    #[test]
    fn recursive_mapping_composes() {
        // 4-path: round 1 merges the endpoints; round 2 must NOT merge the
        // two halves — Q({01},{23}) = 1/6 beats Q(all) = 0, and the
        // inequality-(10) criterion (2mω = 6 < k·k = 9) correctly vetoes it.
        let g = from_unweighted_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let r = vf_preprocess_recursive(&g, 16);
        assert_eq!(r.graph.num_vertices(), 2);
        assert_eq!(r.mapping, vec![0, 0, 1, 1]);
        let projected = r.project_assignment(&[42, 7]);
        assert_eq!(projected, vec![42, 42, 7, 7]);
        assert!((r.graph.total_weight() - g.total_weight()).abs() < 1e-12);
    }

    #[test]
    fn recursive_respects_round_cap() {
        let g = from_unweighted_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let r = vf_preprocess_recursive(&g, 1);
        assert_eq!(r.graph.num_vertices(), 3); // only one round applied
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(0);
        let r = vf_preprocess_recursive(&g, 1);
        assert_eq!(r.merged, 0);
        assert_eq!(r.graph.num_vertices(), 0);
    }

    #[test]
    fn isolated_vertices_survive() {
        let g = from_unweighted_edges(4, [(0, 1)]).unwrap();
        let r = vf_preprocess_recursive(&g, 1);
        // 0,1 merge into one; isolated 2 and 3 survive.
        assert_eq!(r.graph.num_vertices(), 3);
        assert_eq!(r.merged, 1);
    }
}
