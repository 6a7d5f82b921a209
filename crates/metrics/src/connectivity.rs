//! Connectivity audit for community assignments.
//!
//! Louvain-style local moving can leave a community **internally
//! disconnected**: its induced subgraph falls apart into two or more
//! components that are only held together by paths through other
//! communities (the flaw Leiden-style refinement repairs). This module
//! measures that pathology directly on a `(graph, assignment)` pair:
//!
//! * the number and fraction of internally disconnected communities
//!   (component count of each induced subgraph, via per-community BFS), and
//! * each community's **internal conductance** — the minimum conductance
//!   over the BFS sweep cuts of its induced subgraph. A disconnected
//!   community scores exactly 0 (the component boundary is a zero-crossing
//!   cut the sweep always finds); for connected communities the sweep
//!   minimum is an *upper bound* on the true minimum conductance (exact
//!   minimization is intractable), which is the standard proxy for "weakly
//!   connected".
//!
//! Everything here is read-only and deterministic: communities are audited
//! in parallel, in pool tasks of ⌈k/64⌉ consecutive communities for `k`
//! communities, but each per-community result is a pure function of the
//! input, collected in label order, and the reduction (min / sum) is
//! order-independent.

use grappolo_graph::{CsrGraph, VertexId};
use rayon::prelude::*;

/// Audit result for one community with at least one member.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommunityConnectivity {
    /// The community's label in the input assignment.
    pub community: u32,
    /// Member count.
    pub size: usize,
    /// Connected components of the induced subgraph (1 = internally
    /// connected; edgeless multi-vertex communities report `size`).
    pub components: usize,
    /// Minimum conductance over the BFS sweep cuts of the induced
    /// subgraph: 0 iff internally disconnected, 1 for singletons and
    /// two-vertex communities (no nontrivial cut), otherwise an upper
    /// bound on the true internal conductance in `(0, 1]`.
    pub internal_conductance: f64,
}

/// Whole-assignment audit: the aggregate the CLI's `audit` subcommand and
/// the paper-claims tests consume.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConnectivityReport {
    /// Non-empty communities in the assignment.
    pub num_communities: usize,
    /// Communities whose induced subgraph has ≥ 2 connected components.
    pub disconnected: usize,
    /// `disconnected / num_communities` (0 for an empty assignment).
    pub disconnected_fraction: f64,
    /// Minimum [`CommunityConnectivity::internal_conductance`] over all
    /// communities with ≥ 3 members (1.0 when there are none). Exactly 0
    /// iff some such community is internally disconnected.
    pub min_internal_conductance: f64,
    /// A community attaining `min_internal_conductance` (the smallest such
    /// label), when any community with ≥ 3 members exists.
    pub worst_community: Option<u32>,
}

/// Audits one community's induced subgraph. `members` must be the
/// ascending list of vertices with `assignment[v] == label`.
fn audit_community(
    g: &CsrGraph,
    assignment: &[u32],
    label: u32,
    members: &[VertexId],
) -> CommunityConnectivity {
    let size = members.len();
    debug_assert!(size > 0);
    if size == 1 {
        return CommunityConnectivity {
            community: label,
            size,
            components: 1,
            internal_conductance: 1.0,
        };
    }

    // Internal degrees (self loops excluded) and the community volume.
    let internal_degree = |v: VertexId| -> f64 {
        g.neighbors(v)
            .filter(|&(u, _)| u != v && assignment[u as usize] == label)
            .map(|(_, w)| w)
            .sum()
    };
    let d_int: Vec<f64> = members.iter().map(|&v| internal_degree(v)).collect();
    let vol: f64 = d_int.iter().sum();

    // BFS over the induced subgraph, seeding components in ascending
    // vertex order; `order` is the sweep ordering, `rank[local]` marks
    // swept members.
    let local_of = |v: VertexId| members.binary_search(&v).expect("member lookup");
    let mut rank: Vec<usize> = vec![usize::MAX; size];
    let mut order: Vec<VertexId> = Vec::with_capacity(size);
    let mut components = 0usize;
    for seed_local in 0..size {
        if rank[seed_local] != usize::MAX {
            continue;
        }
        components += 1;
        rank[seed_local] = order.len();
        order.push(members[seed_local]);
        let mut head = order.len() - 1;
        while head < order.len() {
            let x = order[head];
            head += 1;
            for &u in g.neighbor_ids(x) {
                if u == x || assignment[u as usize] != label {
                    continue;
                }
                let lu = local_of(u);
                if rank[lu] == usize::MAX {
                    rank[lu] = order.len();
                    order.push(u);
                }
            }
        }
    }

    // Sweep cuts over the BFS order: after sweeping prefix S, the cut
    // weight is Σ_{v∈S} d_int(v) − 2·w(S, S) — maintained incrementally as
    // each vertex brings in d_int(v) new boundary weight and retires
    // 2·w(v, swept prefix). cut ≤ min(vol(S), vol − vol(S)) always, so a
    // zero denominator forces a zero cut: report 0 (the disconnected /
    // internally-isolated case).
    let mut min_cond = 1.0f64;
    let mut cut = 0.0f64;
    let mut vol_s = 0.0f64;
    for (idx, &v) in order.iter().enumerate().take(size - 1) {
        let dv = d_int[local_of(v)];
        let w_back: f64 = g
            .neighbors(v)
            .filter(|&(u, _)| u != v && assignment[u as usize] == label && rank[local_of(u)] < idx)
            .map(|(_, w)| w)
            .sum();
        cut += dv - 2.0 * w_back;
        vol_s += dv;
        let denom = vol_s.min(vol - vol_s);
        let cond = if denom > 0.0 { cut / denom } else { 0.0 };
        if cond < min_cond {
            min_cond = cond;
        }
    }
    if components > 1 {
        // The sweep finds a zero cut at each component boundary; make the
        // invariant explicit even under float noise.
        min_cond = 0.0;
    }
    CommunityConnectivity {
        community: label,
        size,
        components,
        internal_conductance: min_cond,
    }
}

/// Audits every non-empty community of `assignment` on `g`.
///
/// Labels may be sparse (any `u32` values); each distinct label is one
/// community. Panics if `assignment.len() != g.num_vertices()`.
pub fn audit_communities(g: &CsrGraph, assignment: &[u32]) -> Vec<CommunityConnectivity> {
    assert_eq!(
        assignment.len(),
        g.num_vertices(),
        "assignment length must match vertex count"
    );
    // Group members by label: sort (label, vertex) pairs — members come out
    // ascending within each community, labels ascending across them.
    let mut pairs: Vec<(u32, VertexId)> = assignment
        .iter()
        .enumerate()
        .map(|(v, &c)| (c, v as VertexId))
        .collect();
    pairs.sort_unstable();
    let mut groups: Vec<(u32, Vec<VertexId>)> = Vec::new();
    for (c, v) in pairs {
        match groups.last_mut() {
            Some((label, members)) if *label == c => members.push(v),
            _ => groups.push((c, vec![v])),
        }
    }
    groups
        .par_iter()
        .with_min_len(1)
        .map(|(label, members)| audit_community(g, assignment, *label, members))
        .collect()
}

/// The aggregate connectivity report over all communities — see
/// [`ConnectivityReport`].
pub fn connectivity_report(g: &CsrGraph, assignment: &[u32]) -> ConnectivityReport {
    let per_community = audit_communities(g, assignment);
    summarize(&per_community)
}

/// Aggregates per-community audits into a [`ConnectivityReport`].
pub fn summarize(per_community: &[CommunityConnectivity]) -> ConnectivityReport {
    let num_communities = per_community.len();
    let disconnected = per_community.iter().filter(|c| c.components > 1).count();
    let mut min_cond = 1.0f64;
    let mut worst: Option<u32> = None;
    for c in per_community {
        // Size ≤ 2 communities are trivially cohesive; they would pin the
        // minimum at 1.0 without saying anything about cut structure.
        if c.size >= 3 && (worst.is_none() || c.internal_conductance < min_cond) {
            min_cond = c.internal_conductance;
            worst = Some(c.community);
        }
    }
    ConnectivityReport {
        num_communities,
        disconnected,
        disconnected_fraction: if num_communities == 0 {
            0.0
        } else {
            disconnected as f64 / num_communities as f64
        },
        min_internal_conductance: min_cond,
        worst_community: worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grappolo_graph::from_unweighted_edges;

    #[test]
    fn connected_communities_report_clean() {
        // Two triangles joined by one edge, labeled as two communities.
        let g = from_unweighted_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
            .unwrap();
        let assignment = vec![0, 0, 0, 1, 1, 1];
        let report = connectivity_report(&g, &assignment);
        assert_eq!(report.num_communities, 2);
        assert_eq!(report.disconnected, 0);
        assert_eq!(report.disconnected_fraction, 0.0);
        // A triangle's worst sweep cut separates one vertex: cut 2 over
        // min-volume 2 → conductance 1.
        assert_eq!(report.min_internal_conductance, 1.0);
    }

    #[test]
    fn disconnected_community_scores_zero() {
        // Community 0 is two separate edges bridged only through community 1.
        let g = from_unweighted_edges(5, [(0, 1), (3, 4), (1, 2), (2, 3)]).unwrap();
        let assignment = vec![0, 0, 1, 0, 0];
        let audits = audit_communities(&g, &assignment);
        let c0 = audits.iter().find(|c| c.community == 0).unwrap();
        assert_eq!(c0.components, 2);
        assert_eq!(c0.internal_conductance, 0.0);
        let report = summarize(&audits);
        assert_eq!(report.disconnected, 1);
        assert!((report.disconnected_fraction - 0.5).abs() < 1e-12);
        assert_eq!(report.min_internal_conductance, 0.0);
        assert_eq!(report.worst_community, Some(0));
    }

    #[test]
    fn weak_bridge_lowers_conductance() {
        // Two triangles bridged by a single edge, all one community: the
        // sweep finds the bridge cut (1 crossing edge, min side volume 7).
        let g = from_unweighted_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
            .unwrap();
        let assignment = vec![0; 6];
        let audits = audit_communities(&g, &assignment);
        assert_eq!(audits.len(), 1);
        assert_eq!(audits[0].components, 1);
        assert!(
            (audits[0].internal_conductance - 1.0 / 7.0).abs() < 1e-12,
            "got {}",
            audits[0].internal_conductance
        );
    }

    #[test]
    fn singletons_and_edgeless_cases() {
        let g = from_unweighted_edges(3, [(0, 1)]).unwrap();
        // Vertex 2 is an isolated singleton; {0,1} is a connected pair.
        let report = connectivity_report(&g, &[0, 0, 1]);
        assert_eq!(report.num_communities, 2);
        assert_eq!(report.disconnected, 0);
        // No community has ≥ 3 members, so the minimum stays at its
        // neutral value with no worst community.
        assert_eq!(report.min_internal_conductance, 1.0);
        assert_eq!(report.worst_community, None);

        // An edgeless multi-vertex community is maximally disconnected.
        let g2 = from_unweighted_edges(4, [(2, 3)]).unwrap();
        let audits = audit_communities(&g2, &[7, 7, 1, 1]);
        let c7 = audits.iter().find(|c| c.community == 7).unwrap();
        assert_eq!(c7.components, 2);
        assert_eq!(c7.internal_conductance, 0.0);
    }

    #[test]
    fn empty_graph_report() {
        let g = from_unweighted_edges(0, std::iter::empty::<(u32, u32)>()).unwrap();
        let report = connectivity_report(&g, &[]);
        assert_eq!(report.num_communities, 0);
        assert_eq!(report.disconnected_fraction, 0.0);
    }

    #[test]
    fn dendrogram_levels_audit_independently() {
        let g = from_unweighted_edges(4, [(0, 1), (2, 3), (1, 2)]).unwrap();
        let fine = vec![0, 0, 1, 1];
        let coarse = vec![0, 0, 0, 0];
        let reports: Vec<ConnectivityReport> = [fine, coarse]
            .iter()
            .map(|level| connectivity_report(&g, level))
            .collect();
        assert_eq!(reports[0].disconnected, 0);
        assert_eq!(reports[1].num_communities, 1);
        assert_eq!(reports[1].disconnected, 0);
    }
}
