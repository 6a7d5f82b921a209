//! Weakly connected components, on the workspace's one counting sort and
//! one breadth-first traversal.
//!
//! Real-world inputs decompose into many connected components, and every
//! component is an **independent** community-detection problem: no edge —
//! hence no modularity term, no Louvain move — ever crosses a component
//! boundary. `grappolo_core`'s component splitter builds on the two halves
//! here:
//!
//! * [`connected_components`] labels vertices with dense component ids in
//!   **ascending-minimum-vertex order** (component 0 contains vertex 0's
//!   component, component 1 the smallest vertex not in it, …). Each
//!   component is grown serially from its lowest vertex by
//!   [`grow_component`], the traversal Leiden refinement grows its
//!   sub-communities with, so the labeling is bitwise identical for any
//!   thread count by construction.
//! * [`extract_components`] materializes one CSR subgraph per component with
//!   a local→global vertex remap table, listed by [`group_by_label`], the
//!   sort that also makes the color classes and the rebuild's rows. Local
//!   ids preserve ascending global order, so every order-based tie-break
//!   downstream (minimum-label moves, ascending-vertex commits) behaves
//!   identically on the subgraph and on the component embedded in the
//!   parent graph.

use crate::csr::{CsrGraph, VertexId};
use rayon::prelude::*;

/// Dense weakly-connected-component labeling of a graph.
///
/// Component ids are `0..num_components()` in ascending order of each
/// component's minimum vertex id.
#[derive(Clone, Debug)]
pub struct ComponentLabeling {
    labels: Vec<u32>,
    sizes: Vec<usize>,
}

impl ComponentLabeling {
    /// Number of weakly connected components.
    pub fn num_components(&self) -> usize {
        self.sizes.len()
    }

    /// Per-vertex component ids.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Vertex count per component, indexed by component id.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Id and size of the largest component (ties to the lower id), or
    /// `None` for the empty graph.
    pub fn largest(&self) -> Option<(u32, usize)> {
        self.sizes
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
            .map(|(i, &s)| (i as u32, s))
    }

    /// Number of single-vertex components.
    pub fn num_isolated(&self) -> usize {
        self.sizes.iter().filter(|&&s| s == 1).count()
    }
}

/// The label [`grow_component`] treats as "not yet reached".
pub const UNLABELED: u32 = u32::MAX;

/// Groups vertices `0..n` by label: returns `(offsets, members)` with
/// `members[offsets[l]..offsets[l + 1]]` listing the vertices `v` with
/// `label_of(v) == l` in ascending id order. Every label must be below
/// `num_labels`; a label no vertex has gets an empty range. A counting
/// sort, so the grouping is a pure function of the labels. O(n +
/// num_labels).
pub fn group_by_label(
    n: usize,
    num_labels: usize,
    label_of: impl Fn(usize) -> u32,
) -> (Vec<usize>, Vec<VertexId>) {
    let mut offsets = vec![0usize; num_labels + 1];
    for v in 0..n {
        offsets[label_of(v) as usize + 1] += 1;
    }
    for l in 0..num_labels {
        offsets[l + 1] += offsets[l];
    }
    let mut cursor = offsets.clone();
    let mut members = vec![0 as VertexId; n];
    for v in 0..n {
        let l = label_of(v) as usize;
        members[cursor[l]] = v as VertexId;
        cursor[l] += 1;
    }
    (offsets, members)
}

/// Gives `label` to `seed` and to every vertex reachable from it through
/// vertices that join, breadth first: a neighbor `u` of a reached vertex is
/// reached when `labels[u]` is [`UNLABELED`] and `joins(u)` holds. `joins`
/// is asked about unlabeled vertices only, so it may read state that is
/// valid only there. `seed` must be unlabeled. On return `queue` holds the
/// component in visit order, `seed` first.
pub fn grow_component(
    g: &CsrGraph,
    seed: VertexId,
    label: u32,
    labels: &mut [u32],
    queue: &mut Vec<VertexId>,
    mut joins: impl FnMut(VertexId) -> bool,
) {
    debug_assert_eq!(labels[seed as usize], UNLABELED, "seed already labeled");
    labels[seed as usize] = label;
    queue.clear();
    queue.push(seed);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for &u in g.neighbor_ids(v) {
            if labels[u as usize] == UNLABELED && joins(u) {
                labels[u as usize] = label;
                queue.push(u);
            }
        }
    }
}

/// Labels the weakly connected components of `g`.
///
/// Seeds are scanned in ascending vertex order and each component is grown
/// by [`grow_component`], so component ids come out in
/// ascending-minimum-vertex order and the result is a pure function of the
/// graph — no thread-count or schedule dependence. O(n + m) time, O(n)
/// scratch.
pub fn connected_components(g: &CsrGraph) -> ComponentLabeling {
    let n = g.num_vertices();
    let mut labels = vec![UNLABELED; n];
    let mut sizes = Vec::new();
    let mut queue = Vec::new();
    for seed in 0..n as VertexId {
        if labels[seed as usize] == UNLABELED {
            let id = sizes.len() as u32;
            grow_component(g, seed, id, &mut labels, &mut queue, |_| true);
            sizes.push(queue.len());
        }
    }
    ComponentLabeling { labels, sizes }
}

/// One extracted component: a local CSR subgraph plus its vertex remap
/// table.
#[derive(Clone, Debug)]
pub struct ComponentSubgraph {
    /// The component's id in the parent labeling.
    pub id: u32,
    /// The component as a standalone graph over local ids `0..size`.
    pub graph: CsrGraph,
    /// Local→global remap: `vertices[local]` is the parent-graph vertex.
    /// Ascending, because local ids preserve ascending global order.
    pub vertices: Vec<VertexId>,
}

/// Extracts every component of `g` as a standalone subgraph, in component-id
/// order (singletons included — their subgraphs are single isolated
/// vertices, or a lone self-loop).
///
/// Components are materialized in parallel, in pool tasks of ⌈k/64⌉
/// consecutive components for `k` components — each one's arrays are
/// written by exactly one task, so the output is independent of thread
/// count.
pub fn extract_components(g: &CsrGraph, labeling: &ComponentLabeling) -> Vec<ComponentSubgraph> {
    let labels = labeling.labels();
    let (bounds, members) =
        group_by_label(g.num_vertices(), labeling.num_components(), |v| labels[v]);
    // Local id of every vertex: its rank among its component's members.
    let mut local_of = vec![0 as VertexId; g.num_vertices()];
    for (i, &v) in members.iter().enumerate() {
        local_of[v as usize] = (i - bounds[labels[v as usize] as usize]) as VertexId;
    }
    (0..labeling.num_components())
        .into_par_iter()
        .with_min_len(1)
        .map(|c| {
            let vertices = members[bounds[c]..bounds[c + 1]].to_vec();
            let mut offsets = Vec::with_capacity(vertices.len() + 1);
            offsets.push(0usize);
            let mut targets = Vec::new();
            let mut weights = Vec::new();
            for &v in &vertices {
                for (u, w) in g.neighbors(v) {
                    debug_assert_eq!(labels[u as usize] as usize, c, "edge crosses components");
                    targets.push(local_of[u as usize]);
                    weights.push(w);
                }
                offsets.push(targets.len());
            }
            ComponentSubgraph {
                id: c as u32,
                // Invariants hold by construction: neighbors stay in the
                // component and the monotone remap preserves sorted
                // adjacency and mirror symmetry.
                graph: CsrGraph::from_sorted_adjacency(offsets, targets, weights),
                vertices,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Two triangles (0-1-2 and 5-6-7), an edge 3-4, and isolated vertex 8.
    fn multi() -> CsrGraph {
        GraphBuilder::new(9)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(0, 2, 1.0)
            .add_edge(3, 4, 2.0)
            .add_edge(5, 6, 1.0)
            .add_edge(6, 7, 1.0)
            .add_edge(5, 7, 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn group_by_label_lists_members_ascending_with_empty_labels() {
        // Labels 1 and 4 have no vertex; label 5 is the last one allowed.
        let labels = [3u32, 0, 3, 2, 0, 5, 3];
        let (offsets, members) = group_by_label(labels.len(), 6, |v| labels[v]);
        assert_eq!(offsets, [0, 2, 2, 3, 6, 6, 7]);
        assert_eq!(members, [1, 4, 3, 0, 2, 6, 5]);
        assert_eq!(group_by_label(0, 0, |_| 0), (vec![0], vec![]));
        assert_eq!(group_by_label(0, 2, |_| 0), (vec![0, 0, 0], vec![]));
    }

    #[test]
    fn grow_component_asks_joins_about_unlabeled_vertices_only() {
        // Grown from 0 over `multi`'s first triangle with 2 already labeled:
        // `joins` is asked about 1 only, once, and 2 keeps its label.
        let g = multi();
        let mut labels = vec![UNLABELED; 9];
        labels[2] = 7;
        let mut queue = vec![8];
        let mut asked = Vec::new();
        grow_component(&g, 0, 4, &mut labels, &mut queue, |u| {
            asked.push(u);
            true
        });
        assert_eq!(asked, [1]);
        assert_eq!(queue, [0, 1]);
        assert_eq!(&labels[..4], &[4, 4, 7, UNLABELED]);
        // A vertex that does not join stays unlabeled and is asked again
        // from each reached neighbor; the path 5-6-7 around 5 is cut at 6.
        let mut asked = Vec::new();
        grow_component(&g, 6, 1, &mut labels, &mut queue, |u| {
            asked.push(u);
            u != 5
        });
        assert_eq!(asked, [5, 7, 5]);
        assert_eq!(queue, [6, 7]);
        assert_eq!(labels[5..8], [UNLABELED, 1, 1]);
    }

    #[test]
    fn labels_ascending_min_vertex_order() {
        let g = multi();
        let l = connected_components(&g);
        assert_eq!(l.num_components(), 4);
        assert_eq!(l.labels(), &[0, 0, 0, 1, 1, 2, 2, 2, 3]);
        assert_eq!(l.sizes(), &[3, 2, 3, 1]);
        assert_eq!(l.largest(), Some((0, 3)));
        assert_eq!(l.num_isolated(), 1);
    }

    #[test]
    fn connected_graph_is_one_component() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .build()
            .unwrap();
        let l = connected_components(&g);
        assert_eq!(l.num_components(), 1);
        assert_eq!(l.sizes(), &[3]);
    }

    #[test]
    fn empty_graph_has_no_components() {
        let g = CsrGraph::empty(0);
        let l = connected_components(&g);
        assert_eq!(l.num_components(), 0);
        assert_eq!(l.largest(), None);
    }

    #[test]
    fn isolated_vertices_are_singletons() {
        let g = CsrGraph::empty(4);
        let l = connected_components(&g);
        assert_eq!(l.num_components(), 4);
        assert_eq!(l.num_isolated(), 4);
    }

    #[test]
    fn extraction_remaps_and_preserves_weights() {
        let g = multi();
        let l = connected_components(&g);
        let subs = extract_components(&g, &l);
        assert_eq!(subs.len(), 4);
        // Component 1 is the 3-4 edge with weight 2.0.
        let s = &subs[1];
        assert_eq!(s.vertices, vec![3, 4]);
        assert_eq!(s.graph.num_vertices(), 2);
        assert_eq!(s.graph.edge_weight(0, 1), Some(2.0));
        // Component 3 is the isolated vertex.
        assert_eq!(subs[3].vertices, vec![8]);
        assert_eq!(subs[3].graph.num_vertices(), 1);
        assert_eq!(subs[3].graph.num_edges(), 0);
        // Every subgraph validates and total sizes cover the parent.
        let total: usize = subs.iter().map(|s| s.graph.num_vertices()).sum();
        assert_eq!(total, g.num_vertices());
        for s in &subs {
            s.graph.validate().unwrap();
        }
    }

    #[test]
    fn extraction_keeps_self_loops() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1, 1.0)
            .add_edge(2, 2, 4.0)
            .build()
            .unwrap();
        let l = connected_components(&g);
        let subs = extract_components(&g, &l);
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[1].graph.self_loop_weight(0), 4.0);
    }
}
