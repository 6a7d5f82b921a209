//! Weakly connected components: deterministic labeling and per-component
//! subgraph extraction.
//!
//! Real-world inputs decompose into many connected components, and every
//! component is an **independent** community-detection problem: no edge —
//! hence no modularity term, no Louvain move — ever crosses a component
//! boundary. `grappolo_core`'s component splitter builds on the two halves
//! here:
//!
//! * [`connected_components`] labels vertices with dense component ids in
//!   **ascending-minimum-vertex order** (component 0 contains vertex 0's
//!   component, component 1 the smallest vertex not in it, …). The labeling
//!   is computed by a serial seeded BFS, so it is bitwise identical for any
//!   thread count by construction.
//! * [`extract_components`] materializes one CSR subgraph per component with
//!   a local→global vertex remap table. Local ids preserve ascending global
//!   order, so every order-based tie-break downstream (minimum-label moves,
//!   ascending-vertex commits) behaves identically on the subgraph and on
//!   the component embedded in the parent graph.

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

/// Labels the weakly connected components of `g`.
///
/// Seeds are scanned in ascending vertex order and each component is grown
/// by BFS, so component ids come out in ascending-minimum-vertex order and
/// the result is a pure function of the graph — no thread-count or schedule
/// dependence. O(n + m) time, O(n) scratch.
pub fn connected_components(g: &CsrGraph) -> ComponentLabeling {
    let n = g.num_vertices();
    const UNLABELED: u32 = u32::MAX;
    let mut labels = vec![UNLABELED; n];
    let mut sizes = Vec::new();
    let mut queue: Vec<VertexId> = Vec::new();
    for seed in 0..n {
        if labels[seed] != UNLABELED {
            continue;
        }
        let comp = sizes.len() as u32;
        labels[seed] = comp;
        queue.clear();
        queue.push(seed as VertexId);
        let mut size = 0usize;
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            size += 1;
            for &u in g.neighbor_ids(v) {
                if labels[u as usize] == UNLABELED {
                    labels[u as usize] = comp;
                    queue.push(u);
                }
            }
        }
        sizes.push(size);
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
    let n = g.num_vertices();
    let labels = labeling.labels();
    let k = labeling.num_components();
    // Local id of every vertex: its rank within its component, in one
    // ascending scan (deterministic by construction).
    let mut local_of = vec![0 as VertexId; n];
    let mut next = vec![0 as VertexId; k];
    for v in 0..n {
        let c = labels[v] as usize;
        local_of[v] = next[c];
        next[c] += 1;
    }
    // Gather each component's member list (ascending, by the same scan).
    let mut members: Vec<Vec<VertexId>> = labeling
        .sizes()
        .iter()
        .map(|&s| Vec::with_capacity(s))
        .collect();
    for v in 0..n {
        members[labels[v] as usize].push(v as VertexId);
    }
    members
        .par_iter_mut()
        .with_min_len(1)
        .enumerate()
        .map(|(c, vertices)| {
            let vertices = std::mem::take(vertices);
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
