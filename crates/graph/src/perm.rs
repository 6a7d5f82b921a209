//! Vertex relabeling / permutation utilities.
//!
//! The parallel algorithm's §5.4 step (1) ends with "Label the resulting
//! vertices from 1…n using an arbitrary ordering" — these helpers implement
//! such relabelings, plus random shuffles used by the harness to decorrelate
//! vertex order from generator order (the paper notes vertex ordering affects
//! convergence, §6.2.2).

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Applies a permutation to vertex labels: vertex `v` becomes `perm[v]`.
///
/// `perm` must be a bijection on `0..n` (checked). The result preserves
/// weights, self-loops, and therefore all modularity quantities.
pub fn relabel(g: &CsrGraph, perm: &[VertexId]) -> CsrGraph {
    let n = g.num_vertices();
    assert_eq!(perm.len(), n, "permutation length must equal vertex count");
    debug_assert!(is_permutation(perm), "perm must be a bijection on 0..n");

    let mut b = GraphBuilder::with_capacity(n, g.num_edges());
    for (u, v, w) in g.undirected_edges() {
        b = b.add_edge(perm[u as usize], perm[v as usize], w);
    }
    b.build().expect("relabeling a valid graph cannot fail")
}

/// True if `perm` is a bijection on `0..perm.len()`.
pub fn is_permutation(perm: &[VertexId]) -> bool {
    let n = perm.len();
    let mut seen = vec![false; n];
    for &p in perm {
        let p = p as usize;
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

/// A uniformly random permutation of `0..n` from a fixed seed.
pub fn random_permutation(n: usize, seed: u64) -> Vec<VertexId> {
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    perm.shuffle(&mut rng);
    perm
}

/// Relabels with a random permutation; returns the graph and the permutation
/// used (so partitions can be mapped back).
pub fn shuffle_vertices(g: &CsrGraph, seed: u64) -> (CsrGraph, Vec<VertexId>) {
    let perm = random_permutation(g.num_vertices(), seed);
    (relabel(g, &perm), perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_weighted_edges;

    fn sample() -> CsrGraph {
        from_weighted_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 2, 3.0)]).unwrap()
    }

    #[test]
    fn identity_relabel_is_identity() {
        let g = sample();
        let id: Vec<VertexId> = (0..4).collect();
        let g2 = relabel(&g, &id);
        for v in 0..4 {
            assert_eq!(
                g.neighbors(v).collect::<Vec<_>>(),
                g2.neighbors(v).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = sample();
        let perm = vec![3, 2, 1, 0];
        let g2 = relabel(&g, &perm);
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.total_weight(), g.total_weight());
        assert_eq!(g2.edge_weight(3, 2), Some(1.0)); // old (0,1)
        assert_eq!(g2.self_loop_weight(1), 3.0); // old loop on 2
    }

    #[test]
    fn random_permutation_is_bijection_and_seeded() {
        let p1 = random_permutation(100, 7);
        let p2 = random_permutation(100, 7);
        let p3 = random_permutation(100, 8);
        assert!(is_permutation(&p1));
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
    }

    #[test]
    fn is_permutation_rejects_bad() {
        assert!(!is_permutation(&[0, 0]));
        assert!(!is_permutation(&[0, 2]));
        assert!(is_permutation(&[1, 0]));
        assert!(is_permutation(&[]));
    }

    #[test]
    fn shuffle_preserves_total_weight() {
        let g = sample();
        let (g2, perm) = shuffle_vertices(&g, 42);
        assert!(is_permutation(&perm));
        assert_eq!(g2.total_weight(), g.total_weight());
        assert_eq!(g2.num_edges(), g.num_edges());
    }
}
