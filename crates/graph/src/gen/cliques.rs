//! Structured test graphs with known optimal community structure.
//!
//! * [`ring_of_cliques`] — the classic modularity benchmark: `k` cliques of
//!   size `s` joined in a cycle by single edges. The optimal partition (one
//!   community per clique, for reasonable k·s) is known, so solver tests can
//!   assert exact recovery.
//! * [`hub_spoke`] — chains of hub vertices, each hub carrying single-degree
//!   spokes: the exact scenario §6.2 uses to explain the VF heuristic's
//!   convergence-prolonging pathology ("consider a chain of 'hub' nodes where
//!   the hubs are individually connected to a number of single degree
//!   vertices ('spokes')").

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};

/// Configuration for [`ring_of_cliques`].
#[derive(Clone, Debug)]
pub struct CliqueRingConfig {
    /// Number of cliques.
    pub num_cliques: usize,
    /// Vertices per clique (≥ 1).
    pub clique_size: usize,
    /// Weight of intra-clique edges.
    pub intra_weight: f64,
    /// Weight of the ring edges joining consecutive cliques.
    pub bridge_weight: f64,
}

impl Default for CliqueRingConfig {
    fn default() -> Self {
        Self {
            num_cliques: 16,
            clique_size: 8,
            intra_weight: 1.0,
            bridge_weight: 1.0,
        }
    }
}

/// Generates a ring of cliques; returns the graph and the ground-truth
/// community (= clique index) per vertex.
pub fn ring_of_cliques(cfg: &CliqueRingConfig) -> (CsrGraph, Vec<u32>) {
    let k = cfg.num_cliques;
    let s = cfg.clique_size;
    assert!(k >= 1 && s >= 1);
    let n = k * s;
    let mut b = GraphBuilder::with_capacity(n, k * s * s / 2 + k);
    let mut truth = vec![0u32; n];
    for c in 0..k {
        let base = (c * s) as VertexId;
        for i in 0..s {
            truth[c * s + i] = c as u32;
            for j in i + 1..s {
                b = b.add_edge(base + i as VertexId, base + j as VertexId, cfg.intra_weight);
            }
        }
    }
    // Ring bridges: last vertex of clique c to first vertex of clique c+1.
    if k >= 2 {
        for c in 0..k {
            let from = (c * s + (s - 1)) as VertexId;
            let to = (((c + 1) % k) * s) as VertexId;
            if from != to && k > 2 || (k == 2 && c == 0) {
                b = b.add_edge(from, to, cfg.bridge_weight);
            }
        }
    }
    (b.build().expect("generator produces valid edges"), truth)
}

/// Configuration for [`hub_spoke`].
#[derive(Clone, Debug)]
pub struct HubSpokeConfig {
    /// Number of hub vertices forming the backbone chain.
    pub num_hubs: usize,
    /// Single-degree spokes attached to each hub.
    pub spokes_per_hub: usize,
    /// Weight of hub–hub chain edges.
    pub chain_weight: f64,
    /// Weight of hub–spoke edges.
    pub spoke_weight: f64,
}

impl Default for HubSpokeConfig {
    fn default() -> Self {
        Self {
            num_hubs: 64,
            spokes_per_hub: 8,
            chain_weight: 1.0,
            spoke_weight: 1.0,
        }
    }
}

/// Generates a hub-and-spoke chain. Vertex layout: hubs `0..h`, then the
/// spokes of hub 0, hub 1, … Returns the graph and each vertex's hub id
/// (spokes map to their hub; used as ground truth for VF tests).
pub fn hub_spoke(cfg: &HubSpokeConfig) -> (CsrGraph, Vec<u32>) {
    let h = cfg.num_hubs;
    let sp = cfg.spokes_per_hub;
    assert!(h >= 1);
    let n = h + h * sp;
    let mut b = GraphBuilder::with_capacity(n, h - 1 + h * sp);
    let mut owner = vec![0u32; n];
    #[allow(clippy::needless_range_loop)] // `i` also names hub vertices below
    for i in 0..h {
        owner[i] = i as u32;
        if i + 1 < h {
            b = b.add_edge(i as VertexId, (i + 1) as VertexId, cfg.chain_weight);
        }
    }
    for i in 0..h {
        for j in 0..sp {
            let spoke = (h + i * sp + j) as VertexId;
            owner[spoke as usize] = i as u32;
            b = b.add_edge(i as VertexId, spoke, cfg.spoke_weight);
        }
    }
    (b.build().expect("generator produces valid edges"), owner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::connected_components;
    use crate::stats::{is_single_degree, GraphStats};

    #[test]
    fn ring_of_cliques_structure() {
        let cfg = CliqueRingConfig {
            num_cliques: 4,
            clique_size: 5,
            ..Default::default()
        };
        let (g, truth) = ring_of_cliques(&cfg);
        assert_eq!(g.num_vertices(), 20);
        // 4 cliques × C(5,2) + 4 bridges
        assert_eq!(g.num_edges(), 4 * 10 + 4);
        assert_eq!(connected_components(&g).num_components(), 1);
        assert_eq!(truth[0], 0);
        assert_eq!(truth[19], 3);
    }

    #[test]
    fn two_cliques_single_bridge() {
        let cfg = CliqueRingConfig {
            num_cliques: 2,
            clique_size: 3,
            ..Default::default()
        };
        let (g, _) = ring_of_cliques(&cfg);
        assert_eq!(g.num_edges(), 2 * 3 + 1);
        assert_eq!(connected_components(&g).num_components(), 1);
    }

    #[test]
    fn single_clique_no_bridge() {
        let cfg = CliqueRingConfig {
            num_cliques: 1,
            clique_size: 4,
            ..Default::default()
        };
        let (g, _) = ring_of_cliques(&cfg);
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn clique_members_fully_connected() {
        let cfg = CliqueRingConfig {
            num_cliques: 3,
            clique_size: 4,
            ..Default::default()
        };
        let (g, truth) = ring_of_cliques(&cfg);
        for u in 0..12u32 {
            for v in 0..12u32 {
                if u != v && truth[u as usize] == truth[v as usize] {
                    assert!(g.has_edge(u, v), "clique pair ({u},{v}) missing");
                }
            }
        }
    }

    #[test]
    fn hub_spoke_structure() {
        let cfg = HubSpokeConfig {
            num_hubs: 3,
            spokes_per_hub: 2,
            ..Default::default()
        };
        let (g, owner) = hub_spoke(&cfg);
        assert_eq!(g.num_vertices(), 9);
        assert_eq!(g.num_edges(), 2 + 6); // 2 chain + 6 spokes
        assert_eq!(connected_components(&g).num_components(), 1);
        // All spokes are single-degree (the VF-heuristic targets).
        for v in 3..9 {
            assert!(is_single_degree(&g, v as VertexId));
        }
        assert_eq!(owner[3], 0);
        assert_eq!(owner[8], 2);
    }

    #[test]
    fn hub_spoke_single_degree_fraction() {
        let cfg = HubSpokeConfig::default();
        let (g, _) = hub_spoke(&cfg);
        let s = GraphStats::compute(&g);
        // 8 of 9 vertices per hub group are spokes.
        assert!(s.num_single_degree as f64 > 0.8 * s.num_vertices as f64);
    }

    #[test]
    fn hub_degrees() {
        let cfg = HubSpokeConfig {
            num_hubs: 4,
            spokes_per_hub: 3,
            ..Default::default()
        };
        let (g, _) = hub_spoke(&cfg);
        assert_eq!(g.degree(0), 1 + 3); // end hub: 1 chain + 3 spokes
        assert_eq!(g.degree(1), 2 + 3); // middle hub
    }
}
