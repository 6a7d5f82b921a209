//! Planted-partition ("LFR-lite") generator: ground-truth communities with
//! controllable mixing and power-law community sizes.
//!
//! Proxy regime for coPapersDBLP / MG1 / MG2 (strong community structure,
//! final modularity 0.85–0.998 in the paper's Table 2). Weighted mode mirrors
//! the metagenomics graphs, whose homology edges carry similarity weights.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`planted_partition`].
#[derive(Clone, Debug)]
pub struct PlantedConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Target number of communities (actual count may differ by ±1 after
    /// size sampling).
    pub num_communities: usize,
    /// Power-law exponent for community sizes (`0.0` = equal sizes;
    /// typical real-world value ≈ 1–2).
    pub size_exponent: f64,
    /// Expected intra-community degree per vertex.
    pub avg_intra_degree: f64,
    /// Expected inter-community degree per vertex (mixing).
    pub avg_inter_degree: f64,
    /// If set, intra edges draw weights uniformly from this range and inter
    /// edges from a range scaled down by 4× (homology-like contrast);
    /// otherwise all weights are 1.
    pub weight_range: Option<(f64, f64)>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PlantedConfig {
    fn default() -> Self {
        Self {
            num_vertices: 10_000,
            num_communities: 100,
            size_exponent: 1.0,
            avg_intra_degree: 12.0,
            avg_inter_degree: 2.0,
            weight_range: None,
            seed: 1,
        }
    }
}

/// Generates a planted-partition graph and returns it with the ground-truth
/// community of each vertex.
pub fn planted_partition(cfg: &PlantedConfig) -> (CsrGraph, Vec<u32>) {
    assert!(cfg.num_vertices > 0 && cfg.num_communities > 0);
    assert!(cfg.num_communities <= cfg.num_vertices);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    let sizes = power_law_sizes(
        cfg.num_vertices,
        cfg.num_communities,
        cfg.size_exponent,
        &mut rng,
    );

    // Assign contiguous vertex ranges to communities, then scatter via a
    // seeded shuffle so community membership is uncorrelated with vertex id.
    let n = cfg.num_vertices;
    let mut ground_truth = vec![0u32; n];
    let mut starts = Vec::with_capacity(sizes.len());
    {
        let mut acc = 0usize;
        for (c, &s) in sizes.iter().enumerate() {
            starts.push(acc);
            ground_truth[acc..acc + s].fill(c as u32);
            acc += s;
        }
        debug_assert_eq!(acc, n);
    }
    let perm = crate::perm::random_permutation(n, cfg.seed ^ 0x9e37_79b9);
    let mut scattered_truth = vec![0u32; n];
    for v in 0..n {
        scattered_truth[perm[v] as usize] = ground_truth[v];
    }

    let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::new();
    let weight_of = |rng: &mut SmallRng, intra: bool| -> f64 {
        match cfg.weight_range {
            None => 1.0,
            Some((lo, hi)) => {
                let w = rng.gen_range(lo..=hi);
                if intra {
                    w
                } else {
                    (w / 4.0).max(lo / 4.0)
                }
            }
        }
    };

    // Intra edges: per community, G(s, p_in) sampled by expected edge count
    // (fast for sparse p): draw E_in ≈ s * avg_intra / 2 random pairs.
    for (c, &s) in sizes.iter().enumerate() {
        if s < 2 {
            continue;
        }
        let start = starts[c];
        let target_edges = ((s as f64) * cfg.avg_intra_degree / 2.0).round() as usize;
        let max_possible = s * (s - 1) / 2;
        let target_edges = target_edges.min(max_possible * 2); // duplicates merge
        let pick = Uniform::new(0, s);
        for _ in 0..target_edges {
            let a = pick.sample(&mut rng);
            let mut b = pick.sample(&mut rng);
            while b == a {
                b = pick.sample(&mut rng);
            }
            let (u, v) = (perm[start + a], perm[start + b]);
            let w = weight_of(&mut rng, true);
            edges.push((u, v, w));
        }
        // Spanning chain so every community is internally connected; makes
        // ground truth recoverable and modularity targets stable.
        for i in 1..s {
            let w = weight_of(&mut rng, true);
            edges.push((perm[start + i - 1], perm[start + i], w));
        }
    }

    // Inter edges: global random pairs across different communities.
    let target_inter = ((n as f64) * cfg.avg_inter_degree / 2.0).round() as usize;
    let pick = Uniform::new(0, n);
    let mut placed = 0usize;
    let mut attempts = 0usize;
    while placed < target_inter && attempts < target_inter * 20 + 100 {
        attempts += 1;
        let a = pick.sample(&mut rng);
        let b = pick.sample(&mut rng);
        if a == b || ground_truth[a] == ground_truth[b] {
            continue;
        }
        let w = weight_of(&mut rng, false);
        edges.push((perm[a], perm[b], w));
        placed += 1;
    }

    let g = GraphBuilder::with_capacity(n, edges.len())
        .extend_edges(edges)
        .build()
        .expect("generator produces valid edges");
    (g, scattered_truth)
}

/// A disconnected union of planted-partition blocks followed by `isolated`
/// trailing isolated vertices — the component splitter's workload. Block
/// `i` has `block_sizes[i]` vertices, `max(size / 100, 2)` planted
/// communities and seed `seed + i`, and occupies the next contiguous vertex
/// range, so component ids follow block order.
pub fn planted_blocks(block_sizes: &[usize], isolated: usize, seed: u64) -> CsrGraph {
    let n = block_sizes.iter().sum::<usize>() + isolated;
    let mut b = GraphBuilder::new(n);
    let mut base = 0u32;
    for (i, &size) in block_sizes.iter().enumerate() {
        let (block, _) = planted_partition(&PlantedConfig {
            num_vertices: size,
            num_communities: (size / 100).max(2),
            seed: seed.wrapping_add(i as u64),
            ..Default::default()
        });
        for (u, v, w) in block.undirected_edges() {
            b = b.add_edge(base + u, base + v, w);
        }
        base += size as u32;
    }
    b.build().expect("block edges are in range")
}

/// Samples `k` community sizes summing to `n`, proportional to
/// `(rank)^-exponent`, each at least 1.
fn power_law_sizes(n: usize, k: usize, exponent: f64, rng: &mut SmallRng) -> Vec<usize> {
    let mut raw: Vec<f64> = (1..=k)
        .map(|r| (r as f64).powf(-exponent) * (0.75 + 0.5 * rng.gen::<f64>()))
        .collect();
    let total: f64 = raw.iter().sum();
    for w in &mut raw {
        *w /= total;
    }
    let mut sizes: Vec<usize> = raw
        .iter()
        .map(|w| ((w * n as f64) as usize).max(1))
        .collect();
    // Fix rounding drift to make the sizes sum exactly to n.
    let mut diff = n as i64 - sizes.iter().sum::<usize>() as i64;
    let mut idx = 0usize;
    while diff != 0 {
        let i = idx % k;
        if diff > 0 {
            sizes[i] += 1;
            diff -= 1;
        } else if sizes[i] > 1 {
            sizes[i] -= 1;
            diff += 1;
        }
        idx += 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{components::connected_components, stats::GraphStats};

    #[test]
    fn sizes_sum_to_n() {
        let mut rng = SmallRng::seed_from_u64(1);
        for &(n, k, e) in &[(100, 10, 1.0), (57, 7, 2.0), (10, 10, 0.0), (1000, 3, 1.5)] {
            let s = power_law_sizes(n, k, e, &mut rng);
            assert_eq!(s.iter().sum::<usize>(), n);
            assert_eq!(s.len(), k);
            assert!(s.iter().all(|&x| x >= 1));
        }
    }

    #[test]
    fn planted_blocks_occupy_contiguous_ranges() {
        let g = planted_blocks(&[300, 200, 200], 4, 5);
        assert_eq!(g.num_vertices(), 704);
        let block = |x: VertexId| [300, 500, 700].iter().position(|&end| x < end);
        for (u, v, _) in g.undirected_edges() {
            assert!(
                block(u).is_some(),
                "edge {u}-{v} touches an isolated vertex"
            );
            assert_eq!(block(u), block(v), "edge {u}-{v} crosses blocks");
        }
        assert!((700..704).all(|v| g.neighbor_ids(v).is_empty()));
        assert!(planted_blocks(&[300, 200, 200], 4, 5).bitwise_eq(&g));
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = PlantedConfig {
            num_vertices: 500,
            num_communities: 10,
            ..Default::default()
        };
        let (g1, t1) = planted_partition(&cfg);
        let (g2, t2) = planted_partition(&cfg);
        assert_eq!(t1, t2);
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(
            g1.neighbors(5).collect::<Vec<_>>(),
            g2.neighbors(5).collect::<Vec<_>>()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let cfg1 = PlantedConfig {
            num_vertices: 500,
            num_communities: 10,
            ..Default::default()
        };
        let cfg2 = PlantedConfig {
            seed: 99,
            ..cfg1.clone()
        };
        let (g1, _) = planted_partition(&cfg1);
        let (g2, _) = planted_partition(&cfg2);
        assert_ne!(
            g1.neighbors(5).collect::<Vec<_>>(),
            g2.neighbors(5).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ground_truth_covers_all_communities() {
        let cfg = PlantedConfig {
            num_vertices: 300,
            num_communities: 6,
            ..Default::default()
        };
        let (g, truth) = planted_partition(&cfg);
        assert_eq!(truth.len(), g.num_vertices());
        let max = *truth.iter().max().unwrap() as usize;
        assert_eq!(max + 1, 6);
    }

    #[test]
    fn intra_edges_dominate() {
        let cfg = PlantedConfig {
            num_vertices: 2000,
            num_communities: 20,
            avg_intra_degree: 10.0,
            avg_inter_degree: 1.0,
            ..Default::default()
        };
        let (g, truth) = planted_partition(&cfg);
        let mut intra = 0.0;
        let mut inter = 0.0;
        for (u, v, w) in g.undirected_edges() {
            if truth[u as usize] == truth[v as usize] {
                intra += w;
            } else {
                inter += w;
            }
        }
        assert!(
            intra > 4.0 * inter,
            "expected strong community structure, intra={intra} inter={inter}"
        );
    }

    #[test]
    fn weighted_mode_contrast() {
        let cfg = PlantedConfig {
            num_vertices: 1000,
            num_communities: 10,
            weight_range: Some((1.0, 10.0)),
            ..Default::default()
        };
        let (g, truth) = planted_partition(&cfg);
        let mut intra_avg = (0.0, 0usize);
        let mut inter_avg = (0.0, 0usize);
        for (u, v, w) in g.undirected_edges() {
            if truth[u as usize] == truth[v as usize] {
                intra_avg = (intra_avg.0 + w, intra_avg.1 + 1);
            } else {
                inter_avg = (inter_avg.0 + w, inter_avg.1 + 1);
            }
        }
        let ia = intra_avg.0 / intra_avg.1 as f64;
        let ie = inter_avg.0 / inter_avg.1.max(1) as f64;
        assert!(ia > 2.0 * ie, "intra weights should dominate: {ia} vs {ie}");
    }

    #[test]
    fn communities_internally_connected() {
        let cfg = PlantedConfig {
            num_vertices: 400,
            num_communities: 8,
            avg_inter_degree: 0.0,
            ..Default::default()
        };
        let (g, _) = planted_partition(&cfg);
        // No inter edges → exactly one component per community.
        assert_eq!(connected_components(&g).num_components(), 8);
    }

    #[test]
    fn stats_are_sane() {
        let cfg = PlantedConfig {
            num_vertices: 5000,
            ..Default::default()
        };
        let (g, _) = planted_partition(&cfg);
        let s = GraphStats::compute(&g);
        assert!(s.avg_degree > 5.0 && s.avg_degree < 40.0, "{s:?}");
        assert_eq!(s.num_isolated, 0);
    }
}
