//! Speculative iterative parallel distance-1 coloring (Çatalyürek et al.,
//! the paper's reference \[12\]).
//!
//! Each round has two parallel phases over the currently-uncolored vertices:
//!
//! 1. **Tentative coloring** — every uncolored vertex picks the smallest
//!    color not used by any neighbor, reading the colors frozen at the start
//!    of the round (Jacobi style, so the result is independent of the
//!    thread count).
//! 2. **Conflict detection** — every just-colored vertex re-checks its
//!    neighbors; if an adjacent pair ended up with equal colors, the
//!    higher-id endpoint is uncolored and re-queued for the next round.
//!
//! The loop terminates because at least one vertex of every conflicting pair
//! keeps its color each round.
//!
//! Both phases do O(deg) work per vertex and allocate nothing per vertex:
//! the first fit runs on a generation-stamped forbidden-color mask, and the
//! conflict scan stops at the first neighbor id ≥ v (adjacency is sorted and
//! only a lower id can win a conflict). Vertices with no neighbor but
//! themselves take color 0 up front and never enter the worklist.

use crate::Coloring;
use grappolo_graph::{CsrGraph, SharedSlice, VertexId};
use rayon::prelude::*;

/// Tuning knobs for [`color_parallel`].
#[derive(Clone, Debug)]
pub struct ParallelColoringConfig {
    /// Below this vertex count the serial greedy algorithm is used directly
    /// (parallel setup costs dominate on tiny inputs).
    pub serial_cutoff: usize,
    /// Safety bound on speculative rounds; the algorithm converges long
    /// before this on any input (each round permanently colors ≥ half of
    /// every conflicting pair).
    pub max_rounds: usize,
}

impl Default for ParallelColoringConfig {
    fn default() -> Self {
        Self {
            serial_cutoff: 1_024,
            max_rounds: 10_000,
        }
    }
}

const UNCOLORED: u32 = u32::MAX;

/// Per-task forbidden-color mask: `stamps[c] == generation` marks color `c`
/// as used by a neighbor of the vertex being decided, so no clearing is
/// needed between vertices. A mask lives for one pool task, which decides
/// fewer than `u32::MAX` vertices, so the generation never wraps.
#[derive(Default)]
struct ForbiddenMask {
    stamps: Vec<u32>,
    generation: u32,
}

impl ForbiddenMask {
    /// The smallest color no neighbor of `v` holds in `colors`. A vertex
    /// with `d` neighbors can see at most `d` distinct colors, so its first
    /// fit is at most `d` and colors above `d` (including [`UNCOLORED`])
    /// never need marking.
    fn first_fit(&mut self, g: &CsrGraph, colors: &[u32], v: VertexId) -> u32 {
        let ids = g.neighbor_ids(v);
        let bound = ids.len();
        if self.stamps.len() <= bound {
            self.stamps.resize(bound + 1, 0);
        }
        self.generation += 1;
        for &u in ids {
            let c = colors[u as usize] as usize;
            if u != v && c <= bound {
                self.stamps[c] = self.generation;
            }
        }
        let mut c = 0;
        while self.stamps[c] == self.generation {
            c += 1;
        }
        c as u32
    }
}

/// Writes `value(i)` to `colors[vertices[i]]` for every `i`, in parallel.
/// `vertices` must be duplicate-free (every worklist is).
fn scatter(colors: &mut [u32], vertices: &[VertexId], value: impl Fn(usize) -> u32 + Sync + Send) {
    let shared = SharedSlice::new(colors);
    (0..vertices.len()).into_par_iter().for_each(|i| {
        // SAFETY: `vertices[i] < colors.len()` (a vertex of the graph), and
        // distinct `i` name distinct vertices, so no slot is written twice
        // and nothing reads `colors` during the scatter.
        unsafe { shared.write(vertices[i] as usize, value(i)) }
    });
}

/// Colors `g` with distance-1 semantics using speculation + conflict
/// resolution. Returns the coloring; validity is guaranteed
/// ([`crate::stats::is_valid_distance1`] holds) and tested.
pub fn color_parallel(g: &CsrGraph, cfg: &ParallelColoringConfig) -> Coloring {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    if n <= cfg.serial_cutoff {
        return crate::greedy::color_greedy_serial(g);
    }

    // A vertex without a neighbor other than itself sees no colors and
    // conflicts with nothing, so its first fit, 0, is final.
    let has_neighbor = |v: VertexId| g.neighbor_ids(v).iter().any(|&u| u != v);
    let mut colors: Coloring = (0..n as VertexId)
        .into_par_iter()
        .map(|v| if has_neighbor(v) { UNCOLORED } else { 0 })
        .collect();
    let mut worklist: Vec<VertexId> = (0..n as VertexId)
        .into_par_iter()
        .filter(|&v| colors[v as usize] == UNCOLORED)
        .collect();

    for _round in 0..cfg.max_rounds {
        if worklist.is_empty() {
            break;
        }

        // Phase 1: tentative speculative coloring against the frozen colors.
        let tentative: Vec<u32> = worklist
            .par_iter()
            .map_init(ForbiddenMask::default, |mask, &v| {
                mask.first_fit(g, &colors, v)
            })
            .collect();
        scatter(&mut colors, &worklist, |i| tentative[i]);

        // Phase 2: conflict detection — the higher id of a conflicting pair
        // loses its color and is retried next round.
        let losers: Vec<VertexId> = worklist
            .par_iter()
            .copied()
            .filter(|&v| {
                let cv = colors[v as usize];
                g.neighbor_ids(v)
                    .iter()
                    .take_while(|&&u| u < v)
                    .any(|&u| colors[u as usize] == cv)
            })
            .collect();
        scatter(&mut colors, &losers, |_| UNCOLORED);
        worklist = losers;
    }
    assert!(
        worklist.is_empty(),
        "speculative coloring failed to converge within max_rounds"
    );
    colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{color_class_sizes, is_valid_distance1};
    use grappolo_graph::gen::{
        erdos_renyi, grid2d, hub_spoke, planted_partition, rmat, road_network, web_graph, ErConfig,
        GridConfig, HubSpokeConfig, PlantedConfig, RmatConfig, RoadConfig, WebConfig,
    };
    use grappolo_graph::{from_unweighted_edges, from_weighted_edges};

    fn cfg_parallel_always() -> ParallelColoringConfig {
        ParallelColoringConfig {
            serial_cutoff: 0,
            ..Default::default()
        }
    }

    /// The kernel's previous form, kept as its bitwise oracle: the same
    /// rounds, frozen reads and higher-id-loses rule, but each tentative
    /// color comes from a per-vertex `Vec` of neighbor colors, sorted, and
    /// commits and un-colorings are serial loops.
    fn color_parallel_alloc_sort(g: &CsrGraph, cfg: &ParallelColoringConfig) -> Coloring {
        let n = g.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        if n <= cfg.serial_cutoff {
            return crate::greedy::color_greedy_serial(g);
        }
        let mut colors: Coloring = vec![UNCOLORED; n];
        let mut worklist: Vec<VertexId> = (0..n as VertexId).collect();
        for _round in 0..cfg.max_rounds {
            if worklist.is_empty() {
                break;
            }
            let tentative: Vec<u32> = worklist
                .par_iter()
                .map(|&v| {
                    let mut taken: Vec<u32> = g
                        .neighbor_ids(v)
                        .iter()
                        .filter(|&&u| u != v)
                        .map(|&u| colors[u as usize])
                        .filter(|&c| c != UNCOLORED)
                        .collect();
                    taken.sort_unstable();
                    let mut c = 0u32;
                    for t in taken {
                        if t == c {
                            c += 1;
                        } else if t > c {
                            break;
                        }
                    }
                    c
                })
                .collect();
            for (i, &v) in worklist.iter().enumerate() {
                colors[v as usize] = tentative[i];
            }
            let losers: Vec<VertexId> = worklist
                .par_iter()
                .copied()
                .filter(|&v| {
                    g.neighbor_ids(v)
                        .iter()
                        .any(|&u| u != v && colors[u as usize] == colors[v as usize] && v > u)
                })
                .collect();
            for &v in &losers {
                colors[v as usize] = UNCOLORED;
            }
            worklist = losers;
        }
        assert!(worklist.is_empty());
        colors
    }

    /// Mostly isolated and self-loop-only vertices around a sparse core.
    fn isolated_heavy() -> CsrGraph {
        let n = 6_000u32;
        let core = erdos_renyi(&ErConfig {
            num_vertices: 2_000,
            num_edges: 8_000,
            seed: 9,
        });
        let edges = core
            .undirected_edges()
            .map(|(u, v, w)| (3 * u, 3 * v, w))
            .chain((0..n).step_by(2).map(|v| (v, v, 1.5)));
        from_weighted_edges(n as usize, edges).unwrap()
    }

    #[test]
    fn matches_alloc_sort_oracle_bitwise_at_every_thread_count() {
        let graphs: Vec<(&str, CsrGraph)> = vec![
            (
                "er",
                erdos_renyi(&ErConfig {
                    num_vertices: 6_000,
                    num_edges: 36_000,
                    seed: 1,
                }),
            ),
            (
                "rmat",
                rmat(&RmatConfig {
                    scale: 13,
                    num_edges: 60_000,
                    ..Default::default()
                }),
            ),
            (
                "planted",
                planted_partition(&PlantedConfig {
                    num_vertices: 5_000,
                    num_communities: 50,
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
                    ..Default::default()
                })
                .0,
            ),
            (
                "grid",
                grid2d(&GridConfig {
                    side: 80,
                    ..Default::default()
                }),
            ),
            ("isolated_heavy", isolated_heavy()),
        ];
        for (name, g) in &graphs {
            for cfg in [cfg_parallel_always(), ParallelColoringConfig::default()] {
                let oracle = color_parallel_alloc_sort(g, &cfg);
                for threads in [1usize, 2, 8, 16] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let got = pool.install(|| color_parallel(g, &cfg));
                    assert_eq!(got, oracle, "{name} differs at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn valid_on_random_graph() {
        let g = erdos_renyi(&ErConfig {
            num_vertices: 5_000,
            num_edges: 30_000,
            seed: 1,
        });
        let c = color_parallel(&g, &cfg_parallel_always());
        assert!(is_valid_distance1(&g, &c));
    }

    #[test]
    fn valid_on_skewed_graph() {
        let g = rmat(&RmatConfig {
            scale: 12,
            num_edges: 50_000,
            ..Default::default()
        });
        let c = color_parallel(&g, &cfg_parallel_always());
        assert!(is_valid_distance1(&g, &c));
    }

    #[test]
    fn all_vertices_colored() {
        let g = erdos_renyi(&ErConfig {
            num_vertices: 2_000,
            num_edges: 10_000,
            seed: 2,
        });
        let c = color_parallel(&g, &cfg_parallel_always());
        assert_eq!(c.len(), 2_000);
        assert!(c.iter().all(|&x| x != u32::MAX));
    }

    #[test]
    fn color_count_reasonable() {
        // Parallel speculation may use a few more colors than serial greedy,
        // but stays within max_degree + 1 per round-local first-fit.
        let g = erdos_renyi(&ErConfig {
            num_vertices: 3_000,
            num_edges: 20_000,
            seed: 3,
        });
        let c = color_parallel(&g, &cfg_parallel_always());
        let used = *c.iter().max().unwrap() as usize + 1;
        assert!(used <= g.max_degree() + 1, "used {used} colors");
    }

    #[test]
    fn serial_cutoff_matches_greedy() {
        let g = from_unweighted_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let cfg = ParallelColoringConfig::default(); // cutoff engages
        assert_eq!(
            color_parallel(&g, &cfg),
            crate::greedy::color_greedy_serial(&g)
        );
    }

    #[test]
    fn empty_graph() {
        let g = grappolo_graph::CsrGraph::empty(0);
        assert!(color_parallel(&g, &cfg_parallel_always()).is_empty());
    }

    #[test]
    fn self_loops_ignored() {
        let g = grappolo_graph::from_weighted_edges(3, [(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)])
            .unwrap();
        let c = color_parallel(&g, &cfg_parallel_always());
        assert!(is_valid_distance1(&g, &c));
    }

    #[test]
    fn class_sizes_cover_all_vertices() {
        let g = erdos_renyi(&ErConfig {
            num_vertices: 4_000,
            num_edges: 16_000,
            seed: 5,
        });
        let c = color_parallel(&g, &cfg_parallel_always());
        let sizes = color_class_sizes(&c);
        assert_eq!(sizes.iter().sum::<usize>(), 4_000);
    }
}
