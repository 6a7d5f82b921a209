//! Speculative iterative parallel distance-1 coloring (Çatalyürek et al.,
//! the paper's reference \[12\]).
//!
//! Each round works on the worklist, the vertices still uncolored at its
//! start, in two parallel phases:
//!
//! 1. **Tentative coloring** — every worklist vertex picks the smallest
//!    color no neighbor holds in the colors frozen at the round start
//!    (Jacobi style, so the result is independent of the thread count), and
//!    one ordered loop writes the picks.
//! 2. **Conflict detection** — when two adjacent worklist vertices picked
//!    the same color, the higher id loses: a second loop un-colors it, and
//!    the losers form the next round's worklist. Every other pick is
//!    final.
//!
//! Because a kept color is final, the neighbors of a vertex that are
//! uncolored at a round start are exactly its neighbors in that round's
//! worklist, and a round only needs to read what changed since the last:
//!
//! - **Round 1 is closed-form.** Nothing is colored yet, so every first fit
//!   is 0, and a vertex loses exactly when its smallest neighbor id is below
//!   its own. Rows are sorted, so the round reads one entry per row: an
//!   isolate, or a row that starts with its own self-loop, keeps 0.
//! - **Rows longer than 64 entries** (the hubs of skewed graphs) keep their
//!   own bookkeeping from round 2 on: the neighbors uncolored at the round
//!   start, compacted in id order, and a mark for each color a settled
//!   neighbor holds. At a round start the pending neighbors that settled
//!   mark their colors and leave the list, and the first fit is a cursor
//!   that advances past the marks (marks are never cleared, so it only moves
//!   up). The conflict scan walks the pending neighbors of lower id. A round
//!   reads the pending list instead of the whole row, and the list shrinks
//!   as the neighborhood settles. The state is one id and one bit per row
//!   entry, for these rows only, cut from two arenas that are freed whole
//!   when the coloring ends.
//! - **Shorter rows** are rescanned every round: the first fit reads the
//!   row's colors into a 64-bit mask (a row of at most 64 entries has a
//!   first fit of at most 64), and the conflict scan stops at the first
//!   neighbor id ≥ v, since only a lower id can win.
//!
//! Each rule reads the colors a full rescan of every row would read, so the
//! result is bitwise that of rescanning every row every round, which the
//! tests keep as the oracle.
//!
//! The loop ends: the lowest-id worklist vertex has no lower-id rival in the
//! worklist, so every round settles at least one vertex.

use crate::Coloring;
use grappolo_graph::shared::carve;
use grappolo_graph::{CsrGraph, VertexId};
use rayon::prelude::*;

/// Tuning knobs for [`color_parallel`].
#[derive(Clone, Debug)]
pub struct ParallelColoringConfig {
    /// Below this vertex count the serial greedy algorithm is used directly
    /// (parallel setup costs dominate on tiny inputs).
    pub serial_cutoff: usize,
}

impl Default for ParallelColoringConfig {
    fn default() -> Self {
        Self {
            serial_cutoff: 1_024,
        }
    }
}

const UNCOLORED: u32 = u32::MAX;

/// Rows longer than this keep a [`Hub`] across rounds; shorter rows are
/// cheaper to rescan.
const HUB_DEGREE: usize = 64;
// A short row's first fit is at most its length, so a u64 mask holds it.
const _: () = assert!(HUB_DEGREE <= 64);

/// The smallest color no neighbor of `v` holds in `colors`, for a row of
/// at most [`HUB_DEGREE`] entries: when colors 0..64 are all taken, the
/// fit is 64. `v` is uncolored, so a self-loop marks nothing.
fn light_first_fit(g: &CsrGraph, colors: &[u32], v: VertexId) -> u32 {
    let taken = g.neighbor_ids(v).iter().fold(0u64, |mask, &u| {
        let c = colors[u as usize];
        if c < 64 {
            mask | 1 << c
        } else {
            mask
        }
    });
    (!taken).trailing_zeros()
}

/// A worklist vertex with a row longer than [`HUB_DEGREE`], and what the
/// rounds so far have settled around it. Its two buffers are cut from
/// arenas shared by all hubs, so the heap gets back two blocks when the
/// coloring ends, not thousands of lists freed round by round, which
/// fragment it for the sweep that follows.
struct Hub<'a> {
    v: VertexId,
    /// Room for the row; the first `len` entries are the neighbors
    /// (ascending, without `v`) uncolored at the start of the current round.
    room: &'a mut [VertexId],
    len: usize,
    /// Bit `c` is set when a settled neighbor holds color `c`. The bits
    /// cover `0..=degree`, every color a first fit can reach; higher colors
    /// are not marked.
    taken: &'a mut [u64],
    /// The smallest color no settled neighbor holds.
    fit: u32,
}

impl Hub<'_> {
    /// Words of `taken` for a row of `degree` entries.
    fn words(degree: usize) -> usize {
        degree / 64 + 1
    }

    /// Reads `v`'s row once, against the colors at the start of its first
    /// worklist round.
    fn scan_row(&mut self, g: &CsrGraph, colors: &[u32]) {
        for &u in g.neighbor_ids(self.v).iter().filter(|&&u| u != self.v) {
            match colors[u as usize] {
                UNCOLORED => {
                    self.room[self.len] = u;
                    self.len += 1;
                }
                c => mark(self.taken, c),
            }
        }
    }

    /// Brings the hub to the colors frozen at a round start: pending
    /// neighbors that settled mark their colors and leave the list, and the
    /// first fit advances past the marks.
    fn refit(&mut self, colors: &[u32]) {
        let live = &mut self.room[..self.len];
        let mut kept = 0;
        for i in 0..live.len() {
            let u = live[i];
            match colors[u as usize] {
                UNCOLORED => {
                    live[kept] = u;
                    kept += 1;
                }
                c => mark(self.taken, c),
            }
        }
        self.len = kept;
        while self.taken[self.fit as usize / 64] >> (self.fit % 64) & 1 == 1 {
            self.fit += 1;
        }
    }

    /// Whether a lower-id neighbor picked the hub's color this round. Only a
    /// pending neighbor can have: a settled one holds a marked color.
    fn loses(&self, colors: &[u32]) -> bool {
        self.room[..self.len]
            .iter()
            .take_while(|&&u| u < self.v)
            .any(|&u| colors[u as usize] == self.fit)
    }
}

/// Sets bit `c` of `taken`; a color past its last word is above every
/// first fit the bits serve, so it is dropped.
fn mark(taken: &mut [u64], c: u32) {
    if let Some(word) = taken.get_mut(c as usize / 64) {
        *word |= 1 << (c % 64);
    }
}

/// The colors after round 1: 0, except [`UNCOLORED`] for every vertex with
/// a lower-id neighbor.
fn round_one(g: &CsrGraph) -> Coloring {
    (0..g.num_vertices() as VertexId)
        .into_par_iter()
        .map(|v| match g.neighbor_ids(v).first() {
            Some(&u) if u < v => UNCOLORED,
            _ => 0,
        })
        .collect()
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

    let mut colors = round_one(g);
    let in_worklist = |v: VertexId| colors[v as usize] == UNCOLORED;
    let mut light: Vec<VertexId> = (0..n as VertexId)
        .into_par_iter()
        .filter(|&v| in_worklist(v) && g.degree(v) <= HUB_DEGREE)
        .collect();
    let hub_ids: Vec<VertexId> = (0..n as VertexId)
        .into_par_iter()
        .filter(|&v| in_worklist(v) && g.degree(v) > HUB_DEGREE)
        .collect();
    let degrees = || hub_ids.iter().map(|&v| g.degree(v));
    let mut id_arena = vec![0; degrees().sum()];
    let mut bit_arena = vec![0; degrees().map(Hub::words).sum()];
    let rooms = carve(&mut id_arena, degrees());
    let bits = carve(&mut bit_arena, degrees().map(Hub::words));
    let mut hubs: Vec<Hub> = hub_ids
        .iter()
        .zip(rooms)
        .zip(bits)
        .map(|((&v, room), taken)| Hub {
            v,
            room,
            len: 0,
            taken,
            fit: 0,
        })
        .collect();
    // One hub is a coarse unit of work, and hubs differ widely in degree.
    hubs.par_iter_mut()
        .with_min_len(1)
        .for_each(|hub| hub.scan_row(g, &colors));

    while !(light.is_empty() && hubs.is_empty()) {
        // Phase 1: tentative speculative coloring against the frozen colors.
        let fits: Vec<u32> = light
            .par_iter()
            .map(|&v| light_first_fit(g, &colors, v))
            .collect();
        hubs.par_iter_mut()
            .with_min_len(1)
            .for_each(|hub| hub.refit(&colors));
        for (&v, &fit) in light.iter().zip(&fits) {
            colors[v as usize] = fit;
        }
        for hub in &hubs {
            colors[hub.v as usize] = hub.fit;
        }

        // Phase 2: conflict detection — the higher id of a conflicting pair
        // loses its color and is retried next round.
        let lost: Vec<VertexId> = light
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
        let hub_lost: Vec<bool> = hubs
            .par_iter()
            .with_min_len(1)
            .map(|hub| hub.loses(&colors))
            .collect();
        let mut hub_lost = hub_lost.into_iter();
        hubs.retain(|_| hub_lost.next() == Some(true));
        for &v in &lost {
            colors[v as usize] = UNCOLORED;
        }
        for hub in &hubs {
            colors[hub.v as usize] = UNCOLORED;
        }
        light = lost;
    }
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn cfg_parallel_always() -> ParallelColoringConfig {
        ParallelColoringConfig { serial_cutoff: 0 }
    }

    /// The rescanning form, kept as the kernel's bitwise oracle: the same
    /// rounds, frozen reads and higher-id-loses rule, but every round
    /// rescans the whole row of every worklist vertex, starting from all
    /// vertices in round 1. Each tentative color comes from a per-vertex
    /// `Vec` of neighbor colors, sorted, and commits and un-colorings are
    /// serial loops.
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
        while !worklist.is_empty() {
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

    /// Worklist vertices on both sides of the hub split: light ER rows, ten
    /// rows of exactly `HUB_DEGREE` entries and ten of `HUB_DEGREE + 1`, and
    /// two hubs with self-loops — vertex 1, whose self-loop sits behind
    /// neighbor 0, and the highest id, whose self-loop ends its row.
    fn split_straddling() -> CsrGraph {
        let core_n = 4_000u32;
        let core = erdos_renyi(&ErConfig {
            num_vertices: core_n as usize,
            num_edges: 16_000,
            seed: 4,
        });
        let split = HUB_DEGREE as u32;
        let at_split = (0..20u32).flat_map(move |i| {
            (0..split + i % 2).map(move |k| (core_n + i, (i * 131 + k * 53) % core_n))
        });
        let high = core_n + 20;
        let low_hub = [(1, 1), (0, 1)]
            .into_iter()
            .chain((2..core_n).step_by(7).map(|u| (1, u)));
        let high_hub = (0..core_n)
            .step_by(5)
            .map(move |u| (u, high))
            .chain([(high, high)]);
        let edges = core
            .undirected_edges()
            .map(|(u, v, _)| (u, v))
            .chain(at_split)
            .chain(low_hub)
            .chain(high_hub);
        let g = from_unweighted_edges(high as usize + 1, edges).unwrap();
        let degrees: Vec<usize> = (core_n..=high).map(|v| g.degree(v)).collect();
        assert!(degrees[..20]
            .iter()
            .all(|&d| d == HUB_DEGREE || d == HUB_DEGREE + 1));
        assert!(g.degree(1) > HUB_DEGREE && g.degree(high) > HUB_DEGREE);
        g
    }

    /// Three interleaved 100-cliques over sparse ER background edges: every
    /// clique member is a hub, and its first fit climbs past 64.
    fn interleaved_cliques() -> CsrGraph {
        let background = erdos_renyi(&ErConfig {
            num_vertices: 300,
            num_edges: 600,
            seed: 6,
        });
        let cliques = (0..300u32).flat_map(|u| (u + 3..300).step_by(3).map(move |v| (u, v)));
        let edges = background
            .undirected_edges()
            .map(|(u, v, _)| (u, v))
            .chain(cliques);
        from_unweighted_edges(300, edges).unwrap()
    }

    /// A small multigraph: duplicate and reversed edges, self-loops,
    /// isolates, and up to three hubs whose rows usually pass the split.
    fn random_multigraph(rng: &mut SmallRng) -> CsrGraph {
        let n = rng.gen_range(1..300u32);
        let hubs: Vec<VertexId> = (0..rng.gen_range(0..4usize))
            .map(|_| rng.gen_range(0..n))
            .collect();
        let mut edges = Vec::new();
        for _ in 0..rng.gen_range(0..3 * n) {
            let u = if !hubs.is_empty() && rng.gen_bool(0.4) {
                hubs[rng.gen_range(0..hubs.len())]
            } else {
                rng.gen_range(0..n)
            };
            let v = if rng.gen_bool(0.05) {
                u
            } else {
                rng.gen_range(0..n)
            };
            edges.push((u, v));
            if rng.gen_bool(0.1) {
                edges.push((v, u));
            }
        }
        from_unweighted_edges(n as usize, edges).unwrap()
    }

    fn pools(threads: &[usize]) -> Vec<rayon::ThreadPool> {
        threads
            .iter()
            .map(|&t| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .unwrap()
            })
            .collect()
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
            ("split_straddling", split_straddling()),
            ("interleaved_cliques", interleaved_cliques()),
        ];
        let threads = [1usize, 2, 8, 16];
        let pools = pools(&threads);
        for (name, g) in &graphs {
            for cfg in [cfg_parallel_always(), ParallelColoringConfig::default()] {
                let oracle = color_parallel_alloc_sort(g, &cfg);
                for (pool, t) in pools.iter().zip(threads) {
                    let got = pool.install(|| color_parallel(g, &cfg));
                    assert_eq!(got, oracle, "{name} differs at {t} threads");
                }
            }
        }
    }

    #[test]
    fn matches_oracle_on_random_multigraphs() {
        let threads = [1usize, 2, 8];
        let pools = pools(&threads);
        let mut rng = SmallRng::seed_from_u64(23);
        let mut with_hub_in_worklist = 0;
        for case in 0..250 {
            let g = random_multigraph(&mut rng);
            with_hub_in_worklist += (0..g.num_vertices() as VertexId)
                .any(|v| g.degree(v) > HUB_DEGREE && g.neighbor_ids(v)[0] < v)
                as usize;
            let oracle = color_parallel_alloc_sort(&g, &cfg_parallel_always());
            for (pool, t) in pools.iter().zip(threads) {
                let got = pool.install(|| color_parallel(&g, &cfg_parallel_always()));
                assert_eq!(got, oracle, "case {case} differs at {t} threads");
            }
        }
        assert!(with_hub_in_worklist >= 50, "{with_hub_in_worklist} cases");
    }

    #[test]
    fn round_one_keeps_exactly_the_rows_without_a_lower_neighbor() {
        // Vertex 2's row starts with its own self-loop and continues with
        // 100..200 only; vertex 4's row is 3, its self-loop, then 100..200.
        // 0 is isolated, 1 has only a self-loop, 3's row is 4.
        let hub_rows = (100..200).flat_map(|u| [(2, u), (4, u)]);
        let edges = [(2, 2), (4, 4), (3, 4), (1, 1)].into_iter().chain(hub_rows);
        let g = from_unweighted_edges(200, edges).unwrap();
        let first = round_one(&g);
        assert_eq!(first[..5], [0, 0, 0, 0, UNCOLORED]);
        assert!(first[100..].iter().all(|&c| c == UNCOLORED));

        // 2 keeps 0 for good; 4 meets 3's settled 0 in round 2 and takes 1.
        let colors = color_parallel(&g, &cfg_parallel_always());
        assert_eq!((colors[2], colors[4]), (0, 1));
        assert_eq!(
            colors,
            color_parallel_alloc_sort(&g, &cfg_parallel_always())
        );
    }

    #[test]
    fn light_first_fit_reaches_the_row_length() {
        // Vertex 64's row is 0..64, the longest a short row gets.
        let g = from_unweighted_edges(65, (0..64).map(|u| (u, 64))).unwrap();
        assert_eq!(g.degree(64), HUB_DEGREE);
        let mut colors: Vec<u32> = (0..64).chain([UNCOLORED]).collect();
        assert_eq!(light_first_fit(&g, &colors, 64), 64);
        colors[17] = 200;
        assert_eq!(light_first_fit(&g, &colors, 64), 17);
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
