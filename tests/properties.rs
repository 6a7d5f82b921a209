//! Property-based tests on the core invariants the reproduction rests on:
//! modularity algebra, the flat-scratch/sort-based gather equivalence,
//! incremental-accounting fidelity, rebuild/VF weight preservation,
//! coloring validity, metric identities, and determinism.
//!
//! Cases are generated with a seeded RNG (no proptest in the offline
//! dependency set): every run explores the same `CASES` random graphs, so
//! failures are reproducible by seed. Edge weights are dyadic rationals
//! (k/16) — exactly representable in f64 with exact sums — so equivalence
//! properties can assert *bitwise* equality, not just tolerance. The
//! rebuild's serial oracle sums in the order the rebuild documents, so it
//! asserts bitwise equality on real-valued weights too.
//!
//! The differential properties pin the production `PhaseDriver` against the
//! retained oracles in `grappolo::core::reference`.

use grappolo::coloring::{
    color_greedy_serial, color_parallel, is_valid_distance1, ColorBatches, ParallelColoringConfig,
};
use grappolo::core::modularity::{
    community_degrees, community_sizes, modularity, Community, IndependentMove, ModularityTracker,
    NeighborScratch,
};
use grappolo::core::rebuild::rebuild;
use grappolo::core::reference::{
    gather_sorted, parallel_phase_colored_rescan, parallel_phase_unordered_sortbased,
};
use grappolo::core::refine::refine_phase;
use grappolo::core::serial::serial_modularity;
use grappolo::core::vf::vf_preprocess_recursive;
use grappolo::core::{
    LouvainConfig, PhaseDriver, PhaseOutcome, RebuildStrategy, RefineMode, RenumberStrategy,
    Scheme, SweepMode,
};
use grappolo::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 64;

/// A random small weighted undirected graph (possibly with self-loops,
/// duplicate edges merged by the builder) with exactly-representable
/// weights.
fn random_graph(rng: &mut SmallRng) -> CsrGraph {
    let n = rng.gen_range(2usize..40);
    let num_edges = rng.gen_range(0usize..120);
    let edges: Vec<(u32, u32, f64)> = (0..num_edges)
        .map(|_| {
            (
                rng.gen_range(0..n as u32),
                rng.gen_range(0..n as u32),
                rng.gen_range(1u32..100) as f64 / 16.0,
            )
        })
        .collect();
    GraphBuilder::new(n)
        .extend_edges(edges)
        .build()
        .expect("random edges are valid")
}

/// The production phase driver for `config`, capped at `max_iterations`
/// iterations, with aggregate phase threshold `threshold`.
fn driver(config: LouvainConfig, threshold: f64, max_iterations: usize) -> PhaseDriver {
    let config = LouvainConfig {
        max_iterations_per_phase: max_iterations,
        ..config
    };
    PhaseDriver::from_config(&config, threshold)
}

/// The parallel driver for `sweep` under the paper's fixed threshold.
fn fixed_driver(sweep: SweepMode, threshold: f64, max_iterations: usize) -> PhaseDriver {
    let config = LouvainConfig {
        sweep_mode: sweep,
        ..LouvainConfig::default()
    };
    driver(config, threshold, max_iterations)
}

/// The driver for `sweep` under the geometric schedule, which the driver
/// derives from the phase graph's total weight — resolved through the same
/// config path the CLI uses, so retuned constants carry over. `parallel =
/// false` selects the serial sweep.
fn geometric_driver(parallel: bool, sweep: SweepMode, max_iterations: usize) -> PhaseDriver {
    let config = LouvainConfig {
        parallel,
        sweep_mode: sweep,
        schedule: ScheduleSpec::Geometric,
        ..LouvainConfig::default()
    };
    driver(config, 1e-6, max_iterations)
}

/// A random community assignment over `g` (labels need not be dense).
fn random_assignment(rng: &mut SmallRng, g: &CsrGraph) -> Vec<Community> {
    let n = g.num_vertices();
    (0..n).map(|_| rng.gen_range(0..n as Community)).collect()
}

/// Q is bounded: Q ∈ [-1, 1) for any partition (standard modularity bounds).
#[test]
fn modularity_is_bounded() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let a = random_assignment(&mut rng, &g);
        let q = modularity(&g, &a);
        assert!(
            (-1.0 - 1e-12..1.0 + 1e-12).contains(&q),
            "seed {seed}: Q = {q}"
        );
    }
}

/// The serial (loop) and parallel (deterministic-reduction) modularity
/// kernels agree to floating-point noise.
#[test]
fn serial_and_parallel_modularity_agree() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let a = random_assignment(&mut rng, &g);
        let qp = modularity(&g, &a);
        let qs = serial_modularity(&g, &a, 1.0);
        assert!(
            (qp - qs).abs() < 1e-9,
            "seed {seed}: parallel {qp} vs serial {qs}"
        );
    }
}

/// Community degrees always sum to 2m, for any assignment.
#[test]
fn community_degrees_sum_to_2m() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let a = random_assignment(&mut rng, &g);
        let sum: f64 = community_degrees(&g, &a).iter().sum();
        assert!((sum - 2.0 * g.total_weight()).abs() < 1e-9, "seed {seed}");
    }
}

/// **Gather equivalence**: the flat generation-stamped scratch returns the
/// same `(community, weight)` set as the sort-based reference — same
/// communities, bitwise-equal weights (exact dyadic arithmetic) — for every
/// vertex of every random graph. Entry *order* differs by design
/// (first-touch vs sorted), so the flat result is sorted before comparing.
#[test]
fn flat_gather_equals_sort_based_reference() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let a = random_assignment(&mut rng, &g);
        let mut flat = NeighborScratch::default();
        let mut reference = Vec::new();
        for v in 0..g.num_vertices() as u32 {
            flat.gather(&g, &a, v);
            gather_sorted(&g, &a, v, &mut reference);
            let mut flat_sorted = flat.entries.clone();
            flat_sorted.sort_unstable_by_key(|&(c, _)| c);
            assert_eq!(
                flat_sorted, reference,
                "seed {seed} vertex {v}: flat scratch diverged from reference"
            );
        }
    }
}

/// **Sweep equivalence**: the optimized unordered phase (flat gather +
/// incremental accounting) and the historical sort-based phase make
/// identical decisions — same assignments, same per-iteration move counts —
/// on random graphs, where dyadic weights make all bookkeeping exact.
#[test]
fn unordered_phase_matches_sort_based_reference() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let fast = fixed_driver(SweepMode::Full, 1e-9, 64).run(&g);
        let slow = parallel_phase_unordered_sortbased(&g, 1e-9, 64, 1.0);
        assert_eq!(
            fast.assignment, slow.assignment,
            "seed {seed}: assignments differ"
        );
        let fast_moves: Vec<usize> = fast.iterations.iter().map(|&(_, m)| m).collect();
        let slow_moves: Vec<usize> = slow.iterations.iter().map(|&(_, m)| m).collect();
        assert_eq!(fast_moves, slow_moves, "seed {seed}: move sequences differ");
        assert!(
            (fast.final_modularity - slow.final_modularity).abs() < 1e-12,
            "seed {seed}: Q {} vs {}",
            fast.final_modularity,
            slow.final_modularity
        );
    }
}

/// §5.4 stability with incremental accounting: the unordered phase is
/// bitwise identical across thread counts. Graphs here must exceed the
/// rayon shim's sequential cutoff (1024 items), otherwise every pool size
/// would run the identical inline code path and the test would be vacuous.
#[test]
fn unordered_phase_bitwise_stable_across_thread_counts() {
    for seed in 0..CASES / 8 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(1_500usize..2_500);
        let edges: Vec<(u32, u32, f64)> = (0..n * 5)
            .map(|_| {
                (
                    rng.gen_range(0..n as u32),
                    rng.gen_range(0..n as u32),
                    rng.gen_range(1u32..100) as f64 / 16.0,
                )
            })
            .collect();
        let g = GraphBuilder::new(n).extend_edges(edges).build().unwrap();
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| fixed_driver(SweepMode::Full, 1e-9, 64).run(&g))
        };
        let r1 = run(1);
        for threads in [3usize, 16] {
            let rt = run(threads);
            assert_eq!(r1.assignment, rt.assignment, "seed {seed} @{threads}");
            assert_eq!(
                r1.final_modularity, rt.final_modularity,
                "seed {seed} @{threads}"
            );
            assert_eq!(r1.iterations, rt.iterations, "seed {seed} @{threads}");
        }
    }
}

/// Rebuild preserves total weight and modularity (the phase-transition
/// invariant).
#[test]
fn rebuild_preserves_weight_and_q() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let a = random_assignment(&mut rng, &g);
        let q_before = modularity(&g, &a);
        let res = rebuild(
            &g,
            &a,
            RebuildStrategy::StampAggregate,
            RenumberStrategy::Serial,
        );
        assert!(
            (res.graph.total_weight() - g.total_weight()).abs() < 1e-9,
            "seed {seed} changed m"
        );
        let singleton: Vec<Community> = (0..res.graph.num_vertices() as Community).collect();
        let q_after = modularity(&res.graph, &singleton);
        assert!(
            (q_before - q_after).abs() < 1e-9,
            "seed {seed}: Q {q_before} → {q_after}"
        );
    }
}

/// VF preserves total weight, and any compacted-graph partition projects to
/// an equal-modularity original partition.
#[test]
fn vf_preserves_weight_and_projected_q() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let r = vf_preprocess_recursive(&g, 1);
        assert!(
            (r.graph.total_weight() - g.total_weight()).abs() < 1e-9,
            "seed {seed}"
        );
        assert_eq!(
            r.graph.num_vertices() + r.merged,
            g.num_vertices(),
            "seed {seed}"
        );
        let nc = r.graph.num_vertices();
        if nc > 0 {
            let compact: Vec<Community> = (0..nc as Community).map(|v| v % 3).collect();
            let original = r.project_assignment(&compact);
            let qc = modularity(&r.graph, &compact);
            let qo = modularity(&g, &original);
            assert!(
                (qc - qo).abs() < 1e-9,
                "seed {seed}: compact {qc} vs original {qo}"
            );
        }
    }
}

/// Both colorings are always valid distance-1 colorings.
#[test]
fn colorings_are_valid() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let serial = color_greedy_serial(&g);
        assert!(is_valid_distance1(&g, &serial), "seed {seed} serial");
        let cfg = ParallelColoringConfig { serial_cutoff: 0 };
        let parallel = color_parallel(&g, &cfg);
        assert!(is_valid_distance1(&g, &parallel), "seed {seed} parallel");
    }
}

/// Pair-counting metrics: fast contingency path ≡ brute force, and the four
/// bins always partition C(n,2).
#[test]
fn pairwise_fast_equals_bruteforce() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(1usize..60);
        let s: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..6)).collect();
        let p: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..6)).collect();
        let fast = pairwise_comparison(&s, &p);
        let slow = grappolo::metrics::pairwise_comparison_bruteforce(&s, &p);
        assert_eq!(fast, slow, "seed {seed}");
        let n = s.len() as u128;
        assert_eq!(fast.total_pairs(), n * (n - 1) / 2, "seed {seed}");
    }
}

/// NMI is symmetric and bounded in [0, 1].
#[test]
fn nmi_symmetric_bounded() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(1usize..60);
        let a: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..5)).collect();
        let b: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..5)).collect();
        let ab = normalized_mutual_information(&a, &b);
        let ba = normalized_mutual_information(&b, &a);
        assert!((ab - ba).abs() < 1e-12, "seed {seed}");
        assert!((0.0..=1.0).contains(&ab), "seed {seed}: {ab}");
    }
}

/// End-to-end detection never produces an invalid result: dense labels,
/// assignment covers all vertices, Q matches a recomputation.
#[test]
fn detection_output_contract() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let result = detect_with_scheme(&g, Scheme::Baseline);
        assert_eq!(result.assignment.len(), g.num_vertices(), "seed {seed}");
        if !result.assignment.is_empty() {
            let max = *result.assignment.iter().max().unwrap() as usize;
            assert_eq!(max + 1, result.num_communities, "seed {seed}");
        }
        let q = modularity(&g, &result.assignment);
        assert!((q - result.modularity).abs() < 1e-9, "seed {seed}");
    }
}

/// Baseline detection is deterministic: two runs agree exactly.
#[test]
fn detection_is_deterministic() {
    for seed in 0..CASES / 4 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let r1 = detect_with_scheme(&g, Scheme::Baseline);
        let r2 = detect_with_scheme(&g, Scheme::Baseline);
        assert_eq!(r1.assignment, r2.assignment, "seed {seed}");
        assert_eq!(r1.modularity, r2.modularity, "seed {seed}");
    }
}

/// `e_{v→C}` lookups against a gather of `v`'s neighborhood.
fn edge_weight_to(scratch: &NeighborScratch, c: Community) -> f64 {
    scratch
        .entries
        .iter()
        .find(|&&(cc, _)| cc == c)
        .map_or(0.0, |&(_, w)| w)
}

/// A fresh full-rescan tracker over the current assignment — the
/// differential reference the incremental state is held against.
fn rescan_tracker(g: &CsrGraph, assignment: &[Community]) -> ModularityTracker {
    ModularityTracker::new(g, assignment, &community_degrees(g, assignment), 1.0)
}

/// **Tracker/rescan equivalence, random move sequences**: after every single
/// committed move on a random dyadic-weight graph, the incremental tracker's
/// `e_in`, `Σ a_C²`, and modularity are *bitwise* equal to a from-scratch
/// full rescan (exact arithmetic makes the different summation orders agree
/// exactly).
#[test]
fn tracker_random_move_sequence_bitwise_matches_rescan() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let n = g.num_vertices();
        let mut assignment = random_assignment(&mut rng, &g);
        let mut a = community_degrees(&g, &assignment);
        let mut tracker = ModularityTracker::new(&g, &assignment, &a, 1.0);
        let mut scratch = NeighborScratch::default();
        for step in 0..24 {
            let v = rng.gen_range(0..n) as u32;
            let from = assignment[v as usize];
            let to = rng.gen_range(0..n as Community);
            if to == from {
                continue;
            }
            scratch.gather(&g, &assignment, v);
            tracker.apply_move(
                g.weighted_degree(v),
                edge_weight_to(&scratch, from),
                edge_weight_to(&scratch, to),
                from,
                to,
                &mut a,
            );
            assignment[v as usize] = to;
            let reference = rescan_tracker(&g, &assignment);
            assert_eq!(
                tracker.e_in.to_bits(),
                reference.e_in.to_bits(),
                "seed {seed} step {step}: e_in drifted"
            );
            assert_eq!(
                tracker.null_sum.to_bits(),
                reference.null_sum.to_bits(),
                "seed {seed} step {step}: null_sum drifted"
            );
            assert_eq!(
                tracker.modularity().to_bits(),
                reference.modularity().to_bits(),
                "seed {seed} step {step}: modularity drifted"
            );
        }
        assert_eq!(a, community_degrees(&g, &assignment), "seed {seed}");
    }
}

/// **Tracker/rescan equivalence, independent batches**: random subsets of a
/// color class (independent sets by construction) committed through
/// `apply_independent_batch` leave the tracker bitwise equal to the full
/// rescan — the exact invariant the colored sweep's barrier commit rests on.
#[test]
fn tracker_random_independent_batches_bitwise_match_rescan() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let n = g.num_vertices();
        let batches = ColorBatches::from_coloring(&color_greedy_serial(&g));
        let mut assignment: Vec<Community> = (0..n as Community).collect();
        let mut a = community_degrees(&g, &assignment);
        let mut sizes = community_sizes(&assignment);
        let mut tracker = ModularityTracker::new(&g, &assignment, &a, 1.0);
        let mut scratch = NeighborScratch::default();
        for round in 0..8 {
            for batch in batches.classes() {
                // A random sub-batch with random (possibly silly) targets:
                // correctness of the accounting must not depend on the moves
                // being gainful.
                let mut moves: Vec<IndependentMove> = Vec::new();
                let mut movers: Vec<u32> = Vec::new();
                for &v in batch {
                    if rng.gen_range(0..3) != 0 {
                        continue;
                    }
                    let from = assignment[v as usize];
                    let to = rng.gen_range(0..n as Community);
                    if to == from {
                        continue;
                    }
                    scratch.gather(&g, &assignment, v);
                    moves.push(IndependentMove {
                        k: g.weighted_degree(v),
                        e_src: edge_weight_to(&scratch, from),
                        e_tgt: edge_weight_to(&scratch, to),
                        from,
                        to,
                    });
                    movers.push(v);
                }
                tracker.apply_independent_batch(&moves, &mut a, &mut sizes);
                for (mv, &v) in moves.iter().zip(&movers) {
                    assignment[v as usize] = mv.to;
                }
                let reference = rescan_tracker(&g, &assignment);
                assert_eq!(
                    tracker.e_in.to_bits(),
                    reference.e_in.to_bits(),
                    "seed {seed} round {round}: e_in drifted"
                );
                assert_eq!(
                    tracker.null_sum.to_bits(),
                    reference.null_sum.to_bits(),
                    "seed {seed} round {round}: null_sum drifted"
                );
            }
        }
        assert_eq!(a, community_degrees(&g, &assignment), "seed {seed}");
        assert_eq!(sizes, community_sizes(&assignment), "seed {seed}");
    }
}

/// The seeded generator suite the colored differential tests sweep: ER
/// (negative control), planted partition (community-rich), RMAT
/// (skewed-degree). All integer-weight, so all accounting is exact.
fn colored_suite() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "er",
            erdos_renyi(&ErConfig {
                num_vertices: 4_000,
                num_edges: 20_000,
                seed: 11,
            }),
        ),
        (
            "planted",
            planted_partition(&PlantedConfig {
                num_vertices: 6_000,
                num_communities: 40,
                seed: 12,
                ..Default::default()
            })
            .0,
        ),
        (
            "rmat",
            rmat(&RmatConfig {
                scale: 12,
                num_edges: 40_000,
                seed: 13,
                ..Default::default()
            }),
        ),
    ]
}

fn assert_outcomes_bitwise_equal(a: &PhaseOutcome, b: &PhaseOutcome, what: &str) {
    assert_eq!(a.assignment, b.assignment, "{what}: assignments differ");
    assert_eq!(
        a.iterations.len(),
        b.iterations.len(),
        "{what}: iteration counts differ"
    );
    for (i, (x, y)) in a.iterations.iter().zip(&b.iterations).enumerate() {
        assert_eq!(x.1, y.1, "{what}: iteration {i} move counts differ");
        assert_eq!(
            x.0.to_bits(),
            y.0.to_bits(),
            "{what}: iteration {i} modularity differs ({} vs {})",
            x.0,
            y.0
        );
    }
    assert_eq!(
        a.final_modularity.to_bits(),
        b.final_modularity.to_bits(),
        "{what}: final modularity differs"
    );
}

/// **Colored sweep differential**: the incremental-accounting colored phase
/// and the retained full-rescan reference walk bitwise-identical
/// trajectories (assignments, per-iteration move counts *and* modularities)
/// over the seeded ER/planted/RMAT suite.
#[test]
fn colored_phase_matches_rescan_reference() {
    for (name, g) in colored_suite() {
        let coloring = color_parallel(&g, &ParallelColoringConfig::default());
        let batches = ColorBatches::from_coloring(&coloring);
        let fast = fixed_driver(SweepMode::Full, 1e-9, 64).run_colored(&g, &batches);
        let slow = parallel_phase_colored_rescan(&g, &batches, SweepMode::Full, 1e-9, 64, 1.0);
        assert_outcomes_bitwise_equal(&fast, &slow, name);
    }
}

/// **Colored sweep stability**: bitwise-identical outcomes at 1/2/3/4/8/16
/// worker threads — the §5.4 guarantee extended to the colored phase by the
/// barrier-commit scheme (the historical atomic commits could not make this
/// promise), and held under the stealing scheduler (16 oversubscribes every
/// CI runner, so stolen execution order varies maximally).
#[test]
fn colored_phase_bitwise_stable_across_thread_counts() {
    for (name, g) in colored_suite() {
        let coloring = color_parallel(&g, &ParallelColoringConfig::default());
        let batches = ColorBatches::from_coloring(&coloring);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| fixed_driver(SweepMode::Full, 1e-9, 64).run_colored(&g, &batches))
        };
        let reference = run(1);
        for threads in [2usize, 3, 4, 8, 16] {
            let out = run(threads);
            assert_outcomes_bitwise_equal(&reference, &out, &format!("{name}@{threads}"));
        }
    }
}

/// **Active-sweep differential, quality**: over the ER/planted/RMAT suite,
/// the dirty-vertex schedule reaches the same final modularity as the full
/// sweep within the paper's tolerance — for the serial, unordered, and
/// colored variants. (Exact trajectory equality is *not* promised once the
/// set desaturates: global community degrees can drift for vertices the
/// pruned sweep provably need not re-examine.)
#[test]
fn active_sweep_quality_matches_full_on_suite() {
    for (name, g) in colored_suite() {
        let coloring = color_parallel(&g, &ParallelColoringConfig::default());
        let batches = ColorBatches::from_coloring(&coloring);
        let serial = |sweep: SweepMode| {
            let config = LouvainConfig {
                parallel: false,
                sweep_mode: sweep,
                ..LouvainConfig::default()
            };
            driver(config, 1e-6, 500).run(&g)
        };
        let unordered = |sweep: SweepMode| fixed_driver(sweep, 1e-6, 500).run(&g);
        let colored = |sweep: SweepMode| fixed_driver(sweep, 1e-6, 500).run_colored(&g, &batches);
        let pairs: [(&str, PhaseOutcome, PhaseOutcome); 3] = [
            ("serial", serial(SweepMode::Full), serial(SweepMode::Active)),
            (
                "unordered",
                unordered(SweepMode::Full),
                unordered(SweepMode::Active),
            ),
            (
                "colored",
                colored(SweepMode::Full),
                colored(SweepMode::Active),
            ),
        ];
        for (variant, full, active) in &pairs {
            assert!(
                active.final_modularity >= 0.95 * full.final_modularity,
                "{name}/{variant}: active Q {} vs full Q {}",
                active.final_modularity,
                full.final_modularity
            );
        }
    }
}

/// **Active-sweep saturation identity**: while the active set is saturated
/// (iteration 0 — everything dirty), the pruned sweeps make bitwise-
/// identical decisions to the full sweeps on every suite input.
#[test]
fn active_sweep_saturated_bitwise_matches_full() {
    for (name, g) in colored_suite() {
        let coloring = color_parallel(&g, &ParallelColoringConfig::default());
        let batches = ColorBatches::from_coloring(&coloring);
        let full = fixed_driver(SweepMode::Full, 1e-9, 1);
        let active = fixed_driver(SweepMode::Active, 1e-9, 1);
        assert_outcomes_bitwise_equal(&full.run(&g), &active.run(&g), &format!("{name}/unordered"));
        let full_c = full.run_colored(&g, &batches);
        let active_c = active.run_colored(&g, &batches);
        assert_outcomes_bitwise_equal(&full_c, &active_c, &format!("{name}/colored"));
    }
}

/// **Active-sweep stability**: the dirty-vertex frontier is rebuilt from the
/// committed move list, so the pruned unordered and colored phases are
/// bitwise identical at 1/2/4/8/16 worker threads — the frontier itself (and
/// hence every decision it admits) is thread-count independent.
#[test]
fn active_sweep_bitwise_stable_across_thread_counts() {
    for (name, g) in colored_suite() {
        let coloring = color_parallel(&g, &ParallelColoringConfig::default());
        let batches = ColorBatches::from_coloring(&coloring);
        let active = fixed_driver(SweepMode::Active, 1e-9, 64);
        for colored in [false, true] {
            let run = |threads: usize| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                pool.install(|| {
                    if colored {
                        active.run_colored(&g, &batches)
                    } else {
                        active.run(&g)
                    }
                })
            };
            let reference = run(1);
            for threads in [2usize, 4, 8, 16] {
                let out = run(threads);
                assert_outcomes_bitwise_equal(
                    &reference,
                    &out,
                    &format!("{name}/colored={colored}@{threads}"),
                );
            }
        }
    }
}

/// A skewed graph with arbitrary real weights: RMAT at scale 14 whose
/// vertex 0 gets 5 % more edges (a hub of 7 017 entries, where the
/// plain graph's largest row has 2 484), every edge's weight redrawn from
/// a seeded generator, so summation order shows in the bits.
fn skewed_real_graph() -> CsrGraph {
    let shape = rmat(&RmatConfig {
        hub_boost: 0.05,
        seed: 21,
        ..Default::default()
    });
    let mut rng = SmallRng::seed_from_u64(21);
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    for v in 0..shape.num_vertices() as u32 {
        for &u in shape.neighbor_ids(v).iter().filter(|&&u| u >= v) {
            edges.push((v, u, rng.gen_range(0.01..10.0)));
        }
    }
    GraphBuilder::new(shape.num_vertices())
        .extend_edges(edges)
        .build()
        .expect("redrawn weights are valid")
}

/// Assignments, move counts and frontiers equal; Q equal up to the last
/// bits, since the oracles rescan Q where the driver tracks it.
fn assert_same_trajectory(a: &PhaseOutcome, oracle: &PhaseOutcome, what: &str) {
    assert_eq!(
        a.assignment, oracle.assignment,
        "{what}: assignments differ"
    );
    let moves = |o: &PhaseOutcome| o.iterations.iter().map(|&(_, m)| m).collect::<Vec<_>>();
    assert_eq!(moves(a), moves(oracle), "{what}: move counts differ");
    let frontiers = |o: &PhaseOutcome| o.stats.iter().map(|s| s.frontier).collect::<Vec<_>>();
    assert_eq!(frontiers(a), frontiers(oracle), "{what}: frontiers differ");
    for (x, y) in a.iterations.iter().zip(&oracle.iterations) {
        assert!((x.0 - y.0).abs() < 1e-12, "{what}: Q {} vs {}", x.0, y.0);
    }
}

/// **The sliced decide on a skewed graph**: the colored phase (full and
/// active) and the unordered phase decide each list in slices of equal
/// adjacency work, and still match the oracles, which decide through their
/// own per-vertex loops, and are bitwise identical at 1/2/3/8/16 threads.
/// The graph has what the slicing must get right: a class of at most 1 024
/// vertices (which a count-cut region would run on one thread) cut into
/// several slices, and a hub that is a slice on its own.
#[test]
fn sliced_decide_matches_oracles_on_a_skewed_real_weight_graph() {
    use grappolo::core::parallel::{slice_bounds, MIN_SLICE_WORK, VERTEX_WORK};
    const ITERATIONS: usize = 24;
    let g = skewed_real_graph();
    let batches =
        ColorBatches::from_coloring(&color_parallel(&g, &ParallelColoringConfig::default()));
    let mut bounds = Vec::new();
    let (mut small_class_cut, mut lone_hub) = (false, false);
    for class in batches.classes() {
        slice_bounds(&g, class, &mut bounds);
        small_class_cut |= class.len() <= 1024 && bounds.len() > 2;
        lone_hub |= bounds
            .windows(2)
            .any(|w| w[1] - w[0] == 1 && g.degree(class[w[0]]) + VERTEX_WORK >= MIN_SLICE_WORK);
    }
    assert!(
        small_class_cut,
        "no class of ≤ 1 024 vertices is cut in two"
    );
    assert!(lone_hub, "no hub is a slice on its own");

    let full = fixed_driver(SweepMode::Full, 1e-9, ITERATIONS);
    let active = fixed_driver(SweepMode::Active, 1e-9, ITERATIONS);
    let phases: [(&str, &dyn Fn() -> PhaseOutcome); 3] = [
        ("colored/full", &|| full.run_colored(&g, &batches)),
        ("colored/active", &|| active.run_colored(&g, &batches)),
        ("unordered", &|| full.run(&g)),
    ];
    let oracles = [
        parallel_phase_colored_rescan(&g, &batches, SweepMode::Full, 1e-9, ITERATIONS, 1.0),
        parallel_phase_colored_rescan(&g, &batches, SweepMode::Active, 1e-9, ITERATIONS, 1.0),
        parallel_phase_unordered_sortbased(&g, 1e-9, ITERATIONS, 1.0),
    ];
    for ((name, phase), oracle) in phases.iter().zip(&oracles) {
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(phase)
        };
        let reference = run(1);
        assert_same_trajectory(&reference, oracle, name);
        for threads in [2usize, 3, 8, 16] {
            assert_outcomes_bitwise_equal(&reference, &run(threads), &format!("{name}@{threads}"));
        }
    }
    // The active phase pruned, so it decided filtered classes too.
    let pruned = oracles[1]
        .stats
        .iter()
        .any(|s| s.frontier < g.num_vertices());
    assert!(pruned, "the active phase never pruned");
}

/// **Scheduled-engine identity**: `Fixed(θ)` + `vertex_epsilon = 0` through
/// the production driver reproduces the historical fixed-threshold
/// trajectories **bit-for-bit** — pinned against the retained sort-based and
/// rescan references.
#[test]
fn fixed_zero_epsilon_scheduled_bitwise_matches_references() {
    for (name, g) in colored_suite() {
        let fixed = fixed_driver(SweepMode::Full, 1e-9, 64);
        let sched = fixed.run(&g);
        let reference = parallel_phase_unordered_sortbased(&g, 1e-9, 64, 1.0);
        assert_eq!(
            sched.assignment, reference.assignment,
            "{name}: unordered scheduled(Fixed, ε=0) diverged from reference"
        );
        let sched_moves: Vec<usize> = sched.iterations.iter().map(|&(_, m)| m).collect();
        let ref_moves: Vec<usize> = reference.iterations.iter().map(|&(_, m)| m).collect();
        assert_eq!(sched_moves, ref_moves, "{name}: move sequences differ");
        // Gate telemetry must report the ungated state.
        assert!(sched
            .stats
            .iter()
            .all(|s| s.gate == 0.0 && s.converged == 0));

        let coloring = color_parallel(&g, &ParallelColoringConfig::default());
        let batches = ColorBatches::from_coloring(&coloring);
        let sched_c = fixed.run_colored(&g, &batches);
        let rescan = parallel_phase_colored_rescan(&g, &batches, SweepMode::Full, 1e-9, 64, 1.0);
        assert_outcomes_bitwise_equal(&sched_c, &rescan, &format!("{name}/colored"));
    }
}

/// **Scheduled-sweep stability**: under the geometric schedule the gate
/// sequence is a pure function of the iteration index, so the scheduled
/// unordered, colored, and serial sweeps are bitwise identical at
/// 1/2/4/8 worker threads on every suite input — in both sweep modes.
#[test]
fn scheduled_sweeps_bitwise_stable_across_thread_counts() {
    for (name, g) in colored_suite() {
        let coloring = color_parallel(&g, &ParallelColoringConfig::default());
        let batches = ColorBatches::from_coloring(&coloring);
        for sweep in [SweepMode::Full, SweepMode::Active] {
            let sched = geometric_driver(true, sweep, 500);
            for colored in [false, true] {
                let run = |threads: usize| {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    pool.install(|| {
                        if colored {
                            sched.run_colored(&g, &batches)
                        } else {
                            sched.run(&g)
                        }
                    })
                };
                let reference = run(1);
                for threads in [2usize, 4, 8, 16] {
                    let out = run(threads);
                    assert_outcomes_bitwise_equal(
                        &reference,
                        &out,
                        &format!("{name}/{sweep:?}/colored={colored}@{threads}"),
                    );
                    assert_eq!(
                        reference.stats, out.stats,
                        "{name}/{sweep:?}/colored={colored}@{threads}: stats differ"
                    );
                }
            }
        }
    }
}

/// **Scheduled quality differential, unordered** — the acceptance bar: the
/// geometric schedule's final modularity stays within the paper's
/// tolerance (≥ 0.95×) of the fixed-threshold baseline on ER, planted, and
/// RMAT, in both sweep modes. In practice the scheduled unordered sweep
/// *beats* the fixed baseline by 1.6–1.9× on all three families — the
/// fixed aggregate stop fires mid-oscillation (Lemma 1's negative parallel
/// gains) while the gate suppresses the churn and lets the sweep converge
/// — so the margin is wide; the assert still pins the contractual bound.
#[test]
fn scheduled_quality_matches_fixed_on_suite() {
    for (name, g) in colored_suite() {
        let fixed_q = fixed_driver(SweepMode::Full, 1e-6, 500)
            .run(&g)
            .final_modularity;
        for sweep in [SweepMode::Full, SweepMode::Active] {
            let sched_q = geometric_driver(true, sweep, 500).run(&g).final_modularity;
            assert!(
                sched_q >= 0.95 * fixed_q,
                "{name}/unordered/{sweep:?}: scheduled Q {sched_q} vs fixed Q {fixed_q}"
            );
        }
    }
}

/// **Scheduled quality, colored and serial sweeps**: these baselines do
/// not suffer the unordered oscillation (barriers / immediate commits give
/// them fresh state), so gating trades away the sub-quantum
/// "null-term-only" moves (gain ≈ `k·Δa/(2m)²`, orders of magnitude below
/// one edge-weight unit) that any meaningful per-vertex gate excludes by
/// design. On structure-free inputs those crumbs add a few percent of Q —
/// measured floors: colored ≥ 0.91× (ER; ≥ 0.99× planted, 1.24× RMAT),
/// serial ≥ 0.85× (planted; 0.95× ER, 1.08× RMAT). The bounds pin just
/// below the measured floors.
///
/// The Leiden-style refinement pass recovers those forfeited crumbs: the
/// absorption sweeps pick up the stranded singletons and the polish rounds
/// re-admit the gated non-singleton moves, so *refined* scheduled Q clears
/// much tighter floors. Measured (deterministic — exact integer weights):
/// colored 0.9365× (ER; 1.0085× planted, 1.2539× RMAT), serial 0.9845×
/// (ER; 1.0084× planted, 1.089× RMAT) — refinement turns the serial
/// planted deficit (0.8509×) into a *gain*. Bounds pin just below the
/// floors.
#[test]
fn scheduled_quality_colored_and_serial_on_suite() {
    for (name, g) in colored_suite() {
        let coloring = color_parallel(&g, &ParallelColoringConfig::default());
        let batches = ColorBatches::from_coloring(&coloring);
        let fixed_c = fixed_driver(SweepMode::Full, 1e-6, 500)
            .run_colored(&g, &batches)
            .final_modularity;
        for sweep in [SweepMode::Full, SweepMode::Active] {
            let sched = geometric_driver(true, sweep, 500).run_colored(&g, &batches);
            let sched_c = sched.final_modularity;
            assert!(
                sched_c >= 0.90 * fixed_c,
                "{name}/colored/{sweep:?}: scheduled Q {sched_c} vs fixed Q {fixed_c}"
            );
            let mut refined = sched.assignment.clone();
            let stats = refine_phase(&g, &mut refined, 1.0);
            assert!(
                stats.refined_modularity >= 0.93 * fixed_c,
                "{name}/colored/{sweep:?}: refined scheduled Q {} vs fixed Q {fixed_c}",
                stats.refined_modularity
            );
        }
        let serial_fixed = LouvainConfig {
            parallel: false,
            ..LouvainConfig::default()
        };
        let fixed_s = driver(serial_fixed, 1e-6, 500).run(&g).final_modularity;
        let sched = geometric_driver(false, SweepMode::Active, 500).run(&g);
        let sched_s = sched.final_modularity;
        assert!(
            sched_s >= 0.80 * fixed_s,
            "{name}/serial: scheduled Q {sched_s} vs fixed Q {fixed_s}"
        );
        let mut refined = sched.assignment.clone();
        let stats = refine_phase(&g, &mut refined, 1.0);
        assert!(
            stats.refined_modularity >= 0.95 * fixed_s,
            "{name}/serial: refined scheduled Q {} vs fixed Q {fixed_s}",
            stats.refined_modularity
        );
    }
}

/// The refined colored-active driver each refinement property runs: the
/// shipped geometric schedule, dirty-vertex sweeps, Leiden refinement —
/// the exact configuration `detect --sweep active --schedule geometric
/// --refine leiden` resolves to.
fn refined_driver(refine: RefineMode) -> PhaseDriver {
    let config = LouvainConfig::builder()
        .sweep(SweepMode::Active)
        .schedule(ScheduleSpec::Geometric)
        .refine(refine)
        .build()
        .expect("valid refinement config");
    PhaseDriver::from_config(&config, 1e-6)
}

/// **Refinement monotonicity**: refined Q ≥ unrefined Q. Driven two ways:
/// through the `PhaseDriver` on the suite (where the unrefined outcome is
/// the recorded `pre_modularity`, bitwise), and through `refine_phase`
/// directly on random dyadic-weight graphs with *arbitrary* (even absurd)
/// assignments — splitting can lower Q only when absorption earns it back,
/// so the net must never be negative, and the reported refined Q must match
/// a from-scratch recomputation.
#[test]
fn refinement_never_lowers_modularity() {
    for (name, g) in colored_suite() {
        let batches =
            ColorBatches::from_coloring(&color_parallel(&g, &ParallelColoringConfig::default()));
        let plain = refined_driver(RefineMode::None).run_colored(&g, &batches);
        let refined = refined_driver(RefineMode::Leiden).run_colored(&g, &batches);
        assert!(plain.refinement.is_none(), "{name}: unexpected stats");
        let stats = refined
            .refinement
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: refinement stats missing"));
        // `pre_modularity` is a from-scratch rescan of the converged
        // assignment; the plain outcome reports the incremental tracker's
        // value — different summation orders, so tolerance, not bits.
        assert!(
            (stats.pre_modularity - plain.final_modularity).abs() < 1e-9,
            "{name}: refinement started from a different converged state \
             ({} vs {})",
            stats.pre_modularity,
            plain.final_modularity
        );
        assert!(
            refined.final_modularity >= plain.final_modularity - 1e-12,
            "{name}: refined Q {} < unrefined Q {}",
            refined.final_modularity,
            plain.final_modularity
        );
        assert_eq!(
            refined.final_modularity.to_bits(),
            stats.refined_modularity.to_bits(),
            "{name}: outcome Q disagrees with refinement stats"
        );
    }
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let mut a = random_assignment(&mut rng, &g);
        let q_before = modularity(&g, &a);
        let stats = refine_phase(&g, &mut a, 1.0);
        assert!(
            stats.refined_modularity >= q_before - 1e-12,
            "seed {seed}: refined Q {} < initial Q {q_before}",
            stats.refined_modularity
        );
        assert!(
            (modularity(&g, &a) - stats.refined_modularity).abs() < 1e-9,
            "seed {seed}: reported refined Q drifted from recomputation"
        );
    }
}

/// **Refinement stability**: the refined colored-active phase — sweep,
/// split, and absorption — is bitwise identical at 1/2/4/8/16 worker
/// threads on every suite input, refinement statistics included. (The split
/// and absorption are serial by construction; this pins the whole driver
/// path, including the rayon-backed tracker rescans refinement reuses.)
#[test]
fn refined_phase_bitwise_stable_across_thread_counts() {
    for (name, g) in colored_suite() {
        let batches =
            ColorBatches::from_coloring(&color_parallel(&g, &ParallelColoringConfig::default()));
        let driver = refined_driver(RefineMode::Leiden);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| driver.run_colored(&g, &batches))
        };
        let reference = run(1);
        let ref_stats = reference.refinement.as_ref().unwrap();
        for threads in [2usize, 4, 8, 16] {
            let out = run(threads);
            assert_outcomes_bitwise_equal(&reference, &out, &format!("{name}@{threads}"));
            let stats = out.refinement.as_ref().unwrap();
            assert_eq!(
                (
                    ref_stats.parents,
                    ref_stats.split_parents,
                    ref_stats.sub_communities,
                    ref_stats.absorbed,
                    ref_stats.polished,
                    ref_stats.passes,
                    ref_stats.pre_modularity.to_bits(),
                    ref_stats.refined_modularity.to_bits(),
                ),
                (
                    stats.parents,
                    stats.split_parents,
                    stats.sub_communities,
                    stats.absorbed,
                    stats.polished,
                    stats.passes,
                    stats.pre_modularity.to_bits(),
                    stats.refined_modularity.to_bits(),
                ),
                "{name}@{threads}: refinement stats diverged"
            );
        }
    }
}

/// The condensed rows of `g` under `assignment`, built serially and apart
/// from the library: one `BTreeMap` per community (ascending labels), each
/// filled by walking the vertices in ascending order and every vertex's
/// adjacency in CSR order — the accumulation order the rebuild documents —
/// then every entry `v → u` with `u < v` given row `u`'s weight for `v` (the
/// low-id mirror). Weights come back as bits.
fn serial_condensation(g: &CsrGraph, assignment: &[Community]) -> Vec<Vec<(u32, u64)>> {
    let labels: BTreeSet<Community> = assignment.iter().copied().collect();
    let row_of: BTreeMap<Community, u32> = labels
        .iter()
        .enumerate()
        .map(|(r, &c)| (c, r as u32))
        .collect();
    let mut rows: Vec<BTreeMap<u32, f64>> = vec![BTreeMap::new(); labels.len()];
    for v in 0..g.num_vertices() as u32 {
        let row = &mut rows[row_of[&assignment[v as usize]] as usize];
        for (u, w) in g.neighbors(v) {
            row.entry(row_of[&assignment[u as usize]])
                .and_modify(|acc| *acc += w)
                .or_insert(w);
        }
    }
    (0..rows.len())
        .map(|v| {
            rows[v]
                .iter()
                .map(|(&u, &w)| {
                    let w = if (u as usize) < v {
                        rows[u as usize][&(v as u32)]
                    } else {
                        w
                    };
                    (u, w.to_bits())
                })
                .collect()
        })
        .collect()
}

/// A random weighted graph of up to 300 vertices whose weights are
/// arbitrary reals, so every summation order shows in the bits.
fn random_real_graph(rng: &mut SmallRng) -> CsrGraph {
    let n = rng.gen_range(2usize..300);
    let num_edges = rng.gen_range(0usize..1200);
    let edges: Vec<(u32, u32, f64)> = (0..num_edges)
        .map(|_| {
            (
                rng.gen_range(0..n as u32),
                rng.gen_range(0..n as u32),
                rng.gen_range(0.01..10.0),
            )
        })
        .collect();
    GraphBuilder::new(n)
        .extend_edges(edges)
        .build()
        .expect("random edges are valid")
}

/// **Rebuild against an independent oracle**: the production rebuild's
/// condensed graph equals [`serial_condensation`] bit for bit, on random
/// dyadic- and real-weight graphs under a random, a singleton, a scattered
/// (`v % 97`) and a one-community partition, at 1, 2 and 8 threads.
#[test]
fn rebuild_bitwise_matches_serial_condensation() {
    let pools: Vec<(usize, rayon::ThreadPool)> = [1usize, 2, 8]
        .into_iter()
        .map(|t| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap();
            (t, pool)
        })
        .collect();
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        for g in [random_graph(&mut rng), random_real_graph(&mut rng)] {
            let n = g.num_vertices() as Community;
            let partitions = [
                ("random", random_assignment(&mut rng, &g)),
                ("singleton", (0..n).collect()),
                ("scattered", (0..n).map(|v| v % 97).collect()),
                ("one community", vec![0; n as usize]),
            ];
            for (name, a) in &partitions {
                let expected = serial_condensation(&g, a);
                for (threads, pool) in &pools {
                    let res = pool.install(|| {
                        rebuild(
                            &g,
                            a,
                            RebuildStrategy::StampAggregate,
                            RenumberStrategy::Serial,
                        )
                    });
                    let got: Vec<Vec<(u32, u64)>> = (0..res.graph.num_vertices() as u32)
                        .map(|v| {
                            res.graph
                                .neighbors(v)
                                .map(|(u, w)| (u, w.to_bits()))
                                .collect()
                        })
                        .collect();
                    assert_eq!(res.num_communities, expected.len(), "seed {seed} {name}");
                    assert_eq!(got, expected, "seed {seed} {name} at {threads} threads");
                }
            }
        }
    }
}

/// Serial Louvain's modularity never decreases across its trace (the §3
/// monotonicity property), on arbitrary graphs — now reported from the
/// incremental tracker.
#[test]
fn serial_trace_is_monotone() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let result = detect_with_scheme(&g, Scheme::Serial);
        assert!(
            result.trace.check_monotone_within_phases(1e-9).is_ok(),
            "seed {seed}"
        );
    }
}

/// **Tracker stability under stealing**: constructing a `ModularityTracker`
/// (whose `e_in`/`Σ a_C²` rescans run through `det_sum`) and replaying an
/// identical seeded independent-batch move sequence leaves bitwise-equal
/// incremental state at 1/2/4/8/16 worker threads.
#[test]
fn tracker_state_bitwise_stable_across_thread_counts() {
    for (name, g) in colored_suite() {
        let n = g.num_vertices();
        let batches = ColorBatches::from_coloring(&color_greedy_serial(&g));
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                // Re-seed inside the pool so every thread count replays the
                // exact same move sequence.
                let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
                let mut assignment: Vec<Community> = (0..n as Community).collect();
                let mut a = community_degrees(&g, &assignment);
                let mut sizes = community_sizes(&assignment);
                let mut tracker = ModularityTracker::new(&g, &assignment, &a, 1.0);
                let mut scratch = NeighborScratch::default();
                for batch in batches.classes().take(4) {
                    let mut moves: Vec<IndependentMove> = Vec::new();
                    let mut movers: Vec<u32> = Vec::new();
                    for &v in batch.iter().take(512) {
                        if rng.gen_range(0..2) == 0 {
                            continue;
                        }
                        let from = assignment[v as usize];
                        let to = rng.gen_range(0..n as Community);
                        if to == from {
                            continue;
                        }
                        scratch.gather(&g, &assignment, v);
                        moves.push(IndependentMove {
                            k: g.weighted_degree(v),
                            e_src: edge_weight_to(&scratch, from),
                            e_tgt: edge_weight_to(&scratch, to),
                            from,
                            to,
                        });
                        movers.push(v);
                    }
                    tracker.apply_independent_batch(&moves, &mut a, &mut sizes);
                    for (mv, &v) in moves.iter().zip(&movers) {
                        assignment[v as usize] = mv.to;
                    }
                }
                (
                    tracker.e_in.to_bits(),
                    tracker.null_sum.to_bits(),
                    tracker.modularity().to_bits(),
                )
            })
        };
        let reference = run(1);
        for threads in [2usize, 4, 8, 16] {
            assert_eq!(reference, run(threads), "{name}@{threads}");
        }
    }
}
