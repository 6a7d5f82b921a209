//! Criterion benchmark for the local-moving sweep (Algorithm 1 lines 9–14)
//! — the kernel whose per-iteration complexity §5.6 analyzes as
//! O((M+n·k̄)/p).
//!
//! Unordered: `flat` is the production path (generation-stamped O(deg)
//! gathers plus incremental `Σ e_in` / `Σ a_C²` accounting);
//! `sort_baseline` is the historical kernel it replaced (O(deg·log deg)
//! sorted gathers, O(n) community-degree rebuild and O(m) modularity rescan
//! per iteration). Both make identical decisions (see
//! `tests/properties.rs`), so the ratio is a pure kernel speedup. The PR 1
//! acceptance bar was flat ≥ 1.5× per iteration on the 100 K planted graph.
//!
//! Colored (PR 3): `colored_incremental` is the deterministic barrier-commit
//! sweep with incremental tracker accounting; `colored_rescan` is the
//! retained reference that recomputes modularity by full O(m) rescan every
//! iteration. Decisions are bitwise identical, so the ratio isolates the
//! accounting cost. The PR 3 acceptance bar is incremental ≥ 1.3× per
//! iteration on the cached 1.15 M-edge RMAT graph (the ingest bench's
//! input). Coloring is precomputed outside the timed region — the sweep,
//! not the coloring, is under test. `colored_incremental/rmat1150k_vf`
//! sweeps the same input after vertex following, the graph `detect`'s
//! first phase sweeps.
//!
//! `cargo bench --bench sweep` emits `BENCH_sweep.json` for the perf
//! trajectory.
//!
//! The production arms run through `grappolo_core::PhaseDriver` at the
//! paper's fixed threshold with full sweeps; the baselines are the retained
//! oracles in `grappolo_core::reference`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grappolo_bench::inputs::{color_batches, planted, rmat1150k};
use grappolo_coloring::ColorBatches;
use grappolo_core::reference::{parallel_phase_colored_rescan, parallel_phase_unordered_sortbased};
use grappolo_core::{vf_preprocess_recursive, LouvainConfig, PhaseDriver, SweepMode};
use grappolo_graph::CsrGraph;

/// Fixed iteration budget so both kernels do identical sweep work per
/// sample (they converge identically; see the equivalence property tests).
const ITERS: usize = 4;

/// Iteration budget for the colored pair (both variants sustain well past
/// this many moving iterations on these inputs, so every sample does
/// identical sweep work).
const COLORED_ITERS: usize = 4;

/// The production phase driver: full sweep, fixed threshold 1e-9, capped
/// at `max_iterations`.
fn driver(max_iterations: usize) -> PhaseDriver {
    let config = LouvainConfig {
        max_iterations_per_phase: max_iterations,
        ..LouvainConfig::default()
    };
    PhaseDriver::from_config(&config, 1e-9)
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep");
    for &n in &[20_000usize, 100_000] {
        let g = planted(n);
        group.throughput(Throughput::Elements(g.num_adjacency_entries() as u64));
        let flat = driver(ITERS);
        group.bench_with_input(BenchmarkId::new("flat", n), &g, |b, g| {
            b.iter(|| flat.run(g));
        });
        group.bench_with_input(BenchmarkId::new("sort_baseline", n), &g, |b, g| {
            b.iter(|| parallel_phase_unordered_sortbased(g, 1e-9, ITERS, 1.0));
        });
    }
    group.finish();
}

fn bench_colored(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep");

    let bench_pair = |group: &mut criterion::BenchmarkGroup<'_>,
                      label: &str,
                      g: &CsrGraph,
                      batches: &ColorBatches| {
        group.throughput(Throughput::Elements(g.num_adjacency_entries() as u64));
        let incremental = driver(COLORED_ITERS);
        group.bench_with_input(
            BenchmarkId::new("colored_incremental", label),
            &(g, batches),
            |b, (g, batches)| {
                b.iter(|| incremental.run_colored(g, batches));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("colored_rescan", label),
            &(g, batches),
            |b, (g, batches)| {
                b.iter(|| {
                    parallel_phase_colored_rescan(
                        g,
                        batches,
                        SweepMode::Full,
                        1e-9,
                        COLORED_ITERS,
                        1.0,
                    )
                });
            },
        );
    };

    let planted = planted(100_000);
    bench_pair(
        &mut group,
        "planted100k",
        &planted,
        &color_batches(&planted),
    );

    // The acceptance-bar input.
    let big = rmat1150k();
    let big_batches = color_batches(&big);
    bench_pair(&mut group, "rmat1150k", &big, &big_batches);

    // The graph `detect` sweeps first on that input, once VF has folded
    // its single-degree vertices into their neighbors. Colored outside the
    // timed loop.
    let vf = vf_preprocess_recursive(&big, 1).graph;
    let vf_batches = color_batches(&vf);
    let incremental = driver(COLORED_ITERS);
    group.throughput(Throughput::Elements(vf.num_adjacency_entries() as u64));
    group.bench_with_input(
        BenchmarkId::new("colored_incremental", "rmat1150k_vf"),
        &(&vf, &vf_batches),
        |b, (g, batches)| {
            b.iter(|| incremental.run_colored(g, batches));
        },
    );

    // The accounting delta in isolation on the same input (noise-robust
    // complement to the whole-phase pair, whose O(m) decision pass is
    // common to both variants): one full O(m)+O(n) modularity rescan —
    // what the historical colored sweep paid per iteration — vs one
    // iteration's worth of incremental accounting (committing a 4 096-move
    // independent batch through the tracker, then the O(1) modularity
    // read).
    {
        use grappolo_core::modularity::{
            community_degrees, community_sizes, IndependentMove, ModularityTracker, NeighborScratch,
        };
        let assignment: Vec<u32> = (0..big.num_vertices() as u32).collect();
        let a0 = community_degrees(&big, &assignment);
        let sizes0 = community_sizes(&assignment);
        let tracker0 = ModularityTracker::new(&big, &assignment, &a0, 1.0);
        group.throughput(Throughput::Elements(big.num_adjacency_entries() as u64));
        group.bench_with_input(
            BenchmarkId::new("accounting_rescan", "rmat1150k"),
            &big,
            |b, g| {
                b.iter(|| {
                    let a = community_degrees(g, &assignment);
                    ModularityTracker::new(g, &assignment, &a, 1.0).modularity()
                });
            },
        );
        // 4 096 movers from the largest color class (a genuine independent
        // set), each joining its first neighbor's community — a realistic
        // early-iteration move volume on this input.
        let class = big_batches
            .classes()
            .max_by_key(|c| c.len())
            .expect("non-empty coloring");
        let mut scratch = NeighborScratch::with_capacity(big.num_vertices());
        let stride = (class.len() / 4_096).max(1);
        let moves: Vec<IndependentMove> = class
            .iter()
            .step_by(stride)
            .take(4_096)
            .filter_map(|&v| {
                let to = *big.neighbor_ids(v).first()?;
                if to == v {
                    return None;
                }
                scratch.gather(&big, &assignment, v);
                Some(IndependentMove {
                    k: big.weighted_degree(v),
                    e_src: scratch.weight_to(v),
                    e_tgt: scratch.weight_to(to),
                    from: v,
                    to,
                })
            })
            .collect();
        // Apply + undo: the mirrored batch restores the tracker bitwise
        // (see the round-trip edge-case test), so each sample times two
        // O(#moves) commits with no state-copy scaffolding in the loop.
        let undo: Vec<IndependentMove> = moves
            .iter()
            .map(|mv| IndependentMove {
                k: mv.k,
                e_src: mv.e_tgt,
                e_tgt: mv.e_src,
                from: mv.to,
                to: mv.from,
            })
            .collect();
        let mut tracker = tracker0.clone();
        let mut a = a0.clone();
        let mut sizes = sizes0.clone();
        group.bench_with_input(
            BenchmarkId::new("accounting_incremental", "rmat1150k"),
            &big,
            |b, _g| {
                b.iter(|| {
                    tracker.apply_independent_batch(&moves, &mut a, &mut sizes);
                    tracker.apply_independent_batch(&undo, &mut a, &mut sizes);
                    tracker.modularity()
                });
            },
        );
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sweep, bench_colored
}
criterion_main!(benches);
