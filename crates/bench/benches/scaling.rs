//! Strong-scaling benchmark for the resident work-stealing pool: the same
//! workload at 1/2/4/8/16 threads, so CI can track parallel efficiency per
//! thread count instead of a single speedup point.
//!
//! Two workloads on the cached ~1.15 M-edge RMAT graph (the acceptance-bar
//! input the ingest/sweep/active benches share):
//!
//! * `colored_active/rmat1150k/t<t>` — the colored active sweep run to
//!   convergence, the tentpole's target path (many small parallel regions
//!   per iteration: one per color batch, plus the rebuild-free bookkeeping
//!   passes — the shape that used to pay thread-spawn latency per region);
//! * `build/rmat1150k/t<t>` — `GraphBuilder::build` (row counts → a scatter
//!   by tasks that own contiguous row ranges → per-row sort + merge), the
//!   bandwidth-bound ingest path.
//!
//! Before timing, the bench asserts the determinism contract the scheduler
//! must preserve: **bitwise-identical sweep assignments at every measured
//! thread count** (stolen execution order, fixed task tree, ordered
//! reduction).
//!
//! `cargo bench --bench scaling` emits `BENCH_scaling.json`. CI's
//! strong-scaling job computes per-thread-count efficiency
//! `t1_median / (t · t_median)` from it and enforces the ≥2.5×-at-8-threads
//! floor on runners with ≥8 hardware threads (the committed baseline comes
//! from whatever machine last regenerated it, so the gate is machine-aware).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grappolo_bench::inputs::{color_batches, rmat1150k};
use grappolo_core::{LouvainConfig, PhaseDriver, SweepMode};
use grappolo_graph::{GraphBuilder, VertexId};

const THRESHOLD: f64 = 1e-6;

/// The strong-scaling axis. 16 exceeds any expected CI core count on
/// purpose: oversubscription must degrade gracefully and stay bitwise
/// deterministic.
const THREADS: [usize; 5] = [1, 2, 4, 8, 16];

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling");

    let g = rmat1150k();
    let batches = color_batches(&g);
    let edges: Vec<(VertexId, VertexId, f64)> = g.undirected_edges().collect();
    let n = g.num_vertices();

    // The colored active sweep, resolved once through the unified phase
    // entry point.
    let driver = PhaseDriver::from_config(
        &LouvainConfig {
            sweep_mode: SweepMode::Active,
            ..LouvainConfig::default()
        },
        THRESHOLD,
    );

    // Determinism gate: the stealing scheduler must yield bitwise-identical
    // assignments at every measured thread count before any timing matters.
    let reference = driver.run_colored(&g, &batches);
    for threads in THREADS {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let outcome = pool.install(|| driver.run_colored(&g, &batches));
        assert_eq!(
            outcome.assignment, reference.assignment,
            "colored active sweep diverged at {threads} threads"
        );
        assert!(
            outcome.final_modularity.to_bits() == reference.final_modularity.to_bits(),
            "modularity diverged at {threads} threads"
        );
    }

    for threads in THREADS {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();

        group.throughput(Throughput::Elements(g.num_adjacency_entries() as u64));
        group.bench_with_input(
            BenchmarkId::new("colored_active", format!("rmat1150k/t{threads}")),
            &(&g, &batches, &driver),
            |b, (g, bt, d)| {
                b.iter(|| pool.install(|| d.run_colored(g, bt)));
            },
        );

        group.throughput(Throughput::Elements(edges.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("build", format!("rmat1150k/t{threads}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    pool.install(|| {
                        GraphBuilder::with_capacity(n, edges.len())
                            .extend_edges(edges.iter().copied())
                            .build()
                            .unwrap()
                    })
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scaling
}
criterion_main!(benches);
