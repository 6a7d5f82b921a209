//! Criterion benchmark for the ingest pipeline: edge list → CSR.
//!
//! `parallel/<t>` is `GraphBuilder::build` (chunked histogram → scatter →
//! per-vertex merge) under a `t`-thread pool; `serial` is the retained
//! sort-based reference path `build_serial`. The acceptance bar for the
//! parallel rewrite was ≥2× over serial on a ≥1M-edge generated graph at 8
//! threads, with bitwise-identical output (asserted here on every run).
//!
//! The ~1.2M-edge RMAT input is cached as a `.grb` file (see
//! `grappolo_bench::cache`), so only the first run pays generation.
//!
//! `cargo bench --bench build` emits `BENCH_build.json` for the perf gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grappolo_bench::inputs::rmat1150k;
use grappolo_graph::{GraphBuilder, VertexId};

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("build");

    // ≥1M-edge skewed-degree input (RMAT scale 18), the acceptance-bar size.
    let g = rmat1150k();
    let n = g.num_vertices();
    let edges: Vec<(VertexId, VertexId, f64)> = g.undirected_edges().collect();
    assert!(
        edges.len() >= 1_000_000,
        "input below the 1M-edge bar: {}",
        edges.len()
    );

    let build_input =
        || GraphBuilder::with_capacity(n, edges.len()).extend_edges(edges.iter().copied());

    // The two paths must agree bitwise before we bother timing them.
    let reference = build_input().build_serial().unwrap();
    let parallel = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .unwrap()
        .install(|| build_input().build().unwrap());
    assert!(
        reference.bitwise_eq(&parallel),
        "parallel build diverged from serial"
    );

    group.throughput(Throughput::Elements(edges.len() as u64));
    group.bench_with_input(BenchmarkId::new("serial", edges.len()), &(), |b, ()| {
        b.iter(|| build_input().build_serial().unwrap());
    });
    for threads in [1usize, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        group.bench_with_input(BenchmarkId::new("parallel", threads), &(), |b, ()| {
            b.iter(|| pool.install(|| build_input().build().unwrap()));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_build
}
criterion_main!(benches);
