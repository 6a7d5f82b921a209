//! Criterion micro-benchmark: parallel speculative coloring vs serial greedy
//! (§5.2 preprocessing cost), on uniform and skewed degree distributions and
//! on the layer's real input: the cached ~1.15 M-edge RMAT graph after VF
//! (`vf_preprocess_recursive` with the default single round), which is what `detect`
//! colors in its first phase.
//!
//! `cargo bench --bench coloring` emits `BENCH_coloring.json`, which the CI
//! perf gate tracks against the committed baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grappolo_bench::inputs::rmat1150k;
use grappolo_coloring::{color_greedy_serial, color_parallel, ParallelColoringConfig};
use grappolo_core::vf_preprocess_recursive;
use grappolo_graph::gen::{erdos_renyi, rmat, ErConfig, RmatConfig};
use grappolo_graph::CsrGraph;

fn inputs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "uniform",
            erdos_renyi(&ErConfig {
                num_vertices: 20_000,
                num_edges: 120_000,
                seed: 1,
            }),
        ),
        (
            "skewed",
            rmat(&RmatConfig {
                scale: 14,
                num_edges: 120_000,
                ..Default::default()
            }),
        ),
        (
            "rmat1150k_vf",
            vf_preprocess_recursive(&rmat1150k(), 1).graph,
        ),
    ]
}

fn bench_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("coloring");
    let cfg = ParallelColoringConfig {
        serial_cutoff: 0,
        ..Default::default()
    };
    for (name, g) in inputs() {
        group.bench_with_input(BenchmarkId::new("parallel", name), &g, |b, g| {
            b.iter(|| color_parallel(g, &cfg));
        });
        group.bench_with_input(BenchmarkId::new("serial_greedy", name), &g, |b, g| {
            b.iter(|| color_greedy_serial(g));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_coloring
}
criterion_main!(benches);
