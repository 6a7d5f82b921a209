//! Criterion benchmark: component-split detection vs the single driver, and
//! the `.grb` load (three flat arrays against one checksum). The load keeps
//! its id from the chunked version 2 layout, `grb_load/v2/rmat1150k`, so
//! CI's gate keeps its baseline.
//!
//! Acceptance bar (CI gates the ratio from this file's JSON):
//! `components/split/blocks90k` must be ≥1.5× faster than
//! `components/single_driver/blocks90k` — on a many-component input the
//! single driver re-sweeps every vertex until the *global* stop fires, while
//! the splitter runs each component only to its own convergence.
//! `grb_load/v2/rmat1150k` is gated only against its baseline median.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grappolo_bench::cache::cached_graph;
use grappolo_bench::inputs::rmat1150k;
use grappolo_core::{detect_communities, Scheme};
use grappolo_graph::gen::planted_blocks;
use grappolo_graph::io;

fn bench_split_detect(c: &mut Criterion) {
    let mut group = c.benchmark_group("components");

    // 15 K-vertex giant + 300 × 250-vertex small components (n = 90 K) in
    // ascending contiguous vertex ranges — the component-splitter's
    // favorable (and realistic: web-crawl and RGG inputs decompose the same
    // way) workload shape. The giant needs many sweeps to converge; the
    // smalls settle in a few. The single driver pays the giant's iteration
    // count over all 90 K vertices, the splitter only over the giant's 15 K
    // — that iteration disparity is the serial algorithmic win the gate
    // measures (parallel dispatch of the component runs comes on top on
    // multi-core hosts).
    let g = cached_graph("planted_blocks_b15k_s250_x300_seed7", || {
        let sizes: Vec<usize> = std::iter::once(15_000)
            .chain(std::iter::repeat_n(250, 300))
            .collect();
        planted_blocks(&sizes, 0, 7)
    });
    group.throughput(Throughput::Elements(g.num_edges() as u64));

    let mut config = Scheme::Baseline.config();
    group.bench_with_input(
        BenchmarkId::new("single_driver", "blocks90k"),
        &g,
        |b, g| {
            b.iter(|| detect_communities(g, &config));
        },
    );
    config.split_components = true;
    group.bench_with_input(BenchmarkId::new("split", "blocks90k"), &g, |b, g| {
        b.iter(|| detect_communities(g, &config));
    });

    group.finish();
}

fn bench_grb_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("grb_load");

    let g = rmat1150k();
    group.throughput(Throughput::Elements(g.num_edges() as u64));
    let path = std::env::temp_dir().join("grappolo-bench-rmat1150k.grb");
    io::save_path(&g, &path).expect("write .grb");
    // Warm-read once, so the timed loads start from a primed page cache.
    assert!(io::load_path(&path).expect("warm load").bitwise_eq(&g));

    // The id names the retired layout so the gate keeps its baseline.
    group.bench_with_input(BenchmarkId::new("v2", "rmat1150k"), &path, |b, path| {
        b.iter(|| io::load_path(path).expect(".grb load"));
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_split_detect, bench_grb_load
}
criterion_main!(benches);
