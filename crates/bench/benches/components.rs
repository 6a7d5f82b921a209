//! Criterion benchmark: component-split detection vs the single driver, and
//! the sectioned `.grb` parallel load.
//!
//! Acceptance bar (CI gates the ratio from this file's JSON):
//! `components/split/blocks90k` must be ≥1.5× faster than
//! `components/single_driver/blocks90k` — on a many-component input the
//! single driver re-sweeps every vertex until the *global* stop fires, while
//! the splitter runs each component only to its own convergence.
//! `grb_load/v2/rmat1150k` is gated only against its baseline median.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grappolo_bench::cache::cached_graph;
use grappolo_core::{detect_communities, Scheme};
use grappolo_graph::gen::{planted_partition, rmat, PlantedConfig, RmatConfig};
use grappolo_graph::{io, CsrGraph, GraphBuilder};

/// One dominant planted block plus many small ones in ascending contiguous
/// vertex ranges — the component-splitter's favorable (and realistic:
/// web-crawl and RGG inputs decompose the same way) workload shape.
fn planted_blocks(big: usize, small: usize, num_small: usize, seed: u64) -> CsrGraph {
    let n = big + small * num_small;
    let mut b = GraphBuilder::new(n);
    let mut base = 0u32;
    for (i, size) in std::iter::once(big)
        .chain(std::iter::repeat_n(small, num_small))
        .enumerate()
    {
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

fn bench_split_detect(c: &mut Criterion) {
    let mut group = c.benchmark_group("components");

    // 15 K-vertex giant + 300 × 250-vertex small components (n = 90 K). The
    // giant needs many sweeps to converge; the smalls settle in a few. The
    // single driver pays the giant's iteration count over all 90 K vertices,
    // the splitter only over the giant's 15 K — that iteration disparity is
    // the serial algorithmic win the gate measures (parallel dispatch of the
    // component runs comes on top on multi-core hosts).
    let g = cached_graph("planted_blocks_b15k_s250_x300_seed7", || {
        planted_blocks(15_000, 250, 300, 7)
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

    // The shared cached ~1.15 M-edge RMAT input (same key as the ingest,
    // sweep, active, scaling, and dynamic benches).
    let g = cached_graph("rmat_s18_m1200k_seed1", || {
        rmat(&RmatConfig {
            scale: 18,
            num_edges: 1_200_000,
            seed: 1,
            ..Default::default()
        })
    });
    group.throughput(Throughput::Elements(g.num_edges() as u64));
    let path = std::env::temp_dir().join("grappolo-bench-rmat1150k.grb");
    io::save_path(&g, &path).expect("write .grb");
    // Warm-read once, so the timed loads start from a primed page cache.
    assert!(io::load_path(&path).expect("warm load").bitwise_eq(&g));

    group.bench_with_input(BenchmarkId::new("v2", "rmat1150k"), &path, |b, path| {
        b.iter(|| io::load_path(path).expect("v2 load"));
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_split_detect, bench_grb_load
}
criterion_main!(benches);
