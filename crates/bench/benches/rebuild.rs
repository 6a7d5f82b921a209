//! Criterion micro-benchmark: the inter-phase graph rebuild (§5.5) on a
//! high-modularity partition (mostly intra edges, MG2-like), a
//! low-modularity one (mostly inter edges, NLPKKT-like), and the rebuild
//! `detect` runs after its first phase on the cached ~1.15 M-edge RMAT
//! graph: the graph after VF under its phase-0 colored assignment (about
//! 149 K rows), computed outside the timed loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grappolo_bench::inputs::{color_batches, rmat1150k};
use grappolo_core::rebuild::rebuild;
use grappolo_core::{
    vf_preprocess_recursive, LouvainConfig, PhaseDriver, RebuildStrategy, RenumberStrategy,
};
use grappolo_graph::gen::{planted_partition, PlantedConfig};
use grappolo_graph::CsrGraph;

/// The graph `detect` colors first on the RMAT input (after VF), with the
/// assignment its default colored phase 0 ends in.
fn rmat_phase0() -> (CsrGraph, Vec<u32>) {
    let config = LouvainConfig::default();
    let g = vf_preprocess_recursive(&rmat1150k(), config.vf_rounds).graph;
    let batches = color_batches(&g);
    let assignment = PhaseDriver::from_config(&config, config.colored_threshold)
        .run_colored(&g, &batches)
        .assignment;
    (g, assignment)
}

fn bench_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("rebuild");
    let (g, truth) = planted_partition(&PlantedConfig {
        num_vertices: 20_000,
        num_communities: 200,
        ..Default::default()
    });
    // High-modularity partition: the planted truth.
    // Low-modularity partition: round-robin over 200 labels.
    let scattered: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 200).collect();
    let (rmat, rmat_assignment) = rmat_phase0();

    for (partition_name, g, assignment) in [
        ("intra_heavy", &g, &truth),
        ("inter_heavy", &g, &scattered),
        ("rmat1150k_phase0", &rmat, &rmat_assignment),
    ] {
        group.bench_with_input(
            BenchmarkId::new("stamp", partition_name),
            &(g, assignment),
            |b, (g, a)| {
                b.iter(|| {
                    rebuild(
                        g,
                        a,
                        RebuildStrategy::StampAggregate,
                        RenumberStrategy::Serial,
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_rebuild
}
criterion_main!(benches);
