//! Criterion micro-benchmark: the inter-phase graph rebuild (§5.5) on a
//! high-modularity partition (mostly intra edges, MG2-like) and a
//! low-modularity one (mostly inter edges, NLPKKT-like) — the production
//! rebuild and its two CSR assemblies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grappolo_core::rebuild::rebuild;
use grappolo_core::reference::{rebuild_stamp_flat_assembly, rebuild_stamp_rows_reference};
use grappolo_core::{RebuildStrategy, RenumberStrategy};
use grappolo_graph::gen::{planted_partition, PlantedConfig};

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

    for (partition_name, assignment) in [("intra_heavy", &truth), ("inter_heavy", &scattered)] {
        group.bench_with_input(
            BenchmarkId::new("stamp", partition_name),
            &(&g, assignment),
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
        // The rebuild-assembly pair: flat two-pass count + scatter into
        // preallocated CSR arrays against the rows-based assembly (per-row
        // Vecs + rows_to_csr copy). Both arms are forced explicitly — the
        // production StampAggregate path dispatches between them on row
        // count. Outputs are bitwise identical; only the assembly differs.
        group.bench_with_input(
            BenchmarkId::new("assembly_flat", partition_name),
            &(&g, assignment),
            |b, (g, a)| {
                b.iter(|| rebuild_stamp_flat_assembly(g, a));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("assembly_rows", partition_name),
            &(&g, assignment),
            |b, (g, a)| {
                b.iter(|| rebuild_stamp_rows_reference(g, a));
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
