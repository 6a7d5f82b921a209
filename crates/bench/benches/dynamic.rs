//! Criterion benchmark: incremental re-convergence after a batched edge
//! update vs detecting communities from scratch on the updated graph.
//!
//! The acceptance bar for the dynamic path: on the shared ~1.15 M-edge
//! RMAT input, `update_communities` with a 0.1 % batch must be ≥5× faster
//! than a from-scratch `detect_communities` run (CI gates the ratio from
//! this file's JSON). The 1 % and 10 % points chart how the advantage
//! decays as the perturbation grows toward the fallback regime, and
//! `apply/rmat1150k_0.1pct` times the update's first layer alone: the
//! spliced `apply_edge_batch_diff` of the 0.1 % batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grappolo_bench::inputs::rmat1150k;
use grappolo_core::{detect_communities, update_communities, LouvainConfig, SweepMode};
use grappolo_graph::{CsrGraph, EdgeDelta, MergePolicy};

/// Deterministic mixed batch: one third deletes and one third reweights
/// stride-walk the edge list on disjoint indices (so no op targets a
/// deleted edge), the rest are LCG-sampled inserts (duplicates and
/// collisions with existing edges merge under the Sum policy, so no
/// rejection sampling is needed).
fn synth_batch(g: &CsrGraph, size: usize) -> Vec<EdgeDelta> {
    let edges: Vec<(u32, u32)> = g.undirected_edges().map(|(u, v, _)| (u, v)).collect();
    let n = g.num_vertices() as u64;
    let mut batch = Vec::with_capacity(size);
    let third = (size / 3).max(1);
    let stride = (edges.len() / (2 * third)).max(2);
    for i in 0..third {
        let (u, v) = edges[(2 * i * stride) % edges.len()];
        batch.push(EdgeDelta::Delete { u, v });
        let (u, v) = edges[(2 * i * stride + 1) % edges.len()];
        batch.push(EdgeDelta::Reweight { u, v, weight: 2.0 });
    }
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 16
    };
    while batch.len() < size {
        let u = (next() % n) as u32;
        let v = (next() % n) as u32;
        if u != v {
            batch.push(EdgeDelta::Insert { u, v, weight: 1.0 });
        }
    }
    batch
}

fn bench_dynamic(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic");

    // The acceptance-bar input.
    let g = rmat1150k();
    let m = g.num_edges();
    group.throughput(Throughput::Elements(m as u64));

    let config = LouvainConfig::builder()
        .sweep(SweepMode::Active)
        .build()
        .unwrap();
    // The stored state a dynamic update starts from.
    let base = detect_communities(&g, &config);

    for (label, fraction) in [("0.1pct", 0.001), ("1pct", 0.01), ("10pct", 0.1)] {
        let batch = synth_batch(&g, ((m as f64) * fraction) as usize);
        group.bench_with_input(
            BenchmarkId::new("incremental", format!("rmat1150k_{label}")),
            &batch,
            |b, batch| {
                b.iter(|| {
                    update_communities(&g, &base.assignment, Some(base.modularity), batch, &config)
                        .unwrap()
                });
            },
        );
    }

    // The batch apply alone, on the smallest (gated) perturbation.
    let small = synth_batch(&g, ((m as f64) * 0.001) as usize);
    group.bench_with_input(
        BenchmarkId::new("apply", "rmat1150k_0.1pct"),
        &small,
        |b, batch| {
            b.iter(|| g.apply_edge_batch_diff(batch, MergePolicy::Sum).unwrap());
        },
    );

    // From-scratch baseline on the post-batch graph of the smallest
    // (gated) perturbation — the work the incremental path displaces.
    let (updated, _) = g.apply_edge_batch_diff(&small, MergePolicy::Sum).unwrap();
    group.bench_with_input(
        BenchmarkId::new("from_scratch", "rmat1150k"),
        &updated,
        |b, g2| {
            b.iter(|| detect_communities(g2, &config));
        },
    );

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dynamic
}
criterion_main!(benches);
