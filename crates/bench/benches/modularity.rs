//! Criterion micro-benchmark: the modularity kernel (Eq. 3), the
//! community-degree scatter, the neighbor-gather kernels (flat stamped
//! scratch vs the sort-based reference), and the incremental
//! `ModularityTracker` accounting vs the full rescan it replaced — the
//! per-iteration building blocks §5.5 optimizes by pre-aggregation.
//!
//! The 50 K planted input is cached as a `.grb` file
//! (`grappolo_bench::cache`, honoring `GRAPPOLO_GRAPH_CACHE`) like the
//! build/sweep benches, so repeat runs — and CI — skip regeneration. The
//! benchmark partition is the deterministic 500-block split of the vertex
//! range, so it needs no side-channel next to the cached graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grappolo_bench::cached_graph;
use grappolo_bench::inputs::color_batches;
use grappolo_core::modularity::{
    community_degrees, community_sizes, intra_community_weight, modularity, Community,
    IndependentMove, ModularityTracker, NeighborScratch,
};
use grappolo_core::reference::gather_sorted;
use grappolo_graph::gen::{planted_partition, PlantedConfig};

const NUM_VERTICES: usize = 50_000;
const NUM_BLOCKS: usize = 500;

fn bench_modularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("modularity");
    let g = cached_graph("modularity_planted_50k", || {
        planted_partition(&PlantedConfig {
            num_vertices: NUM_VERTICES,
            num_communities: NUM_BLOCKS,
            ..Default::default()
        })
        .0
    });
    // Deterministic block partition over the vertex range (same granularity
    // as the planted communities; reconstructible from the cached graph).
    let part: Vec<Community> = (0..g.num_vertices())
        .map(|v| (v * NUM_BLOCKS / g.num_vertices()) as Community)
        .collect();
    group.throughput(Throughput::Elements(g.num_adjacency_entries() as u64));
    group.bench_with_input(BenchmarkId::new("full_q", "planted50k"), &g, |b, g| {
        b.iter(|| modularity(g, &part));
    });
    group.bench_with_input(BenchmarkId::new("e_in_only", "planted50k"), &g, |b, g| {
        b.iter(|| intra_community_weight(g, &part));
    });
    group.bench_with_input(
        BenchmarkId::new("community_degrees", "planted50k"),
        &g,
        |b, g| {
            b.iter(|| community_degrees(g, &part));
        },
    );
    // One full pass of per-vertex neighbor-community aggregation, the inner
    // loop of the local-moving sweep: flat stamped scratch vs sorted merge.
    group.bench_with_input(BenchmarkId::new("gather_flat", "planted50k"), &g, |b, g| {
        let mut scratch = NeighborScratch::with_capacity(g.num_vertices());
        b.iter(|| {
            let mut acc = 0usize;
            for v in 0..g.num_vertices() as u32 {
                scratch.gather(g, &part, v);
                acc += scratch.entries.len();
            }
            acc
        });
    });
    group.bench_with_input(
        BenchmarkId::new("gather_sorted", "planted50k"),
        &g,
        |b, g| {
            let mut entries = Vec::new();
            b.iter(|| {
                let mut acc = 0usize;
                for v in 0..g.num_vertices() as u32 {
                    gather_sorted(g, &part, v, &mut entries);
                    acc += entries.len();
                }
                acc
            });
        },
    );

    // The PR 3 accounting delta in isolation: committing a batch of 1 024
    // pre-gathered moves through the incremental tracker (O(#moves)) vs the
    // full-rescan recomputation of modularity (O(m) + O(n)) the colored
    // sweep historically paid per iteration.
    let a0 = community_degrees(&g, &part);
    let sizes0 = community_sizes(&part);
    let tracker0 = ModularityTracker::new(&g, &part, &a0, 1.0);
    let mut scratch = NeighborScratch::with_capacity(g.num_vertices());
    // Movers come from one color class so they form a genuine independent
    // set (the batch-commit precondition); each is relabeled to the next
    // block over. The move set is fixed — only the accounting is timed.
    let batches = color_batches(&g);
    let class = batches
        .classes()
        .max_by_key(|c| c.len())
        .expect("non-empty coloring");
    assert!(
        class.len() >= 1_024,
        "largest class too small for the bench"
    );
    let stride = class.len() / 1_024;
    let moves: Vec<IndependentMove> = (0..1_024usize)
        .map(|i| {
            let v = class[i * stride];
            let from = part[v as usize];
            let to = (from + 1) % NUM_BLOCKS as Community;
            scratch.gather(&g, &part, v);
            let weight_to = |c: Community| {
                scratch
                    .entries
                    .iter()
                    .find(|&&(cc, _)| cc == c)
                    .map_or(0.0, |&(_, w)| w)
            };
            IndependentMove {
                k: g.weighted_degree(v),
                e_src: weight_to(from),
                e_tgt: weight_to(to),
                from,
                to,
            }
        })
        .collect();
    group.bench_with_input(
        BenchmarkId::new("tracker_batch_1k", "planted50k"),
        &g,
        |b, _g| {
            b.iter(|| {
                let mut tracker = tracker0.clone();
                let mut a = a0.clone();
                let mut sizes = sizes0.clone();
                tracker.apply_independent_batch(&moves, &mut a, &mut sizes);
                tracker.modularity()
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("tracker_full_rescan", "planted50k"),
        &g,
        |b, g| {
            b.iter(|| ModularityTracker::new(g, &part, &a0, 1.0).modularity());
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_modularity
}
criterion_main!(benches);
