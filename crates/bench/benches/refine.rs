//! Criterion benchmark for the **Leiden-style refinement pass**: the same
//! colored active-sweep phase run to convergence through [`PhaseDriver`],
//! with and without `refine = Leiden`, under the shipped geometric schedule
//! (the exact configuration `detect --sweep active --schedule geometric
//! --refine leiden` resolves to). The delta is the whole cost of
//! refinement: the per-community connected-component split, the singleton
//! absorption sweeps, and the bounded polish ⇄ re-split rounds.
//!
//! The acceptance bar is **refined ≤ 1.35× unrefined** end-to-end on the
//! cached ~1.15 M-edge RMAT graph (the ingest/sweep/active benches' shared
//! cache entry); CI recomputes the ratio from the committed
//! `BENCH_refine.json` in the perf-gate job.
//!
//! `cargo bench --bench refine` emits `BENCH_refine.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grappolo_bench::inputs::{color_batches, planted, rmat1150k};
use grappolo_core::{LouvainConfig, PhaseDriver, RefineMode, ScheduleSpec, SweepMode};
use grappolo_graph::CsrGraph;

/// Convergence threshold matching the driver's uncolored default.
const THRESHOLD: f64 = 1e-6;

fn bench_refine(c: &mut Criterion) {
    let mut group = c.benchmark_group("refine");

    let bench_input = |group: &mut criterion::BenchmarkGroup<'_>, label: &str, g: &CsrGraph| {
        let batches = color_batches(g);
        group.throughput(Throughput::Elements(g.num_adjacency_entries() as u64));
        for (id, refine) in [
            ("colored_active_plain", RefineMode::None),
            ("colored_active_refined", RefineMode::Leiden),
        ] {
            let config = LouvainConfig::builder()
                .sweep(SweepMode::Active)
                .schedule(ScheduleSpec::Geometric)
                .refine(refine)
                .build()
                .expect("valid refine bench config");
            let driver = PhaseDriver::from_config(&config, THRESHOLD);
            group.bench_with_input(
                BenchmarkId::new(id, label),
                &(g, &batches, &driver),
                |b, (g, bt, d)| {
                    b.iter(|| d.run_colored(g, bt));
                },
            );
        }
    };

    let planted = planted(100_000);
    bench_input(&mut group, "planted100k", &planted);

    // The acceptance-bar input.
    let big = rmat1150k();
    bench_input(&mut group, "rmat1150k", &big);

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_refine
}
criterion_main!(benches);
