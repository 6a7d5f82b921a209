//! Criterion benchmark for the **dirty-vertex (active-set) sweeps** — the
//! end-to-end payoff of activity-proportional iterations.
//!
//! Unlike the `sweep` bench (which pins a fixed iteration budget so both
//! kernels do identical work), every measurement here runs a whole phase
//! **to convergence**: that is where pruning pays, because late iterations
//! move <1% of vertices while a full sweep still gathers all `m` adjacency
//! entries. Every variant runs through [`PhaseDriver`], the unified phase
//! entry point, resolved from a [`LouvainConfig`] per variant. Eight
//! variants per input:
//!
//! * `unordered_full` / `unordered_active` — [`PhaseDriver::run`] under
//!   [`SweepMode::Full`] vs [`SweepMode::Active`] with the paper's fixed
//!   aggregate threshold;
//! * `colored_full` / `colored_active` — [`PhaseDriver::run_colored`], the
//!   colored analogue (coloring precomputed outside the timed region);
//! * `unordered_sched_full` / `unordered_sched_active` and
//!   `colored_sched_full` / `colored_sched_active` — the same sweeps under
//!   the geometric per-vertex convergence schedule (PR 5) at the default
//!   edge-unit parameters scaled to the input.
//!
//! The PR 4 acceptance bar is colored **active ≥ 1.5× faster end-to-end**
//! than full on the cached ~1.15 M-edge RMAT graph (the ingest/sweep
//! benches' shared cache entry). The PR 5 bar is **unordered scheduled
//! active ≥ 1.3× faster than unordered full** on the planted100k input —
//! the input whose fixed-threshold unordered sweep plateaus at 20–40 %
//! movers for dozens of iterations (on RMAT the fixed unordered baseline
//! instead bails out after 2 iterations on a Lemma-1 negative gain, so
//! there is no plateau to prune — there the schedule's win is quality:
//! final Q roughly doubles). Quality bars live in `tests/properties.rs`.
//!
//! `cargo bench --bench active` emits `BENCH_active.json`, which the CI
//! perf gate tracks against the committed baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grappolo_bench::inputs::{color_batches, planted, rmat1150k};
use grappolo_core::{LouvainConfig, PhaseDriver, ScheduleSpec, SweepMode};
use grappolo_graph::CsrGraph;

/// Convergence threshold matching the driver's uncolored default; the same
/// input therefore runs the same number of moving iterations every sample.
const THRESHOLD: f64 = 1e-6;

fn bench_active(c: &mut Criterion) {
    let mut group = c.benchmark_group("active");

    let bench_input = |group: &mut criterion::BenchmarkGroup<'_>, label: &str, g: &CsrGraph| {
        let batches = color_batches(g);
        // One resolved driver per variant: fixed threshold, or the
        // geometric schedule the driver derives from this input's m
        // (start 4/m, factor 0.5, floor 0.5/m).
        let driver_for = |sweep: SweepMode, scheduled: bool| -> PhaseDriver {
            let config = LouvainConfig {
                sweep_mode: sweep,
                schedule: if scheduled {
                    ScheduleSpec::Geometric
                } else {
                    ScheduleSpec::Fixed
                },
                ..LouvainConfig::default()
            };
            PhaseDriver::from_config(&config, THRESHOLD)
        };
        group.throughput(Throughput::Elements(g.num_adjacency_entries() as u64));
        for (id, sweep, scheduled) in [
            ("unordered_full", SweepMode::Full, false),
            ("unordered_active", SweepMode::Active, false),
            ("unordered_sched_full", SweepMode::Full, true),
            ("unordered_sched_active", SweepMode::Active, true),
        ] {
            let driver = driver_for(sweep, scheduled);
            group.bench_with_input(BenchmarkId::new(id, label), &(g, &driver), |b, (g, d)| {
                b.iter(|| d.run(g));
            });
        }
        for (id, sweep, scheduled) in [
            ("colored_full", SweepMode::Full, false),
            ("colored_active", SweepMode::Active, false),
            ("colored_sched_full", SweepMode::Full, true),
            ("colored_sched_active", SweepMode::Active, true),
        ] {
            let driver = driver_for(sweep, scheduled);
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
    targets = bench_active
}
criterion_main!(benches);
