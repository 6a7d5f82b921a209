//! Trajectory inspection for the full/active/scheduled sweep family:
//! per-iteration modularity, move counts (as a fraction of `n` — the
//! activity the pruned schedule is proportional to), the effective
//! per-vertex gain gate, the frontier size actually examined, and the
//! locally-converged count. This is the data behind `BENCH_active.json`:
//! where the move fraction collapses, `--sweep active` pays off; where it
//! plateaus, the fixed aggregate threshold fires first — and the scheduled
//! variants show how the geometric gate collapses it anyway.
//!
//! ```text
//! active_trace [planted|rmat]
//! ```
//!
//! The geometric schedule is the one `detect --schedule geometric` runs:
//! start `4/m`, factor `0.5`, floor `0.5/m`, derived from the input's `m`.

use grappolo_bench::inputs::{color_batches, planted, rmat1150k};
use grappolo_core::{LouvainConfig, PhaseDriver, PhaseOutcome, ScheduleSpec, SweepMode};
use grappolo_graph::CsrGraph;
use std::time::Duration;

fn show(name: &str, g: &CsrGraph, out: &PhaseOutcome, elapsed: Duration) {
    println!(
        "{name}: {} iterations, final Q {:.6}, {elapsed:.2?}",
        out.num_iterations(),
        out.final_modularity
    );
    let n = g.num_vertices();
    println!("  iter          Q     moves  (% of n)       gate  frontier  converged");
    for (i, (&(q, moves), s)) in out.iterations.iter().zip(&out.stats).enumerate() {
        println!(
            "  {i:>4} {q:+.6} {moves:>9}  ({:>6.2}%) {:>10.3e} {:>9} {:>10}",
            100.0 * moves as f64 / n as f64,
            s.gate,
            s.frontier,
            s.converged,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 1 {
        eprintln!("usage: active_trace [planted|rmat]");
        std::process::exit(2);
    }
    let which = args.first().map_or("rmat", String::as_str);
    let g = match which {
        "planted" => planted(100_000),
        _ => rmat1150k(),
    };
    println!(
        "input: n={} M={} (adjacency entries {})",
        g.num_vertices(),
        g.num_edges(),
        g.num_adjacency_entries()
    );
    let batches = color_batches(&g);
    let driver_for = |schedule: ScheduleSpec, sweep_mode: SweepMode| -> PhaseDriver {
        let config = LouvainConfig {
            sweep_mode,
            schedule,
            ..LouvainConfig::default()
        };
        PhaseDriver::from_config(&config, 1e-6)
    };
    println!("geometric schedule: start 4/m, factor 0.5, floor 0.5/m");
    let policies = [
        ("fixed", ScheduleSpec::Fixed),
        ("sched", ScheduleSpec::Geometric),
    ];
    for (pname, spec) in policies {
        for (label, sweep) in [("full", SweepMode::Full), ("active", SweepMode::Active)] {
            let driver = driver_for(spec, sweep);
            let t = std::time::Instant::now();
            let out = driver.run(&g);
            show(&format!("unordered/{pname}/{label}"), &g, &out, t.elapsed());
        }
    }
    for (pname, spec) in policies {
        for (label, sweep) in [("full", SweepMode::Full), ("active", SweepMode::Active)] {
            let driver = driver_for(spec, sweep);
            let t = std::time::Instant::now();
            let out = driver.run_colored(&g, &batches);
            show(&format!("colored/{pname}/{label}"), &g, &out, t.elapsed());
        }
    }
}
