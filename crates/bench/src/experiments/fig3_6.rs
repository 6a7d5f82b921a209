//! **Figures 3–6** — per-input charts: (left column) modularity evolution
//! from the first iteration of the first phase to the last iteration of the
//! last phase, for serial / baseline / baseline+VF / baseline+VF+Color;
//! (right column) parallel run-time as a function of thread count.
//!
//! Emits one CSV per input with the modularity series of each scheme and one
//! CSV per input with the time-vs-threads series, plus a console summary.

use crate::harness::{run_scheme, secs, ExperimentContext, TextTable};
use grappolo_core::Scheme;
use grappolo_graph::gen::paper_suite::PaperInput;

/// Runs the Figs. 3–6 harness.
pub fn run(ctx: &ExperimentContext) {
    println!("\n=== Figs 3–6: modularity evolution + runtime vs threads ===\n");
    let max_threads = *ctx.thread_counts.last().unwrap();

    let mut summary = TextTable::new(vec![
        "input", "scheme", "final Q", "#iter", "#phases", "time(s)",
    ]);

    for input in PaperInput::ALL {
        let g = ctx.generate(input);
        let name = input.id();

        // Left chart: modularity evolution per scheme (fixed thread count).
        let mut evolution = String::from("scheme,global_iteration,phase,modularity\n");
        // Baseline ≡ baseline+VF on the pre-pruned inputs (§6.1 footnote 4).
        let schemes: Vec<Scheme> = if input.vf_prepruned() {
            vec![Scheme::Serial, Scheme::BaselineVf, Scheme::BaselineVfColor]
        } else {
            Scheme::ALL.to_vec()
        };
        for scheme in &schemes {
            let threads = if *scheme == Scheme::Serial {
                1
            } else {
                max_threads.min(2)
            };
            let rec = run_scheme(ctx, &g, *scheme, threads);
            let curve = rec
                .trace
                .phases
                .iter()
                .enumerate()
                .flat_map(|(phase, p)| p.iterations.iter().map(move |&(q, _)| (phase, q)));
            for (gi, (phase, q)) in curve.enumerate() {
                evolution.push_str(&format!("{},{gi},{phase},{q}\n", scheme.name()));
            }
            summary.row(vec![
                name.to_string(),
                scheme.name().to_string(),
                format!("{:.5}", rec.modularity),
                rec.trace.total_iterations().to_string(),
                rec.trace.num_phases().to_string(),
                secs(rec.time),
            ]);
        }
        ctx.write_artifact(&format!("fig3_6_{name}_modularity.csv"), &evolution);

        // Right chart: run-time of the headline scheme vs thread count.
        let mut times = String::from("threads,time_seconds\n");
        for &t in &ctx.thread_counts {
            let rec = run_scheme(ctx, &g, Scheme::BaselineVfColor, t);
            times.push_str(&format!("{t},{}\n", rec.time.as_secs_f64()));
        }
        ctx.write_artifact(&format!("fig3_6_{name}_runtime.csv"), &times);
    }

    let rendered = summary.render();
    println!("{rendered}");
    ctx.write_artifact("fig3_6_summary.txt", &rendered);
}
