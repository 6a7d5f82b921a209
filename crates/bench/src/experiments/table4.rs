//! **Table 4** — first-phase-only coloring vs multi-phase coloring:
//! [min, max] modularity over trials, run-time, and iteration count.
//!
//! Paper setup (§6.3): inputs where at least two colored phases apply
//! (Channel, uk-2002, Europe-osm, MG2), two-thread runs, colored threshold
//! 1e-2. Multiple trials expose the colored scheme's (small) run-to-run
//! variation, hence the \[min,max\] columns.

use crate::harness::{run_config, secs, ExperimentContext, TextTable};
use grappolo_core::{ColoringSchedule, Scheme};
use grappolo_graph::gen::paper_suite::PaperInput;
use std::time::Duration;

const TRIALS: usize = 3;

const INPUTS: [PaperInput; 4] = [
    PaperInput::Channel,
    PaperInput::Uk2002,
    PaperInput::EuropeOsm,
    PaperInput::Mg2,
];

/// Runs the Table 4 harness.
pub fn run(ctx: &ExperimentContext) {
    println!(
        "\n=== Table 4: first-phase vs multi-phase coloring (2 threads, {TRIALS} trials) ===\n"
    );
    let mut table = TextTable::new(vec![
        "input",
        "1-phase [min,max] Q",
        "1-phase t(s) (#iter)",
        "multi [min,max] Q",
        "multi t(s) (#iter)",
    ]);

    for input in INPUTS {
        let g = ctx.generate(input);
        let mut cells = vec![input.reference().name.to_string()];
        for schedule in [
            ColoringSchedule::FirstPhaseOnly,
            ColoringSchedule::MultiPhase,
        ] {
            let mut qmin = f64::INFINITY;
            let mut qmax = f64::NEG_INFINITY;
            let mut total_time = Duration::ZERO;
            let mut total_iters = 0usize;
            for trial in 0..TRIALS {
                let mut cfg = ctx.config(Scheme::BaselineVfColor, 2);
                cfg.coloring = schedule;
                // Vary nothing but the run itself: colored-scheme variation
                // comes from thread scheduling (§5.4's caveat), so reuse the
                // same graph; the trial index only namespaces the run.
                let _ = trial;
                let rec = run_config(&g, Scheme::BaselineVfColor, 2, &cfg);
                qmin = qmin.min(rec.modularity);
                qmax = qmax.max(rec.modularity);
                total_time += rec.time;
                total_iters += rec.trace.total_iterations();
            }
            cells.push(format!("[{qmin:.4}, {qmax:.4}]"));
            cells.push(format!(
                "{} ({})",
                secs(total_time / TRIALS as u32),
                total_iters / TRIALS
            ));
        }
        table.row(cells);
    }

    let rendered = table.render();
    println!("{rendered}");
    ctx.write_artifact("table4.txt", &rendered);
    ctx.write_artifact("table4.csv", &table.to_csv());
}
