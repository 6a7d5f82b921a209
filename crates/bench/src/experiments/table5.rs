//! **Table 5** — effect of the modularity-gain threshold inside colored
//! phases: θ = 1e-4 vs θ = 1e-2, reporting \[min,max\] modularity, run-time,
//! and iteration counts over trials.
//!
//! The paper's conclusion under test: "the modularities achieved by both
//! schemes are highly comparable, while there is a marked run-time advantage
//! if the threshold is higher" — i.e. 1e-2 should cut iterations/time at
//! negligible quality cost.

use crate::harness::{run_config, secs, ExperimentContext, TextTable};
use grappolo_core::Scheme;
use grappolo_graph::gen::paper_suite::PaperInput;
use std::time::Duration;

const TRIALS: usize = 3;

/// Runs the Table 5 harness.
pub fn run(ctx: &ExperimentContext) {
    println!("\n=== Table 5: colored-phase threshold 1e-4 vs 1e-2 ({TRIALS} trials) ===\n");
    let mut table = TextTable::new(vec![
        "input",
        "θ=1e-4 [min,max] Q",
        "θ=1e-4 t(s) (#iter)",
        "θ=1e-2 [min,max] Q",
        "θ=1e-2 t(s) (#iter)",
    ]);

    for input in PaperInput::WITH_SERIAL {
        let g = ctx.generate(input);
        let mut cells = vec![input.reference().name.to_string()];
        for threshold in [1e-4, 1e-2] {
            let mut qmin = f64::INFINITY;
            let mut qmax = f64::NEG_INFINITY;
            let mut total_time = Duration::ZERO;
            let mut total_iters = 0usize;
            for _ in 0..TRIALS {
                let mut cfg = ctx.config(Scheme::BaselineVfColor, 2);
                cfg.colored_threshold = threshold;
                // The paper couples the coloring shutoff to the same value.
                cfg.coloring_phase_gain_cutoff = threshold.max(1e-2);
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
    ctx.write_artifact("table5.txt", &rendered);
    ctx.write_artifact("table5.csv", &table.to_csv());
}
