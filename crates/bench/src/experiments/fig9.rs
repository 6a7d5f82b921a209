//! **Figure 9** — speedup of the graph-rebuild phase in isolation, as a
//! function of thread count, for the Fig. 8 inputs.
//!
//! The paper's shape claim: rebuild scales better on high-modularity inputs
//! (MG2: most edges become intra-community self-loop updates) than on
//! low-first-phase-modularity inputs (Europe-osm, NLPKKT240: inter-community
//! edges each take two locks, §6.2.1). The harness times the production
//! rebuild, which aggregates each community row lock-free, so the lock
//! contention behind that claim is absent here.

use crate::harness::{ExperimentContext, TextTable};
use grappolo_core::Scheme;
use grappolo_graph::gen::paper_suite::PaperInput;

const INPUTS: [PaperInput; 4] = [
    PaperInput::EuropeOsm,
    PaperInput::Nlpkkt240,
    PaperInput::Rgg,
    PaperInput::Mg2,
];

/// Runs the Fig. 9 harness.
pub fn run(ctx: &ExperimentContext) {
    println!("\n=== Fig 9: graph-rebuild phase speedup ===\n");
    let mut table = TextTable::new(vec!["input", "threads", "rebuild(s)", "rebuild speedup"]);
    let mut csv = String::from("input,threads,rebuild_seconds,speedup_vs_1t\n");

    for input in INPUTS {
        let g = ctx.generate(input);
        let mut one_thread = None;
        for &t in &ctx.thread_counts {
            let cfg = ctx.config(Scheme::BaselineVfColor, t);
            let rec = crate::harness::run_config(&g, Scheme::BaselineVfColor, t, &cfg);
            let rebuild = rec.trace.rebuild_time().as_secs_f64();
            if t == 1 {
                one_thread = Some(rebuild);
            }
            let speedup = one_thread.map(|base| base / rebuild.max(1e-12));
            table.row(vec![
                input.id().to_string(),
                t.to_string(),
                format!("{rebuild:.4}"),
                speedup
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_else(|| "-".into()),
            ]);
            csv.push_str(&format!(
                "{},{},{},{}\n",
                input.id(),
                t,
                rebuild,
                speedup.unwrap_or(f64::NAN)
            ));
        }
    }

    let rendered = table.render();
    println!("{rendered}");
    ctx.write_artifact("fig9_rebuild.txt", &rendered);
    ctx.write_artifact("fig9_rebuild.csv", &csv);
}
