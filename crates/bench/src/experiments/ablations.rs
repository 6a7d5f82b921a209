//! Ablation studies for two design choices beyond the paper's headline
//! comparison:
//!
//! 1. VF single-pass vs recursive chain compression (§5.3 extension);
//! 2. greedy vs balanced coloring (§6.2's proposed fix for uk-2002).

use crate::harness::{run_config, secs, ExperimentContext, TextTable};
use grappolo_core::Scheme;
use grappolo_graph::gen::paper_suite::PaperInput;

/// Runs both ablations.
pub fn run(ctx: &ExperimentContext) {
    vf_ablation(ctx);
    balanced_coloring_ablation(ctx);
}

fn vf_ablation(ctx: &ExperimentContext) {
    println!("\n=== Ablation 1: VF single-pass vs recursive (Europe-osm regime) ===\n");
    let mut table = TextTable::new(vec!["variant", "Q", "#iter", "time(s)"]);
    let g = ctx.generate(PaperInput::EuropeOsm);
    for (name, use_vf, rounds) in [
        ("no VF", false, 1),
        ("VF single-pass", true, 1),
        ("VF recursive (16 rounds)", true, 16),
    ] {
        let mut cfg = ctx.config(Scheme::BaselineVf, 2);
        cfg.use_vf = use_vf;
        cfg.vf_rounds = rounds;
        let rec = run_config(&g, Scheme::BaselineVf, 2, &cfg);
        table.row(vec![
            name.to_string(),
            format!("{:.5}", rec.modularity),
            rec.trace.total_iterations().to_string(),
            secs(rec.time),
        ]);
    }
    let rendered = table.render();
    println!("{rendered}");
    ctx.write_artifact("ablation_vf.txt", &rendered);
}

fn balanced_coloring_ablation(ctx: &ExperimentContext) {
    println!("\n=== Ablation 2: greedy vs balanced coloring (uk-2002 regime) ===\n");
    let mut table = TextTable::new(vec!["variant", "Q", "#iter", "time(s)"]);
    let g = ctx.generate(PaperInput::Uk2002);
    for (name, balanced) in [("greedy coloring", false), ("balanced coloring", true)] {
        let mut cfg = ctx.config(Scheme::BaselineVfColor, 2);
        cfg.balanced_coloring = balanced;
        let rec = run_config(&g, Scheme::BaselineVfColor, 2, &cfg);
        table.row(vec![
            name.to_string(),
            format!("{:.5}", rec.modularity),
            rec.trace.total_iterations().to_string(),
            secs(rec.time),
        ]);
    }
    let rendered = table.render();
    println!("{rendered}");
    ctx.write_artifact("ablation_balanced_coloring.txt", &rendered);
}
