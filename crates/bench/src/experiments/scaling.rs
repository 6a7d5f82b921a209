//! **Extension experiment: size scaling** — the paper's future-work item (i)
//! ("extending the experiments to larger-scale inputs"). Sweeps the proxy
//! size multiplier and reports how time-to-solution, iterations, and
//! modularity grow, separating clustering from rebuild+coloring costs.
//!
//! The shape expectation from §5.6's O((M + n·k̄)/p) per-iteration bound:
//! near-linear time growth in edges at a roughly constant iteration count.

use crate::harness::{run_scheme, ExperimentContext, TextTable};
use grappolo_core::Scheme;
use grappolo_graph::gen::paper_suite::PaperInput;

const SCALES: [f64; 4] = [0.125, 0.25, 0.5, 1.0];

/// Runs the scaling sweep on one community-rich and one community-poor
/// input.
pub fn run(ctx: &ExperimentContext) {
    println!("\n=== Extension: size scaling (θ fixed, 2 threads) ===\n");
    let mut table = TextTable::new(vec![
        "input",
        "scale",
        "n",
        "M",
        "Q",
        "#iter",
        "time(s)",
        "clustering(s)",
        "rebuild(s)",
    ]);
    let mut csv = String::from("input,scale,n,m,q,iterations,total_s,clustering_s,rebuild_s\n");

    for input in [PaperInput::Mg1, PaperInput::Nlpkkt240] {
        for &scale in &SCALES {
            let g = input.generate(ctx.scale * scale, ctx.seed);
            let rec = run_scheme(ctx, &g, Scheme::BaselineVfColor, 2);
            let b = rec.trace.timing_breakdown();
            table.row(vec![
                input.id().to_string(),
                format!("{scale}"),
                g.num_vertices().to_string(),
                g.num_edges().to_string(),
                format!("{:.4}", rec.modularity),
                rec.trace.total_iterations().to_string(),
                format!("{:.3}", rec.time.as_secs_f64()),
                format!("{:.3}", b.clustering.as_secs_f64()),
                format!("{:.3}", b.rebuild.as_secs_f64()),
            ]);
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                input.id(),
                scale,
                g.num_vertices(),
                g.num_edges(),
                rec.modularity,
                rec.trace.total_iterations(),
                rec.time.as_secs_f64(),
                b.clustering.as_secs_f64(),
                b.rebuild.as_secs_f64()
            ));
        }
    }

    let rendered = table.render();
    println!("{rendered}");
    ctx.write_artifact("scaling.txt", &rendered);
    ctx.write_artifact("scaling.csv", &csv);
}
