//! # grappolo-bench
//!
//! Experiment harnesses reproducing every table and figure of the paper's
//! evaluation section (§6), plus Criterion micro-benchmarks.
//!
//! Each table/figure has a dedicated binary (`cargo run -p grappolo-bench
//! --release --bin table2`, etc.); `--bin run_all` regenerates everything.
//! Output goes to stdout as aligned text tables and to `results/*.csv`.
//!
//! Environment knobs:
//! * `GRAPPOLO_SCALE` — size multiplier for the proxy inputs (default 0.25;
//!   1.0 ≈ 32 K–130 K vertices per input);
//! * `GRAPPOLO_SEED` — generator seed (default 1);
//! * `GRAPPOLO_RESULTS` — output directory (default `results/`);
//! * `GRAPPOLO_GRAPH_CACHE` — directory for cached generated graphs
//!   (`.grb`; default under the system temp dir).

pub mod cache;
pub mod experiments;
pub mod harness;
pub mod inputs;

pub use cache::cached_graph;
pub use harness::{ExperimentContext, RunRecord, TextTable};
