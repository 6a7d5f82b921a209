//! Shared experiment infrastructure: context (scale/seed/output dir), timed
//! scheme runs, and text-table / CSV emission.

use grappolo_core::{detect_communities, LouvainConfig, RunTrace, Scheme};
use grappolo_graph::gen::paper_suite::PaperInput;
use grappolo_graph::CsrGraph;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Global knobs for one harness invocation.
#[derive(Clone, Debug)]
pub struct ExperimentContext {
    /// Proxy-size multiplier (`GRAPPOLO_SCALE`, default 0.25).
    pub scale: f64,
    /// Generator seed (`GRAPPOLO_SEED`, default 1).
    pub seed: u64,
    /// Output directory (`GRAPPOLO_RESULTS`, default `results/`).
    pub results_dir: PathBuf,
    /// Thread counts for sweeps: 1, 2, and 2× the cores (to show the
    /// oversubscription plateau the paper's 32-thread runs approach).
    pub thread_counts: Vec<usize>,
    /// Coloring-cutoff override: the paper's 100 K vertex cutoff scaled to
    /// the proxy sizes so colored phases actually engage.
    pub coloring_vertex_cutoff: usize,
}

impl ExperimentContext {
    /// Builds a context from environment variables.
    pub fn from_env() -> Self {
        let scale = std::env::var("GRAPPOLO_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.25);
        let seed = std::env::var("GRAPPOLO_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1);
        let results_dir = std::env::var("GRAPPOLO_RESULTS")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(2);
        let mut thread_counts = vec![1, 2];
        if cores > 2 {
            thread_counts.push(cores);
        }
        thread_counts.push(cores * 2);
        thread_counts.dedup();
        Self {
            scale,
            seed,
            results_dir,
            thread_counts,
            coloring_vertex_cutoff: 2_048,
        }
    }

    /// Generates one paper-proxy input at the context's scale.
    pub fn generate(&self, input: PaperInput) -> CsrGraph {
        input.generate(self.scale, self.seed)
    }

    /// Scheme configuration with the context's scaled coloring cutoff and a
    /// thread count (a serial scheme runs on one thread whatever the count).
    pub fn config(&self, scheme: Scheme, threads: usize) -> LouvainConfig {
        let mut cfg = scheme.config();
        cfg.coloring_vertex_cutoff = self.coloring_vertex_cutoff;
        cfg.num_threads = Some(threads);
        cfg
    }

    /// Writes a result artifact (CSV or txt) under the results directory.
    pub fn write_artifact(&self, name: &str, content: &str) {
        std::fs::create_dir_all(&self.results_dir).ok();
        let path = self.results_dir.join(name);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("  → wrote {}", path.display());
        }
    }
}

/// One timed run of one scheme on one input.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The scheme executed.
    pub scheme: Scheme,
    /// Threads used (1 for serial).
    pub threads: usize,
    /// Final modularity.
    pub modularity: f64,
    /// Number of communities found.
    pub num_communities: usize,
    /// Wall-clock for the whole detection call.
    pub time: Duration,
    /// Full trace (per-phase records and timings).
    pub trace: RunTrace,
    /// Final assignment (for qualitative comparisons).
    pub assignment: Vec<u32>,
}

/// Runs `scheme` on `g` with `threads` and records everything.
pub fn run_scheme(
    ctx: &ExperimentContext,
    g: &CsrGraph,
    scheme: Scheme,
    threads: usize,
) -> RunRecord {
    let config = ctx.config(scheme, threads);
    run_config(g, scheme, threads, &config)
}

/// Runs an explicit configuration (for threshold / schedule sweeps).
pub fn run_config(
    g: &CsrGraph,
    scheme: Scheme,
    threads: usize,
    config: &LouvainConfig,
) -> RunRecord {
    let start = Instant::now();
    let result = detect_communities(g, config);
    let time = start.elapsed();
    RunRecord {
        scheme,
        threads,
        modularity: result.modularity,
        num_communities: result.num_communities,
        time,
        trace: result.trace,
        assignment: result.assignment,
    }
}

/// Minimal aligned text table, matching the paper's presentation style.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[c]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a `Duration` in seconds with 2 decimals (paper style).
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Formats an optional value or "N/A" (paper's crashed-serial entries).
pub fn opt_fmt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "N/A".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["input", "Q"]);
        t.row(vec!["cnr", "0.91"]);
        t.row(vec!["a-very-long-name", "0.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("input"));
        assert!(lines[2].starts_with("cnr"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["x,y", "plain"]);
        assert!(t.to_csv().contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn context_from_env_has_sane_defaults() {
        let ctx = ExperimentContext::from_env();
        assert!(ctx.scale > 0.0);
        assert!(!ctx.thread_counts.is_empty());
        assert!(ctx.thread_counts[0] == 1);
    }

    #[test]
    fn run_scheme_smoke() {
        let ctx = ExperimentContext {
            scale: 0.02,
            seed: 1,
            results_dir: std::env::temp_dir().join("grappolo_bench_test"),
            thread_counts: vec![1],
            coloring_vertex_cutoff: 64,
        };
        let g = ctx.generate(PaperInput::CoPapersDblp);
        let rec = run_scheme(&ctx, &g, Scheme::Baseline, 1);
        assert!(rec.modularity > 0.0);
        assert!(rec.trace.total_iterations() > 0);
        assert_eq!(rec.assignment.len(), g.num_vertices());
    }
}
