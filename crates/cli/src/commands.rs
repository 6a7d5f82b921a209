//! Command implementations.

use crate::args::{Command, Detect, Generate, Query, Requests, Serve, Update, USAGE};
use crate::error::CliError;
use grappolo_coloring::{balance_colors, color_parallel, ColoringStats, ParallelColoringConfig};
use grappolo_core::{detect_communities, update_communities, RefineMode};
use grappolo_graph::gen::paper_suite::PaperInput;
use grappolo_graph::gen::{
    erdos_renyi, planted_blocks, planted_partition, rmat, ErConfig, PlantedConfig, RmatConfig,
};
use grappolo_graph::io::{self, IoError};
use grappolo_graph::{CsrGraph, GraphStats};
use grappolo_metrics::{connectivity_report, normalized_mutual_information, pairwise_comparison};
use grappolo_serve::{signal, FaultPlan, ServeError, Server};
use std::fmt;
use std::fs::File;
use std::io::{ErrorKind, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

/// Writes CLI output to stdout. `BrokenPipe` — the reader went away, as in
/// `grappolo stats g.grb | head -1` — ends the output, not the command: the
/// line is dropped, and the command still writes its files and returns its
/// own exit code. Any other write error (a full disk, say) is an I/O failure.
fn emit(args: fmt::Arguments<'_>) -> Result<(), CliError> {
    match std::io::stdout().lock().write_fmt(args) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            Err(CliError::io(format!("writing to stdout: {e}")))
        }
        _ => Ok(()),
    }
}

/// `println!` through [`emit`].
macro_rules! say {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Executes a parsed command.
pub fn execute(cmd: Command) -> Result<(), CliError> {
    match cmd {
        Command::Help => say!("{USAGE}"),
        Command::Generate(g) => generate(&g),
        Command::Stats { path } => stats(&path),
        Command::Components { path } => components(&path),
        Command::Detect(d) => detect(d),
        Command::Audit { graph, assignments } => audit(&graph, &assignments),
        Command::Update(u) => update(u),
        Command::Serve(s) => serve(s),
        Command::Query(q) => query(&q),
        Command::Color { path, balanced } => color(&path, balanced),
        Command::Compare { a, b } => compare(&a, &b),
        Command::Convert { input, output } => convert(&input, &output),
    }
}

fn load(path: &Path) -> Result<CsrGraph, CliError> {
    io::load_path(path)
        .map_err(|e| CliError::from_io(format_args!("loading {}", path.display()), e))
}

/// Reads the assignment or edge-batch file at `path` with `read`, one of
/// the [`io`] line-format readers. A parse error renders as
/// `path:line: message` (`path: message` when no one line is at fault) and
/// exits 4; any other error is an I/O failure and exits 3.
fn read_file<T>(path: &Path, read: impl FnOnce(File) -> Result<T, IoError>) -> Result<T, CliError> {
    let at = path.display();
    File::open(path)
        .map_err(IoError::from)
        .and_then(read)
        .map_err(|e| match e {
            IoError::Parse { line: 0, message } => CliError::invalid(format!("{at}: {message}")),
            IoError::Parse { line, message } => {
                CliError::invalid(format!("{at}:{line}: {message}"))
            }
            e => CliError::io(format!("reading {at}: {e}")),
        })
}

/// The `blocks` family: one dominant planted block plus many small ones in
/// ascending contiguous vertex ranges, then trailing isolated vertices —
/// the component-splitter workload, where per-component dispatch beats a
/// single driver (small converged components drop out of the schedule
/// instead of being re-swept every iteration). Component-id order then
/// coincides with the unsplit run's label order, which makes
/// `--split-components` output *byte*-identical to the unsplit run, not
/// merely partition-equal.
fn blocks(n: usize, seed: u64) -> CsrGraph {
    let isolated = (n / 200).min(64);
    let body = n - isolated;
    let big = body / 4;
    let small_total = body - big;
    let num_small = (small_total / 400).max(3);
    let base_small = small_total / num_small;
    // The first `extra` small blocks take one vertex more.
    let extra = small_total - base_small * num_small;
    let sizes: Vec<usize> = std::iter::once(big)
        .chain((0..num_small).map(|i| base_small + usize::from(i < extra)))
        .collect();
    planted_blocks(&sizes, isolated, seed)
}

/// Synthetic base-family generation for ids outside the paper suite — the
/// graph classes the differential tests and the CI scenario matrix sweep:
/// ER (no community structure, negative control), planted partition
/// (community-rich), RMAT (skewed degrees), planted blocks (disconnected
/// multi-component). `scale` multiplies the base sizes (n = 40 K at
/// scale 1.0).
fn generate_family(input: &str, scale: f64, seed: u64) -> Option<(&'static str, CsrGraph)> {
    let n = ((40_000.0 * scale) as usize).max(16);
    match input {
        "blocks" => Some(("planted blocks", blocks(n.max(64), seed))),
        "er" => Some((
            "Erdős–Rényi",
            erdos_renyi(&ErConfig {
                num_vertices: n,
                num_edges: n * 5,
                seed,
            }),
        )),
        "planted" => Some((
            "planted partition",
            planted_partition(&PlantedConfig {
                num_vertices: n,
                num_communities: (n / 100).max(2),
                seed,
                ..Default::default()
            })
            .0,
        )),
        "rmat" => Some((
            "RMAT",
            rmat(&RmatConfig {
                scale: (n as f64).log2().ceil().max(4.0) as u32,
                num_edges: n * 5,
                seed,
                ..Default::default()
            }),
        )),
        _ => None,
    }
}

fn generate(cmd: &Generate) -> Result<(), CliError> {
    let Generate {
        input,
        scale,
        seed,
        output,
    } = cmd;
    let t = Instant::now();
    let (name, g) = if let Some((name, g)) = generate_family(input, *scale, *seed) {
        (name, g)
    } else {
        let proxy = PaperInput::from_id(input).ok_or_else(|| {
            CliError::invalid(format!(
                "unknown input id `{input}`; valid: er, planted, rmat, blocks, {}",
                PaperInput::ALL.map(|p| p.id()).join(", ")
            ))
        })?;
        (proxy.reference().name, proxy.generate(*scale, *seed))
    };
    io::save_path(&g, output)
        .map_err(|e| CliError::from_io(format_args!("writing {}", output.display()), e))?;
    say!(
        "generated {} proxy: n={} M={} → {} in {:.2?}",
        name,
        g.num_vertices(),
        g.num_edges(),
        output.display(),
        t.elapsed()
    )?;
    Ok(())
}

fn stats(path: &Path) -> Result<(), CliError> {
    let g = load(path)?;
    let s = GraphStats::compute(&g);
    say!("graph          {}", path.display())?;
    say!("vertices       {}", s.num_vertices)?;
    say!("edges          {}", s.num_edges)?;
    say!("total weight   {}", s.total_weight)?;
    say!("max degree     {}", s.max_degree)?;
    say!("avg degree     {:.4}", s.avg_degree)?;
    say!("degree RSD     {:.4}", s.degree_rsd)?;
    say!("single-degree  {}", s.num_single_degree)?;
    say!("isolated       {}", s.num_isolated)?;
    Ok(())
}

/// The `components` subcommand: the weakly-connected-component profile of a
/// stored graph — the numbers that decide whether `--split-components` is
/// worth switching on.
fn components(path: &Path) -> Result<(), CliError> {
    let g = load(path)?;
    let t = Instant::now();
    let labeling = grappolo_graph::connected_components(&g);
    let elapsed = t.elapsed();
    let mut sizes: Vec<usize> = labeling.sizes().to_vec();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let top: Vec<String> = sizes.iter().take(5).map(|s| s.to_string()).collect();
    say!("graph          {}", path.display())?;
    say!("vertices       {}", g.num_vertices())?;
    say!("edges          {}", g.num_edges())?;
    say!("components     {}", labeling.num_components())?;
    match labeling.largest() {
        Some((id, size)) => {
            let frac = if g.num_vertices() > 0 {
                100.0 * size as f64 / g.num_vertices() as f64
            } else {
                0.0
            };
            say!("largest        {size} vertices ({frac:.2}%, component {id})")?;
        }
        None => say!("largest        -")?,
    }
    say!("isolated       {}", labeling.num_isolated())?;
    say!("top sizes      {}", top.join(" "))?;
    say!("label time     {elapsed:.2?}")?;
    Ok(())
}

fn detect(cmd: Detect) -> Result<(), CliError> {
    let Detect {
        path,
        scheme,
        mut config,
        assignments,
        trace,
    } = cmd;
    let g = load(&path)?;
    // A bad parameter (a negative γ, a negative vertex epsilon, …) is a
    // clean CLI error instead of the library's panic.
    config.validate().map_err(CliError::invalid)?;
    // Scale the paper's 100 K coloring cutoff down for small inputs so the
    // colored scheme stays meaningful on laptop-sized graphs.
    config.coloring_vertex_cutoff = config
        .coloring_vertex_cutoff
        .min(g.num_vertices() / 8)
        .max(64);

    let t = Instant::now();
    let result = detect_communities(&g, &config);
    say!(
        "{}: {} communities, Q = {:.6}, {} iterations / {} phases, {:.2?}",
        scheme.name(),
        result.num_communities,
        result.modularity,
        result.trace.total_iterations(),
        result.trace.num_phases(),
        t.elapsed()
    )?;

    if let Some(out) = &assignments {
        write_assignment(out, &result.assignment)?;
    }
    if let Some(out) = &trace {
        let json = serde_json::to_string_pretty(&result.trace)
            .map_err(|e| CliError::runtime(format!("serializing trace: {e}")))?;
        io::write_bytes_atomic(out, json.as_bytes())
            .map_err(|e| CliError::from_io(format_args!("writing {}", out.display()), e))?;
        say!("trace → {}", out.display())?;
    }
    if config.refine == RefineMode::Leiden {
        let report = connectivity_report(&g, &result.assignment);
        say!(
            "refined: {} internally disconnected of {} communities ({:.2}%), \
             min internal conductance {:.4}",
            report.disconnected,
            report.num_communities,
            100.0 * report.disconnected_fraction,
            report.min_internal_conductance,
        )?;
    }
    Ok(())
}

/// The `audit` subcommand: the connectivity report for a stored
/// `(graph, assignment)` pair, on the whole assignment.
///
/// Exit codes separate the two failure classes: "could not run" (3/4:
/// missing or malformed inputs) from "ran and found internally
/// disconnected communities" (5) — so CI gates can fail on findings
/// without mistaking them for environment breakage.
fn audit(graph: &Path, assignments: &Path) -> Result<(), CliError> {
    let g = load(graph)?;
    let assignment = read_file(assignments, io::read_assignment)?;
    if assignment.len() > g.num_vertices() {
        return Err(CliError::invalid(format!(
            "assignment has {} entries, graph has {} vertices",
            assignment.len(),
            g.num_vertices()
        )));
    }
    // Files may omit trailing isolated vertices; pad them as singletons
    // with fresh labels so the audit covers the whole graph, and say so.
    let mut assignment = assignment;
    let padded = g.num_vertices() - assignment.len();
    let mut next = assignment.iter().copied().max().map_or(0, |c| c + 1);
    while assignment.len() < g.num_vertices() {
        assignment.push(next);
        next += 1;
    }
    if padded > 0 {
        say!("note: padded {padded} trailing vertices as singletons")?;
    }
    let t = Instant::now();
    let report = connectivity_report(&g, &assignment);
    say!("graph                     {}", graph.display())?;
    say!("assignment                {}", assignments.display())?;
    say!("communities               {}", report.num_communities)?;
    say!("internally disconnected   {}", report.disconnected)?;
    say!(
        "disconnected fraction     {:.6}",
        report.disconnected_fraction
    )?;
    say!(
        "min internal conductance  {:.6}{}",
        report.min_internal_conductance,
        match report.worst_community {
            Some(c) => format!("  (community {c})"),
            None => String::new(),
        }
    )?;
    say!("audit time                {:.2?}", t.elapsed())?;
    if report.disconnected > 0 {
        return Err(CliError::audit_finding(format!(
            "audit: {} of {} communities are internally disconnected",
            report.disconnected, report.num_communities
        )));
    }
    Ok(())
}

/// The `update` subcommand: apply a batch of edge deltas to a stored
/// graph and incrementally re-converge the stored assignment.
fn update(cmd: Update) -> Result<(), CliError> {
    let g = load(&cmd.graph)?;
    let assignment = read_file(&cmd.assignments, io::read_assignment)?;
    let deltas = read_file(&cmd.batch, |f| {
        io::parse_edge_batch(&std::io::read_to_string(f)?)
    })?;
    let t = Instant::now();
    // The library checks the config, the assignment and the batch: every
    // error it returns is invalid input.
    let outcome = update_communities(&g, &assignment, None, &deltas, &cmd.config)
        .map_err(CliError::invalid)?;
    say!(
        "update: {} changed edges, {} seed vertices → {} communities, Q = {:.6}, \
         {} iterations{}, {:.2?}",
        outcome.changed_edges,
        outcome.seed_vertices,
        outcome.num_communities,
        outcome.modularity,
        outcome.iterations,
        if outcome.fell_back {
            " (dense batch; fell back to full detection)"
        } else {
            ""
        },
        t.elapsed()
    )?;
    if let Some(out) = &cmd.assignments_out {
        write_assignment(out, &outcome.assignment)?;
    }
    if let Some(out) = &cmd.graph_out {
        io::save_path(&outcome.graph, out)
            .map_err(|e| CliError::from_io(format_args!("writing {}", out.display()), e))?;
        say!("graph → {}", out.display())?;
    }
    Ok(())
}

/// Writes `assignment` atomically as `vertex community` lines — the same
/// bytes `grappolo serve` persists.
fn write_assignment(out: &Path, assignment: &[u32]) -> Result<(), CliError> {
    io::write_bytes_atomic(out, io::format_assignment(assignment).as_bytes())
        .map_err(|e| CliError::from_io(format_args!("writing {}", out.display()), e))?;
    say!("assignments → {}", out.display())?;
    Ok(())
}

fn color(path: &Path, balanced: bool) -> Result<(), CliError> {
    let g = load(path)?;
    let t = Instant::now();
    let mut coloring = color_parallel(&g, &ParallelColoringConfig::default());
    let moved = if balanced {
        balance_colors(&g, &mut coloring, 0.1)
    } else {
        0
    };
    let s = ColoringStats::compute(&coloring);
    say!(
        "{} colors in {:.2?}; class sizes: min {} max {} RSD {:.3}{}",
        s.num_colors,
        t.elapsed(),
        s.min_class,
        s.max_class,
        s.size_rsd,
        if balanced {
            format!(" (balanced; {moved} vertices moved)")
        } else {
            String::new()
        }
    )?;
    Ok(())
}

fn compare(a: &Path, b: &Path) -> Result<(), CliError> {
    let pa = read_file(a, io::read_assignment)?;
    let pb = read_file(b, io::read_assignment)?;
    if pa.len() != pb.len() {
        return Err(CliError::invalid(format!(
            "assignment lengths differ: {} has {}, {} has {}",
            a.display(),
            pa.len(),
            b.display(),
            pb.len()
        )));
    }
    let m = pairwise_comparison(&pa, &pb);
    say!("specificity     {:.4}%", 100.0 * m.specificity())?;
    say!("sensitivity     {:.4}%", 100.0 * m.sensitivity())?;
    say!("overlap quality {:.4}%", 100.0 * m.overlap_quality())?;
    say!("rand index      {:.4}%", 100.0 * m.rand_index())?;
    say!(
        "NMI             {:.4}%",
        100.0 * normalized_mutual_information(&pa, &pb)
    )?;
    Ok(())
}

fn convert(input: &Path, output: &Path) -> Result<(), CliError> {
    let g = load(input)?;
    io::save_path(&g, output)
        .map_err(|e| CliError::from_io(format_args!("writing {}", output.display()), e))?;
    say!(
        "converted {} → {} (n={}, M={})",
        input.display(),
        output.display(),
        g.num_vertices(),
        g.num_edges()
    )?;
    Ok(())
}

/// The `serve` subcommand: run the resident partition service until
/// SIGTERM/SIGINT, then drain gracefully.
fn serve(cmd: Serve) -> Result<(), CliError> {
    let Serve {
        graph,
        mut config,
        faults,
    } = cmd;
    config.faults = match faults {
        Some(spec) => FaultPlan::parse(&spec),
        None => FaultPlan::from_env(),
    }
    .map_err(CliError::invalid)?;
    config.detect.validate().map_err(CliError::invalid)?;
    let t = Instant::now();
    let handle = Server::start_from_path(&graph, config).map_err(|e| match &e {
        ServeError::Bind(_) => CliError::io(e.to_string()),
        ServeError::Load(io::IoError::Io(_)) => CliError::io(e.to_string()),
        ServeError::Load(_) => CliError::invalid(e.to_string()),
        ServeError::Config(_) => CliError::invalid(e.to_string()),
    })?;
    let snap = handle.snapshot();
    // `listening <addr>` is the machine-readable readiness line scripts
    // wait for (port 0 resolves here), so flush it out immediately.
    say!("listening {}", handle.addr())?;
    say!(
        "serving n={} m={} communities={} modularity={:.6} (startup {:.2?})",
        snap.graph.num_vertices(),
        snap.graph.num_edges(),
        snap.num_communities,
        snap.modularity,
        t.elapsed()
    )?;
    let _ = std::io::stdout().flush();
    signal::install_term_handler();
    handle.serve_until(signal::term_requested, Duration::from_millis(25));
    say!("drained; exiting")?;
    Ok(())
}

/// The `query` subcommand: one-shot protocol client.
fn query(cmd: &Query) -> Result<(), CliError> {
    use std::io::{BufRead, BufReader};
    let addr = cmd.addr.as_str();
    let lines: Vec<String> = match &cmd.requests {
        Requests::Script(path) => std::fs::read_to_string(path)
            .map_err(|e| CliError::io(format!("reading {}: {e}", path.display())))?
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect(),
        Requests::Inline(line) => vec![line.clone()],
    };
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError::io(format!("connecting {addr}: {e}")))?;
    // One small packet per direction per request: without nodelay the
    // Nagle/delayed-ACK interaction adds ~40ms to every round trip.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| CliError::io(format!("cloning socket: {e}")))?,
    );
    let mut writer = stream;
    let mut failed = false;
    for line in &lines {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|_| writer.flush())
            .map_err(|e| CliError::io(format!("sending to {addr}: {e}")))?;
        let mut response = String::new();
        let n = reader
            .read_line(&mut response)
            .map_err(|e| CliError::io(format!("reading from {addr}: {e}")))?;
        if n == 0 {
            return Err(CliError::io(format!(
                "{addr} closed the connection before answering `{line}`"
            )));
        }
        emit(format_args!("{response}"))?;
        failed |= response.starts_with("err ");
    }
    if failed {
        Err(CliError::runtime("one or more requests failed"))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grappolo_graph::EdgeDelta;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("grappolo_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The command line `parts` parses to.
    fn cmd(parts: &[&str]) -> Command {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        crate::args::parse(&argv).unwrap()
    }

    fn s(p: &Path) -> &str {
        p.to_str().unwrap()
    }

    /// `grappolo generate <input> --scale <scale> --seed <seed> -o <out>`.
    fn generate_to(input: &str, scale: &str, seed: &str, out: &Path) {
        execute(cmd(&[
            "generate",
            input,
            "--scale",
            scale,
            "--seed",
            seed,
            "-o",
            s(out),
        ]))
        .unwrap();
    }

    #[test]
    fn generate_stats_detect_round_trip() {
        let graph_path = tmp("g.grb");
        generate_to("mg1", "0.02", "1", &graph_path);
        execute(cmd(&["stats", s(&graph_path)])).unwrap();

        let assign_path = tmp("a.txt");
        let trace_path = tmp("trace.json");
        execute(cmd(&[
            "detect",
            s(&graph_path),
            "--scheme",
            "baseline",
            "--threads",
            "1",
            "--assignments",
            s(&assign_path),
            "--trace",
            s(&trace_path),
        ]))
        .unwrap();

        let assignment = read_file(&assign_path, io::read_assignment).unwrap();
        assert!(!assignment.is_empty());
        // Trace is valid JSON.
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(serde_json::from_str::<serde_json::Value>(&text).is_ok());
    }

    #[test]
    fn detect_active_sweep_deterministic_across_thread_counts() {
        // CLI-level determinism for the dirty-vertex schedule: identical
        // assignments at 1 and 4 worker threads, for the colored scheme.
        let graph_path = tmp("sweep.grb");
        generate_to("planted", "0.05", "9", &graph_path);
        let out1 = tmp("sweep_a1.txt");
        let out4 = tmp("sweep_a4.txt");
        for (out, threads) in [(&out1, "1"), (&out4, "4")] {
            execute(cmd(&[
                "detect",
                s(&graph_path),
                "--sweep",
                "active",
                "--threads",
                threads,
                "--assignments",
                s(out),
            ]))
            .unwrap();
        }
        assert_eq!(
            read_file(&out1, io::read_assignment).unwrap(),
            read_file(&out4, io::read_assignment).unwrap(),
            "active sweep diverged across thread counts"
        );
    }

    #[test]
    fn detect_geometric_schedule_deterministic_across_thread_counts() {
        // CLI-level determinism for the scheduled convergence engine:
        // identical assignments at 1 and 4 worker threads under
        // --schedule geometric --sweep active.
        let graph_path = tmp("sched.grb");
        generate_to("planted", "0.05", "11", &graph_path);
        let out1 = tmp("sched_a1.txt");
        let out4 = tmp("sched_a4.txt");
        for (out, threads) in [(&out1, "1"), (&out4, "4")] {
            execute(cmd(&[
                "detect",
                s(&graph_path),
                "--sweep",
                "active",
                "--schedule",
                "geometric",
                "--threads",
                threads,
                "--assignments",
                s(out),
            ]))
            .unwrap();
        }
        assert_eq!(
            read_file(&out1, io::read_assignment).unwrap(),
            read_file(&out4, io::read_assignment).unwrap(),
            "geometric schedule diverged across thread counts"
        );
    }

    #[test]
    fn detect_rejects_invalid_vertex_epsilon() {
        let graph_path = tmp("veps.grb");
        generate_to("planted", "0.02", "5", &graph_path);
        let err = execute(cmd(&["detect", s(&graph_path), "--vertex-epsilon", "-1"])).unwrap_err();
        assert_eq!(err.code(), crate::error::EXIT_INVALID, "{err}");
        assert!(err.message().contains("vertex_epsilon"), "{err}");
    }

    #[test]
    fn generate_synthetic_families() {
        for family in ["er", "planted", "rmat"] {
            let p = tmp(&format!("fam_{family}.grb"));
            generate_to(family, "0.02", "1", &p);
            let g = io::load_path(&p).unwrap();
            assert!(g.num_vertices() > 0, "{family}");
            assert!(g.num_edges() > 0, "{family}");
        }
    }

    #[test]
    fn detect_split_components_matches_unsplit_bytes() {
        // The splitter's headline contract at CLI level: on the `blocks`
        // family (ascending contiguous component ranges) --split-components
        // writes a byte-identical assignment file, for both the serial and
        // the parallel baseline scheme.
        let graph_path = tmp("split.grb");
        generate_to("blocks", "0.08", "17", &graph_path);
        for scheme in ["baseline", "serial"] {
            let plain_out = tmp(&format!("split_plain_{scheme}.txt"));
            let split_out = tmp(&format!("split_split_{scheme}.txt"));
            for (out, split) in [(&plain_out, &[][..]), (&split_out, &["--split-components"])] {
                let mut line = vec![
                    "detect",
                    s(&graph_path),
                    "--scheme",
                    scheme,
                    "--threads",
                    "2",
                    "--assignments",
                    s(out),
                ];
                line.extend_from_slice(split);
                execute(cmd(&line)).unwrap();
            }
            assert_eq!(
                std::fs::read(&plain_out).unwrap(),
                std::fs::read(&split_out).unwrap(),
                "{scheme}: split assignment bytes differ from unsplit"
            );
        }
    }

    #[test]
    fn components_command_profiles_blocks() {
        let graph_path = tmp("compprof.grb");
        generate_to("blocks", "0.05", "3", &graph_path);
        execute(cmd(&["components", s(&graph_path)])).unwrap();
        // And on a connected input.
        let one = tmp("comp_one.grb");
        generate_to("planted", "0.02", "3", &one);
        execute(cmd(&["components", s(&one)])).unwrap();
    }

    #[test]
    fn blocks_family_is_multi_component() {
        let g = blocks(4_000, 9);
        let l = grappolo_graph::connected_components(&g);
        assert!(
            l.num_components() > 4,
            "blocks must be multi-component, got {}",
            l.num_components()
        );
        assert!(
            l.num_isolated() > 0,
            "blocks must include isolated vertices"
        );
        let (_, largest) = l.largest().unwrap();
        assert!(largest < g.num_vertices(), "one component swallowed all");
    }

    #[test]
    fn compare_identical_files() {
        let p = tmp("same.txt");
        std::fs::write(&p, "0 0\n1 0\n2 1\n").unwrap();
        execute(cmd(&["compare", s(&p), s(&p)])).unwrap();
    }

    #[test]
    fn convert_between_formats() {
        let edges = tmp("c.edges");
        std::fs::write(&edges, "0 1 2.0\n1 2 1.0\n").unwrap();
        let metis = tmp("c.graph");
        execute(cmd(&["convert", s(&edges), s(&metis)])).unwrap();
        let g = io::load_path(&metis).unwrap();
        assert_eq!(g.num_edges(), 2);
        // Edge list → .grb binary and back: identical structure.
        let grb = tmp("c.grb");
        execute(cmd(&["convert", s(&edges), s(&grb)])).unwrap();
        let g2 = io::load_path(&grb).unwrap();
        assert_eq!(g2.num_edges(), 2);
        assert_eq!(g2.edge_weight(0, 1), Some(2.0));
    }

    #[test]
    fn removed_graph_formats_exit_4_naming_the_format() {
        let dir = std::env::temp_dir().join("grappolo_cli_removed_formats");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let [bin, grb, out, v1] = ["x.bin", "g.grb", "out.bin", "v1.grb"].map(|f| dir.join(f));
        std::fs::write(&bin, "0 1\n").unwrap(); // bytes an edge list would accept
        io::save_path(&CsrGraph::empty(2), &grb).unwrap();
        // The empty graph as the retired v1 writer laid it out: magic,
        // version 1, flags, n = 0, no entries, offsets [0].
        std::fs::write(&v1, [&b"GRPLGRB\0\x01\0\0\0"[..], &[0; 24]].concat()).unwrap();
        for (line, needle) in [
            (&["stats", s(&bin)][..], "`.grb`"),
            (&["convert", s(&grb), s(&out)], "`.grb`"),
            (&["stats", s(&v1)], "version 1"),
        ] {
            let err = execute(cmd(line)).unwrap_err();
            assert_eq!(err.code(), crate::error::EXIT_INVALID, "{err}");
            assert!(err.message().contains(needle), "{err}");
        }
        // The refused save created neither its file nor a temp sibling.
        assert!(!out.exists() && io::list_tmp_siblings(&dir).is_empty());
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(execute(cmd(&["stats", "/no/such/file.grb"])).is_err());
        assert!(execute(cmd(&["generate", "bogus", "-o", s(&tmp("x.grb"))])).is_err());
    }

    #[test]
    fn read_assignments_validates() {
        let p = tmp("holes.txt");
        std::fs::write(&p, "0 1\n2 1\n").unwrap(); // vertex 1 missing
        let err = read_file(&p, io::read_assignment).unwrap_err();
        assert!(
            err.message().contains("vertex 1 has no assignment"),
            "{err}"
        );
        let q = tmp("bad.txt");
        std::fs::write(&q, "x y\n").unwrap();
        assert!(read_file(&q, io::read_assignment).is_err());
    }

    #[test]
    fn read_assignments_rejects_duplicate_vertex_lines() {
        let p = tmp("dups.txt");
        std::fs::write(&p, "0 1\n1 2\n# comment\n1 3\n2 0\n").unwrap();
        let err = read_file(&p, io::read_assignment).unwrap_err();
        // Both the offending line and the original are named.
        assert!(err.message().contains(":4:"), "{err}");
        assert!(
            err.message().contains("duplicate assignment for vertex 1"),
            "{err}"
        );
        assert!(err.message().contains("line 2"), "{err}");
    }

    #[test]
    fn audit_reports_length_mismatch() {
        let graph_path = tmp("audlen.grb");
        generate_to("planted", "0.02", "7", &graph_path);
        let g = io::load_path(&graph_path).unwrap();
        let n = g.num_vertices();
        // One entry more than the graph has vertices.
        let assign_path = tmp("audlen_a.txt");
        let mut text = String::new();
        for v in 0..=n {
            text.push_str(&format!("{v} 0\n"));
        }
        std::fs::write(&assign_path, text).unwrap();
        let err = execute(cmd(&["audit", s(&graph_path), s(&assign_path)])).unwrap_err();
        assert!(
            err.message()
                .contains(&format!("assignment has {} entries", n + 1))
                && err.message().contains(&format!("graph has {n} vertices")),
            "{err}"
        );
    }

    #[test]
    fn read_edge_batch_parses_and_reports_line_errors() {
        let p = tmp("batch_ok.txt");
        std::fs::write(&p, "# comment\n+ 0 1\n+ 1 2 2.5\n- 3 4\n= 5 6 0.5\n").unwrap();
        let read_batch =
            |p: &Path| read_file(p, |f| io::parse_edge_batch(&std::io::read_to_string(f)?));
        let batch = read_batch(&p).unwrap();
        assert_eq!(
            batch,
            vec![
                EdgeDelta::Insert {
                    u: 0,
                    v: 1,
                    weight: 1.0
                },
                EdgeDelta::Insert {
                    u: 1,
                    v: 2,
                    weight: 2.5
                },
                EdgeDelta::Delete { u: 3, v: 4 },
                EdgeDelta::Reweight {
                    u: 5,
                    v: 6,
                    weight: 0.5
                },
            ]
        );
        for (name, content, needle) in [
            (
                "batch_op.txt",
                "+ 0 1\n* 2 3\n",
                ":2: unknown operation `*`",
            ),
            ("batch_missing.txt", "+ 0\n", ":1: missing target vertex"),
            ("batch_weight.txt", "= 0 1\n", ":1: missing weight"),
            ("batch_trail.txt", "- 0 1 9\n", ":1: trailing tokens"),
            ("batch_vertex.txt", "+ x 1\n", ":1: bad source vertex"),
        ] {
            let p = tmp(name);
            std::fs::write(&p, content).unwrap();
            let err = read_batch(&p).unwrap_err();
            assert!(err.message().contains(needle), "{name}: {err}");
        }
    }

    #[test]
    fn update_round_trip() {
        // detect → write assignments → apply a small batch with `update`
        // → the rewritten assignment and graph load back cleanly and the
        // audit accepts the pair.
        let graph_path = tmp("upd.grb");
        generate_to("planted", "0.02", "21", &graph_path);
        let assign_path = tmp("upd_a.txt");
        execute(cmd(&[
            "detect",
            s(&graph_path),
            "--scheme",
            "baseline",
            "--threads",
            "2",
            "--sweep",
            "active",
            "--assignments",
            s(&assign_path),
        ]))
        .unwrap();
        let g = io::load_path(&graph_path).unwrap();
        let (u, v, _) = g.undirected_edges().next().unwrap();
        let batch_path = tmp("upd_b.txt");
        std::fs::write(
            &batch_path,
            format!("# small perturbation\n= {u} {v} 3.0\n+ 0 1 0.5\n"),
        )
        .unwrap();
        let out_assign = tmp("upd_a2.txt");
        let out_graph = tmp("upd_g2.grb");
        execute(cmd(&[
            "update",
            s(&graph_path),
            s(&assign_path),
            s(&batch_path),
            "--assignments-out",
            s(&out_assign),
            "--graph-out",
            s(&out_graph),
            "--threads",
            "2",
        ]))
        .unwrap();
        let updated = read_file(&out_assign, io::read_assignment).unwrap();
        let g2 = io::load_path(&out_graph).unwrap();
        assert_eq!(updated.len(), g2.num_vertices());
        assert_eq!(g2.edge_weight(u, v), Some(3.0));
        execute(cmd(&["audit", s(&out_graph), s(&out_assign)])).unwrap();
    }

    #[test]
    fn update_rejects_mismatched_assignment() {
        let graph_path = tmp("updmis.grb");
        generate_to("planted", "0.02", "23", &graph_path);
        let assign_path = tmp("updmis_a.txt");
        std::fs::write(&assign_path, "0 0\n1 0\n2 1\n").unwrap();
        let batch_path = tmp("updmis_b.txt");
        std::fs::write(&batch_path, "+ 0 1\n").unwrap();
        let err = execute(cmd(&[
            "update",
            s(&graph_path),
            s(&assign_path),
            s(&batch_path),
            "--threads",
            "1",
        ]))
        .unwrap_err();
        assert!(
            err.message().contains("assignment has 3 entries")
                && err.message().contains("graph has"),
            "{err}"
        );
    }

    #[test]
    fn detect_refine_and_audit_round_trip() {
        // detect --refine leiden writes an assignment the audit subcommand
        // accepts; the audit also runs on unrefined output.
        let graph_path = tmp("refine.grb");
        generate_to("planted", "0.05", "13", &graph_path);
        let out = tmp("refine_a.txt");
        execute(cmd(&[
            "detect",
            s(&graph_path),
            "--threads",
            "2",
            "--sweep",
            "active",
            "--schedule",
            "geometric",
            "--refine",
            "leiden",
            "--assignments",
            s(&out),
        ]))
        .unwrap();
        execute(cmd(&["audit", s(&graph_path), s(&out)])).unwrap();
    }

    #[test]
    fn color_command_runs() {
        let graph_path = tmp("col.grb");
        generate_to("rgg", "0.02", "2", &graph_path);
        execute(cmd(&["color", s(&graph_path)])).unwrap();
        execute(cmd(&["color", s(&graph_path), "--balanced"])).unwrap();
    }
}
