//! Command implementations.

use crate::args::{Command, USAGE};
use crate::error::CliError;
use grappolo_coloring::{balance_colors, color_parallel, ColoringStats, ParallelColoringConfig};
use grappolo_core::{
    detect_communities, geometric_for, update_communities, LouvainConfig, LouvainConfigBuilder,
    RefineMode, ScheduleMode, ScheduleSpec, Scheme, SweepMode,
};
use grappolo_graph::gen::paper_suite::PaperInput;
use grappolo_graph::gen::{
    erdos_renyi, planted_partition, rmat, ErConfig, PlantedConfig, RmatConfig,
};
use grappolo_graph::{io, CsrGraph, EdgeDelta, GraphStats};
use grappolo_metrics::{connectivity_report, normalized_mutual_information, pairwise_comparison};
use grappolo_serve::persist::format_assignment;
use grappolo_serve::{signal, BackoffPolicy, FaultPlan, ServeConfig, ServeError, Server};
use std::path::Path;
use std::time::{Duration, Instant};

/// Executes a parsed command.
pub fn execute(cmd: Command) -> Result<(), CliError> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Generate {
            input,
            scale,
            seed,
            output,
        } => generate(&input, scale, seed, &output),
        Command::Stats { path } => stats(&path),
        Command::Components { path } => components(&path),
        Command::Detect {
            path,
            scheme,
            threads,
            gamma,
            assignments,
            trace,
            sweep,
            schedule,
            vertex_epsilon,
            refine,
            split_components,
        } => detect(
            &path,
            scheme,
            threads,
            gamma,
            assignments.as_deref(),
            trace.as_deref(),
            sweep,
            schedule,
            vertex_epsilon,
            refine,
            split_components,
        ),
        Command::Audit { graph, assignments } => audit(&graph, &assignments),
        Command::Update {
            graph,
            assignments,
            batch,
            assignments_out,
            graph_out,
            threads,
            gamma,
            fallback,
        } => update(
            &graph,
            &assignments,
            &batch,
            assignments_out.as_deref(),
            graph_out.as_deref(),
            threads,
            gamma,
            fallback,
        ),
        Command::Serve {
            graph,
            addr,
            server_threads,
            queue_depth,
            deadline_ms,
            retry,
            backoff_ms,
            threads,
            gamma,
            faults,
        } => serve(
            &graph,
            addr,
            server_threads,
            queue_depth,
            deadline_ms,
            retry,
            backoff_ms,
            threads,
            gamma,
            faults.as_deref(),
        ),
        Command::Query {
            addr,
            script,
            command,
        } => query(&addr, script.as_deref(), command.as_deref()),
        Command::Color { path, balanced } => color(&path, balanced),
        Command::Compare { a, b } => compare(&a, &b),
        Command::Convert { input, output } => convert(&input, &output),
    }
}

fn load(path: &Path) -> Result<CsrGraph, CliError> {
    io::load_path(path)
        .map_err(|e| CliError::from_io(format_args!("loading {}", path.display()), e))
}

/// A disconnected union of planted-partition blocks plus trailing isolated
/// vertices — the component-splitter workload (`blocks` family). Blocks
/// occupy ascending contiguous vertex ranges, which makes `--split-components`
/// output *byte*-identical to the unsplit run (component-id order coincides
/// with the unsplit label order), not merely partition-equal.
fn planted_blocks(n: usize, seed: u64) -> CsrGraph {
    // One dominant block plus many small ones: the shape where per-component
    // dispatch beats a single driver (small converged components drop out of
    // the schedule instead of being re-swept every iteration).
    let isolated = (n / 200).min(64);
    let body = n - isolated;
    let big = body / 4;
    let small_total = body - big;
    let num_small = (small_total / 400).max(3);
    let mut sizes = vec![big];
    let base_small = small_total / num_small;
    let mut rem = small_total - base_small * num_small;
    for _ in 0..num_small {
        let extra = usize::from(rem > 0);
        rem -= extra;
        sizes.push(base_small + extra);
    }
    let mut b = grappolo_graph::GraphBuilder::new(n);
    let mut base = 0u32;
    for (i, &size) in sizes.iter().enumerate() {
        let (block, _) = planted_partition(&PlantedConfig {
            num_vertices: size,
            num_communities: (size / 100).max(2),
            seed: seed.wrapping_add(i as u64),
            ..Default::default()
        });
        for (u, v, w) in block.undirected_edges() {
            b = b.add_edge(base + u, base + v, w);
        }
        base += size as u32;
    }
    b.build().expect("planted_blocks edges are in range")
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
        "blocks" => Some(("planted blocks", planted_blocks(n.max(64), seed))),
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

fn generate(input: &str, scale: f64, seed: u64, output: &Path) -> Result<(), CliError> {
    let t = Instant::now();
    let (name, g) = if let Some((name, g)) = generate_family(input, scale, seed) {
        (name, g)
    } else {
        let proxy = PaperInput::from_id(input).ok_or_else(|| {
            CliError::invalid(format!(
                "unknown input id `{input}`; valid: er, planted, rmat, blocks, {}",
                PaperInput::ALL.map(|p| p.id()).join(", ")
            ))
        })?;
        (proxy.reference().name, proxy.generate(scale, seed))
    };
    io::save_path(&g, output)
        .map_err(|e| CliError::from_io(format_args!("writing {}", output.display()), e))?;
    println!(
        "generated {} proxy: n={} M={} → {} in {:.2?}",
        name,
        g.num_vertices(),
        g.num_edges(),
        output.display(),
        t.elapsed()
    );
    Ok(())
}

fn stats(path: &Path) -> Result<(), CliError> {
    let g = load(path)?;
    let s = GraphStats::compute(&g);
    println!("graph          {}", path.display());
    println!("vertices       {}", s.num_vertices);
    println!("edges          {}", s.num_edges);
    println!("total weight   {}", s.total_weight);
    println!("max degree     {}", s.max_degree);
    println!("avg degree     {:.4}", s.avg_degree);
    println!("degree RSD     {:.4}", s.degree_rsd);
    println!("single-degree  {}", s.num_single_degree);
    println!("isolated       {}", s.num_isolated);
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
    println!("graph          {}", path.display());
    println!("vertices       {}", g.num_vertices());
    println!("edges          {}", g.num_edges());
    println!("components     {}", labeling.num_components());
    match labeling.largest() {
        Some((id, size)) => {
            let frac = if g.num_vertices() > 0 {
                100.0 * size as f64 / g.num_vertices() as f64
            } else {
                0.0
            };
            println!("largest        {size} vertices ({frac:.2}%, component {id})");
        }
        None => println!("largest        -"),
    }
    println!("isolated       {}", labeling.num_isolated());
    println!("top sizes      {}", top.join(" "));
    println!("label time     {elapsed:.2?}");
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn detect(
    path: &Path,
    scheme: Scheme,
    threads: Option<usize>,
    gamma: f64,
    assignments: Option<&Path>,
    trace: Option<&Path>,
    sweep: SweepMode,
    schedule: ScheduleMode,
    vertex_epsilon: f64,
    refine: RefineMode,
    split_components: bool,
) -> Result<(), CliError> {
    let g = load(path)?;
    // Per-vertex gains live on the 1/m scale; the geometric gate derives
    // its parameters from this graph's total weight.
    let schedule_spec = match schedule {
        ScheduleMode::Fixed => ScheduleSpec::Fixed,
        ScheduleMode::Geometric => geometric_for(g.total_weight()),
    };
    // The typed builder surfaces bad parameters (a negative γ, a negative
    // vertex epsilon, …) as a clean CLI error instead of the library's
    // panic.
    let mut config = LouvainConfigBuilder::from_base(scheme.config())
        .resolution(gamma)
        .sweep(sweep)
        .vertex_epsilon(vertex_epsilon)
        .schedule(schedule_spec)
        .refine(refine)
        .threads(threads)
        .build()
        .map_err(CliError::invalid)?;
    // Scale the paper's 100 K coloring cutoff down for small inputs so the
    // colored scheme stays meaningful on laptop-sized graphs.
    config.coloring_vertex_cutoff = config
        .coloring_vertex_cutoff
        .min(g.num_vertices() / 8)
        .max(64);
    config.split_components = split_components;

    let t = Instant::now();
    let result = detect_communities(&g, &config);
    println!(
        "{}: {} communities, Q = {:.6}, {} iterations / {} phases, {:.2?}",
        scheme.name(),
        result.num_communities,
        result.modularity,
        result.trace.total_iterations(),
        result.trace.num_phases(),
        t.elapsed()
    );

    if let Some(out) = assignments {
        write_assignment(out, &result.assignment)?;
    }
    if let Some(out) = trace {
        let json = serde_json::to_string_pretty(&result.trace)
            .map_err(|e| CliError::runtime(format!("serializing trace: {e}")))?;
        io::write_bytes_atomic(out, json.as_bytes())
            .map_err(|e| CliError::from_io(format_args!("writing {}", out.display()), e))?;
        println!("trace → {}", out.display());
    }
    if refine == RefineMode::Leiden {
        let report = connectivity_report(&g, &result.assignment);
        println!(
            "refined: {} internally disconnected of {} communities ({:.2}%), \
             min internal conductance {:.4}",
            report.disconnected,
            report.num_communities,
            100.0 * report.disconnected_fraction,
            report.min_internal_conductance,
        );
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
    let assignment = read_assignments(assignments)?;
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
        println!("note: padded {padded} trailing vertices as singletons");
    }
    let t = Instant::now();
    let report = connectivity_report(&g, &assignment);
    println!("graph                     {}", graph.display());
    println!("assignment                {}", assignments.display());
    println!("communities               {}", report.num_communities);
    println!("internally disconnected   {}", report.disconnected);
    println!(
        "disconnected fraction     {:.6}",
        report.disconnected_fraction
    );
    println!(
        "min internal conductance  {:.6}{}",
        report.min_internal_conductance,
        match report.worst_community {
            Some(c) => format!("  (community {c})"),
            None => String::new(),
        }
    );
    println!("audit time                {:.2?}", t.elapsed());
    if report.disconnected > 0 {
        return Err(CliError::audit_finding(format!(
            "audit: {} of {} communities are internally disconnected",
            report.disconnected, report.num_communities
        )));
    }
    Ok(())
}

/// Parses an edge-delta batch file: one operation per line, `#` comments.
///
/// ```text
/// + u v [w]   insert (weight defaults to 1; duplicates of an existing
///             edge merge by summation, like builder input)
/// - u v       delete an existing edge
/// = u v w     set the weight of an existing edge
/// ```
///
/// Errors carry `file:line:` prefixes so a bad batch points at itself.
/// (Parsing itself lives in [`grappolo_graph::parse_edge_batch`], shared
/// with the serve daemon's `update` path.)
fn read_edge_batch(path: &Path) -> Result<Vec<EdgeDelta>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::io(format!("reading {}: {e}", path.display())))?;
    grappolo_graph::parse_edge_batch(&text)
        .map_err(|e| CliError::invalid(format!("{}:{}: {}", path.display(), e.line, e.message)))
}

/// The `update` subcommand: apply a batch of edge deltas to a stored
/// graph and incrementally re-converge the stored assignment.
#[allow(clippy::too_many_arguments)]
fn update(
    graph: &Path,
    assignments: &Path,
    batch: &Path,
    assignments_out: Option<&Path>,
    graph_out: Option<&Path>,
    threads: Option<usize>,
    gamma: f64,
    fallback: f64,
) -> Result<(), CliError> {
    let g = load(graph)?;
    let assignment = read_assignments(assignments)?;
    if assignment.len() != g.num_vertices() {
        return Err(CliError::invalid(format!(
            "assignment has {} entries, graph has {} vertices",
            assignment.len(),
            g.num_vertices()
        )));
    }
    let deltas = read_edge_batch(batch)?;
    let config = LouvainConfig::builder()
        .sweep(SweepMode::Active)
        .resolution(gamma)
        .threads(threads)
        .dynamic_fallback(fallback)
        .build()
        .map_err(CliError::invalid)?;
    let t = Instant::now();
    let outcome = update_communities(&g, &assignment, None, &deltas, &config)?;
    println!(
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
    );
    if let Some(out) = assignments_out {
        write_assignment(out, &outcome.assignment)?;
    }
    if let Some(out) = graph_out {
        io::save_path(&outcome.graph, out)
            .map_err(|e| CliError::from_io(format_args!("writing {}", out.display()), e))?;
        println!("graph → {}", out.display());
    }
    Ok(())
}

/// Writes `assignment` atomically as `vertex community` lines — the same
/// bytes `grappolo serve` persists.
fn write_assignment(out: &Path, assignment: &[u32]) -> Result<(), CliError> {
    io::write_bytes_atomic(out, format_assignment(assignment).as_bytes())
        .map_err(|e| CliError::from_io(format_args!("writing {}", out.display()), e))?;
    println!("assignments → {}", out.display());
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
    println!(
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
    );
    Ok(())
}

/// Reads a `vertex community` assignment file into a dense vector.
///
/// The file must name every vertex `0..n` exactly once (`n` is one past
/// the largest id that appears). A duplicate vertex line or a hole in
/// the id space is a formatting error reported with line numbers, not
/// something to paper over with a sentinel label.
pub fn read_assignments(path: &Path) -> Result<Vec<u32>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::io(format!("reading {}: {e}", path.display())))?;
    let invalid = CliError::invalid;
    let mut pairs: Vec<(usize, u32, usize)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let v: usize = it.next().unwrap().parse().map_err(|e| {
            invalid(format!(
                "{}:{}: bad vertex: {e}",
                path.display(),
                lineno + 1
            ))
        })?;
        let c: u32 = it
            .next()
            .ok_or_else(|| {
                invalid(format!(
                    "{}:{}: missing community",
                    path.display(),
                    lineno + 1
                ))
            })?
            .parse()
            .map_err(|e| {
                invalid(format!(
                    "{}:{}: bad community: {e}",
                    path.display(),
                    lineno + 1
                ))
            })?;
        pairs.push((v, c, lineno + 1));
    }
    // Sized by the line count, not the largest id: an id at or past the
    // count leaves some id below it unassigned, which the hole check below
    // reports, so one huge id cannot force a huge allocation.
    let n = pairs.len();
    let mut out = vec![0u32; n];
    // Line number that assigned each vertex; 0 marks "not yet seen".
    let mut seen_at = vec![0usize; n];
    for &(v, c, lineno) in &pairs {
        if v >= n {
            continue;
        }
        if seen_at[v] != 0 {
            return Err(invalid(format!(
                "{}:{}: duplicate assignment for vertex {v} (first assigned at line {})",
                path.display(),
                lineno,
                seen_at[v]
            )));
        }
        seen_at[v] = lineno;
        out[v] = c;
    }
    if let Some(v) = seen_at.iter().position(|&l| l == 0) {
        let largest = pairs.iter().map(|&(v, _, _)| v).max().unwrap_or(0);
        return Err(invalid(format!(
            "{}: vertex {v} has no assignment (the file names vertices up to {largest})",
            path.display(),
        )));
    }
    Ok(out)
}

fn compare(a: &Path, b: &Path) -> Result<(), CliError> {
    let pa = read_assignments(a)?;
    let pb = read_assignments(b)?;
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
    println!("specificity     {:.4}%", 100.0 * m.specificity());
    println!("sensitivity     {:.4}%", 100.0 * m.sensitivity());
    println!("overlap quality {:.4}%", 100.0 * m.overlap_quality());
    println!("rand index      {:.4}%", 100.0 * m.rand_index());
    println!(
        "NMI             {:.4}%",
        100.0 * normalized_mutual_information(&pa, &pb)
    );
    Ok(())
}

fn convert(input: &Path, output: &Path) -> Result<(), CliError> {
    let g = load(input)?;
    io::save_path(&g, output)
        .map_err(|e| CliError::from_io(format_args!("writing {}", output.display()), e))?;
    println!(
        "converted {} → {} (n={}, M={})",
        input.display(),
        output.display(),
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

/// The `serve` subcommand: run the resident partition service until
/// SIGTERM/SIGINT, then drain gracefully.
#[allow(clippy::too_many_arguments)]
fn serve(
    graph: &Path,
    addr: String,
    server_threads: usize,
    queue_depth: usize,
    deadline_ms: u64,
    retry: u32,
    backoff_ms: u64,
    threads: Option<usize>,
    gamma: f64,
    faults_spec: Option<&str>,
) -> Result<(), CliError> {
    let faults = match faults_spec {
        Some(spec) => FaultPlan::parse(spec).map_err(CliError::invalid)?,
        None => FaultPlan::from_env().map_err(CliError::invalid)?,
    };
    let detect = LouvainConfig::builder()
        .sweep(SweepMode::Active)
        .resolution(gamma)
        .threads(threads)
        .build()
        .map_err(CliError::invalid)?;
    let config = ServeConfig {
        addr,
        server_threads,
        queue_depth,
        deadline: Duration::from_millis(deadline_ms),
        backoff: BackoffPolicy {
            attempts: retry,
            base: Duration::from_millis(backoff_ms),
        },
        detect,
        faults,
    };
    let t = Instant::now();
    let handle = Server::start_from_path(graph, config).map_err(|e| match &e {
        ServeError::Bind(_) => CliError::io(e.to_string()),
        ServeError::Load(io::IoError::Io(_)) => CliError::io(e.to_string()),
        ServeError::Load(_) => CliError::invalid(e.to_string()),
        ServeError::Config(_) => CliError::invalid(e.to_string()),
    })?;
    let snap = handle.snapshot();
    // `listening <addr>` is the machine-readable readiness line scripts
    // wait for (port 0 resolves here), so flush it out immediately.
    println!("listening {}", handle.addr());
    println!(
        "serving n={} m={} communities={} modularity={:.6} (startup {:.2?})",
        snap.graph.num_vertices(),
        snap.graph.num_edges(),
        snap.num_communities,
        snap.modularity,
        t.elapsed()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    signal::install_term_handler();
    handle.serve_until(signal::term_requested, Duration::from_millis(25));
    println!("drained; exiting");
    Ok(())
}

/// The `query` subcommand: one-shot protocol client.
fn query(addr: &str, script: Option<&Path>, command: Option<&str>) -> Result<(), CliError> {
    use std::io::{BufRead, BufReader, Write as _};
    let lines: Vec<String> = match (script, command) {
        (Some(path), _) => std::fs::read_to_string(path)
            .map_err(|e| CliError::io(format!("reading {}: {e}", path.display())))?
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect(),
        (None, Some(cmd)) => vec![cmd.to_string()],
        (None, None) => return Err(CliError::invalid("nothing to send")),
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
        print!("{response}");
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

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("grappolo_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn generate_stats_detect_round_trip() {
        let graph_path = tmp("g.grb");
        execute(Command::Generate {
            input: "mg1".into(),
            scale: 0.02,
            seed: 1,
            output: graph_path.clone(),
        })
        .unwrap();
        execute(Command::Stats {
            path: graph_path.clone(),
        })
        .unwrap();

        let assign_path = tmp("a.txt");
        execute(Command::Detect {
            path: graph_path.clone(),
            scheme: Scheme::Baseline,
            threads: Some(1),
            gamma: 1.0,
            assignments: Some(assign_path.clone()),
            trace: Some(tmp("trace.json")),
            sweep: SweepMode::Full,
            schedule: ScheduleMode::Fixed,
            vertex_epsilon: 0.0,
            refine: RefineMode::None,
            split_components: false,
        })
        .unwrap();

        let assignment = read_assignments(&assign_path).unwrap();
        assert!(!assignment.is_empty());
        // Trace is valid JSON.
        let text = std::fs::read_to_string(tmp("trace.json")).unwrap();
        assert!(serde_json::from_str::<serde_json::Value>(&text).is_ok());
    }

    #[test]
    fn detect_active_sweep_deterministic_across_thread_counts() {
        // CLI-level determinism for the dirty-vertex schedule: identical
        // assignments at 1 and 4 worker threads, for the colored scheme.
        let graph_path = tmp("sweep.grb");
        execute(Command::Generate {
            input: "planted".into(),
            scale: 0.05,
            seed: 9,
            output: graph_path.clone(),
        })
        .unwrap();
        let out1 = tmp("sweep_a1.txt");
        let out4 = tmp("sweep_a4.txt");
        for (out, threads) in [(&out1, 1usize), (&out4, 4)] {
            execute(Command::Detect {
                path: graph_path.clone(),
                scheme: Scheme::BaselineVfColor,
                threads: Some(threads),
                gamma: 1.0,
                assignments: Some(out.clone()),
                trace: None,
                sweep: SweepMode::Active,
                schedule: ScheduleMode::Fixed,
                vertex_epsilon: 0.0,
                refine: RefineMode::None,
                split_components: false,
            })
            .unwrap();
        }
        assert_eq!(
            read_assignments(&out1).unwrap(),
            read_assignments(&out4).unwrap(),
            "active sweep diverged across thread counts"
        );
    }

    #[test]
    fn detect_geometric_schedule_deterministic_across_thread_counts() {
        // CLI-level determinism for the scheduled convergence engine:
        // identical assignments at 1 and 4 worker threads under
        // --schedule geometric --sweep active.
        let graph_path = tmp("sched.grb");
        execute(Command::Generate {
            input: "planted".into(),
            scale: 0.05,
            seed: 11,
            output: graph_path.clone(),
        })
        .unwrap();
        let out1 = tmp("sched_a1.txt");
        let out4 = tmp("sched_a4.txt");
        for (out, threads) in [(&out1, 1usize), (&out4, 4)] {
            execute(Command::Detect {
                path: graph_path.clone(),
                scheme: Scheme::BaselineVfColor,
                threads: Some(threads),
                gamma: 1.0,
                assignments: Some(out.clone()),
                trace: None,
                sweep: SweepMode::Active,
                schedule: ScheduleMode::Geometric,
                vertex_epsilon: 0.0,
                refine: RefineMode::None,
                split_components: false,
            })
            .unwrap();
        }
        assert_eq!(
            read_assignments(&out1).unwrap(),
            read_assignments(&out4).unwrap(),
            "geometric schedule diverged across thread counts"
        );
    }

    #[test]
    fn detect_rejects_invalid_vertex_epsilon() {
        let graph_path = tmp("veps.grb");
        execute(Command::Generate {
            input: "planted".into(),
            scale: 0.02,
            seed: 5,
            output: graph_path.clone(),
        })
        .unwrap();
        let err = execute(Command::Detect {
            path: graph_path,
            scheme: Scheme::Baseline,
            threads: Some(1),
            gamma: 1.0,
            assignments: None,
            trace: None,
            sweep: SweepMode::Full,
            schedule: ScheduleMode::Fixed,
            vertex_epsilon: -1.0,
            refine: RefineMode::None,
            split_components: false,
        })
        .unwrap_err();
        assert!(err.message().contains("vertex_epsilon"), "{err}");
    }

    #[test]
    fn generate_synthetic_families() {
        for family in ["er", "planted", "rmat"] {
            let p = tmp(&format!("fam_{family}.grb"));
            execute(Command::Generate {
                input: family.into(),
                scale: 0.02,
                seed: 1,
                output: p.clone(),
            })
            .unwrap();
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
        execute(Command::Generate {
            input: "blocks".into(),
            scale: 0.08,
            seed: 17,
            output: graph_path.clone(),
        })
        .unwrap();
        for (scheme, tag) in [(Scheme::Baseline, "base"), (Scheme::Serial, "serial")] {
            let plain_out = tmp(&format!("split_plain_{tag}.txt"));
            let split_out = tmp(&format!("split_split_{tag}.txt"));
            for (out, split) in [(&plain_out, false), (&split_out, true)] {
                execute(Command::Detect {
                    path: graph_path.clone(),
                    scheme,
                    threads: Some(2),
                    gamma: 1.0,
                    assignments: Some(out.clone()),
                    trace: None,
                    sweep: SweepMode::Full,
                    schedule: ScheduleMode::Fixed,
                    vertex_epsilon: 0.0,
                    refine: RefineMode::None,
                    split_components: split,
                })
                .unwrap();
            }
            assert_eq!(
                std::fs::read(&plain_out).unwrap(),
                std::fs::read(&split_out).unwrap(),
                "{tag}: split assignment bytes differ from unsplit"
            );
        }
    }

    #[test]
    fn components_command_profiles_blocks() {
        let graph_path = tmp("compprof.grb");
        execute(Command::Generate {
            input: "blocks".into(),
            scale: 0.05,
            seed: 3,
            output: graph_path.clone(),
        })
        .unwrap();
        execute(Command::Components { path: graph_path }).unwrap();
        // And on a connected input.
        let one = tmp("comp_one.grb");
        execute(Command::Generate {
            input: "planted".into(),
            scale: 0.02,
            seed: 3,
            output: one.clone(),
        })
        .unwrap();
        execute(Command::Components { path: one }).unwrap();
    }

    #[test]
    fn blocks_family_is_multi_component() {
        let g = planted_blocks(4_000, 9);
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
        execute(Command::Compare { a: p.clone(), b: p }).unwrap();
    }

    #[test]
    fn convert_between_formats() {
        let edges = tmp("c.edges");
        std::fs::write(&edges, "0 1 2.0\n1 2 1.0\n").unwrap();
        let metis = tmp("c.graph");
        execute(Command::Convert {
            input: edges.clone(),
            output: metis.clone(),
        })
        .unwrap();
        let g = io::load_path(&metis).unwrap();
        assert_eq!(g.num_edges(), 2);
        // Edge list → .grb binary and back: identical structure.
        let grb = tmp("c.grb");
        execute(Command::Convert {
            input: edges,
            output: grb.clone(),
        })
        .unwrap();
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
        let convert = Command::Convert {
            input: grb,
            output: out.clone(),
        };
        for (cmd, needle) in [
            (Command::Stats { path: bin }, "`.grb`"),
            (convert, "`.grb`"),
            (Command::Stats { path: v1 }, "version 1"),
        ] {
            let err = execute(cmd).unwrap_err();
            assert_eq!(err.code(), crate::error::EXIT_INVALID, "{err}");
            assert!(err.message().contains(needle), "{err}");
        }
        // The refused save created neither its file nor a temp sibling.
        assert!(!out.exists() && io::list_tmp_siblings(&dir).is_empty());
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(execute(Command::Stats {
            path: "/no/such/file.grb".into()
        })
        .is_err());
        assert!(execute(Command::Generate {
            input: "bogus".into(),
            scale: 1.0,
            seed: 1,
            output: tmp("x.grb"),
        })
        .is_err());
    }

    #[test]
    fn read_assignments_validates() {
        let p = tmp("holes.txt");
        std::fs::write(&p, "0 1\n2 1\n").unwrap(); // vertex 1 missing
        let err = read_assignments(&p).unwrap_err();
        assert!(
            err.message().contains("vertex 1 has no assignment"),
            "{err}"
        );
        let q = tmp("bad.txt");
        std::fs::write(&q, "x y\n").unwrap();
        assert!(read_assignments(&q).is_err());
    }

    #[test]
    fn read_assignments_rejects_duplicate_vertex_lines() {
        let p = tmp("dups.txt");
        std::fs::write(&p, "0 1\n1 2\n# comment\n1 3\n2 0\n").unwrap();
        let err = read_assignments(&p).unwrap_err();
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
        execute(Command::Generate {
            input: "planted".into(),
            scale: 0.02,
            seed: 7,
            output: graph_path.clone(),
        })
        .unwrap();
        let g = io::load_path(&graph_path).unwrap();
        let n = g.num_vertices();
        // One entry more than the graph has vertices.
        let assign_path = tmp("audlen_a.txt");
        let mut text = String::new();
        for v in 0..=n {
            text.push_str(&format!("{v} 0\n"));
        }
        std::fs::write(&assign_path, text).unwrap();
        let err = execute(Command::Audit {
            graph: graph_path,
            assignments: assign_path,
        })
        .unwrap_err();
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
        let batch = read_edge_batch(&p).unwrap();
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
            let err = read_edge_batch(&p).unwrap_err();
            assert!(err.message().contains(needle), "{name}: {err}");
        }
    }

    #[test]
    fn update_round_trip() {
        // detect → write assignments → apply a small batch with `update`
        // → the rewritten assignment and graph load back cleanly and the
        // audit accepts the pair.
        let graph_path = tmp("upd.grb");
        execute(Command::Generate {
            input: "planted".into(),
            scale: 0.02,
            seed: 21,
            output: graph_path.clone(),
        })
        .unwrap();
        let assign_path = tmp("upd_a.txt");
        execute(Command::Detect {
            path: graph_path.clone(),
            scheme: Scheme::Baseline,
            threads: Some(2),
            gamma: 1.0,
            assignments: Some(assign_path.clone()),
            trace: None,
            sweep: SweepMode::Active,
            schedule: ScheduleMode::Fixed,
            vertex_epsilon: 0.0,
            refine: RefineMode::None,
            split_components: false,
        })
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
        execute(Command::Update {
            graph: graph_path,
            assignments: assign_path,
            batch: batch_path,
            assignments_out: Some(out_assign.clone()),
            graph_out: Some(out_graph.clone()),
            threads: Some(2),
            gamma: 1.0,
            fallback: grappolo_core::config::DYNAMIC_FALLBACK_FRACTION,
        })
        .unwrap();
        let updated = read_assignments(&out_assign).unwrap();
        let g2 = io::load_path(&out_graph).unwrap();
        assert_eq!(updated.len(), g2.num_vertices());
        assert_eq!(g2.edge_weight(u, v), Some(3.0));
        execute(Command::Audit {
            graph: out_graph,
            assignments: out_assign,
        })
        .unwrap();
    }

    #[test]
    fn update_rejects_mismatched_assignment() {
        let graph_path = tmp("updmis.grb");
        execute(Command::Generate {
            input: "planted".into(),
            scale: 0.02,
            seed: 23,
            output: graph_path.clone(),
        })
        .unwrap();
        let assign_path = tmp("updmis_a.txt");
        std::fs::write(&assign_path, "0 0\n1 0\n2 1\n").unwrap();
        let batch_path = tmp("updmis_b.txt");
        std::fs::write(&batch_path, "+ 0 1\n").unwrap();
        let err = execute(Command::Update {
            graph: graph_path,
            assignments: assign_path,
            batch: batch_path,
            assignments_out: None,
            graph_out: None,
            threads: Some(1),
            gamma: 1.0,
            fallback: grappolo_core::config::DYNAMIC_FALLBACK_FRACTION,
        })
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
        execute(Command::Generate {
            input: "planted".into(),
            scale: 0.05,
            seed: 13,
            output: graph_path.clone(),
        })
        .unwrap();
        let out = tmp("refine_a.txt");
        execute(Command::Detect {
            path: graph_path.clone(),
            scheme: Scheme::BaselineVfColor,
            threads: Some(2),
            gamma: 1.0,
            assignments: Some(out.clone()),
            trace: None,
            sweep: SweepMode::Active,
            schedule: ScheduleMode::Geometric,
            vertex_epsilon: 0.0,
            refine: RefineMode::Leiden,
            split_components: false,
        })
        .unwrap();
        execute(Command::Audit {
            graph: graph_path,
            assignments: out,
        })
        .unwrap();
    }

    #[test]
    fn color_command_runs() {
        let graph_path = tmp("col.grb");
        execute(Command::Generate {
            input: "rgg".into(),
            scale: 0.02,
            seed: 2,
            output: graph_path.clone(),
        })
        .unwrap();
        execute(Command::Color {
            path: graph_path.clone(),
            balanced: false,
        })
        .unwrap();
        execute(Command::Color {
            path: graph_path,
            balanced: true,
        })
        .unwrap();
    }
}
