//! Hand-rolled argument parsing (keeps the dependency set to the
//! offline-sanctioned crates).

use grappolo_core::{RefineMode, ScheduleMode, Scheme, SweepMode};
use std::path::PathBuf;

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
grappolo — parallel Louvain community detection (grappolo-rs)

USAGE:
  grappolo generate <input-id> [--scale F] [--seed N] -o FILE
      input-id: cnr | copapersdblp | channel | europe-osm | soc-livejournal |
                mg1 | rgg | uk-2002 | nlpkkt240 | mg2 | friendster
      synthetic families (CI scenario matrix): er | planted | rmat | blocks
      (`blocks` is a disconnected union of planted-partition blocks plus
      isolated vertices — the component-splitter workload)
  grappolo stats <graph-file>
  grappolo components <graph-file>
      print the weakly-connected-component profile: component count, largest
      component, isolated vertices, top component sizes
  grappolo detect <graph-file> [--scheme serial|baseline|vf|color]
                  [--threads N] [--gamma F] [--assignments FILE] [--trace FILE]
                  [--sweep full|active] [--schedule fixed|geometric]
                  [--vertex-epsilon F] [--refine leiden|none]
                  [--split-components]
      --sweep: iteration schedule — `full` (default; every iteration scans
      all vertices, the paper's trajectory) or `active` (dirty-vertex work
      lists: only vertices whose neighborhood changed are re-examined;
      activity-proportional iterations, deterministic across thread counts)
      --schedule: within-phase convergence schedule — `fixed` (default;
      aggregate net-gain stop at the phase threshold, the paper's scheme) or
      `geometric` (per-vertex gain gate tightening geometrically to a floor,
      scaled to the graph's total weight; phases terminate when the frontier
      empties at the floor — pairs naturally with `--sweep active`)
      --vertex-epsilon: per-vertex convergence epsilon (absolute modularity
      gain; 0 = off). A vertex whose best available gain is below it stays
      put and leaves the work list until a neighbor moves
      --refine: post-sweep refinement — `none` (default; the paper's
      pipeline) or `leiden` (split internally disconnected communities into
      connected sub-communities and re-absorb profitable singletons before
      each rebuild; deterministic, never lowers modularity)
      --split-components: detect each weakly connected component as an
      independent run dispatched across the thread pool (no Louvain move
      ever crosses a component), then stitch labels in component-id order —
      bitwise independent of thread count
  grappolo update <graph-file> <assignments-file> <batch-file>
                  [--assignments-out FILE] [--graph-out FILE]
                  [--threads N] [--gamma F] [--fallback F]
      apply a batch of edge deltas and re-converge the communities locally
      around the changed edges (incremental; untouched regions keep their
      labels bitwise). Batch file, one delta per line (`#` comments):
        + u v [w]   insert edge (default weight 1; duplicates merge by sum)
        - u v       delete edge
        = u v w     reweight edge
      --fallback: fraction of changed edges above which the update reruns
      detection from scratch instead (default 0.25)
  grappolo audit <graph-file> <assignments-file>
      print the connectivity report for an assignment: communities,
      internally disconnected count/fraction, min internal conductance.
      exit code 5 (distinct from could-not-run) when internally
      disconnected communities are found
  grappolo serve <graph-file> [--addr HOST:PORT] [--server-threads N]
                 [--queue-depth N] [--deadline-ms N] [--retry N]
                 [--backoff-ms N] [--threads N] [--gamma F] [--faults SPEC]
      resident partition service: load the graph, detect communities,
      answer line-oriented TCP queries (`ping`, `community-of <v>`,
      `members <c>`, `stats`, `metrics`, `update <batch-file>`,
      `snapshot-save <path>`, `quit`). Prints `listening HOST:PORT` when
      ready (--addr defaults to 127.0.0.1:0 = pick a free port). SIGTERM
      or SIGINT drains gracefully: in-flight work is cancelled
      cooperatively, queued requests finish, no partial files remain.
      --server-threads: request worker threads (default 4)
      --queue-depth: bounded request queue; overload answers `err busy`
      (default 128)
      --deadline-ms: per-request response deadline (default 2000)
      --retry / --backoff-ms: persistence retry attempts and base backoff
      (default 3 / 10)
      --threads / --gamma: detection thread count and resolution
      --faults: failpoint spec, e.g. `detect=panic:1,persist=err:2`
      (overrides the GRAPPOLO_FAULTS environment variable)
  grappolo query --addr HOST:PORT [--script FILE] [command…]
      one-shot client: send a single protocol command (the trailing
      words) or every non-comment line of --script FILE over one
      connection, printing each response line. Exits 0 when every
      response is `ok`, 1 if any is `err`, 3 on connection failure
  grappolo color <graph-file> [--balanced]
  grappolo compare <assignments-a> <assignments-b>
  grappolo convert <in-file> <out-file>
      e.g. `grappolo convert web.edges web.grb` caches a parsed graph in the
      binary .grb format, which later loads in O(read) (no re-parse/re-sort)

Graph files: .edges/.txt (edge list), .graph/.metis (METIS),
             .grb (binary, fastest to load).";

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Generate a paper-suite proxy graph.
    Generate {
        /// Paper-input id.
        input: String,
        /// Size multiplier.
        scale: f64,
        /// Generator seed.
        seed: u64,
        /// Output path.
        output: PathBuf,
    },
    /// Print graph statistics (Table 1 columns).
    Stats {
        /// Graph path.
        path: PathBuf,
    },
    /// Print the weakly-connected-component profile.
    Components {
        /// Graph path.
        path: PathBuf,
    },
    /// Run community detection.
    Detect {
        /// Graph path.
        path: PathBuf,
        /// Heuristic scheme.
        scheme: Scheme,
        /// Thread count (None = default).
        threads: Option<usize>,
        /// Resolution γ.
        gamma: f64,
        /// Where to write `vertex community` lines.
        assignments: Option<PathBuf>,
        /// Where to write the JSON trace.
        trace: Option<PathBuf>,
        /// Sweep iteration schedule (full vs dirty-vertex work lists).
        sweep: SweepMode,
        /// Within-phase threshold schedule (fixed vs geometric gate).
        schedule: ScheduleMode,
        /// Per-vertex convergence epsilon (0 = disabled).
        vertex_epsilon: f64,
        /// Post-sweep refinement mode.
        refine: RefineMode,
        /// Run each connected component as an independent detection.
        split_components: bool,
    },
    /// Apply a batch of edge deltas and re-converge incrementally.
    Update {
        /// Graph path.
        graph: PathBuf,
        /// Previous assignment path (`vertex community` lines).
        assignments: PathBuf,
        /// Edge-delta batch path (`+ u v [w]` / `- u v` / `= u v w` lines).
        batch: PathBuf,
        /// Where to write the updated assignment.
        assignments_out: Option<PathBuf>,
        /// Where to write the updated graph.
        graph_out: Option<PathBuf>,
        /// Thread count (None = default).
        threads: Option<usize>,
        /// Resolution γ.
        gamma: f64,
        /// Changed-edge fraction above which the update falls back to
        /// from-scratch detection.
        fallback: f64,
    },
    /// Audit an assignment's internal connectivity.
    Audit {
        /// Graph path.
        graph: PathBuf,
        /// Assignment path (`vertex community` lines).
        assignments: PathBuf,
    },
    /// Run the resident partition service.
    Serve {
        /// Graph path.
        graph: PathBuf,
        /// Bind address (port 0 picks a free port).
        addr: String,
        /// Request worker threads.
        server_threads: usize,
        /// Bounded request queue capacity.
        queue_depth: usize,
        /// Per-request deadline in milliseconds.
        deadline_ms: u64,
        /// Persistence retry attempts.
        retry: u32,
        /// Base persistence backoff in milliseconds.
        backoff_ms: u64,
        /// Detection thread count (None = default).
        threads: Option<usize>,
        /// Resolution γ.
        gamma: f64,
        /// Failpoint spec (overrides `GRAPPOLO_FAULTS`).
        faults: Option<String>,
    },
    /// Send protocol commands to a running service.
    Query {
        /// Server address.
        addr: String,
        /// File of protocol lines to send (`#` comments skipped).
        script: Option<PathBuf>,
        /// Single inline protocol command.
        command: Option<String>,
    },
    /// Color a graph and report class statistics.
    Color {
        /// Graph path.
        path: PathBuf,
        /// Apply the balancing post-pass.
        balanced: bool,
    },
    /// Compare two assignment files with Table 3 metrics.
    Compare {
        /// Benchmark assignment path.
        a: PathBuf,
        /// Candidate assignment path.
        b: PathBuf,
    },
    /// Convert between graph formats.
    Convert {
        /// Input path.
        input: PathBuf,
        /// Output path.
        output: PathBuf,
    },
    /// Print usage.
    Help,
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter().map(String::as_str);
    let sub = it.next().ok_or("missing subcommand")?;
    let rest: Vec<&str> = it.collect();
    match sub {
        "-h" | "--help" | "help" => Ok(Command::Help),
        "generate" => parse_generate(&rest),
        "stats" => {
            let path = positional(&rest, 0, "graph-file")?;
            Ok(Command::Stats { path: path.into() })
        }
        "components" => {
            let path = positional(&rest, 0, "graph-file")?;
            Ok(Command::Components { path: path.into() })
        }
        "detect" => parse_detect(&rest),
        "update" => parse_update(&rest),
        "serve" => parse_serve(&rest),
        "query" => parse_query(&rest),
        "audit" => {
            let graph = positional(&rest, 0, "graph-file")?;
            let assignments = positional(&rest, 1, "assignments-file")?;
            Ok(Command::Audit {
                graph: graph.into(),
                assignments: assignments.into(),
            })
        }
        "color" => {
            let path = positional(&rest, 0, "graph-file")?;
            let balanced = rest.contains(&"--balanced");
            Ok(Command::Color {
                path: path.into(),
                balanced,
            })
        }
        "compare" => {
            let a = positional(&rest, 0, "assignments-a")?;
            let b = positional(&rest, 1, "assignments-b")?;
            Ok(Command::Compare {
                a: a.into(),
                b: b.into(),
            })
        }
        "convert" => {
            let input = positional(&rest, 0, "in-file")?;
            let output = positional(&rest, 1, "out-file")?;
            Ok(Command::Convert {
                input: input.into(),
                output: output.into(),
            })
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn positional<'a>(rest: &[&'a str], idx: usize, name: &str) -> Result<&'a str, String> {
    rest.iter()
        .filter(|a| !a.starts_with("--"))
        .nth(idx)
        .copied()
        .ok_or_else(|| format!("missing <{name}>"))
}

fn flag_value<'a>(rest: &[&'a str], flag: &str) -> Result<Option<&'a str>, String> {
    for (i, a) in rest.iter().enumerate() {
        if *a == flag {
            return rest
                .get(i + 1)
                .copied()
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value"));
        }
    }
    Ok(None)
}

fn parse_generate(rest: &[&str]) -> Result<Command, String> {
    let input = positional(rest, 0, "input-id")?.to_string();
    let scale: f64 = flag_value(rest, "--scale")?
        .map(|v| v.parse().map_err(|e| format!("bad --scale: {e}")))
        .transpose()?
        .unwrap_or(0.25);
    let seed: u64 = flag_value(rest, "--seed")?
        .map(|v| v.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(1);
    let output = flag_value(rest, "-o")?
        .or(flag_value(rest, "--output")?)
        .ok_or("generate requires -o FILE")?;
    Ok(Command::Generate {
        input,
        scale,
        seed,
        output: output.into(),
    })
}

fn parse_detect(rest: &[&str]) -> Result<Command, String> {
    let path = positional(rest, 0, "graph-file")?;
    let scheme = match flag_value(rest, "--scheme")?.unwrap_or("color") {
        "serial" => Scheme::Serial,
        "baseline" => Scheme::Baseline,
        "vf" => Scheme::BaselineVf,
        "color" => Scheme::BaselineVfColor,
        other => return Err(format!("unknown --scheme `{other}`")),
    };
    let threads = flag_value(rest, "--threads")?
        .map(|v| v.parse().map_err(|e| format!("bad --threads: {e}")))
        .transpose()?;
    let gamma: f64 = flag_value(rest, "--gamma")?
        .map(|v| v.parse().map_err(|e| format!("bad --gamma: {e}")))
        .transpose()?
        .unwrap_or(1.0);
    let assignments = flag_value(rest, "--assignments")?.map(PathBuf::from);
    let trace = flag_value(rest, "--trace")?.map(PathBuf::from);
    let sweep = match flag_value(rest, "--sweep")?.unwrap_or("full") {
        "full" => SweepMode::Full,
        "active" => SweepMode::Active,
        other => return Err(format!("unknown --sweep `{other}`")),
    };
    let schedule = match flag_value(rest, "--schedule")?.unwrap_or("fixed") {
        "fixed" => ScheduleMode::Fixed,
        "geometric" => ScheduleMode::Geometric,
        other => return Err(format!("unknown --schedule `{other}`")),
    };
    let vertex_epsilon: f64 = flag_value(rest, "--vertex-epsilon")?
        .map(|v| v.parse().map_err(|e| format!("bad --vertex-epsilon: {e}")))
        .transpose()?
        .unwrap_or(0.0);
    let refine = match flag_value(rest, "--refine")?.unwrap_or("none") {
        "none" => RefineMode::None,
        "leiden" => RefineMode::Leiden,
        other => return Err(format!("unknown --refine `{other}`")),
    };
    let split_components = rest.contains(&"--split-components");
    Ok(Command::Detect {
        path: path.into(),
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
    })
}

fn parse_update(rest: &[&str]) -> Result<Command, String> {
    let graph = positional(rest, 0, "graph-file")?;
    let assignments = positional(rest, 1, "assignments-file")?;
    let batch = positional(rest, 2, "batch-file")?;
    let assignments_out = flag_value(rest, "--assignments-out")?.map(PathBuf::from);
    let graph_out = flag_value(rest, "--graph-out")?.map(PathBuf::from);
    let threads = flag_value(rest, "--threads")?
        .map(|v| v.parse().map_err(|e| format!("bad --threads: {e}")))
        .transpose()?;
    let gamma: f64 = flag_value(rest, "--gamma")?
        .map(|v| v.parse().map_err(|e| format!("bad --gamma: {e}")))
        .transpose()?
        .unwrap_or(1.0);
    let fallback: f64 = flag_value(rest, "--fallback")?
        .map(|v| v.parse().map_err(|e| format!("bad --fallback: {e}")))
        .transpose()?
        .unwrap_or(grappolo_core::config::DYNAMIC_FALLBACK_FRACTION);
    Ok(Command::Update {
        graph: graph.into(),
        assignments: assignments.into(),
        batch: batch.into(),
        assignments_out,
        graph_out,
        threads,
        gamma,
        fallback,
    })
}

fn parse_serve(rest: &[&str]) -> Result<Command, String> {
    let graph = positional(rest, 0, "graph-file")?;
    let addr = flag_value(rest, "--addr")?
        .unwrap_or("127.0.0.1:0")
        .to_string();
    let server_threads: usize = flag_value(rest, "--server-threads")?
        .map(|v| v.parse().map_err(|e| format!("bad --server-threads: {e}")))
        .transpose()?
        .unwrap_or(4);
    let queue_depth: usize = flag_value(rest, "--queue-depth")?
        .map(|v| v.parse().map_err(|e| format!("bad --queue-depth: {e}")))
        .transpose()?
        .unwrap_or(128);
    let deadline_ms: u64 = flag_value(rest, "--deadline-ms")?
        .map(|v| v.parse().map_err(|e| format!("bad --deadline-ms: {e}")))
        .transpose()?
        .unwrap_or(2000);
    let retry: u32 = flag_value(rest, "--retry")?
        .map(|v| v.parse().map_err(|e| format!("bad --retry: {e}")))
        .transpose()?
        .unwrap_or(3);
    let backoff_ms: u64 = flag_value(rest, "--backoff-ms")?
        .map(|v| v.parse().map_err(|e| format!("bad --backoff-ms: {e}")))
        .transpose()?
        .unwrap_or(10);
    let threads = flag_value(rest, "--threads")?
        .map(|v| v.parse().map_err(|e| format!("bad --threads: {e}")))
        .transpose()?;
    let gamma: f64 = flag_value(rest, "--gamma")?
        .map(|v| v.parse().map_err(|e| format!("bad --gamma: {e}")))
        .transpose()?
        .unwrap_or(1.0);
    let faults = flag_value(rest, "--faults")?.map(String::from);
    Ok(Command::Serve {
        graph: graph.into(),
        addr,
        server_threads,
        queue_depth,
        deadline_ms,
        retry,
        backoff_ms,
        threads,
        gamma,
        faults,
    })
}

fn parse_query(rest: &[&str]) -> Result<Command, String> {
    // The trailing protocol command may contain words that look like
    // positionals, so walk the tokens explicitly: known flags consume a
    // value, everything else joins the command.
    let mut addr = None;
    let mut script = None;
    let mut words: Vec<&str> = Vec::new();
    let mut it = rest.iter();
    while let Some(&tok) = it.next() {
        match tok {
            "--addr" => addr = Some(it.next().ok_or("--addr needs a value")?.to_string()),
            "--script" => script = Some(PathBuf::from(*it.next().ok_or("--script needs a value")?)),
            other if other.starts_with("--") => {
                return Err(format!("unknown query flag `{other}`"))
            }
            word => words.push(word),
        }
    }
    let addr = addr.ok_or("query requires --addr HOST:PORT")?;
    let command = if words.is_empty() {
        None
    } else {
        Some(words.join(" "))
    };
    if command.is_none() && script.is_none() {
        return Err("query needs a protocol command or --script FILE".to_string());
    }
    Ok(Command::Query {
        addr,
        script,
        command,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse(&args("generate cnr --scale 0.5 --seed 7 -o g.grb")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                input: "cnr".into(),
                scale: 0.5,
                seed: 7,
                output: "g.grb".into()
            }
        );
    }

    #[test]
    fn generate_defaults() {
        let cmd = parse(&args("generate mg1 -o x.edges")).unwrap();
        match cmd {
            Command::Generate { scale, seed, .. } => {
                assert_eq!(scale, 0.25);
                assert_eq!(seed, 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn generate_requires_output() {
        assert!(parse(&args("generate cnr")).is_err());
    }

    #[test]
    fn parses_detect_with_options() {
        let cmd = parse(&args(
            "detect g.grb --scheme vf --threads 4 --gamma 2.0 --assignments out.txt",
        ))
        .unwrap();
        match cmd {
            Command::Detect {
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
                ..
            } => {
                assert_eq!(scheme, Scheme::BaselineVf);
                assert_eq!(threads, Some(4));
                assert_eq!(gamma, 2.0);
                assert_eq!(assignments, Some("out.txt".into()));
                assert_eq!(trace, None);
                assert_eq!(sweep, SweepMode::Full);
                assert_eq!(schedule, ScheduleMode::Fixed);
                assert_eq!(vertex_epsilon, 0.0);
                assert_eq!(refine, RefineMode::None);
                assert!(!split_components);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn detect_refine_modes() {
        match parse(&args("detect g.grb --refine leiden")).unwrap() {
            Command::Detect { refine, .. } => assert_eq!(refine, RefineMode::Leiden),
            _ => panic!(),
        }
        match parse(&args("detect g.grb --refine none")).unwrap() {
            Command::Detect { refine, .. } => assert_eq!(refine, RefineMode::None),
            _ => panic!(),
        }
        assert!(parse(&args("detect g.grb --refine louvain")).is_err());
        assert!(parse(&args("detect g.grb --refine")).is_err());
    }

    #[test]
    fn parses_update() {
        let cmd = parse(&args(
            "update g.grb prev.txt batch.txt --assignments-out next.txt --threads 8 \
             --gamma 1.5 --fallback 0.5",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Update {
                graph: "g.grb".into(),
                assignments: "prev.txt".into(),
                batch: "batch.txt".into(),
                assignments_out: Some("next.txt".into()),
                graph_out: None,
                threads: Some(8),
                gamma: 1.5,
                fallback: 0.5,
            }
        );
        // Defaults.
        match parse(&args("update g.grb prev.txt batch.txt")).unwrap() {
            Command::Update {
                gamma,
                fallback,
                threads,
                assignments_out,
                graph_out,
                ..
            } => {
                assert_eq!(gamma, 1.0);
                assert_eq!(fallback, grappolo_core::config::DYNAMIC_FALLBACK_FRACTION);
                assert_eq!(threads, None);
                assert_eq!(assignments_out, None);
                assert_eq!(graph_out, None);
            }
            _ => panic!(),
        }
        // All three positionals are required.
        assert!(parse(&args("update g.grb prev.txt")).is_err());
        assert!(parse(&args("update g.grb prev.txt batch.txt --threads")).is_err());
    }

    #[test]
    fn parses_audit() {
        assert_eq!(
            parse(&args("audit g.grb out.txt")).unwrap(),
            Command::Audit {
                graph: "g.grb".into(),
                assignments: "out.txt".into()
            }
        );
        assert!(parse(&args("audit g.grb")).is_err());
    }

    #[test]
    fn detect_schedule_modes() {
        match parse(&args("detect g.grb --schedule geometric")).unwrap() {
            Command::Detect { schedule, .. } => assert_eq!(schedule, ScheduleMode::Geometric),
            _ => panic!(),
        }
        match parse(&args("detect g.grb --schedule fixed --vertex-epsilon 1e-7")).unwrap() {
            Command::Detect {
                schedule,
                vertex_epsilon,
                ..
            } => {
                assert_eq!(schedule, ScheduleMode::Fixed);
                assert_eq!(vertex_epsilon, 1e-7);
            }
            _ => panic!(),
        }
        assert!(parse(&args("detect g.grb --schedule linear")).is_err());
        assert!(parse(&args("detect g.grb --schedule")).is_err());
        assert!(parse(&args("detect g.grb --vertex-epsilon nope")).is_err());
    }

    #[test]
    fn detect_sweep_modes() {
        match parse(&args("detect g.grb --sweep active")).unwrap() {
            Command::Detect { sweep, .. } => assert_eq!(sweep, SweepMode::Active),
            _ => panic!(),
        }
        match parse(&args("detect g.grb --sweep full")).unwrap() {
            Command::Detect { sweep, .. } => assert_eq!(sweep, SweepMode::Full),
            _ => panic!(),
        }
        assert!(parse(&args("detect g.grb --sweep lazy")).is_err());
        assert!(parse(&args("detect g.grb --sweep")).is_err());
    }

    #[test]
    fn detect_split_components_flag() {
        match parse(&args("detect g.grb --split-components --threads 8")).unwrap() {
            Command::Detect {
                split_components,
                threads,
                ..
            } => {
                assert!(split_components);
                assert_eq!(threads, Some(8));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_components() {
        assert_eq!(
            parse(&args("components g.grb")).unwrap(),
            Command::Components {
                path: "g.grb".into()
            }
        );
        assert!(parse(&args("components")).is_err());
    }

    #[test]
    fn detect_default_scheme_is_color() {
        match parse(&args("detect g.grb")).unwrap() {
            Command::Detect { scheme, .. } => assert_eq!(scheme, Scheme::BaselineVfColor),
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_unknown_scheme_and_subcommand() {
        assert!(parse(&args("detect g.grb --scheme turbo")).is_err());
        assert!(parse(&args("detect g.grb --sweep")).is_err());
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn parses_simple_subcommands() {
        assert_eq!(
            parse(&args("stats g.metis")).unwrap(),
            Command::Stats {
                path: "g.metis".into()
            }
        );
        assert_eq!(
            parse(&args("compare a.txt b.txt")).unwrap(),
            Command::Compare {
                a: "a.txt".into(),
                b: "b.txt".into()
            }
        );
        assert_eq!(
            parse(&args("convert a.edges b.grb")).unwrap(),
            Command::Convert {
                input: "a.edges".into(),
                output: "b.grb".into()
            }
        );
        assert_eq!(
            parse(&args("color g.grb --balanced")).unwrap(),
            Command::Color {
                path: "g.grb".into(),
                balanced: true
            }
        );
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn flag_needs_value() {
        assert!(parse(&args("generate cnr --scale")).is_err());
    }

    #[test]
    fn parses_serve_with_defaults_and_overrides() {
        match parse(&args("serve g.grb")).unwrap() {
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
            } => {
                assert_eq!(graph, PathBuf::from("g.grb"));
                assert_eq!(addr, "127.0.0.1:0");
                assert_eq!(server_threads, 4);
                assert_eq!(queue_depth, 128);
                assert_eq!(deadline_ms, 2000);
                assert_eq!(retry, 3);
                assert_eq!(backoff_ms, 10);
                assert_eq!(threads, None);
                assert_eq!(gamma, 1.0);
                assert_eq!(faults, None);
            }
            _ => panic!(),
        }
        match parse(&args(
            "serve g.grb --addr 127.0.0.1:7101 --server-threads 8 --queue-depth 2 \
             --deadline-ms 500 --retry 5 --backoff-ms 2 --threads 4 --gamma 1.5 \
             --faults detect=panic:1",
        ))
        .unwrap()
        {
            Command::Serve {
                addr,
                server_threads,
                queue_depth,
                deadline_ms,
                retry,
                backoff_ms,
                threads,
                gamma,
                faults,
                ..
            } => {
                assert_eq!(addr, "127.0.0.1:7101");
                assert_eq!(server_threads, 8);
                assert_eq!(queue_depth, 2);
                assert_eq!(deadline_ms, 500);
                assert_eq!(retry, 5);
                assert_eq!(backoff_ms, 2);
                assert_eq!(threads, Some(4));
                assert_eq!(gamma, 1.5);
                assert_eq!(faults.as_deref(), Some("detect=panic:1"));
            }
            _ => panic!(),
        }
        assert!(parse(&args("serve")).is_err());
        assert!(parse(&args("serve g.grb --server-threads x")).is_err());
    }

    #[test]
    fn parses_query_inline_and_script() {
        assert_eq!(
            parse(&args("query --addr 127.0.0.1:7101 community-of 42")).unwrap(),
            Command::Query {
                addr: "127.0.0.1:7101".into(),
                script: None,
                command: Some("community-of 42".into()),
            }
        );
        assert_eq!(
            parse(&args("query --addr h:1 --script qs.txt")).unwrap(),
            Command::Query {
                addr: "h:1".into(),
                script: Some("qs.txt".into()),
                command: None,
            }
        );
        assert!(parse(&args("query community-of 1")).is_err(), "no --addr");
        assert!(parse(&args("query --addr h:1")).is_err(), "nothing to send");
        assert!(parse(&args("query --addr h:1 --frob x")).is_err());
    }
}
