//! Argument parsing: one flag table per subcommand and one grammar for all
//! of them (hand-rolled, to keep the dependency set to the
//! offline-sanctioned crates).
//!
//! A subcommand takes its positionals and its declared flags in any order.
//! A value flag always takes the next token as its value, so a value is
//! never read as a positional. Usage errors name the offending token: an
//! undeclared `--flag` (`--flag=value` included), a value flag followed by
//! another flag or by nothing, a positional past the subcommand's count,
//! and `query` given both `--script` and inline words. Defaults come from
//! [`LouvainConfig::default`] and [`ServeConfig::default`]; values are
//! validated when the command runs (exit 4), not here.

use grappolo_core::{LouvainConfig, RefineMode, ScheduleSpec, Scheme, SweepMode};
use grappolo_serve::ServeConfig;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

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
      --scale: size multiplier (default 1; 40 000 vertices for the
      families): finite and positive, asking for at most u32::MAX vertices
      (2^30 for rmat)
  grappolo stats <graph-file>
  grappolo components <graph-file>
      print the weakly-connected-component profile: component count, largest
      component, isolated vertices, top component sizes
  grappolo detect <graph-file> [--scheme serial|baseline|vf|color]
                  [--threads N] [--gamma F] [--assignments FILE] [--trace FILE]
                  [--sweep full|active] [--schedule fixed|geometric]
                  [--vertex-epsilon F] [--refine leiden|none]
                  [--split-components]
      --scheme: `color` (default) colors a phase only while its graph has
      at least max(64, min(100 000, n/8)) vertices, n the input's vertex
      count; serve's startup detection and update's dense fallback keep
      the paper's 100 000, so they can color other phases of one graph
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
      --gamma: resolution γ, finite and ≥ 0 (default 1; also for update
      and serve)
      --trace: write the run trace as JSON, one record per phase: its
      graph size, colors and start/end Q, per-iteration Q and moves,
      per-iteration gate/frontier/converged counters, refinement counters
      and timings. The durations are its only nondeterministic part
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
      (testing only; without it no failpoint is armed). Points `load`,
      `detect`, `persist`, `socket` and `deadline` take `err[:N]` or
      `panic[:N]`; `persist-write` takes `trunc:BYTES`. Any other spec
      exits 4
  grappolo query --addr HOST:PORT (--script FILE | command…)
      one-shot client: send a single protocol command (the trailing
      words) or every non-comment line of --script FILE (not both) over
      one connection, printing each response line. Exits 0 when every
      response is `ok`, 1 if any is `err`, 3 on connection failure
  grappolo color <graph-file> [--balanced]
  grappolo compare <assignments-a> <assignments-b>
  grappolo convert <in-file> <out-file>
      e.g. `grappolo convert web.edges web.grb` caches a parsed graph in the
      binary .grb format, which later loads in O(read) (no re-parse/re-sort)

Flags and positionals may come in any order. A value flag takes the next
token as its value (`--threads 2`, not `--threads=2`); an unknown flag or
an extra positional is a usage error (exit 2).

Graph files: .edges/.txt (edge list), .graph/.metis (METIS),
             .grb (binary, fastest to load).";

/// A parsed command. Subcommands with options carry their own parsed
/// fields.
#[derive(Clone, Debug)]
pub enum Command {
    /// Generate a paper-suite proxy or a synthetic family.
    Generate(Generate),
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
    Detect(Detect),
    /// Apply a batch of edge deltas and re-converge incrementally.
    Update(Update),
    /// Audit an assignment's internal connectivity.
    Audit {
        /// Graph path.
        graph: PathBuf,
        /// Assignment path (`vertex community` lines).
        assignments: PathBuf,
    },
    /// Run the resident partition service.
    Serve(Serve),
    /// Send protocol commands to a running service.
    Query(Query),
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

/// `generate`'s fields.
#[derive(Clone, Debug, PartialEq)]
pub struct Generate {
    /// Paper-input id or synthetic family.
    pub input: String,
    /// Size multiplier.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Output path.
    pub output: PathBuf,
}

/// `detect`'s fields.
#[derive(Clone, Debug)]
pub struct Detect {
    /// Graph path.
    pub path: PathBuf,
    /// Heuristic scheme (already applied to `config`).
    pub scheme: Scheme,
    /// The scheme's [`LouvainConfig`] with every flag applied.
    pub config: LouvainConfig,
    /// Where to write `vertex community` lines.
    pub assignments: Option<PathBuf>,
    /// Where to write the JSON trace.
    pub trace: Option<PathBuf>,
}

/// `update`'s fields.
#[derive(Clone, Debug)]
pub struct Update {
    /// Graph path.
    pub graph: PathBuf,
    /// Previous assignment path (`vertex community` lines).
    pub assignments: PathBuf,
    /// Edge-delta batch path (`+ u v [w]` / `- u v` / `= u v w` lines).
    pub batch: PathBuf,
    /// Where to write the updated assignment.
    pub assignments_out: Option<PathBuf>,
    /// Where to write the updated graph.
    pub graph_out: Option<PathBuf>,
    /// The default [`LouvainConfig`] with active sweeps and every flag
    /// applied.
    pub config: LouvainConfig,
}

/// `serve`'s fields.
#[derive(Clone, Debug)]
pub struct Serve {
    /// Graph path.
    pub graph: PathBuf,
    /// The default [`ServeConfig`] with every flag applied; its fault plan
    /// is armed when the command runs.
    pub config: ServeConfig,
    /// Failpoint spec; `None` arms nothing.
    pub faults: Option<String>,
}

/// `query`'s fields.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Server address.
    pub addr: String,
    /// What to send.
    pub requests: Requests,
}

/// What `query` sends.
#[derive(Clone, Debug, PartialEq)]
pub enum Requests {
    /// Every non-comment line of this file (`#` comments skipped).
    Script(PathBuf),
    /// One protocol command, given inline.
    Inline(String),
}

/// One declared flag of a subcommand: its name and how it sets the
/// subcommand's fields `T`.
enum Flag<T> {
    /// A flag that takes the next token as its value.
    Value(&'static str, fn(&mut T, &str) -> Result<(), String>),
    /// A flag that takes no value.
    Switch(&'static str, fn(&mut T)),
}

impl<T> Flag<T> {
    fn name(&self) -> &'static str {
        match self {
            Flag::Value(name, _) | Flag::Switch(name, _) => name,
        }
    }
}

/// A flag value parsed as `N` (a number, a path or plain text).
fn value<N: FromStr>(v: &str) -> Result<N, String>
where
    N::Err: Display,
{
    v.parse().map_err(|e: N::Err| e.to_string())
}

/// A flag value that names one of `choices`.
fn choice<C: Copy>(v: &str, choices: &[(&str, C)]) -> Result<C, String> {
    match choices.iter().find(|&&(name, _)| name == v) {
        Some(&(_, c)) => Ok(c),
        None => {
            let names: Vec<&str> = choices.iter().map(|&(name, _)| name).collect();
            Err(format!("expected {}", names.join(" | ")))
        }
    }
}

/// Parses `rest` against one subcommand's grammar: each flag in `flags` is
/// applied to `fields` as it comes, and the positionals must be exactly
/// the `N` named ones, in order.
fn parse_args<'a, T, const N: usize>(
    rest: &[&'a str],
    flags: &[Flag<T>],
    fields: &mut T,
    names: [&str; N],
) -> Result<[&'a str; N], String> {
    let positionals = parse_flags(rest, flags, fields)?;
    if let Some(stray) = positionals.get(N) {
        return Err(format!("unexpected argument `{stray}`"));
    }
    if let Some(name) = names.get(positionals.len()) {
        return Err(format!("missing <{name}>"));
    }
    Ok(positionals.try_into().expect("exactly N positionals"))
}

/// The flag half of [`parse_args`]: applies every flag to `fields` and
/// returns the other tokens in order. A token is a flag when it starts with
/// `--` or is declared (as `-o` is for `generate`).
fn parse_flags<'a, T>(
    rest: &[&'a str],
    flags: &[Flag<T>],
    fields: &mut T,
) -> Result<Vec<&'a str>, String> {
    let declared = |tok: &str| flags.iter().find(|f| f.name() == tok);
    let is_flag = |tok: &str| tok.starts_with("--") || declared(tok).is_some();
    let mut positionals = Vec::new();
    let mut tokens = rest.iter().copied();
    while let Some(tok) = tokens.next() {
        if !is_flag(tok) {
            positionals.push(tok);
            continue;
        }
        match declared(tok) {
            Some(Flag::Switch(_, set)) => set(fields),
            Some(Flag::Value(name, set)) => match tokens.next() {
                Some(v) if !is_flag(v) => {
                    set(fields, v).map_err(|e| format!("bad {name} `{v}`: {e}"))?
                }
                Some(v) => return Err(format!("{name} needs a value, got the flag `{v}`")),
                None => return Err(format!("{name} needs a value")),
            },
            None => {
                return Err(match tok.split_once('=') {
                    Some((name, v)) if declared(name).is_some() => {
                        format!("unknown flag `{tok}` (write `{name} {v}`)")
                    }
                    _ => format!("unknown flag `{tok}`"),
                })
            }
        }
    }
    Ok(positionals)
}

/// `--scheme`'s values.
const SCHEMES: &[(&str, Scheme)] = &[
    ("serial", Scheme::Serial),
    ("baseline", Scheme::Baseline),
    ("vf", Scheme::BaselineVf),
    ("color", Scheme::BaselineVfColor),
];

/// `--sweep`'s values.
const SWEEPS: &[(&str, SweepMode)] = &[("full", SweepMode::Full), ("active", SweepMode::Active)];

/// `--schedule`'s values.
const SCHEDULES: &[(&str, ScheduleSpec)] = &[
    ("fixed", ScheduleSpec::Fixed),
    ("geometric", ScheduleSpec::Geometric),
];

/// `--refine`'s values.
const REFINES: &[(&str, RefineMode)] =
    &[("none", RefineMode::None), ("leiden", RefineMode::Leiden)];

/// `generate`'s flags, over its fields and the required output path.
const GENERATE: &[Flag<(Generate, Option<PathBuf>)>] = &[
    Flag::Value("--scale", |(g, _), v| value(v).map(|x| g.scale = x)),
    Flag::Value("--seed", |(g, _), v| value(v).map(|x| g.seed = x)),
    Flag::Value("-o", |(_, out), v| value(v).map(|x| *out = Some(x))),
    Flag::Value("--output", |(_, out), v| value(v).map(|x| *out = Some(x))),
];

/// `detect`'s flags.
const DETECT: &[Flag<Detect>] = &[
    Flag::Value("--scheme", |d, v| {
        choice(v, SCHEMES).map(|scheme| {
            d.scheme = scheme;
            d.config = scheme.apply(std::mem::take(&mut d.config));
        })
    }),
    Flag::Value("--threads", |d, v| {
        value(v).map(|t| d.config.num_threads = Some(t))
    }),
    Flag::Value("--gamma", |d, v| value(v).map(|x| d.config.resolution = x)),
    Flag::Value("--assignments", |d, v| {
        value(v).map(|x| d.assignments = Some(x))
    }),
    Flag::Value("--trace", |d, v| value(v).map(|x| d.trace = Some(x))),
    Flag::Value("--sweep", |d, v| {
        choice(v, SWEEPS).map(|x| d.config.sweep_mode = x)
    }),
    Flag::Value("--schedule", |d, v| {
        choice(v, SCHEDULES).map(|x| d.config.schedule = x)
    }),
    Flag::Value("--vertex-epsilon", |d, v| {
        value(v).map(|x| d.config.vertex_epsilon = x)
    }),
    Flag::Value("--refine", |d, v| {
        choice(v, REFINES).map(|x| d.config.refine = x)
    }),
    Flag::Switch("--split-components", |d| d.config.split_components = true),
];

/// `update`'s flags.
const UPDATE: &[Flag<Update>] = &[
    Flag::Value("--assignments-out", |u, v| {
        value(v).map(|x| u.assignments_out = Some(x))
    }),
    Flag::Value("--graph-out", |u, v| {
        value(v).map(|x| u.graph_out = Some(x))
    }),
    Flag::Value("--threads", |u, v| {
        value(v).map(|t| u.config.num_threads = Some(t))
    }),
    Flag::Value("--gamma", |u, v| value(v).map(|x| u.config.resolution = x)),
    Flag::Value("--fallback", |u, v| {
        value(v).map(|x| u.config.dynamic_fallback_fraction = x)
    }),
];

/// `serve`'s flags.
const SERVE: &[Flag<Serve>] = &[
    Flag::Value("--addr", |s, v| value(v).map(|x| s.config.addr = x)),
    Flag::Value("--server-threads", |s, v| {
        value(v).map(|x| s.config.server_threads = x)
    }),
    Flag::Value("--queue-depth", |s, v| {
        value(v).map(|x| s.config.queue_depth = x)
    }),
    Flag::Value("--deadline-ms", |s, v| {
        value(v).map(|ms| s.config.deadline = Duration::from_millis(ms))
    }),
    Flag::Value("--retry", |s, v| {
        value(v).map(|x| s.config.backoff.attempts = x)
    }),
    Flag::Value("--backoff-ms", |s, v| {
        value(v).map(|ms| s.config.backoff.base = Duration::from_millis(ms))
    }),
    Flag::Value("--threads", |s, v| {
        value(v).map(|t| s.config.detect.num_threads = Some(t))
    }),
    Flag::Value("--gamma", |s, v| {
        value(v).map(|x| s.config.detect.resolution = x)
    }),
    Flag::Value("--faults", |s, v| value(v).map(|x| s.faults = Some(x))),
];

/// `query`'s flags, over its address and script path.
const QUERY: &[Flag<(Option<String>, Option<PathBuf>)>] = &[
    Flag::Value("--addr", |(addr, _), v| value(v).map(|x| *addr = Some(x))),
    Flag::Value("--script", |(_, script), v| {
        value(v).map(|x| *script = Some(x))
    }),
];

/// `color`'s flag, over its balancing switch.
const COLOR: &[Flag<bool>] = &[Flag::Switch("--balanced", |balanced| *balanced = true)];

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let (sub, rest) = argv.split_first().ok_or("missing subcommand")?;
    let rest: Vec<&str> = rest.iter().map(String::as_str).collect();
    let rest = rest.as_slice();
    match sub.as_str() {
        "-h" | "--help" | "help" => Ok(Command::Help),
        "generate" => {
            let mut fields = (
                Generate {
                    input: String::new(),
                    scale: 0.25,
                    seed: 1,
                    output: PathBuf::new(),
                },
                None,
            );
            let [input] = parse_args(rest, GENERATE, &mut fields, ["input-id"])?;
            let (mut generate, output) = fields;
            generate.input = input.to_string();
            generate.output = output.ok_or("generate requires -o FILE")?;
            Ok(Command::Generate(generate))
        }
        "stats" => {
            let [path] = parse_args(rest, &[], &mut (), ["graph-file"])?;
            Ok(Command::Stats { path: path.into() })
        }
        "components" => {
            let [path] = parse_args(rest, &[], &mut (), ["graph-file"])?;
            Ok(Command::Components { path: path.into() })
        }
        "detect" => {
            let scheme = Scheme::BaselineVfColor;
            let mut detect = Detect {
                path: PathBuf::new(),
                scheme,
                config: scheme.config(),
                assignments: None,
                trace: None,
            };
            let [path] = parse_args(rest, DETECT, &mut detect, ["graph-file"])?;
            detect.path = path.into();
            Ok(Command::Detect(detect))
        }
        "update" => {
            let mut update = Update {
                graph: PathBuf::new(),
                assignments: PathBuf::new(),
                batch: PathBuf::new(),
                assignments_out: None,
                graph_out: None,
                config: LouvainConfig {
                    sweep_mode: SweepMode::Active,
                    ..LouvainConfig::default()
                },
            };
            let names = ["graph-file", "assignments-file", "batch-file"];
            let [graph, assignments, batch] = parse_args(rest, UPDATE, &mut update, names)?;
            update.graph = graph.into();
            update.assignments = assignments.into();
            update.batch = batch.into();
            Ok(Command::Update(update))
        }
        "serve" => {
            let mut serve = Serve {
                graph: PathBuf::new(),
                config: ServeConfig::default(),
                faults: None,
            };
            let [graph] = parse_args(rest, SERVE, &mut serve, ["graph-file"])?;
            serve.graph = graph.into();
            Ok(Command::Serve(serve))
        }
        "query" => {
            // The trailing words are the protocol command, however many.
            let mut fields = (None, None);
            let words = parse_flags(rest, QUERY, &mut fields)?;
            let (addr, script) = fields;
            let addr = addr.ok_or("query requires --addr HOST:PORT")?;
            let requests = match (script, words.is_empty()) {
                (Some(path), true) => Requests::Script(path),
                (None, false) => Requests::Inline(words.join(" ")),
                (Some(_), false) => {
                    return Err(format!(
                        "query takes --script FILE or an inline command, not both: `{}`",
                        words.join(" ")
                    ))
                }
                (None, true) => {
                    return Err("query needs a protocol command or --script FILE".to_string())
                }
            };
            Ok(Command::Query(Query { addr, requests }))
        }
        "audit" => {
            let names = ["graph-file", "assignments-file"];
            let [graph, assignments] = parse_args(rest, &[], &mut (), names)?;
            Ok(Command::Audit {
                graph: graph.into(),
                assignments: assignments.into(),
            })
        }
        "color" => {
            let mut balanced = false;
            let [path] = parse_args(rest, COLOR, &mut balanced, ["graph-file"])?;
            Ok(Command::Color {
                path: path.into(),
                balanced,
            })
        }
        "compare" => {
            let names = ["assignments-a", "assignments-b"];
            let [a, b] = parse_args(rest, &[], &mut (), names)?;
            Ok(Command::Compare {
                a: a.into(),
                b: b.into(),
            })
        }
        "convert" => {
            let [input, output] = parse_args(rest, &[], &mut (), ["in-file", "out-file"])?;
            Ok(Command::Convert {
                input: input.into(),
                output: output.into(),
            })
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// The usage error `line` parses to.
    fn err(line: &str) -> String {
        match parse(&args(line)) {
            Err(e) => e,
            Ok(cmd) => panic!("`{line}` parsed to {cmd:?}"),
        }
    }

    fn generate(line: &str) -> Generate {
        match parse(&args(line)).unwrap() {
            Command::Generate(g) => g,
            other => panic!("{other:?}"),
        }
    }

    fn detect(line: &str) -> Detect {
        match parse(&args(line)).unwrap() {
            Command::Detect(d) => d,
            other => panic!("{other:?}"),
        }
    }

    fn update(line: &str) -> Update {
        match parse(&args(line)).unwrap() {
            Command::Update(u) => u,
            other => panic!("{other:?}"),
        }
    }

    fn serve(line: &str) -> Serve {
        match parse(&args(line)).unwrap() {
            Command::Serve(s) => s,
            other => panic!("{other:?}"),
        }
    }

    fn query(line: &str) -> Query {
        match parse(&args(line)).unwrap() {
            Command::Query(q) => q,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_generate() {
        assert_eq!(
            generate("generate cnr --scale 0.5 --seed 7 -o g.grb"),
            Generate {
                input: "cnr".into(),
                scale: 0.5,
                seed: 7,
                output: "g.grb".into()
            }
        );
        assert_eq!(
            generate("generate cnr --output g.grb").output,
            PathBuf::from("g.grb")
        );
    }

    #[test]
    fn generate_defaults() {
        let g = generate("generate mg1 -o x.edges");
        assert_eq!((g.scale, g.seed), (0.25, 1));
    }

    #[test]
    fn generate_requires_output() {
        assert!(err("generate cnr").contains("-o FILE"));
    }

    #[test]
    fn parses_detect_with_options() {
        let d = detect("detect g.grb --scheme vf --threads 4 --gamma 2.0 --assignments out.txt");
        assert_eq!(d.path, PathBuf::from("g.grb"));
        assert_eq!(d.scheme, Scheme::BaselineVf);
        assert_eq!(d.assignments, Some("out.txt".into()));
        assert_eq!(d.trace, None);
        let c = &d.config;
        assert!(c.parallel && c.use_vf);
        assert_eq!(c.coloring, grappolo_core::ColoringSchedule::Off);
        assert_eq!(c.num_threads, Some(4));
        assert_eq!(c.resolution, 2.0);
        // Everything else keeps the library default.
        let default = LouvainConfig::default();
        assert_eq!(c.sweep_mode, default.sweep_mode);
        assert_eq!(c.schedule, default.schedule);
        assert_eq!(c.vertex_epsilon, default.vertex_epsilon);
        assert_eq!(c.refine, default.refine);
        assert!(!c.split_components);
        // The scheme applies wherever it appears on the line.
        let late = detect("detect g.grb --gamma 2.0 --scheme serial");
        assert!(!late.config.parallel);
        assert_eq!(late.config.resolution, 2.0);
    }

    #[test]
    fn detect_refine_modes() {
        assert_eq!(
            detect("detect g.grb --refine leiden").config.refine,
            RefineMode::Leiden
        );
        assert_eq!(
            detect("detect g.grb --refine none").config.refine,
            RefineMode::None
        );
        assert!(err("detect g.grb --refine louvain").contains("`louvain`"));
        assert!(err("detect g.grb --refine").contains("--refine needs a value"));
    }

    #[test]
    fn parses_update() {
        let u = update(
            "update g.grb prev.txt batch.txt --assignments-out next.txt --threads 8 \
             --gamma 1.5 --fallback 0.5",
        );
        assert_eq!(u.graph, PathBuf::from("g.grb"));
        assert_eq!(u.assignments, PathBuf::from("prev.txt"));
        assert_eq!(u.batch, PathBuf::from("batch.txt"));
        assert_eq!(u.assignments_out, Some("next.txt".into()));
        assert_eq!(u.graph_out, None);
        assert_eq!(u.config.num_threads, Some(8));
        assert_eq!(u.config.resolution, 1.5);
        assert_eq!(u.config.dynamic_fallback_fraction, 0.5);
        // Defaults: the library's, with active sweeps.
        let u = update("update g.grb prev.txt batch.txt");
        let default = LouvainConfig::default();
        assert_eq!(u.config.sweep_mode, SweepMode::Active);
        assert_eq!(u.config.resolution, default.resolution);
        assert_eq!(
            u.config.dynamic_fallback_fraction,
            default.dynamic_fallback_fraction
        );
        assert_eq!(u.config.num_threads, None);
        assert_eq!((u.assignments_out, u.graph_out), (None, None));
        // All three positionals are required.
        assert!(err("update g.grb prev.txt").contains("<batch-file>"));
        assert!(err("update g.grb prev.txt batch.txt --threads").contains("--threads"));
    }

    #[test]
    fn parses_audit() {
        match parse(&args("audit g.grb out.txt")).unwrap() {
            Command::Audit { graph, assignments } => {
                assert_eq!(graph, PathBuf::from("g.grb"));
                assert_eq!(assignments, PathBuf::from("out.txt"));
            }
            other => panic!("{other:?}"),
        }
        assert!(err("audit g.grb").contains("<assignments-file>"));
    }

    #[test]
    fn detect_schedule_modes() {
        assert_eq!(
            detect("detect g.grb --schedule geometric").config.schedule,
            ScheduleSpec::Geometric
        );
        let d = detect("detect g.grb --schedule fixed --vertex-epsilon 1e-7");
        assert_eq!(d.config.schedule, ScheduleSpec::Fixed);
        assert_eq!(d.config.vertex_epsilon, 1e-7);
        assert!(err("detect g.grb --schedule linear").contains("`linear`"));
        assert!(err("detect g.grb --schedule").contains("--schedule"));
        assert!(err("detect g.grb --vertex-epsilon nope").contains("`nope`"));
        // A negative value is a value, left to validation when detect runs.
        assert_eq!(
            detect("detect g.grb --vertex-epsilon -1")
                .config
                .vertex_epsilon,
            -1.0
        );
    }

    #[test]
    fn detect_sweep_modes() {
        assert_eq!(
            detect("detect g.grb --sweep active").config.sweep_mode,
            SweepMode::Active
        );
        assert_eq!(
            detect("detect g.grb --sweep full").config.sweep_mode,
            SweepMode::Full
        );
        assert!(err("detect g.grb --sweep lazy").contains("`lazy`"));
        assert!(err("detect g.grb --sweep").contains("--sweep"));
    }

    #[test]
    fn detect_split_components_flag() {
        let d = detect("detect g.grb --split-components --threads 8");
        assert!(d.config.split_components);
        assert_eq!(d.config.num_threads, Some(8));
    }

    #[test]
    fn parses_components() {
        match parse(&args("components g.grb")).unwrap() {
            Command::Components { path } => assert_eq!(path, PathBuf::from("g.grb")),
            other => panic!("{other:?}"),
        }
        assert!(err("components").contains("<graph-file>"));
    }

    #[test]
    fn detect_default_scheme_is_color() {
        let d = detect("detect g.grb");
        assert_eq!(d.scheme, Scheme::BaselineVfColor);
        let c = Scheme::BaselineVfColor.config();
        assert_eq!(
            (d.config.parallel, d.config.use_vf, d.config.coloring),
            (c.parallel, c.use_vf, c.coloring)
        );
    }

    #[test]
    fn rejects_unknown_scheme_and_subcommand() {
        assert!(err("detect g.grb --scheme turbo").contains("`turbo`"));
        assert!(err("detect g.grb --sweep").contains("--sweep"));
        assert!(err("frobnicate").contains("`frobnicate`"));
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn parses_simple_subcommands() {
        match parse(&args("stats g.metis")).unwrap() {
            Command::Stats { path } => assert_eq!(path, PathBuf::from("g.metis")),
            other => panic!("{other:?}"),
        }
        match parse(&args("compare a.txt b.txt")).unwrap() {
            Command::Compare { a, b } => {
                assert_eq!((a, b), ("a.txt".into(), "b.txt".into()));
            }
            other => panic!("{other:?}"),
        }
        match parse(&args("convert a.edges b.grb")).unwrap() {
            Command::Convert { input, output } => {
                assert_eq!((input, output), ("a.edges".into(), "b.grb".into()));
            }
            other => panic!("{other:?}"),
        }
        match parse(&args("color g.grb --balanced")).unwrap() {
            Command::Color { path, balanced } => {
                assert_eq!(path, PathBuf::from("g.grb"));
                assert!(balanced);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(parse(&args("--help")).unwrap(), Command::Help));
    }

    #[test]
    fn flag_needs_value() {
        assert!(err("generate cnr --scale").contains("--scale needs a value"));
    }

    #[test]
    fn parses_serve_with_defaults_and_overrides() {
        let s = serve("serve g.grb");
        let default = ServeConfig::default();
        assert_eq!(s.graph, PathBuf::from("g.grb"));
        assert_eq!(s.config.addr, default.addr);
        assert_eq!(s.config.server_threads, default.server_threads);
        assert_eq!(s.config.queue_depth, default.queue_depth);
        assert_eq!(s.config.deadline, default.deadline);
        assert_eq!(s.config.backoff, default.backoff);
        assert_eq!(s.config.detect.sweep_mode, default.detect.sweep_mode);
        assert_eq!(s.config.detect.resolution, default.detect.resolution);
        assert_eq!(s.config.detect.num_threads, None);
        assert_eq!(s.faults, None);
        let s = serve(
            "serve g.grb --addr 127.0.0.1:7101 --server-threads 8 --queue-depth 2 \
             --deadline-ms 500 --retry 5 --backoff-ms 2 --threads 4 --gamma 1.5 \
             --faults detect=panic:1",
        );
        assert_eq!(s.config.addr, "127.0.0.1:7101");
        assert_eq!(s.config.server_threads, 8);
        assert_eq!(s.config.queue_depth, 2);
        assert_eq!(s.config.deadline, Duration::from_millis(500));
        assert_eq!(s.config.backoff.attempts, 5);
        assert_eq!(s.config.backoff.base, Duration::from_millis(2));
        assert_eq!(s.config.detect.num_threads, Some(4));
        assert_eq!(s.config.detect.resolution, 1.5);
        assert_eq!(s.faults.as_deref(), Some("detect=panic:1"));
        assert!(err("serve").contains("<graph-file>"));
        assert!(err("serve g.grb --server-threads x").contains("`x`"));
    }

    #[test]
    fn parses_query_inline_and_script() {
        assert_eq!(
            query("query --addr 127.0.0.1:7101 community-of 42"),
            Query {
                addr: "127.0.0.1:7101".into(),
                requests: Requests::Inline("community-of 42".into()),
            }
        );
        assert_eq!(
            query("query --addr h:1 --script qs.txt"),
            Query {
                addr: "h:1".into(),
                requests: Requests::Script("qs.txt".into()),
            }
        );
        assert!(err("query community-of 1").contains("--addr"), "no --addr");
        assert!(
            err("query --addr h:1").contains("--script"),
            "nothing to send"
        );
        assert!(err("query --addr h:1 --frob x").contains("`--frob`"));
    }

    #[test]
    fn flag_value_before_positional_is_not_the_positional() {
        let d = detect("detect --threads 2 g.grb");
        assert_eq!(d.path, PathBuf::from("g.grb"));
        assert_eq!(d.config.num_threads, Some(2));
    }

    #[test]
    fn misspelled_flag_is_a_usage_error() {
        assert!(err("detect g.grb --shceme serial").contains("unknown flag `--shceme`"));
    }

    #[test]
    fn flag_equals_value_is_a_usage_error() {
        let e = err("detect g.grb --scheme=serial");
        assert!(e.contains("unknown flag `--scheme=serial`"), "{e}");
        assert!(e.contains("--scheme serial"), "{e}");
    }

    #[test]
    fn value_flag_followed_by_flag_is_a_usage_error() {
        let e = err("detect g.grb --assignments --threads 2");
        assert!(
            e.contains("--assignments") && e.contains("`--threads`"),
            "{e}"
        );
    }

    #[test]
    fn stray_positional_is_a_usage_error() {
        assert!(err("detect g.grb h.grb").contains("unexpected argument `h.grb`"));
        assert!(err("stats g.grb extra").contains("`extra`"));
        assert!(err("update g.grb a.txt b.txt c.txt").contains("`c.txt`"));
    }

    #[test]
    fn generate_output_flag_before_input_id() {
        let g = generate("generate -o F er");
        assert_eq!((g.input.as_str(), g.output), ("er", PathBuf::from("F")));
    }

    #[test]
    fn update_flags_before_positionals() {
        let u = update("update --threads 2 --gamma 1.5 g.grb prev.txt batch.txt");
        assert_eq!(u.graph, PathBuf::from("g.grb"));
        assert_eq!(u.assignments, PathBuf::from("prev.txt"));
        assert_eq!(u.batch, PathBuf::from("batch.txt"));
        assert_eq!(u.config.num_threads, Some(2));
        assert_eq!(u.config.resolution, 1.5);
    }

    #[test]
    fn query_rejects_script_and_inline_words() {
        let e = err("query --addr h:1 --script qs.txt ping");
        assert!(e.contains("not both") && e.contains("`ping`"), "{e}");
    }

    #[test]
    fn accepts_perfbench_argument_lists() {
        let d = detect("detect g.grb --threads 2 --assignments a.txt");
        assert_eq!(d.path, PathBuf::from("g.grb"));
        assert_eq!(d.config.num_threads, Some(2));
        assert_eq!(d.assignments, Some("a.txt".into()));
        let s = serve("serve g.grb --threads 2 --server-threads 2 --addr 127.0.0.1:0");
        assert_eq!(s.graph, PathBuf::from("g.grb"));
        assert_eq!(s.config.detect.num_threads, Some(2));
        assert_eq!(s.config.server_threads, 2);
        assert_eq!(s.config.addr, "127.0.0.1:0");
        let g = generate("generate rmat --scale 6.5 --seed 3 -o g.grb");
        assert_eq!(
            g,
            Generate {
                input: "rmat".into(),
                scale: 6.5,
                seed: 3,
                output: "g.grb".into()
            }
        );
    }
}
