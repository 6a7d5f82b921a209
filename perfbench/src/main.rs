//! `perfbench`: the in-process half of the repository benchmark. `run.py`
//! runs the `grappolo` binary for the end-to-end operations and calls this
//! binary for what has to happen inside a process:
//!
//! ```text
//! perfbench detect --graph G --threads T --ref R --out A [--probe SEED]
//!     the detection pipeline, one traced public layer call at a time
//! perfbench chain  --graph G --seed S --count N --fraction F --dir D
//!     a seeded chain of valid update batches
//! perfbench load   --addr HOST:PORT --seed S --chain-dir D --updates N --read-rate R [--save P]
//!     the closed-loop serve client
//! perfbench replay --graph G --chain-dir D --updates N --threads T --saved P [--apply 1]
//!     the same chain through the library, checked against the daemon
//! ```
//!
//! Each command prints one JSON object as its last line.

mod chain;
mod client;
mod layers;

use grappolo_core::{
    update_communities, ColoredAccounting, Community, LouvainConfig, LouvainConfigBuilder,
    RefineMode, ScheduleSpec, Scheme, SweepMode,
};
use grappolo_graph::{io, parse_edge_batch, CsrGraph, MergePolicy};
use grappolo_serve::persist::format_assignment;
use grappolo_serve::Snapshot;
use layers::{csr_bytes, detect_traced, independent_modularity, Ledger};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

type Result<T> = std::result::Result<T, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("detect") => flags(&args[1..]).and_then(|f| cmd_detect(&f)),
        Some("chain") => flags(&args[1..]).and_then(|f| cmd_chain(&f)),
        Some("load") => flags(&args[1..]).and_then(|f| cmd_load(&f)),
        Some("replay") => flags(&args[1..]).and_then(|f| cmd_replay(&f)),
        _ => Err("usage: perfbench detect|chain|load|replay --flag value …".into()),
    };
    match outcome {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Flags(HashMap<String, String>);

fn flags(args: &[String]) -> Result<Flags> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{key}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(Flags(map))
}

impl Flags {
    fn str(&self, key: &str) -> Result<&str> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T> {
        match self.0.get(key) {
            Some(v) => v.parse().map_err(|_| format!("bad --{key} `{v}`")),
            None => default.ok_or_else(|| format!("missing --{key}")),
        }
    }

    fn path(&self, key: &str) -> Result<PathBuf> {
        self.str(key).map(PathBuf::from)
    }
}

/// A flat JSON object of numbers, booleans and strings.
#[derive(Default)]
struct Json(Vec<String>);

impl Json {
    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() { format!("{v}") } else { "null".into() };
        self.0.push(format!("\"{key}\": {v}"));
        self
    }

    fn flag(&mut self, key: &str, v: bool) -> &mut Self {
        self.0.push(format!("\"{key}\": {v}"));
        self
    }

    fn text(&mut self, key: &str, v: &str) -> &mut Self {
        let escaped: String = v
            .chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                c if c.is_control() => vec![' '],
                c => vec![c],
            })
            .collect();
        self.0.push(format!("\"{key}\": \"{escaped}\""));
        self
    }

    fn list(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        let items: Vec<String> = vs.iter().map(|v| format!("{v}")).collect();
        self.0.push(format!("\"{key}\": [{}]", items.join(", ")));
        self
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}}}", self.0.join(", "))
    }
}

/// Nearest-rank percentile of `xs` (`p` in 0..=1); NaN when empty.
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

fn load_graph(path: &Path) -> Result<CsrGraph> {
    io::load_path(path).map_err(|e| format!("loading {}: {e}", path.display()))
}

/// The configuration `grappolo detect <g> --threads T` runs with: the CLI's
/// flag defaults, plus its small-input coloring cutoff.
fn cli_config(n: usize, threads: usize) -> Result<LouvainConfig> {
    let mut config = LouvainConfigBuilder::from_base(Scheme::BaselineVfColor.config())
        .resolution(1.0)
        .accounting(ColoredAccounting::Incremental)
        .sweep(SweepMode::Full)
        .vertex_epsilon(0.0)
        .schedule(ScheduleSpec::Fixed)
        .refine(RefineMode::None)
        .threads(Some(threads))
        .build()?;
    config.coloring_vertex_cutoff = config.coloring_vertex_cutoff.min(n / 8).max(64);
    config.split_components = false;
    Ok(config)
}

/// The configuration `grappolo serve <g> --threads T` detects and updates
/// with.
fn serve_config(threads: usize) -> Result<LouvainConfig> {
    LouvainConfig::builder()
        .sweep(SweepMode::Active)
        .resolution(1.0)
        .threads(Some(threads))
        .build()
}

/// Reads a `vertex community` file written by `grappolo` (dense, in order).
fn read_assignment(path: &Path) -> Result<Vec<Community>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            let mut it = line.split(' ');
            match (it.next().map(str::parse::<usize>), it.next().map(str::parse)) {
                (Some(Ok(v)), Some(Ok(c))) if v == i && it.next().is_none() => Ok(c),
                _ => Err(format!("{}:{}: bad line `{line}`", path.display(), i + 1)),
            }
        })
        .collect()
}

/// Times `Snapshot::members` and `Snapshot::community_of` directly on a
/// snapshot of (`g`, `assignment`).
fn probe_snapshot(json: &mut Json, g: CsrGraph, assignment: Vec<Community>, seed: u64) {
    let n = g.num_vertices();
    let snap = Snapshot {
        graph: g,
        assignment,
        num_communities: 0,
        modularity: 0.0,
        epoch: 0,
    };
    let mut rng = chain::Rng::new(seed);
    let mut members_us = Vec::new();
    let mut total = 0usize;
    for _ in 0..200 {
        let c = snap.community_of(rng.below(n)).unwrap_or(0);
        let t = Instant::now();
        total += std::hint::black_box(snap.members(c)).len();
        members_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let lookups = 1_000_000usize;
    let t = Instant::now();
    for _ in 0..lookups {
        let v = rng.below(n);
        total += std::hint::black_box(snap.community_of(v)).unwrap_or(0) as usize;
    }
    let lookup_ns = t.elapsed().as_secs_f64() * 1e9 / lookups as f64;
    std::hint::black_box(total);
    json.num("snapshot.members_us", median(&members_us))
        .num("snapshot.lookup_ns", lookup_ns);
}

/// Load → traced detection → write; reports the per-layer times and checks
/// the written assignment against the untraced program's.
fn cmd_detect(f: &Flags) -> Result<Json> {
    let graph = f.path("graph")?;
    let out = f.path("out")?;
    let threads: usize = f.num("threads", Some(2))?;
    let mut ledger = Ledger::default();
    let t = Instant::now();
    let g = ledger.time("io.load", || load_graph(&graph))?;
    let det = detect_traced(&g, &cli_config(g.num_vertices(), threads)?, &mut ledger);
    ledger.time("io.write", || {
        io::write_bytes_atomic(&out, format_assignment(&det.assignment).as_bytes())
            .map_err(|e| format!("writing {}: {e}", out.display()))
    })?;
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut json = Json::default();
    let reference = f.path("ref")?;
    let identical = std::fs::read(&reference).ok() == std::fs::read(&out).ok();
    let written = read_assignment(&reference);
    let q_recomputed = match &written {
        Ok(a) => independent_modularity(&g, a, 1.0),
        Err(_) => f64::NAN,
    };
    json.flag("identical", identical)
        .num("q_reported", det.modularity)
        .num("q_recomputed", q_recomputed)
        .num("wall_ms", wall_ms)
        .num("traced_ms", ledger.traced_ms());
    if let Err(e) = written {
        json.text("error", &e);
    }
    for (name, v) in &ledger.ms {
        json.num(&format!("{name}_ms"), *v);
    }
    for (name, v) in &ledger.counts {
        json.num(name, *v);
    }
    let load_bytes = std::fs::metadata(&graph).map(|m| m.len()).unwrap_or(0);
    json.num("io.load_bytes", load_bytes as f64)
        .num("graph.csr_bytes", csr_bytes(&g) as f64);
    if f.0.contains_key("probe") {
        probe_snapshot(&mut json, g, det.assignment, f.num("probe", Some(1))?);
    }
    Ok(json)
}

fn batch_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("batch-{i:04}.txt"))
}

/// Writes a seeded chain of update batches, each `--fraction` of the
/// graph's edges, into `--dir`.
fn cmd_chain(f: &Flags) -> Result<Json> {
    let t = Instant::now();
    let g = load_graph(&f.path("graph")?)?;
    let dir = f.path("dir")?;
    let count: usize = f.num("count", None)?;
    let fraction: f64 = f.num("fraction", None)?;
    let ops = ((fraction * g.num_edges() as f64).round() as usize).max(3);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let batches = chain::generate(&g, f.num("seed", None)?, count, ops);
    for (i, text) in batches.iter().enumerate() {
        let p = batch_path(&dir, i);
        std::fs::write(&p, text).map_err(|e| format!("{}: {e}", p.display()))?;
    }
    let mut json = Json::default();
    json.num("count", batches.len() as f64)
        .num("ms", t.elapsed().as_secs_f64() * 1e3);
    Ok(json)
}

/// Sends one request on a fresh connection and returns the response line.
fn one_request(addr: &str, line: &str) -> Result<String> {
    let mut conn = client::Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut buf = String::new();
    conn.request(line, &mut buf)
        .map_err(|e| format!("{line}: {e}"))?;
    Ok(buf)
}

/// `key=value` pairs of an `ok …` response.
fn kv(line: &str) -> HashMap<String, String> {
    line.split(' ')
        .filter_map(|tok| tok.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn summarize(json: &mut Json, kind: &str, xs: &[f64]) {
    // The first request of each kind is the warm-up.
    let xs = if xs.len() > 1 { &xs[1..] } else { xs };
    json.num(&format!("{kind}_count"), xs.len() as f64)
        .num(&format!("{kind}_p25_ms"), percentile(xs, 0.25))
        .num(&format!("{kind}_p50_ms"), percentile(xs, 0.5))
        .num(&format!("{kind}_p75_ms"), percentile(xs, 0.75))
        .num(&format!("{kind}_p99_ms"), percentile(xs, 0.99));
}

/// The update chain and the paced reads against a live daemon.
fn cmd_load(f: &Flags) -> Result<Json> {
    let addr = f.str("addr")?;
    let stats = kv(&one_request(addr, "stats")?);
    let n: usize = stats
        .get("n")
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .ok_or("stats response has no vertex count")?;
    let dir = f.path("chain-dir")?;
    let batches: Vec<PathBuf> = (0..f.num("updates", None)?)
        .map(|i| batch_path(&dir, i))
        .collect();
    let load = client::run(
        addr,
        n,
        f.num("seed", None)?,
        &batches,
        f.num("read-rate", None)?,
    );
    let mut json = Json::default();
    let mut failed = load.failed;
    let mut attempted = load.attempted;
    let metrics = one_request(addr, "metrics")?;
    for (name, key) in [
        ("serve.requests", "requests"),
        ("serve.shed", "shed"),
        ("serve.deadline_expired", "deadline-expired"),
        ("serve.detect_failures", "detect-failures"),
        ("serve.snapshot_swaps", "snapshot-swaps"),
    ] {
        let v = kv(&metrics).get(key).and_then(|v| v.parse::<f64>().ok());
        json.num(name, v.unwrap_or(f64::NAN));
    }
    if let Some(save) = f.0.get("save") {
        attempted += 1;
        let r = one_request(addr, &format!("snapshot-save {save}"))?;
        if !r.starts_with("ok saved ") {
            failed += 1;
            json.text("save_error", &r);
        }
    }
    json.num("attempted", attempted as f64)
        .num("failed", failed as f64)
        .list("update_samples_ms", &load.update_ms);
    summarize(&mut json, "lookup", &load.lookup_ms);
    summarize(&mut json, "members", &load.members_ms);
    summarize(&mut json, "update", &load.update_ms);
    summarize(&mut json, "late", &load.late_ms);
    if let Some(e) = &load.first_error {
        json.text("first_error", e);
    }
    Ok(json)
}

/// Replays the chain the daemon applied through the library —
/// `parse_edge_batch`, (with `--apply`, a separately timed
/// `apply_edge_batch_diff`), `update_communities` — from the same startup
/// detection, and checks the daemon's saved snapshot against it.
fn cmd_replay(f: &Flags) -> Result<Json> {
    let dir = f.path("chain-dir")?;
    let updates: usize = f.num("updates", None)?;
    let threads: usize = f.num("threads", None)?;
    let time_apply = f.0.contains_key("apply");
    let config = serve_config(threads)?;
    let mut startup = Ledger::default();
    let t = Instant::now();
    let g = startup.time("io.load", || load_graph(&f.path("graph")?))?;
    let det = detect_traced(&g, &config, &mut startup);
    let startup_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let (mut graph, mut assignment, mut q) = (g, det.assignment, det.modularity);
    let (mut parse_ms, mut apply_ms, mut update_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut iterations, mut seeds, mut changed) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..updates {
        let p = batch_path(&dir, i);
        let t = Instant::now();
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        let batch = parse_edge_batch(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        parse_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if time_apply {
            let t = Instant::now();
            graph
                .apply_edge_batch_diff(&batch, MergePolicy::Sum)
                .map_err(|e| format!("{}: {e}", p.display()))?;
            apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let t = Instant::now();
        let out = update_communities(&graph, &assignment, Some(q), &batch, &config)
            .map_err(|e| format!("{}: {e}", p.display()))?;
        update_ms.push(t.elapsed().as_secs_f64() * 1e3);
        iterations.push(out.iterations as f64);
        seeds.push(out.seed_vertices as f64);
        changed.push(out.changed_edges as f64);
        (graph, assignment, q) = (out.graph, out.assignment, out.modularity);
    }

    let mut json = Json::default();
    let saved = f.path("saved")?;
    let saved_graph = load_graph(&saved)?;
    let saved_assign = grappolo_serve::persist::assignment_path(&saved);
    let same_graph = saved_graph.bitwise_eq(&graph);
    let same_assignment = std::fs::read(&saved_assign)
        .map(|bytes| bytes == format_assignment(&assignment).into_bytes())
        .unwrap_or(false);
    let q_saved = read_assignment(&saved_assign)
        .map(|a| independent_modularity(&saved_graph, &a, 1.0))
        .unwrap_or(f64::NAN);
    json.flag("identical", same_graph && same_assignment)
        .num("q_reported", q)
        .num("q_recomputed", q_saved)
        .num("delta.parse_ms", median(&parse_ms))
        .num("delta.apply_ms", median(&apply_ms))
        .num("dynamic.update_ms", median(&update_ms))
        .num("dynamic.iterations", median(&iterations))
        .num("dynamic.seed_vertices", median(&seeds))
        .num("dynamic.changed_edges", median(&changed))
        .list("update_samples_ms", &update_ms)
        .num("startup_wall_ms", startup_wall_ms);
    for (name, v) in &startup.ms {
        json.num(&format!("startup.{name}_ms"), *v);
    }
    for (name, v) in &startup.counts {
        json.num(&format!("startup.{name}"), *v);
    }
    json.num("graph.csr_bytes", csr_bytes(&graph) as f64);
    probe_snapshot(&mut json, graph, assignment, f.num("seed", Some(1))?);
    Ok(json)
}
