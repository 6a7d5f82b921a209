//! CI perf-regression gate.
//!
//! Compares freshly emitted `BENCH_*.json` summaries (written by the
//! criterion shim) against the committed baselines and fails — exit code
//! 1 — if any tracked metric regressed beyond the tolerance:
//!
//! ```text
//! perf_gate <baseline.json>=<fresh.json> [more pairs…] [--tolerance PCT]
//!           [--ratio NUM:DEN>=X | --ratio NUM:DEN<=X]…
//! ```
//!
//! A benchmark regresses when its fresh `median_ns` exceeds the baseline
//! `median_ns` by more than `--tolerance` percent (default 25, per the CI
//! policy). Benchmarks present only in the fresh file are reported as new
//! (not gating); benchmarks missing from the fresh file fail the gate, so a
//! deleted benchmark must come with a refreshed baseline.
//! Each `--ratio` bar divides the fresh medians of two `group/id` keys
//! (joined by `:`, since keys contain `/`) and bounds the quotient by `X`.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Checks one `--ratio NUM:DEN>=X` (or `<=X`) bar against the fresh
/// medians, printing its verdict.
fn check_ratio(spec: &str, fresh: &BTreeMap<String, f64>) -> Result<bool, String> {
    let bad = || format!("bad --ratio `{spec}` (want NUM:DEN>=X or NUM:DEN<=X)");
    let op = if spec.contains(">=") { ">=" } else { "<=" };
    let (keys, bound) = spec.split_once(op).ok_or_else(bad)?;
    let (num, den) = keys.split_once(':').ok_or_else(bad)?;
    let bound: f64 = bound.parse().map_err(|_| bad())?;
    let (Some(n), Some(d)) = (fresh.get(num), fresh.get(den)) else {
        println!("  FAIL ratio {num} / {den}: missing from fresh results");
        return Ok(false);
    };
    let ratio = n / d;
    let ok = (op == ">=" && ratio >= bound) || (op == "<=" && ratio <= bound);
    let verdict = if ok { "  ok" } else { "FAIL" };
    println!("  {verdict} ratio {num} / {den} = {ratio:.2}x ({op} {bound}x)");
    Ok(ok)
}

/// `group/id → median_ns` for one summary file.
fn load_medians(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let records = value
        .as_array()
        .ok_or_else(|| format!("{path}: expected a JSON array of bench records"))?;
    let mut out = BTreeMap::new();
    for rec in records {
        let text_field = |k: &str| rec.get(k).and_then(Value::as_str);
        let (Some(group), Some(id)) = (text_field("group"), text_field("id")) else {
            return Err(format!("{path}: group/id must be strings"));
        };
        let Some(median) = rec.get("median_ns").and_then(Value::as_f64) else {
            return Err(format!("{path}: median_ns must be a number"));
        };
        out.insert(format!("{group}/{id}"), median);
    }
    Ok(out)
}

fn format_ms(ns: f64) -> String {
    format!("{:.3} ms", ns / 1e6)
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut pairs: Vec<(String, String)> = Vec::new();
    let mut ratios: Vec<&str> = Vec::new();
    let mut tolerance_pct = 25.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--tolerance" {
            let v = it.next().ok_or("--tolerance needs a value")?;
            tolerance_pct = v.parse().map_err(|e| format!("bad --tolerance: {e}"))?;
        } else if arg == "--ratio" {
            ratios.push(it.next().ok_or("--ratio needs a value")?);
        } else if let Some((base, fresh)) = arg.split_once('=') {
            pairs.push((base.to_string(), fresh.to_string()));
        } else {
            return Err(format!(
                "unrecognized argument `{arg}` (want baseline=fresh)"
            ));
        }
    }
    if pairs.is_empty() {
        return Err("usage: perf_gate <baseline.json>=<fresh.json> [...] [--tolerance PCT]".into());
    }

    let allowed = 1.0 + tolerance_pct / 100.0;
    let mut ok = true;
    let mut all_fresh = BTreeMap::new();
    for (baseline_path, fresh_path) in &pairs {
        let baseline = load_medians(baseline_path)?;
        let fresh = load_medians(fresh_path)?;
        all_fresh.extend(fresh.iter().map(|(k, &v)| (k.clone(), v)));
        println!("== {baseline_path} vs {fresh_path} (tolerance {tolerance_pct}%)");
        for (bench, &base_ns) in &baseline {
            match fresh.get(bench) {
                None => {
                    ok = false;
                    println!("  FAIL {bench:<40} missing from fresh results");
                }
                Some(&fresh_ns) => {
                    let ratio = fresh_ns / base_ns;
                    let verdict = if ratio > allowed {
                        ok = false;
                        "FAIL"
                    } else {
                        "  ok"
                    };
                    println!(
                        "  {verdict} {bench:<40} baseline {:>12} fresh {:>12} ({:+.1}%)",
                        format_ms(base_ns),
                        format_ms(fresh_ns),
                        (ratio - 1.0) * 100.0,
                    );
                }
            }
        }
        for bench in fresh.keys().filter(|b| !baseline.contains_key(*b)) {
            println!("   new {bench} (not gated; commit a refreshed baseline to track it)");
        }
    }
    for spec in ratios {
        ok &= check_ratio(spec, &all_fresh)?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => {
            println!("perf gate: PASS");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("perf gate: FAIL (regression beyond tolerance or missed ratio bar)");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("perf_gate: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loads `text` through a file named `name` under the system temp dir;
    /// returns the path with the result.
    fn load(name: &str, text: &str) -> (String, Result<BTreeMap<String, f64>, String>) {
        let path = std::env::temp_dir().join(format!("perf_gate_{}_{name}", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let path = path.to_str().unwrap().to_string();
        let result = load_medians(&path);
        std::fs::remove_file(&path).unwrap();
        (path, result)
    }

    #[test]
    fn load_medians_keys_each_record_by_group_and_id() {
        let (_, medians) = load(
            "ok.json",
            r#"[
  {"group": "coloring", "id": "parallel/uniform", "samples": 10, "median_ns": 4159778.0, "throughput_elems": null},
  {"group": "sweep", "id": "flat/100k", "median_ns": 12.5}
]"#,
        );
        let medians = medians.unwrap();
        assert_eq!(medians.len(), 2);
        assert_eq!(medians["coloring/parallel/uniform"], 4159778.0);
        assert_eq!(medians["sweep/flat/100k"], 12.5);
    }

    #[test]
    fn load_medians_rejects_a_document_that_is_not_an_array() {
        let (path, result) = load(
            "object.json",
            r#"{"group": "g", "id": "i", "median_ns": 1}"#,
        );
        let err = result.unwrap_err();
        assert!(err.starts_with(&format!("{path}: ")), "{err}");
        assert!(err.contains("expected a JSON array"), "{err}");
    }

    #[test]
    fn load_medians_rejects_a_median_that_is_a_string() {
        let (path, result) = load(
            "string.json",
            r#"[{"group": "g", "id": "i", "median_ns": "1.5"}]"#,
        );
        let err = result.unwrap_err();
        assert!(err.starts_with(&format!("{path}: ")), "{err}");
        assert!(err.contains("median_ns must be a number"), "{err}");
    }
}
