//! Minimal stand-in for `criterion`: `criterion_group!`/`criterion_main!`,
//! benchmark groups, per-benchmark wall-clock sampling, and a machine-
//! readable summary.
//!
//! Every bench binary writes `BENCH_<binary>.json` into
//! `$CARGO_BENCH_RESULTS_DIR` (default: the working directory, i.e. the
//! workspace root under `cargo bench`) so CI can track a perf trajectory.
//! Set `CARGO_BENCH_RESULTS_DIR=-` to suppress the file.

#![forbid(unsafe_code)]

pub use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// One finished measurement.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    pub group: String,
    pub id: String,
    pub samples: usize,
    pub mean_ns: f64,
    pub median_ns: f64,
    pub min_ns: f64,
    pub throughput_elems: Option<u64>,
}

static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Benchmark identifier: `function_id/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_id: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{}/{parameter}", function_id.into()),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { id: s.to_string() }
    }
}

/// Throughput annotation (recorded in the summary, not rendered).
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// Top-level harness configuration + result sink.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 20 }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            throughput: None,
            _criterion: self,
        }
    }

    pub fn bench_function<F>(&mut self, id: &str, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = self.sample_size;
        run_bench("", id, sample_size, None, f);
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_bench(&self.name, &id.id, self.sample_size, self.throughput, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_bench(&self.name, &id.id, self.sample_size, self.throughput, |b| {
            f(b, input)
        });
        self
    }

    pub fn finish(self) {}
}

/// Passed to the measured closure; `iter` runs and times the payload.
pub struct Bencher {
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut payload: F) {
        // Warm-up (not recorded).
        black_box(payload());
        self.samples.clear();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            black_box(payload());
            self.samples.push(t.elapsed().as_nanos() as f64);
        }
    }
}

fn run_bench<F>(group: &str, id: &str, sample_size: usize, throughput: Option<Throughput>, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut b = Bencher {
        samples: Vec::new(),
        sample_size,
    };
    f(&mut b);
    if b.samples.is_empty() {
        return; // closure never called iter()
    }
    let mut sorted = b.samples.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let record = BenchRecord {
        group: group.to_string(),
        id: id.to_string(),
        samples: sorted.len(),
        mean_ns: sorted.iter().sum::<f64>() / sorted.len() as f64,
        median_ns: sorted[sorted.len() / 2],
        min_ns: sorted[0],
        throughput_elems: match throughput {
            Some(Throughput::Elements(n)) => Some(n),
            _ => None,
        },
    };
    let qualified = if group.is_empty() {
        record.id.clone()
    } else {
        format!("{group}/{}", record.id)
    };
    eprintln!(
        "bench {qualified:<48} median {:>12} mean {:>12}  ({} samples)",
        format_ns(record.median_ns),
        format_ns(record.mean_ns),
        record.samples,
    );
    RESULTS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(record);
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Called by `criterion_main!` after all groups ran: writes the summary
/// JSON (`BENCH_<binary>.json`).
pub fn write_summary() {
    let results = RESULTS.lock().unwrap_or_else(|e| e.into_inner());
    if results.is_empty() {
        return;
    }
    let dir = std::env::var("CARGO_BENCH_RESULTS_DIR").unwrap_or_default();
    if dir == "-" {
        return;
    }
    let stem = bench_binary_stem();
    let path = if dir.is_empty() {
        format!("BENCH_{stem}.json")
    } else {
        format!("{dir}/BENCH_{stem}.json")
    };
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  {{\"group\": {:?}, \"id\": {:?}, \"samples\": {}, \
             \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \"min_ns\": {:.1}, \
             \"throughput_elems\": {}}}",
            r.group,
            r.id,
            r.samples,
            r.mean_ns,
            r.median_ns,
            r.min_ns,
            r.throughput_elems
                .map_or("null".to_string(), |n| n.to_string()),
        ));
    }
    out.push_str("\n]\n");
    match std::fs::write(&path, out) {
        Ok(()) => eprintln!("bench summary → {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

/// `target/release/deps/sweep-0f3a…` → `sweep`.
fn bench_binary_stem() -> String {
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".to_string());
    match exe.rsplit_once('-') {
        Some((stem, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            stem.to_string()
        }
        _ => exe,
    }
}

/// Mirrors criterion's group macro (both accepted syntaxes).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Mirrors criterion's main macro; additionally writes the JSON summary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_samples() {
        let mut c = Criterion::default().sample_size(5);
        let mut group = c.benchmark_group("shim");
        group.throughput(Throughput::Elements(10));
        group.bench_with_input(BenchmarkId::new("noop", 1), &3u32, |b, &x| {
            b.iter(|| x + 1);
        });
        group.finish();
        let results = RESULTS.lock().unwrap();
        let r = results.iter().find(|r| r.group == "shim").unwrap();
        assert_eq!(r.samples, 5);
        assert_eq!(r.throughput_elems, Some(10));
        assert!(r.mean_ns >= 0.0);
    }
}
