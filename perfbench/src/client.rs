//! Client of `grappolo serve`. One connection sends a chain of
//! `update <batch>` requests back to back (closed loop). A second one sends
//! reads on a fixed schedule (open loop): every `1 / rate` seconds a
//! `community-of <random v>`, then `members <its community>`. A lookup is
//! timed from when it was due, so a stall also counts against the reads
//! queued behind it. Every response is checked.

use crate::chain::Rng;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and reads its one response line into `buf`.
    pub fn request(&mut self, line: &str, buf: &mut String) -> std::io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        buf.clear();
        if self.reader.read_line(buf)? == 0 {
            return Err(std::io::Error::other("connection closed"));
        }
        let trimmed = buf.trim_end().len();
        buf.truncate(trimmed);
        Ok(())
    }
}

/// Everything one load run observed.
#[derive(Default)]
pub struct LoadResult {
    pub lookup_ms: Vec<f64>,
    pub members_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    /// How late the read schedule ran: send time − due time, per lookup.
    pub late_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub first_error: Option<String>,
}

impl LoadResult {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }

    fn merge(&mut self, other: LoadResult) {
        self.lookup_ms.extend(other.lookup_ms);
        self.members_ms.extend(other.members_ms);
        self.update_ms.extend(other.update_ms);
        self.late_ms.extend(other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Read loop: one read pair every `interval` until `stop` is set.
fn read_loop(
    addr: &str,
    n: usize,
    seed: u64,
    interval: Duration,
    stop: &AtomicBool,
) -> LoadResult {
    let mut out = LoadResult::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("connect: {e}"));
            return out;
        }
    };
    let mut rng = Rng::new(seed);
    let mut buf = String::new();
    let mut due = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        out.late_ms.push(ms_since(due));
        let v = rng.below(n);
        out.attempted += 1;
        if let Err(e) = conn.request(&format!("community-of {v}"), &mut buf) {
            out.fail(format!("community-of {v}: {e}"));
            break;
        }
        out.lookup_ms.push(ms_since(due));
        due += interval;
        let Some(c) = buf.strip_prefix("ok ").and_then(|s| s.parse::<u32>().ok()) else {
            out.fail(format!("community-of {v}: {buf}"));
            continue;
        };
        out.attempted += 1;
        let t = Instant::now();
        if let Err(e) = conn.request(&format!("members {c}"), &mut buf) {
            out.fail(format!("members {c}: {e}"));
            break;
        }
        out.members_ms.push(ms_since(t));
        if !members_contain(&buf, v) {
            // An update may have moved `v` between the two reads; that is
            // consistent only if `v`'s community has changed since.
            let head: String = buf.chars().take(80).collect();
            let moved = conn.request(&format!("community-of {v}"), &mut buf).is_ok()
                && buf.starts_with("ok ")
                && buf != format!("ok {c}");
            if !moved {
                out.fail(format!("members {c} lacks {v}: {head}"));
            }
        }
    }
    out
}

/// `ok <count> <v0> <v1> …`: ascending, exactly `count` ids, `v` among them.
fn members_contain(line: &str, v: usize) -> bool {
    let mut it = match line.strip_prefix("ok ") {
        Some(rest) => rest.split(' '),
        None => return false,
    };
    let Some(count) = it.next().and_then(|s| s.parse::<usize>().ok()) else {
        return false;
    };
    let mut seen = 0usize;
    let mut prev: Option<usize> = None;
    let mut found = false;
    for tok in it {
        let Ok(x) = tok.parse::<usize>() else {
            return false;
        };
        if prev.is_some_and(|p| p >= x) {
            return false;
        }
        prev = Some(x);
        found |= x == v;
        seen += 1;
    }
    seen == count && found
}

/// Runs the update chain, with `read_rate` read pairs per second beside it
/// until the chain is done.
pub fn run(addr: &str, n: usize, seed: u64, batches: &[PathBuf], read_rate: f64) -> LoadResult {
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let addr = addr.to_string();
        let stop = Arc::clone(&stop);
        let interval = Duration::from_secs_f64(1.0 / read_rate);
        std::thread::spawn(move || read_loop(&addr, n, seed, interval, &stop))
    };
    let mut out = LoadResult::default();
    match Conn::connect(addr) {
        Ok(mut conn) => {
            let mut buf = String::new();
            for path in batches {
                out.attempted += 1;
                let t = Instant::now();
                match conn.request(&format!("update {}", path.display()), &mut buf) {
                    Ok(()) if buf.starts_with("ok updated ") => out.update_ms.push(ms_since(t)),
                    Ok(()) => out.fail(format!("update {}: {buf}", path.display())),
                    Err(e) => {
                        out.fail(format!("update {}: {e}", path.display()));
                        break;
                    }
                }
            }
        }
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("connect: {e}"));
        }
    }
    stop.store(true, Ordering::SeqCst);
    let reads = reader.join().unwrap_or_else(|_| {
        let mut r = LoadResult::default();
        r.attempted += 1;
        r.fail("read thread panicked".into());
        r
    });
    out.merge(reads);
    out
}

#[cfg(test)]
mod tests {
    use super::members_contain;

    #[test]
    fn member_lines_are_checked() {
        assert!(members_contain("ok 3 1 4 9", 4));
        assert!(!members_contain("ok 3 1 4 9", 5));
        assert!(!members_contain("ok 4 1 4 9", 4));
        assert!(!members_contain("ok 3 4 1 9", 4));
        assert!(!members_contain("err busy", 4));
    }
}
