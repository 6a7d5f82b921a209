//! Crash-safe snapshot persistence with retry and backoff.
//!
//! A snapshot saves as two sibling files, each written through
//! [`grappolo_graph::io::write_atomic`] (temp + fsync + rename): the
//! graph at the requested path (`.grb`) and the assignment at
//! `<path>.assign` (`vertex community` lines). A crash or injected
//! fault at any byte leaves the previous files byte-intact and no temp
//! siblings behind. Transient failures retry under an exponential
//! [`BackoffPolicy`]; the `persist` failpoint fails whole attempts and
//! `persist-write` truncates mid-write (exercising the temp-file
//! cleanup path).

use crate::faults::{FaultPlan, FaultWriter};
use crate::snapshot::Snapshot;
use grappolo_graph::io::{self, IoError};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Retry schedule for transient persistence failures: `attempts` tries,
/// sleeping `base * 2^i` between try `i` and `i + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Total attempts (≥ 1).
    pub attempts: u32,
    /// Base delay before the first retry.
    pub base: Duration,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            base: Duration::from_millis(10),
        }
    }
}

impl BackoffPolicy {
    /// The sleep before retry number `retry` (0-based).
    pub fn delay(&self, retry: u32) -> Duration {
        self.base.saturating_mul(1u32 << retry.min(16))
    }
}

/// Runs `op` up to `policy.attempts` times with exponential backoff,
/// returning the first success or the last error.
pub fn with_retry<T>(
    policy: &BackoffPolicy,
    mut op: impl FnMut() -> Result<T, IoError>,
) -> Result<T, IoError> {
    let attempts = policy.attempts.max(1);
    let mut last = None;
    for i in 0..attempts {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => last = Some(e),
        }
        if i + 1 < attempts {
            std::thread::sleep(policy.delay(i));
        }
    }
    Err(last.expect("at least one attempt ran"))
}

/// The assignment sibling of a snapshot path.
pub fn assignment_path(graph_path: &Path) -> PathBuf {
    let mut s = graph_path.as_os_str().to_os_string();
    s.push(".assign");
    PathBuf::from(s)
}

/// Formats `<path>.assign`; re-exported from [`grappolo_graph::io`], which owns the layout.
pub use grappolo_graph::io::format_assignment;

/// Persists `snap` crash-safely at `path` (+ `<path>.assign`), retrying
/// transient failures per `policy`. Consults the `persist` (whole-attempt
/// error) and `persist-write` (mid-write truncation) failpoints on every
/// attempt.
pub fn save_snapshot_atomic(
    snap: &Snapshot,
    path: &Path,
    policy: &BackoffPolicy,
    faults: &FaultPlan,
) -> Result<(), IoError> {
    with_retry(policy, || {
        faults
            .hit("persist")
            .map_err(|e| IoError::Io(std::io::Error::other(e.to_string())))?;
        let budget = faults.write_budget("persist-write");
        io::write_atomic(path, |w| match budget {
            Some(b) => {
                let mut fw = FaultWriter::new(w, b);
                io::write_grb(&snap.graph, &mut fw)
            }
            None => io::write_grb(&snap.graph, w),
        })?;
        io::write_bytes_atomic(
            assignment_path(path),
            format_assignment(&snap.assignment).as_bytes(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultAction;
    use grappolo_graph::from_unweighted_edges;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn snap() -> Snapshot {
        let graph = from_unweighted_edges(4, [(0u32, 1u32), (1, 2), (2, 3)]).unwrap();
        Snapshot {
            graph,
            assignment: vec![0, 0, 1, 1],
            num_communities: 2,
            modularity: 0.25,
            epoch: 3,
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("grappolo_serve_persist")
            .join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn backoff_delays_double() {
        let p = BackoffPolicy {
            attempts: 4,
            base: Duration::from_millis(2),
        };
        assert_eq!(p.delay(0), Duration::from_millis(2));
        assert_eq!(p.delay(1), Duration::from_millis(4));
        assert_eq!(p.delay(2), Duration::from_millis(8));
    }

    #[test]
    fn with_retry_recovers_after_transient_failures() {
        let calls = AtomicU32::new(0);
        let policy = BackoffPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
        };
        let out = with_retry(&policy, || {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(IoError::Io(std::io::Error::other("flaky")))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!(out, 42);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn with_retry_exhausts_and_reports_last_error() {
        let calls = AtomicU32::new(0);
        let policy = BackoffPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
        };
        let err = with_retry::<()>(&policy, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(IoError::Io(std::io::Error::other("always")))
        })
        .unwrap_err();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert!(err.to_string().contains("always"));
    }

    #[test]
    fn save_round_trips_both_files() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("snap.grb");
        let s = snap();
        save_snapshot_atomic(&s, &path, &BackoffPolicy::default(), &FaultPlan::new()).unwrap();
        let g = io::load_path(&path).unwrap();
        assert!(g.bitwise_eq(&s.graph));
        let text = std::fs::read_to_string(assignment_path(&path)).unwrap();
        assert_eq!(text, "0 0\n1 0\n2 1\n3 1\n");
        assert!(io::list_tmp_siblings(&dir).is_empty());
    }

    #[test]
    fn persist_fault_retries_then_succeeds() {
        let dir = tmp_dir("retry");
        let path = dir.join("snap.grb");
        let faults = FaultPlan::new();
        faults.arm("persist", FaultAction::Err, 2);
        let policy = BackoffPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
        };
        save_snapshot_atomic(&snap(), &path, &policy, &faults).unwrap();
        assert!(io::load_path(&path).is_ok());
        assert!(faults.is_empty(), "both injected failures were consumed");
    }

    #[test]
    fn truncation_fault_preserves_previous_files_and_leaks_no_temp() {
        let dir = tmp_dir("trunc");
        let path = dir.join("snap.grb");
        let s = snap();
        // A good save first: these bytes must survive the faulty one.
        save_snapshot_atomic(&s, &path, &BackoffPolicy::default(), &FaultPlan::new()).unwrap();
        let good_graph = std::fs::read(&path).unwrap();
        let good_assign = std::fs::read(assignment_path(&path)).unwrap();

        let faults = FaultPlan::new();
        faults.arm("persist-write", FaultAction::Truncate(16), 1);
        let policy = BackoffPolicy {
            attempts: 1,
            base: Duration::from_millis(1),
        };
        let err = save_snapshot_atomic(&s, &path, &policy, &faults).unwrap_err();
        assert!(err.to_string().contains("injected write fault"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), good_graph);
        assert_eq!(std::fs::read(assignment_path(&path)).unwrap(), good_assign);
        assert!(io::list_tmp_siblings(&dir).is_empty(), "temp file leaked");
    }

    #[test]
    fn truncation_fault_with_retry_budget_recovers() {
        // One truncation arm, two attempts: the first write dies mid-file,
        // the retry consumes no budget and lands cleanly.
        let dir = tmp_dir("trunc_retry");
        let path = dir.join("snap.grb");
        let faults = FaultPlan::new();
        faults.arm("persist-write", FaultAction::Truncate(16), 1);
        let policy = BackoffPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
        };
        save_snapshot_atomic(&snap(), &path, &policy, &faults).unwrap();
        assert!(io::load_path(&path).is_ok());
        assert!(io::list_tmp_siblings(&dir).is_empty());
    }
}
