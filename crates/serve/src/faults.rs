//! Deterministic fault injection — the failpoint layer behind every
//! robustness test in this crate.
//!
//! A [`FaultPlan`] maps named *points* (`"load"`, `"detect"`, `"persist"`,
//! `"persist-write"`, `"socket"`, `"deadline"`) to armed [`FaultAction`]s
//! with a trigger budget. Instrumented code calls [`FaultPlan::hit`] at the
//! point; an armed `Err` returns an injected error, an armed `Panic`
//! panics, and an unarmed or exhausted point is a no-op. Plans are
//! instance-based (one per server) and `Arc`-shared internally, so
//! concurrent tests never interfere through global state.
//!
//! Plans parse from a compact spec (`GRAPPOLO_FAULTS` or `--faults`):
//!
//! ```text
//! detect=panic:1,persist=err:2,persist-write=trunc:64
//! ```
//!
//! `err`/`panic` take an optional `:N` trigger count (default: unlimited);
//! `trunc:BYTES` arms a byte budget consumed by write paths through
//! [`FaultWriter`].

use rustc_hash::FxHashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// What an armed failpoint does when hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Return an injected error from the instrumented operation.
    Err,
    /// Panic inside the instrumented operation.
    Panic,
    /// For write paths: let the first `N` bytes through, then fail the
    /// write — the mid-write truncation crash.
    Truncate(u64),
}

#[derive(Clone, Copy, Debug)]
struct Armed {
    action: FaultAction,
    /// Remaining triggers; `u32::MAX` means unlimited.
    times: u32,
}

/// The error an `Err`-armed failpoint injects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultError {
    /// The failpoint that fired.
    pub point: String,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at `{}`", self.point)
    }
}

impl std::error::Error for FaultError {}

/// A shared, mutable map of armed failpoints.
///
/// Cloning shares the underlying plan: a test can keep a clone and
/// re-arm points while the server runs.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    points: Arc<Mutex<FxHashMap<String, Armed>>>,
}

impl FaultPlan {
    /// An empty plan (all points unarmed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `point` with `action` for `times` triggers (`u32::MAX` =
    /// unlimited). Re-arming replaces any previous state.
    pub fn arm(&self, point: &str, action: FaultAction, times: u32) {
        let mut map = self.lock();
        if times == 0 {
            map.remove(point);
        } else {
            map.insert(point.to_string(), Armed { action, times });
        }
    }

    /// Whether no point is armed.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Fires `point` if armed with `Err` or `Panic`, consuming one
    /// trigger. `Truncate` arms are left for [`FaultPlan::write_budget`].
    ///
    /// # Panics
    ///
    /// Panics (on purpose) when the point is armed with
    /// [`FaultAction::Panic`].
    pub fn hit(&self, point: &str) -> Result<(), FaultError> {
        match self.take(point, false) {
            None => Ok(()),
            Some(FaultAction::Truncate(_)) => Ok(()),
            Some(FaultAction::Err) => Err(FaultError {
                point: point.to_string(),
            }),
            Some(FaultAction::Panic) => panic!("injected panic at `{point}`"),
        }
    }

    /// Consumes one `Truncate` trigger at `point`, returning the byte
    /// budget for a [`FaultWriter`]. `Err`/`Panic` arms are not consumed.
    pub fn write_budget(&self, point: &str) -> Option<u64> {
        match self.take(point, true) {
            Some(FaultAction::Truncate(bytes)) => Some(bytes),
            _ => None,
        }
    }

    /// Takes one trigger from `point` if its armed action matches the
    /// requested kind (`truncate_only` selects `Truncate` arms).
    fn take(&self, point: &str, truncate_only: bool) -> Option<FaultAction> {
        let mut map = self.lock();
        let armed = map.get_mut(point)?;
        if matches!(armed.action, FaultAction::Truncate(_)) != truncate_only {
            return None;
        }
        let action = armed.action;
        if armed.times != u32::MAX {
            armed.times -= 1;
            if armed.times == 0 {
                map.remove(point);
            }
        }
        Some(action)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FxHashMap<String, Armed>> {
        // A panic-armed point panicking while the lock is held is not
        // possible (hit() panics after release), but recover regardless.
        self.points.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parses a plan spec: comma-separated `point=action` entries where
    /// `action` is `err[:N]`, `panic[:N]`, or `trunc:BYTES`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let plan = Self::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (point, action) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry `{entry}` is not `point=action`"))?;
            let (kind, arg) = match action.split_once(':') {
                Some((k, a)) => (k, Some(a)),
                None => (action, None),
            };
            let parse_times = |arg: Option<&str>| -> Result<u32, String> {
                match arg {
                    None => Ok(u32::MAX),
                    Some(a) => a
                        .parse::<u32>()
                        .map_err(|e| format!("bad trigger count in `{entry}`: {e}")),
                }
            };
            let (act, times) = match kind {
                "err" => (FaultAction::Err, parse_times(arg)?),
                "panic" => (FaultAction::Panic, parse_times(arg)?),
                "trunc" => {
                    let bytes = arg
                        .ok_or_else(|| format!("`{entry}` needs `trunc:BYTES`"))?
                        .parse::<u64>()
                        .map_err(|e| format!("bad byte budget in `{entry}`: {e}"))?;
                    (FaultAction::Truncate(bytes), 1)
                }
                other => return Err(format!("unknown fault action `{other}` in `{entry}`")),
            };
            plan.arm(point.trim(), act, times);
        }
        Ok(plan)
    }

    /// Parses the `GRAPPOLO_FAULTS` environment variable; unset or empty
    /// yields an empty plan.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("GRAPPOLO_FAULTS") {
            Ok(spec) => Self::parse(&spec),
            Err(_) => Ok(Self::new()),
        }
    }
}

/// A [`Write`] adapter that forwards the first `budget` bytes and then
/// fails every write — the injected mid-write truncation used by the
/// persistence crash tests.
pub struct FaultWriter<W> {
    inner: W,
    budget: u64,
}

impl<W: Write> FaultWriter<W> {
    /// Wraps `inner` with a byte budget.
    pub fn new(inner: W, budget: u64) -> Self {
        Self { inner, budget }
    }
}

impl<W: Write> Write for FaultWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.budget == 0 {
            return Err(std::io::Error::other(
                "injected write fault: byte budget exhausted",
            ));
        }
        let allowed = (self.budget.min(buf.len() as u64)) as usize;
        let written = self.inner.write(&buf[..allowed])?;
        self.budget -= written as u64;
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_points_are_noops() {
        let plan = FaultPlan::new();
        assert!(plan.hit("load").is_ok());
        assert!(plan.write_budget("persist-write").is_none());
        assert!(plan.is_empty());
    }

    #[test]
    fn err_trigger_budget_counts_down() {
        let plan = FaultPlan::new();
        plan.arm("persist", FaultAction::Err, 2);
        assert!(plan.hit("persist").is_err());
        assert!(plan.hit("persist").is_err());
        assert!(plan.hit("persist").is_ok(), "budget exhausted");
        assert!(plan.is_empty());
    }

    #[test]
    fn unlimited_never_exhausts() {
        let plan = FaultPlan::new();
        plan.arm("load", FaultAction::Err, u32::MAX);
        for _ in 0..100 {
            assert!(plan.hit("load").is_err());
        }
    }

    #[test]
    #[should_panic(expected = "injected panic at `detect`")]
    fn panic_action_panics() {
        let plan = FaultPlan::new();
        plan.arm("detect", FaultAction::Panic, 1);
        let _ = plan.hit("detect");
    }

    #[test]
    fn truncate_budget_is_separate_from_hit() {
        let plan = FaultPlan::new();
        plan.arm("persist-write", FaultAction::Truncate(64), 1);
        // hit() ignores truncate arms.
        assert!(plan.hit("persist-write").is_ok());
        assert_eq!(plan.write_budget("persist-write"), Some(64));
        assert!(plan.write_budget("persist-write").is_none(), "consumed");
    }

    #[test]
    fn clones_share_state() {
        let plan = FaultPlan::new();
        let other = plan.clone();
        other.arm("socket", FaultAction::Err, 1);
        assert!(plan.hit("socket").is_err());
        assert!(other.hit("socket").is_ok());
    }

    #[test]
    fn parses_spec_grammar() {
        let plan =
            FaultPlan::parse("detect=panic:1, persist=err:2 ,persist-write=trunc:100,load=err")
                .unwrap();
        assert!(plan.hit("persist").is_err());
        assert!(plan.hit("persist").is_err());
        assert!(plan.hit("persist").is_ok());
        assert_eq!(plan.write_budget("persist-write"), Some(100));
        assert!(plan.hit("load").is_err());
        assert!(plan.hit("load").is_err()); // unlimited

        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("p=warp").is_err());
        assert!(FaultPlan::parse("p=err:x").is_err());
        assert!(FaultPlan::parse("p=trunc").is_err());
    }

    #[test]
    fn fault_writer_truncates_at_budget() {
        let mut out = Vec::new();
        let mut w = FaultWriter::new(&mut out, 5);
        assert_eq!(w.write(b"abc").unwrap(), 3);
        assert_eq!(w.write(b"defg").unwrap(), 2, "clamped to budget");
        assert!(w.write(b"h").is_err(), "budget exhausted");
        assert_eq!(out, b"abcde");
    }
}
