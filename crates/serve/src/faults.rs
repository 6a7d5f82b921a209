//! Deterministic fault injection — the failpoint layer behind every
//! robustness test in this crate.
//!
//! A [`FaultPlan`] arms the six instrumented [`FaultPoint`]s (`load`,
//! `detect`, `persist`, `persist-write`, `socket`, `deadline`) with
//! [`FaultAction`]s and a trigger budget. Instrumented code calls
//! [`FaultPlan::hit`] at the point; an armed `Err` returns an injected
//! error, an armed `Panic` panics, and an unarmed or exhausted point is a
//! no-op. Plans are instance-based (one per server) and `Arc`-shared
//! internally, so concurrent tests never interfere through global state.
//!
//! Plans parse from a compact spec (the `serve` subcommand's `--faults`):
//!
//! ```text
//! detect=panic:1,persist=err:2,persist-write=trunc:64
//! ```
//!
//! `err`/`panic` take an optional `:N` trigger count (default: unlimited)
//! and arm every point but `persist-write`; `trunc:BYTES` arms a byte
//! budget consumed by write paths through [`FaultWriter`], and only
//! `persist-write` takes it. Any other point name or pairing is refused,
//! so a typo cannot silently arm nothing.

use std::io::Write;
use std::sync::{Arc, Mutex};

/// An instrumented point a [`FaultPlan`] can arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPoint {
    /// Loading a graph: server startup and each `update`'s batch read.
    Load,
    /// An `update`'s re-detection.
    Detect,
    /// One whole persistence attempt of `snapshot-save`.
    Persist,
    /// The bytes a persistence attempt writes — the `trunc` point.
    PersistWrite,
    /// An accepted connection.
    Socket,
    /// A request's response deadline.
    Deadline,
}

impl FaultPoint {
    /// Every point, in spec order.
    pub const ALL: [FaultPoint; 6] = [
        FaultPoint::Load,
        FaultPoint::Detect,
        FaultPoint::Persist,
        FaultPoint::PersistWrite,
        FaultPoint::Socket,
        FaultPoint::Deadline,
    ];

    /// The point's name in a spec.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::Load => "load",
            FaultPoint::Detect => "detect",
            FaultPoint::Persist => "persist",
            FaultPoint::PersistWrite => "persist-write",
            FaultPoint::Socket => "socket",
            FaultPoint::Deadline => "deadline",
        }
    }

    /// Whether `action` can fire here: `Truncate` at `persist-write`
    /// only, `Err` and `Panic` everywhere else.
    pub fn accepts(self, action: FaultAction) -> bool {
        matches!(action, FaultAction::Truncate(_)) == (self == FaultPoint::PersistWrite)
    }
}

impl std::fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

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
    pub point: FaultPoint,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at `{}`", self.point)
    }
}

impl std::error::Error for FaultError {}

/// A shared, mutable table of armed failpoints, one slot per
/// [`FaultPoint`].
///
/// Cloning shares the underlying plan: a test can keep a clone and
/// re-arm points while the server runs.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    points: Arc<Mutex<[Option<Armed>; FaultPoint::ALL.len()]>>,
}

impl FaultPlan {
    /// An empty plan (all points unarmed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `point` with `action` for `times` triggers (`u32::MAX` =
    /// unlimited; 0 disarms). Re-arming replaces any previous state.
    ///
    /// # Panics
    ///
    /// When `point` does not accept `action` ([`FaultPoint::accepts`]):
    /// such an arm could never fire.
    pub fn arm(&self, point: FaultPoint, action: FaultAction, times: u32) {
        assert!(
            point.accepts(action),
            "`{point}` cannot fire {action:?}: `trunc` arms `persist-write` only"
        );
        self.lock()[point as usize] = (times > 0).then_some(Armed { action, times });
    }

    /// Whether no point is armed.
    pub fn is_empty(&self) -> bool {
        self.lock().iter().all(Option::is_none)
    }

    /// Fires `point` if armed with `Err` or `Panic`, consuming one
    /// trigger. `Truncate` arms are left for [`FaultPlan::write_budget`].
    ///
    /// # Panics
    ///
    /// Panics (on purpose) when the point is armed with
    /// [`FaultAction::Panic`].
    pub fn hit(&self, point: FaultPoint) -> Result<(), FaultError> {
        match self.take(point, false) {
            None | Some(FaultAction::Truncate(_)) => Ok(()),
            Some(FaultAction::Err) => Err(FaultError { point }),
            Some(FaultAction::Panic) => panic!("injected panic at `{point}`"),
        }
    }

    /// Consumes one `Truncate` trigger at `persist-write`, returning the
    /// byte budget for a [`FaultWriter`].
    pub fn write_budget(&self) -> Option<u64> {
        match self.take(FaultPoint::PersistWrite, true) {
            Some(FaultAction::Truncate(bytes)) => Some(bytes),
            _ => None,
        }
    }

    /// Takes one trigger from `point` if its armed action is of the
    /// requested kind (`truncate` selects `Truncate` arms).
    fn take(&self, point: FaultPoint, truncate: bool) -> Option<FaultAction> {
        let mut table = self.lock();
        let slot = &mut table[point as usize];
        let armed = slot.as_mut()?;
        if matches!(armed.action, FaultAction::Truncate(_)) != truncate {
            return None;
        }
        let action = armed.action;
        if armed.times != u32::MAX {
            armed.times -= 1;
            if armed.times == 0 {
                *slot = None;
            }
        }
        Some(action)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, [Option<Armed>; FaultPoint::ALL.len()]> {
        // A panic-armed point panicking while the lock is held is not
        // possible (hit() panics after release), but recover regardless.
        self.points.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parses a plan spec: comma-separated `point=action` entries where
    /// `point` is a [`FaultPoint`] name and `action` is `err[:N]`,
    /// `panic[:N]`, or `trunc:BYTES` (see the module docs for which point
    /// takes which).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let plan = Self::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (name, action) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry `{entry}` is not `point=action`"))?;
            let name = name.trim();
            let point = FaultPoint::ALL
                .into_iter()
                .find(|p| p.name() == name)
                .ok_or_else(|| {
                    format!(
                        "unknown fault point `{name}` in `{entry}`; points: {}",
                        FaultPoint::ALL.map(FaultPoint::name).join(", ")
                    )
                })?;
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
            if !point.accepts(act) {
                return Err(format!(
                    "`{entry}` can never fire: `trunc` arms `persist-write` only, \
                     and `persist-write` takes nothing else"
                ));
            }
            plan.arm(point, act, times);
        }
        Ok(plan)
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
    use super::FaultPoint::*;
    use super::*;

    #[test]
    fn unarmed_points_are_noops() {
        let plan = FaultPlan::new();
        assert!(plan.hit(Load).is_ok());
        assert!(plan.write_budget().is_none());
        assert!(plan.is_empty());
    }

    #[test]
    fn err_trigger_budget_counts_down() {
        let plan = FaultPlan::new();
        plan.arm(Persist, FaultAction::Err, 2);
        assert!(plan.hit(Persist).is_err());
        assert!(plan.hit(Persist).is_err());
        assert!(plan.hit(Persist).is_ok(), "budget exhausted");
        assert!(plan.is_empty());
    }

    #[test]
    fn unlimited_never_exhausts() {
        let plan = FaultPlan::new();
        plan.arm(Load, FaultAction::Err, u32::MAX);
        for _ in 0..100 {
            assert!(plan.hit(Load).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "injected panic at `detect`")]
    fn panic_action_panics() {
        let plan = FaultPlan::new();
        plan.arm(Detect, FaultAction::Panic, 1);
        let _ = plan.hit(Detect);
    }

    #[test]
    fn truncate_budget_is_separate_from_hit() {
        let plan = FaultPlan::new();
        plan.arm(PersistWrite, FaultAction::Truncate(64), 1);
        // hit() ignores truncate arms.
        assert!(plan.hit(PersistWrite).is_ok());
        assert_eq!(plan.write_budget(), Some(64));
        assert!(plan.write_budget().is_none(), "consumed");
    }

    #[test]
    fn clones_share_state() {
        let plan = FaultPlan::new();
        let other = plan.clone();
        other.arm(Socket, FaultAction::Err, 1);
        assert!(plan.hit(Socket).is_err());
        assert!(other.hit(Socket).is_ok());
    }

    #[test]
    fn parses_spec_grammar() {
        let plan =
            FaultPlan::parse("detect=panic:1, persist=err:2 ,persist-write=trunc:100,load=err")
                .unwrap();
        assert!(plan.hit(Persist).is_err());
        assert!(plan.hit(Persist).is_err());
        assert!(plan.hit(Persist).is_ok());
        assert_eq!(plan.write_budget(), Some(100));
        assert!(plan.hit(Load).is_err());
        assert!(plan.hit(Load).is_err()); // unlimited

        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("load=warp").is_err());
        assert!(FaultPlan::parse("load=err:x").is_err());
        assert!(FaultPlan::parse("persist-write=trunc").is_err());
    }

    #[test]
    fn every_point_round_trips_through_its_name() {
        for point in FaultPoint::ALL {
            let (spec, action) = if point == PersistWrite {
                ("trunc:8", FaultAction::Truncate(8))
            } else {
                ("err:1", FaultAction::Err)
            };
            let plan = FaultPlan::parse(&format!("{point}={spec}")).unwrap();
            assert!(!plan.is_empty(), "{point}");
            plan.arm(point, action, 0);
            assert!(plan.is_empty(), "{point}: 0 triggers disarms");
        }
    }

    #[test]
    fn parse_rejects_a_misspelled_point() {
        let err = FaultPlan::parse("detcet=panic,persist=trunc:5").unwrap_err();
        assert!(err.contains("unknown fault point `detcet`"), "{err}");
        assert!(err.contains("persist-write"), "lists the points: {err}");
    }

    #[test]
    fn parse_rejects_trunc_off_persist_write() {
        for point in ["load", "detect", "persist", "socket", "deadline"] {
            let err = FaultPlan::parse(&format!("{point}=trunc:5")).unwrap_err();
            assert!(err.contains("can never fire"), "{point}: {err}");
        }
    }

    #[test]
    fn parse_rejects_err_or_panic_on_persist_write() {
        for action in ["err", "err:2", "panic", "panic:1"] {
            let err = FaultPlan::parse(&format!("persist-write={action}")).unwrap_err();
            assert!(err.contains("can never fire"), "{action}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "`persist` cannot fire")]
    fn arming_a_point_with_an_action_it_never_fires_panics() {
        FaultPlan::new().arm(Persist, FaultAction::Truncate(5), 1);
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
