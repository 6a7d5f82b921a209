//! # grappolo-serve
//!
//! A crash-safe resident partition service for grappolo-rs: load a graph
//! once, keep the detected communities hot in memory, answer concurrent
//! queries over a minimal line-oriented TCP protocol, and apply dynamic
//! edge-batch updates without ever blocking readers.
//!
//! Robustness properties (each pinned by a fault-injection test):
//!
//! * **Readers never block** — queries answer from an immutable
//!   [`Snapshot`] behind an atomically swapped `Arc` ([`SnapshotCell`]).
//! * **Failure keeps the last good snapshot** — a failed or panicked
//!   re-detection (`update`) is caught and reported; the published
//!   snapshot is untouched.
//! * **Crash-safe persistence** — `snapshot-save` writes temp + fsync +
//!   atomic rename with retry/backoff ([`persist`]); a fault at any byte
//!   leaves the previous files intact and no temp siblings.
//! * **Backpressure, not collapse** — a bounded request queue
//!   ([`queue`]) sheds overload with an explicit `err busy`.
//! * **Deadlines** — every request answers within the configured
//!   deadline or reports `err deadline-exceeded`.
//! * **Graceful drain** — SIGTERM stops accepting, cancels in-flight
//!   detection cooperatively, drains queued requests, and exits with no
//!   partial files.
//! * **Determinism** — responses are pure functions of the snapshot and
//!   detection is bitwise deterministic, so response bytes are identical
//!   across server thread counts.
//!
//! The [`faults`] failpoint layer (`--faults point=action,…`)
//! injects errors, panics, and mid-write truncations at the load,
//! detect, persist, socket, and deadline paths — deterministically, per
//! server instance.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod faults;
pub mod persist;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod signal;
pub mod snapshot;

pub use faults::{FaultAction, FaultError, FaultPlan, FaultPoint, FaultWriter};
pub use persist::{save_snapshot_atomic, with_retry, BackoffPolicy};
pub use protocol::Request;
pub use queue::{BoundedQueue, Push};
pub use server::{Metrics, ServeConfig, ServeError, Server, ServerHandle};
pub use snapshot::{Snapshot, SnapshotCell};
