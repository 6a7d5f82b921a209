//! Cooperative cancellation for long-running detection jobs.
//!
//! A [`CancelToken`] is a cloneable flag a supervisor (e.g. the
//! `grappolo serve` daemon draining on SIGTERM) sets from another thread.
//! The multi-phase driver polls it at phase boundaries, the component
//! splitter between components, and the dynamic update path around its
//! single resume phase — cancellation is cooperative and coarse-grained on
//! purpose: sweeps never observe the flag mid-iteration, so a run that
//! completes uncancelled is bitwise identical to one executed without any
//! token at all.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cloneable cancellation flag shared between a job and its supervisor.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// The job observed its [`CancelToken`] and stopped before completing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job cancelled")
    }
}

impl std::error::Error for Cancelled {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_propagates_across_clones_and_threads() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let c = t.clone();
        std::thread::spawn(move || c.cancel()).join().unwrap();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }
}
