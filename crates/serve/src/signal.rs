//! Minimal SIGTERM/SIGINT latch without a libc dependency.
//!
//! The handler only sets an `AtomicBool` (the one async-signal-safe
//! thing worth doing); the accept loop polls [`term_requested`] and
//! drives the graceful drain from ordinary thread context.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM_FLAG: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

type SigHandler = extern "C" fn(i32);

extern "C" {
    fn signal(signum: i32, handler: SigHandler) -> usize;
}

extern "C" fn on_term(_signum: i32) {
    TERM_FLAG.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM/SIGINT latch. Idempotent.
#[allow(unsafe_code)]
pub fn install_term_handler() {
    // SAFETY: `signal` is the C library's, called with valid signal numbers
    // and an `extern "C"` handler that only stores to an atomic, which is
    // async-signal-safe.
    unsafe {
        signal(SIGTERM, on_term);
        signal(SIGINT, on_term);
    }
}

/// Whether a termination signal has arrived since the last reset.
pub fn term_requested() -> bool {
    TERM_FLAG.load(Ordering::SeqCst)
}

/// Clears the latch between test cases.
#[cfg(test)]
fn reset_term_flag() {
    TERM_FLAG.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_sets_and_resets() {
        reset_term_flag();
        assert!(!term_requested());
        on_term(SIGTERM);
        assert!(term_requested());
        reset_term_flag();
        assert!(!term_requested());
    }
}
