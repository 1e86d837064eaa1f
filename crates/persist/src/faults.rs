//! Test-only IO fault injection for chaos and recovery tests.
//!
//! The chaos harness needs to fail journal appends and snapshot publishes
//! *inside* a live server without touching the filesystem, so the hook lives
//! in the library rather than behind a test-only trait object on the hot
//! path. A single process-global counter arms "fail the next N IO
//! operations"; [`Journal::append`](crate::Journal::append),
//! [`Journal::rotate`](crate::Journal::rotate) and
//! [`SnapshotWriter::publish`](crate::SnapshotWriter::publish) consult it
//! before doing any IO and return a synthetic [`PersistError::Io`] while it
//! is armed.
//!
//! Cost when disarmed is one relaxed atomic load per operation — noise next
//! to the fsync those operations perform. The counter is process-global, so
//! tests using it must not run concurrently with other persistence tests in
//! the same process: each lives in an integration-test binary of its own
//! (`tests/fault_injection.rs` here, the chaos harness and the live crate's
//! `io_faults`), which gives it its own process.

use crate::error::PersistError;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

static INJECTED_IO_FAILURES: AtomicU64 = AtomicU64::new(0);

/// Arms the failpoint: the next `n` guarded IO operations (journal append /
/// rotate, snapshot publish) fail with a synthetic [`PersistError::Io`].
/// Replaces any previously armed count.
pub fn inject_io_errors(n: u64) {
    INJECTED_IO_FAILURES.store(n, Ordering::Relaxed);
}

/// Disarms the failpoint immediately.
pub fn clear_io_errors() {
    INJECTED_IO_FAILURES.store(0, Ordering::Relaxed);
}

/// How many injected failures remain armed.
pub fn armed_io_errors() -> u64 {
    INJECTED_IO_FAILURES.load(Ordering::Relaxed)
}

/// Consumes one armed failure, if any. Called by the guarded operations;
/// returns the error the operation should fail with.
pub fn take_injected_failure() -> Option<PersistError> {
    // Fast path: disarmed (the overwhelmingly common case).
    if INJECTED_IO_FAILURES.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let mut current = INJECTED_IO_FAILURES.load(Ordering::Relaxed);
    while current > 0 {
        match INJECTED_IO_FAILURES.compare_exchange_weak(
            current,
            current - 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                return Some(PersistError::Io(io::Error::other(
                    "injected IO fault (pathcost_persist::faults)",
                )));
            }
            Err(observed) => current = observed,
        }
    }
    None
}
