//! Per-request deadline and cancellation token.
//!
//! A [`RequestContext`] travels with a query from admission to evaluation:
//! the HTTP layer builds one from the client's `x-deadline-ms` header (or the
//! server default), the admission queue sheds requests whose deadline expired
//! while queued *before* they reach a worker, and the engine's evaluation
//! loops — the best-first router's expansion loop and the ranking's
//! candidate loop — poll it cooperatively so an abandoned query stops
//! burning CPU.
//!
//! The token is cheap to clone (`Option<Instant>` plus one `Arc`) and cheap
//! to poll (an `Instant` comparison and one relaxed atomic load), so the hot
//! loops can afford to check it every iteration. The full failure model this
//! participates in is documented in `ROBUSTNESS.md` at the repository root.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathcost_obs::ActiveTrace;

/// Deadline + cancellation token carried alongside one request.
///
/// When the front-end is tracing the request, the context additionally
/// carries the shared [`ActiveTrace`] so the admission queue and the
/// evaluation loop can file their stage spans; untraced requests
/// pay a single `Option` check.
#[derive(Debug, Clone)]
pub struct RequestContext {
    deadline: Option<Instant>,
    cancelled: Arc<AtomicBool>,
    trace: Option<Arc<ActiveTrace>>,
}

impl Default for RequestContext {
    fn default() -> Self {
        RequestContext::unbounded()
    }
}

impl RequestContext {
    /// A context with no deadline that nobody will cancel — the behaviour
    /// every pre-existing entry point keeps.
    pub fn unbounded() -> Self {
        RequestContext {
            deadline: None,
            cancelled: Arc::new(AtomicBool::new(false)),
            trace: None,
        }
    }

    /// A context that expires `budget` from now; `None` means unbounded.
    pub fn with_deadline(budget: Option<Duration>) -> Self {
        RequestContext {
            deadline: budget.map(|d| Instant::now() + d),
            cancelled: Arc::new(AtomicBool::new(false)),
            trace: None,
        }
    }

    /// Attaches a trace: stage spans recorded downstream (queue wait,
    /// dispatch, eval) land on it.
    pub fn with_trace(mut self, trace: Arc<ActiveTrace>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The trace travelling with this request, if the front-end attached
    /// one.
    pub fn trace(&self) -> Option<&Arc<ActiveTrace>> {
        self.trace.as_ref()
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Requests cancellation. Evaluation stops at the next cooperative poll;
    /// clones of this context observe the flag immediately.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`Self::cancel`] has been called (deadline not considered).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Whether the deadline has passed (cancellation not considered).
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The cooperative poll: `true` once the request should stop, whether by
    /// explicit cancellation or deadline expiry.
    pub fn should_stop(&self) -> bool {
        self.is_cancelled() || self.expired()
    }

    /// Time left until the deadline; `None` when unbounded, zero once
    /// expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_stops() {
        let ctx = RequestContext::unbounded();
        assert!(!ctx.should_stop());
        assert!(!ctx.expired());
        assert!(!ctx.is_cancelled());
        assert!(ctx.deadline().is_none());
        assert!(ctx.remaining().is_none());
    }

    #[test]
    fn cancel_is_visible_through_clones() {
        let ctx = RequestContext::with_deadline(Some(Duration::from_secs(3600)));
        let other = ctx.clone();
        assert!(!other.should_stop());
        ctx.cancel();
        assert!(other.is_cancelled());
        assert!(other.should_stop());
        assert!(!other.expired(), "an hour-long deadline has not passed");
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let ctx = RequestContext::with_deadline(Some(Duration::ZERO));
        assert!(ctx.expired());
        assert!(ctx.should_stop());
        assert!(!ctx.is_cancelled());
        assert_eq!(ctx.remaining(), Some(Duration::ZERO));
    }
}
