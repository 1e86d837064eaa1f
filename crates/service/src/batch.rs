//! Batch execution: one pass over the requests, fanned out over a worker pool.
//!
//! A serving workload hands the engine many queries at once. The batch
//! executor answers every request of a batch through
//! [`QueryEngine::execute_under`] on the engine's persistent worker pool, so
//! each request fills its own cache misses through the engine's one fill
//! path — the coarsest-decomposition (OD) estimate at the interval's
//! canonical departure. An estimate is a pure function of `(path, interval,
//! regime)`, so whichever worker fills a key first, a batch returns bit for
//! bit the responses of executing its requests sequentially, whatever the
//! cache held before: the fan-out changes wall-clock time, not results. (Two
//! requests of one batch that miss on the same key at once may both estimate
//! it; both compute the same bits and the cache keeps one.) The unit of
//! parallelism is the request: a cold `RankPaths` estimates its candidates
//! one after another on one worker, and a cold `Route` search runs on one
//! worker too. A plain thread pool is enough here: the work is CPU-bound
//! with no I/O to overlap, so an async runtime would add nothing.

use crate::deadline::RequestContext;
use crate::engine::QueryEngine;
use crate::error::ServiceError;
use crate::request::{QueryOutcome, QueryRequest};
use std::sync::OnceLock;

impl QueryEngine<'_> {
    /// Executes a batch of queries, fanning them out across
    /// [`QueryEngine::worker_count`] pool workers.
    ///
    /// Results come back in request order, each independently succeeding or
    /// failing; identical to running [`QueryEngine::execute`] per request,
    /// only faster.
    pub fn execute_batch(
        &self,
        requests: &[QueryRequest],
    ) -> Vec<Result<QueryOutcome, ServiceError>> {
        self.execute_batch_under(requests, &[], false)
    }

    /// As [`Self::execute_batch`], under per-request deadline/cancellation
    /// contexts and the admission queue's degraded-mode flag.
    ///
    /// `contexts` is either empty (every request unbounded — the plain
    /// [`Self::execute_batch`] behaviour) or exactly one context per request.
    /// Each request is evaluated as [`Self::execute_under`] evaluates it: an
    /// abandoned one stops at its first poll, and `degraded` caps its route
    /// search budgets.
    ///
    /// Panics are contained: a request whose evaluation panics answers
    /// [`ServiceError::Internal`] while the rest of the batch — and the
    /// dispatcher thread driving it — survive.
    pub fn execute_batch_under(
        &self,
        requests: &[QueryRequest],
        contexts: &[RequestContext],
        degraded: bool,
    ) -> Vec<Result<QueryOutcome, ServiceError>> {
        assert!(
            contexts.is_empty() || contexts.len() == requests.len(),
            "contexts must be empty or match requests 1:1"
        );
        self.recorder.record_batch(requests.len() as u64);
        let unbounded = RequestContext::unbounded();
        let answers: Vec<OnceLock<Result<QueryOutcome, ServiceError>>> =
            requests.iter().map(|_| OnceLock::new()).collect();
        let answer = |i: usize| {
            let ctx = contexts.get(i).unwrap_or(&unbounded);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.execute_under(&requests[i], ctx, degraded)
            }))
            .unwrap_or_else(|_| {
                self.recorder.panicked_queries.inc();
                Err(ServiceError::Internal("query evaluation panicked"))
            });
            // Each index runs exactly once, so the cell is always empty here.
            let _ = answers[i].set(outcome);
        };
        // Inline when the pool or the batch degenerates to one.
        if self.worker_count().min(requests.len()) <= 1 {
            (0..requests.len()).for_each(answer);
        } else {
            self.batch_pool().run(requests.len(), answer);
        }
        answers
            .into_iter()
            .map(|answer| {
                answer
                    .into_inner()
                    .expect("every request index was answered")
            })
            .collect()
    }
}
