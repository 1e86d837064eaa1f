//! Batch execution: one pass over the requests, fanned out over the
//! process-wide worker pool.
//!
//! A serving workload hands the engine many queries at once. The batch
//! executor answers every request of a batch through
//! [`QueryEngine::execute_under`] on the process-wide worker pool
//! ([`exec::global`], the one the weight fits run on), so each request fills
//! its own cache misses through the engine's one fill path — the
//! coarsest-decomposition (OD) estimate at the interval's canonical
//! departure. An estimate is a pure function of `(path, interval, regime)`,
//! so whichever thread fills a key first, a batch returns bit for bit the
//! responses of executing its requests sequentially, whatever the cache held
//! before: the fan-out changes wall-clock time, not results. (Two requests
//! of one batch that miss on the same key at once may both estimate it;
//! both compute the same bits and the cache keeps one.) A batch that finds
//! the pool busy — a fit, another lane's batch, or a batch submitted from
//! inside a pool task — runs on its caller instead, with the same answers.
//! The unit of parallelism is the request: a cold `RankPaths` estimates its
//! candidates one after another on one thread, and a cold `Route` search
//! runs on one thread too. A `Route` asked before in the same epoch is not
//! searched at all: the engine's route map answers it with the bits the
//! search gave, which are a pure function of the request and the epoch's
//! graph, so who searched first never shows either (two identical routes
//! of one batch may both search; both compute the same bits and the map
//! keeps one). A plain thread pool is enough here: the work is CPU-bound
//! with no I/O to overlap, so an async runtime would add nothing.

use crate::deadline::RequestContext;
use crate::engine::QueryEngine;
use crate::error::ServiceError;
use crate::request::{QueryOutcome, QueryRequest};
use pathcost_core::exec;
use std::sync::OnceLock;

impl QueryEngine<'_> {
    /// Executes a batch of queries, fanning them out over the process-wide
    /// pool ([`exec::global`]).
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
    /// dispatch lane driving it — survive.
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
        exec::global().run(requests.len(), answer);
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
