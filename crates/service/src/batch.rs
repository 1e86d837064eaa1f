//! Batch execution: deduplicated estimation fan-out over a worker pool.
//!
//! A realistic serving workload hands the engine many queries at once, and
//! those queries overlap: commuters ask about the same popular paths, a
//! ranking query shares candidates with point estimates, and every departure
//! inside one α-interval needs the same decomposition. The batch executor
//! exploits that in two phases:
//!
//! 1. **Warm** — collect the `(path, interval)` estimation jobs of every
//!    request in the batch — including each `Route` request's free-flow
//!    fastest path, the predictable seed candidate of its best-first
//!    search — deduplicate them (the shared-decomposition-work dedup), and
//!    fan the unique jobs out across the persistent worker pool so the
//!    cache is populated once per distinct job with no duplicated estimator
//!    work.
//! 2. **Answer** — execute the requests themselves (fanned out on the same
//!    schedule as the warm phase; `Route` searches do their real work here),
//!    each reading through the now-warm cache.
//!
//! Both phases fill the cache through the one path [`QueryEngine::execute`]
//! uses — the coarsest-decomposition (OD) estimate at the interval's
//! canonical departure — so a batch returns bit for bit the responses of
//! executing its requests sequentially, whatever the cache held before: the
//! fan-out changes wall-clock time, not results. A plain thread pool is
//! enough here: the jobs are CPU-bound with no I/O to overlap, so an async
//! runtime would add nothing.

use crate::cache::key_fingerprint;
use crate::deadline::RequestContext;
use crate::engine::{route_is_valid, QueryCounters, QueryEngine};
use crate::error::ServiceError;
use crate::request::{QueryOutcome, QueryRequest};
use pathcost_core::{IntervalId, RegimeId};
use pathcost_roadnet::Path;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Mutex;

/// One deduplicated warm-phase estimation job.
struct Job<'r> {
    path: Cow<'r, Path>,
    interval: IntervalId,
    /// The traffic regime the requesting query evaluates under; the same
    /// `(path, interval)` under two regimes is two distinct jobs (they fill
    /// two distinct cache entries).
    regime: RegimeId,
}

impl QueryEngine<'_> {
    /// Executes a batch of queries, deduplicating shared estimation work and
    /// fanning out across [`QueryEngine::worker_count`] pool workers.
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
    /// The warm phase polls the contexts and stops early once every request
    /// in the batch has been abandoned; with `degraded` set it is skipped
    /// entirely (each request pays its own estimations, trading batch
    /// throughput for immediate worker availability under pressure).
    ///
    /// The answer phase contains panics: a request whose evaluation panics
    /// answers [`ServiceError::Internal`] while the rest of the batch — and
    /// the dispatcher thread driving it — survive.
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
        // True once every request in the batch has been abandoned — the
        // point where warming the cache serves nobody.
        let abandoned = || !contexts.is_empty() && contexts.iter().all(|c| c.should_stop());
        // Phase 1: collect and deduplicate the estimation jobs — except in
        // degraded mode, which has no warm phase: each request pays its own
        // estimations in the answer phase (under pressure a worker answering
        // one request now beats a worker warming entries a timed-out batch
        // may never read), so collecting jobs, route-seed Dijkstras included,
        // would be work nobody reads.
        let (jobs, deduplicated) = if degraded {
            (Vec::new(), 0)
        } else {
            self.warm_jobs(requests)
        };
        self.recorder
            .record_batch(requests.len() as u64, deduplicated);

        // Warm the cache once per unique job, on the same schedule as the
        // answer phase. Failures are not fatal here: the answer phase
        // re-encounters them per request and reports them with the right
        // request context.
        let warm_counters = QueryCounters::default();
        let warm_started = std::time::Instant::now();
        self.for_each_index(jobs.len(), |i| {
            if abandoned() {
                return;
            }
            let job = &jobs[i];
            let _ = self.estimate_cached(
                &job.path,
                self.canonical_departure(job.interval),
                job.regime,
                &warm_counters,
            );
        });
        // Warm span: the phase is batch-wide, so every traced request in the
        // batch is attributed the same wall time — the time it actually
        // waited for the warm phase, whether or not its own jobs dominated.
        if !degraded {
            let warmed = warm_started.elapsed();
            for context in contexts {
                if let Some(trace) = context.trace() {
                    trace.record(pathcost_obs::Stage::Warm, warmed);
                }
            }
        }

        // Phase 2: answer every request against the warm cache. Each
        // evaluation runs under `catch_unwind` so a panicking query (a bug,
        // or the chaos failpoint) poisons only its own slot — the other
        // requests, the worker pool and the dispatcher thread all survive.
        let slots: Vec<Mutex<Option<Result<QueryOutcome, ServiceError>>>> =
            requests.iter().map(|_| Mutex::new(None)).collect();
        self.for_each_index(requests.len(), |i| {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match contexts
                .get(i)
            {
                Some(ctx) => self.execute_under(&requests[i], ctx, degraded),
                None => self.execute_under(&requests[i], &RequestContext::unbounded(), degraded),
            }))
            .unwrap_or_else(|_| {
                self.recorder.panicked_queries.inc();
                Err(ServiceError::Internal("query evaluation panicked"))
            });
            *slots[i].lock().expect("batch slot poisoned") = Some(outcome);
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("batch slot poisoned")
                    .expect("every request index was answered")
            })
            .collect()
    }

    /// The batch's unique `(path, interval, regime)` estimation jobs and how
    /// many duplicates collapsing them removed. Route seeds (the free-flow
    /// fastest path, the best-first search's predictable first candidate)
    /// come from the engine's free-flow cache: one Dijkstra per OD pair for
    /// as long as the pair stays resident, not one per request.
    fn warm_jobs<'r>(&self, requests: &'r [QueryRequest]) -> (Vec<Job<'r>>, u64) {
        let net = self.free_flow().network();
        let mut unique: HashMap<u64, Vec<Job<'r>>> = HashMap::new();
        let mut total_jobs: u64 = 0;
        let max_route_edges = self.config().router.max_path_edges;
        let mut add = |interval: IntervalId, path: Cow<'r, Path>, regime: RegimeId| {
            total_jobs += 1;
            let fingerprint = key_fingerprint(path.as_ref(), interval, regime);
            let slot = unique.entry(fingerprint).or_default();
            if !slot.iter().any(|job| {
                job.interval == interval
                    && job.regime == regime
                    && job.path.as_ref() == path.as_ref()
            }) {
                slot.push(Job {
                    path,
                    interval,
                    regime,
                });
            }
        };
        for request in requests {
            let regime = request.regime();
            match request {
                QueryRequest::Route {
                    source,
                    destination,
                    departure,
                    budget_s,
                    k,
                    ..
                } => {
                    // Seed only searches that can use it: a request the
                    // answer phase rejects is never searched, and a free-flow
                    // path beyond the router's cardinality limit is a
                    // candidate the search can never materialise.
                    if !route_is_valid(net, *source, *destination, *budget_s, *k) {
                        continue;
                    }
                    let seed = self.free_flow().seed(*source, *destination);
                    if let Some(seed) = seed.filter(|s| s.cardinality() <= max_route_edges) {
                        add(self.interval_of(*departure), Cow::Owned(seed), regime);
                    }
                }
                _ => {
                    for (path, departure) in estimation_jobs(request) {
                        add(self.interval_of(departure), Cow::Borrowed(path), regime);
                    }
                }
            }
        }
        let jobs: Vec<Job<'r>> = unique.into_values().flatten().collect();
        let deduplicated = total_jobs.saturating_sub(jobs.len() as u64);
        (jobs, deduplicated)
    }

    /// Runs `f(0..count)` across the engine's persistent worker pool; inline
    /// when the pool or the work degenerates to one.
    fn for_each_index<F: Fn(usize) + Sync>(&self, count: usize, f: F) {
        if self.worker_count().min(count) <= 1 {
            for i in 0..count {
                f(i);
            }
            return;
        }
        self.batch_pool().run(count, f);
    }
}

/// The `(path, departure)` estimations a request will need.
///
/// Most of `Route`'s candidate paths only materialise during the search
/// itself, which reads through the cache on its own — but its *first*
/// complete candidate is predictable: under best-first ordering the
/// free-flow fastest path (the one minimising the admissible lower bound)
/// reaches the destination first. Contributing that path here warms the
/// search frontier: repeated `Route` requests in a batch share one full-OD
/// estimation of their seed candidate instead of each evaluating it inside
/// their own search.
fn estimation_jobs(request: &QueryRequest) -> Vec<(&Path, pathcost_traj::Timestamp)> {
    match request {
        QueryRequest::EstimateDistribution {
            path, departure, ..
        } => vec![(path, *departure)],
        QueryRequest::ProbWithinBudget {
            path, departure, ..
        } => vec![(path, *departure)],
        QueryRequest::RankPaths {
            candidates,
            departure,
            ..
        } => candidates.iter().map(|p| (p, *departure)).collect(),
        // Route seeds are collected directly in `warm_jobs`.
        QueryRequest::Route { .. } => Vec::new(),
    }
}
