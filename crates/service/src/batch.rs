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
//! 2. **Answer** — execute the requests themselves (again fanned out across
//!    the pool; `Route` searches do their real work here), each reading
//!    through the now-warm cache.
//!
//! Because both phases go through [`QueryEngine::execute`]'s cache-backed
//! estimation, a batch returns exactly the same responses as executing its
//! requests sequentially — the fan-out changes wall-clock time, not results.
//! Plain `std::thread::scope` workers are enough here: the jobs are CPU-bound
//! with no I/O to overlap, so an async runtime would add nothing.
//!
//! When [`ServiceConfig::share_prefixes`](crate::ServiceConfig) is enabled,
//! the warm phase additionally exploits *cross-path* overlap: the unique jobs
//! of each α-interval are sorted so shared path prefixes become adjacent and
//! walked like a trie, keeping one
//! [`IncrementalEstimate`] per live
//! prefix. Overlapping `RankPaths`/point-query candidates then pay for each
//! shared sub-path once per batch instead of once per path, at the
//! accuracy trade-off documented on the config flag (incremental
//! edge-convolution estimates instead of coarsest-decomposition ones).

use crate::cache::{key_fingerprint, CachedDistribution};
use crate::deadline::RequestContext;
use crate::engine::{budget_is_valid, QueryCounters, QueryEngine};
use crate::error::ServiceError;
use crate::request::{QueryOutcome, QueryRequest};
use pathcost_core::{CoreError, IncrementalEstimate, IntervalId, RegimeId};
use pathcost_hist::ConvolveScratch;
use pathcost_roadnet::search::fastest_path;
use pathcost_roadnet::{EdgeId, Path, VertexId};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// One deduplicated warm-phase estimation job.
struct Job<'r> {
    path: Cow<'r, Path>,
    interval: IntervalId,
    /// The traffic regime the requesting query evaluates under; the same
    /// `(path, interval)` under two regimes is two distinct jobs (they fill
    /// two distinct cache entries).
    regime: RegimeId,
    /// `true` when some consumer of this entry needs full-OD quality (a
    /// `Route` seed: the search's incumbent comparisons assume candidates
    /// are estimator-evaluated), excluding it from the prefix-sharing warm
    /// phase's incremental-quality estimates.
    full_od: bool,
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
        // Phase 1: collect and deduplicate the estimation jobs. Route seeds
        // (the free-flow fastest path, the best-first search's predictable
        // first candidate) are memoised per OD pair so a batch of repeated
        // routes runs one Dijkstra per distinct pair, not one per request.
        let net = self.graph().network();
        let mut unique: HashMap<u64, Vec<Job<'_>>> = HashMap::new();
        let mut total_jobs: u64 = 0;
        let max_route_edges = self.config().router.max_path_edges;
        let mut seed_memo: HashMap<(VertexId, VertexId), Option<Path>> = HashMap::new();
        fn add<'r>(
            unique: &mut HashMap<u64, Vec<Job<'r>>>,
            total_jobs: &mut u64,
            interval: IntervalId,
            path: Cow<'r, Path>,
            regime: RegimeId,
            full_od: bool,
        ) {
            *total_jobs += 1;
            let fingerprint = key_fingerprint(path.as_ref(), interval, regime);
            let slot = unique.entry(fingerprint).or_default();
            match slot.iter_mut().find(|job| {
                job.interval == interval
                    && job.regime == regime
                    && job.path.as_ref() == path.as_ref()
            }) {
                Some(job) => job.full_od |= full_od,
                None => slot.push(Job {
                    path,
                    interval,
                    regime,
                    full_od,
                }),
            }
        }
        for request in requests {
            let regime = request.regime();
            match request {
                QueryRequest::Route {
                    source,
                    destination,
                    departure,
                    budget_s,
                    ..
                } => {
                    // Seed only searches that can use it: requests with an
                    // invalid budget fail validation in the answer phase, and
                    // a free-flow path beyond the router's cardinality limit
                    // is a candidate the search can never materialise.
                    if !budget_is_valid(*budget_s) {
                        continue;
                    }
                    let seed = seed_memo
                        .entry((*source, *destination))
                        .or_insert_with(|| fastest_path(net, *source, *destination))
                        .clone();
                    if let Some(seed) = seed.filter(|s| s.cardinality() <= max_route_edges) {
                        add(
                            &mut unique,
                            &mut total_jobs,
                            self.interval_of(*departure),
                            Cow::Owned(seed),
                            regime,
                            true,
                        );
                    }
                }
                _ => {
                    for (path, departure) in estimation_jobs(request) {
                        add(
                            &mut unique,
                            &mut total_jobs,
                            self.interval_of(departure),
                            Cow::Borrowed(path),
                            regime,
                            false,
                        );
                    }
                }
            }
        }
        let jobs: Vec<Job<'_>> = unique.into_values().flatten().collect();
        let deduplicated = total_jobs.saturating_sub(jobs.len() as u64);
        self.recorder
            .record_batch(requests.len() as u64, deduplicated);

        // Warm the cache once per unique job. Failures are not fatal here:
        // the answer phase re-encounters them per request and reports them
        // with the right request context. Full-OD jobs always go through the
        // exact estimator — before the prefix-sharing walk, whose
        // "already cached" check then skips them — so Route answers keep
        // estimator-exact candidate quality even with `share_prefixes` on.
        let warm_counters = QueryCounters::default();
        let warm_started = std::time::Instant::now();
        if degraded {
            // Degraded mode: no warm phase. Each request pays its own
            // estimations in the answer phase; under pressure a worker
            // answering one request now beats a worker warming entries a
            // timed-out batch may never read.
        } else if self.config().share_prefixes {
            // Full-OD jobs need estimator-exact quality, and non-global
            // regime jobs need their regime's fallback view — the shared
            // prefix trie is built over the global weights only. Both take
            // the exact estimation path here; the prefix walk then skips
            // them via its "already cached" check.
            let exact_jobs: Vec<&Job<'_>> = jobs
                .iter()
                .filter(|job| job.full_od || !job.regime.is_global())
                .collect();
            self.for_each_index(exact_jobs.len(), |i| {
                if abandoned() {
                    return;
                }
                let job = exact_jobs[i];
                let _ = self.estimate_cached(
                    &job.path,
                    self.canonical_departure(job.interval),
                    job.regime,
                    &warm_counters,
                );
            });
            self.warm_with_prefix_sharing(&jobs, &warm_counters, &abandoned);
        } else if jobs.len() > 1 && self.batch_pool().width() > 1 {
            // Shard-pinned warm: route each fill to the worker that owns its
            // cache shard (worker = shard % width), so no two workers ever
            // take the same shard lock — fills proceed contention-free and
            // each worker's forward dependency records land in shards it
            // owns exclusively too (the index shards by the same
            // fingerprint bits).
            let pool = self.batch_pool();
            let width = pool.width();
            let mut by_worker: Vec<Vec<&Job<'_>>> = (0..width).map(|_| Vec::new()).collect();
            for job in &jobs {
                let shard = self
                    .cache()
                    .shard_index(job.path.as_ref(), job.interval, job.regime);
                by_worker[shard % width].push(job);
            }
            pool.run_pinned(|w| {
                for job in &by_worker[w] {
                    if abandoned() {
                        return;
                    }
                    let _ = self.estimate_cached(
                        &job.path,
                        self.canonical_departure(job.interval),
                        job.regime,
                        &warm_counters,
                    );
                }
            });
        } else {
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
        }
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

    /// Warms the cache for `jobs` with cross-path sub-path sharing: jobs are
    /// grouped per α-interval (estimates are only compatible within one),
    /// groups fan out across the worker pool, and within a group the paths
    /// are walked in lexicographic edge order so shared prefixes are
    /// adjacent. A stack of [`IncrementalEstimate`]s — one per edge of the
    /// current prefix — acts as the memo: a path whose first `k` edges match
    /// the previous prefix starts from the `k`-th stacked estimate instead of
    /// from scratch.
    ///
    /// Jobs whose incremental build fails (an edge without a unit histogram
    /// in the interval) fall back to the full OD estimation path.
    fn warm_with_prefix_sharing(
        &self,
        jobs: &[Job<'_>],
        warm_counters: &QueryCounters,
        stop: &(dyn Fn() -> bool + Sync),
    ) {
        let mut by_interval: HashMap<IntervalId, Vec<&Path>> = HashMap::new();
        for job in jobs {
            // Non-global jobs were already warmed exactly (the incremental
            // trie walks the global weights; a regime view's fallback
            // resolution has no incremental form).
            if !job.regime.is_global() {
                continue;
            }
            by_interval
                .entry(job.interval)
                .or_default()
                .push(job.path.as_ref());
        }
        let groups: Vec<(IntervalId, Vec<&Path>)> = by_interval.into_iter().collect();
        self.for_each_index(groups.len(), |g| {
            let (interval, paths) = &groups[g];
            self.warm_interval_group(*interval, paths, warm_counters, stop);
        });
    }

    fn warm_interval_group(
        &self,
        interval: IntervalId,
        paths: &[&Path],
        warm_counters: &QueryCounters,
        stop: &(dyn Fn() -> bool + Sync),
    ) {
        let mut paths: Vec<&Path> = paths.to_vec();
        paths.sort_unstable_by(|a, b| a.edges().cmp(b.edges()));
        let departure = self.canonical_departure(interval);
        // Same in-flight-fill guard as `estimate_cached_on`: entries built
        // from this snapshot are not retained if an update publishes while
        // the group is being warmed (their dependency edges may already have
        // been drained). Epoch before graph — see `graph_snapshot`.
        let (epoch_at_start, graph) = self.graph_snapshot();
        let partition = self.partition();
        let mut scratch = ConvolveScratch::new();
        // stack[k] estimates the prefix covered[..=k]; covered and the unit
        // reads (the (edge, interval) each convolution consumed — the entry's
        // invalidation dependencies) stay in lockstep with it.
        let mut stack: Vec<IncrementalEstimate> = Vec::new();
        let mut covered: Vec<EdgeId> = Vec::new();
        let mut unit_reads: Vec<(EdgeId, IntervalId)> = Vec::new();
        let (mut warmed, mut reuses, mut edges_reused) = (0u64, 0u64, 0u64);
        for path in &paths {
            // Every request in the batch has been abandoned: warming the
            // rest of the group serves nobody.
            if stop() {
                break;
            }
            // Respect existing entries: a previous batch or point query may
            // already hold this job — possibly as the more accurate full-OD
            // estimate — and rebuilding would both waste the work and
            // downgrade the entry.
            if self
                .cache()
                .get(path, interval, RegimeId::ALL_TRAFFIC)
                .is_some()
            {
                continue;
            }
            let edges = path.edges();
            let shared = covered
                .iter()
                .zip(edges)
                .take_while(|&(a, b)| a == b)
                .count();
            stack.truncate(shared);
            covered.truncate(shared);
            unit_reads.truncate(shared);
            let built = (|| -> Result<(), CoreError> {
                if stack.is_empty() {
                    stack.push(IncrementalEstimate::start(&graph, edges[0], departure)?);
                    covered.push(edges[0]);
                    unit_reads.push((edges[0], interval));
                }
                for &edge in &edges[stack.len()..] {
                    let prev = stack.last().expect("stack seeded above");
                    // Mirror PartialEstimate::extend's unit lookup: the unit
                    // distribution is read at the mid-arrival-window interval.
                    let (lo, hi) = prev.partial().arrival_window();
                    let read_at =
                        partition.interval_of(pathcost_traj::TimeOfDay::wrap(0.5 * (lo + hi)));
                    let next = prev.extend_with_scratch(&graph, edge, &mut scratch)?;
                    stack.push(next);
                    covered.push(edge);
                    unit_reads.push((edge, read_at));
                }
                Ok(())
            })();
            match built {
                Ok(()) => {
                    warmed += 1;
                    if shared > 0 {
                        reuses += 1;
                        edges_reused += shared as u64;
                    }
                    let estimate = stack.last().expect("non-empty path built");
                    // Register the trajectory-derived unit reads so a live
                    // update of any of them evicts this entry (speed-limit
                    // fallbacks never change; newly added units are handled
                    // by the containment sweep).
                    let weights = graph.weights();
                    let dependencies: Vec<(Path, IntervalId, RegimeId)> = unit_reads
                        .iter()
                        .filter(|&&(edge, iv)| weights.unit_is_trajectory_derived(edge, iv))
                        .map(|&(edge, iv)| (Path::unit(edge), iv, RegimeId::ALL_TRAFFIC))
                        .collect();
                    self.deps
                        .record(&dependencies, path, interval, RegimeId::ALL_TRAFFIC);
                    self.insert_cached(
                        path,
                        interval,
                        RegimeId::ALL_TRAFFIC,
                        CachedDistribution {
                            // An Arc bump: the memo stack keeps sharing the
                            // same buckets with the cache entry.
                            histogram: estimate.histogram_arc().clone(),
                            // Incremental estimates have no decomposition;
                            // every edge is its own (unit) component.
                            decomposition_depth: path.cardinality(),
                            // The walk reads global weights only; fallback
                            // depth is a non-global-regime concept.
                            fallback_depth: 0,
                        },
                    );
                    // Heal a purge that raced the record-before-insert
                    // window (see the post-insert check in
                    // `estimate_cached_on` for why a surviving forward
                    // record proves the registration is intact).
                    if !dependencies.is_empty()
                        && !self
                            .deps
                            .entry_recorded(path, interval, RegimeId::ALL_TRAFFIC)
                    {
                        self.deps
                            .record(&dependencies, path, interval, RegimeId::ALL_TRAFFIC);
                    }
                    if self.epoch.load(Ordering::SeqCst) != epoch_at_start {
                        self.evict_cached(path, interval, RegimeId::ALL_TRAFFIC);
                    }
                }
                Err(_) => {
                    let _ =
                        self.estimate_cached(path, departure, RegimeId::ALL_TRAFFIC, warm_counters);
                }
            }
        }
        self.recorder
            .record_prefix_warm(warmed, reuses, edges_reused);
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
        // Route seeds are collected (and memoised per OD pair) directly in
        // `execute_batch`, which tags them `full_od`.
        QueryRequest::Route { .. } => Vec::new(),
    }
}
