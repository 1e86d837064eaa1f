//! The query engine: cache-backed serving of path-cost-distribution queries.
//!
//! Every cached distribution enters through one three-step fill
//! (`QueryEngine::estimate_cached`): **estimate** against an epoch
//! snapshot, **insert** the value together with the variable keys the
//! estimate read (one shard lock, so invalidation never sees one without the
//! other), **re-check** the epoch and evict the entry again if an update was
//! published meanwhile. The [`update`](crate::update) module has the
//! invalidation rule the reads feed and the consistency argument.
//!
//! The regime a request names only selects what the estimate reads —
//! `graph.for_regime(regime)`, the view of that regime's fallback ladder —
//! and the fill is otherwise the same for every regime, all-traffic
//! included: each read names the table it resolved from, and the entry's
//! fallback depth is the deepest ladder position among them.

use crate::cache::{key_fingerprint, CachedDistribution, DistributionCache};
use crate::deadline::RequestContext;
use crate::error::ServiceError;
use crate::request::{QueryOutcome, QueryRequest, QueryResponse, QueryStats, RankedPath};
use crate::stats::{ServiceStats, StatsRecorder};
use pathcost_core::exec::WorkerPool;
use pathcost_core::interval::DayPartition;
use pathcost_core::{
    CostEstimator, EstimateBreakdown, HybridGraph, IntervalId, OdEstimator, RegimeId,
};
use pathcost_hist::Histogram1D;
use pathcost_obs::{Gauge, Registry};
use pathcost_roadnet::Path;
use pathcost_routing::{
    prob_within_budget, BestFirstRouter, FreeFlowCache, RouterConfig, RoutingError,
};
use pathcost_traj::{TimeOfDay, Timestamp};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Configuration of the query engine.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of independent cache shards (lock granularity).
    pub cache_shards: usize,
    /// LRU capacity of each shard, in `(path, interval)` entries.
    pub shard_capacity: usize,
    /// Worker threads for batch execution; `None` uses the machine's
    /// available parallelism.
    pub workers: Option<usize>,
    /// Configuration of the best-first router answering `Route` requests.
    pub router: RouterConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_shards: 16,
            shard_capacity: 512,
            workers: None,
            router: RouterConfig::default(),
        }
    }
}

/// Per-query tallies, updated through shared references (the routing
/// estimator adapter only sees `&self`).
#[derive(Default)]
struct QueryCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    max_depth: AtomicUsize,
    max_fallback: AtomicUsize,
}

impl QueryCounters {
    fn record(&self, hit: bool, depth: usize) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.max_depth.fetch_max(depth, Ordering::Relaxed);
        }
    }

    /// Folds one distribution's regime-fallback depth (hit or miss — a
    /// cached entry carries the depth it was resolved at) into the query's
    /// maximum.
    fn record_fallback(&self, depth: usize) {
        if depth > 0 {
            self.max_fallback.fetch_max(depth, Ordering::Relaxed);
        }
    }
}

/// A shared hybrid graph behind a typed query interface.
///
/// The engine is `Sync`: one instance serves point lookups, batches and
/// routing searches from any number of threads, all reading through the same
/// sharded [`DistributionCache`]. The graph itself is an **epoch snapshot**
/// behind a swap-on-publish handle: [`QueryEngine::apply_update`] installs a
/// new weight-function epoch atomically, in-flight queries keep reading the
/// snapshot they started with, and targeted invalidation evicts exactly the
/// cache entries the update's changed variables can affect.
pub struct QueryEngine<'n> {
    graph: RwLock<Arc<HybridGraph<'n>>>,
    partition: DayPartition,
    cache: DistributionCache,
    /// Destination bounds and successor orders: functions of the network
    /// alone, so one cache serves every epoch and regime view.
    free_flow: Arc<FreeFlowCache<'n>>,
    pub(crate) epoch: AtomicU64,
    /// Serializes [`Self::apply_update`]s against each other (queries are
    /// never blocked by it).
    update_lock: std::sync::Mutex<()>,
    /// Every engine-level metric family (the recorder's and the cache's),
    /// plus the `pathcost_epoch` gauge [`Self::registry`] refreshes.
    registry: Registry,
    epoch_gauge: Gauge,
    pub(crate) recorder: StatsRecorder,
    /// The persistent batch worker pool: [`Self::worker_count`] long-lived
    /// threads, spawned lazily by the first batch (so engines that never
    /// execute one never spawn threads) and joined on drop.
    pool: std::sync::OnceLock<WorkerPool>,
    /// [`ServiceConfig::workers`] resolved once at construction: asking the
    /// machine re-reads the cgroup CPU quota on every call.
    workers: usize,
    config: ServiceConfig,
}

impl<'n> QueryEngine<'n> {
    /// Wraps `graph` for serving (epoch 0).
    pub fn new(graph: Arc<HybridGraph<'n>>, config: ServiceConfig) -> Self {
        let free_flow = FreeFlowCache::new(graph.network());
        Self::with_free_flow_cache(graph, config, free_flow)
    }

    /// As [`Self::new`], keeping free-flow searches in `free_flow` instead of
    /// a cache of the standard capacities — integration tests size one to
    /// force evictions.
    ///
    /// # Panics
    /// When `free_flow` is over a different network than `graph`.
    pub fn with_free_flow_cache(
        graph: Arc<HybridGraph<'n>>,
        config: ServiceConfig,
        free_flow: FreeFlowCache<'n>,
    ) -> Self {
        assert!(
            std::ptr::eq(free_flow.network(), graph.network()),
            "the free-flow cache must be over the served network"
        );
        let partition = graph.weights().partition().clone();
        let registry = Registry::new();
        let epoch_gauge = registry.gauge(
            "pathcost_epoch",
            "Currently published weight-function epoch.",
            &[],
        );
        let recorder = StatsRecorder::new(&registry);
        let cache =
            DistributionCache::registered(config.cache_shards, config.shard_capacity, &registry);
        let (hits, misses) = (
            recorder.free_flow_hits.clone(),
            recorder.free_flow_misses.clone(),
        );
        let free_flow = free_flow.observed(move |hit| if hit { &hits } else { &misses }.inc());
        let workers = config.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
        QueryEngine {
            graph: RwLock::new(graph),
            partition,
            cache,
            free_flow: Arc::new(free_flow),
            epoch: AtomicU64::new(0),
            update_lock: std::sync::Mutex::new(()),
            registry,
            epoch_gauge,
            recorder,
            pool: std::sync::OnceLock::new(),
            workers,
            config,
        }
    }

    /// The engine's persistent batch worker pool, spawning it on first use.
    pub(crate) fn batch_pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(self.workers))
    }

    /// The lock serializing update application (see `apply_update`).
    pub(crate) fn update_lock(&self) -> &std::sync::Mutex<()> {
        &self.update_lock
    }

    /// A snapshot of the currently published hybrid graph (an `Arc` bump).
    /// Holders keep a consistent epoch even while an update swaps in a new
    /// one.
    pub fn graph(&self) -> Arc<HybridGraph<'n>> {
        self.graph.read().expect("graph lock poisoned").clone()
    }

    /// The epoch version *followed by* the graph snapshot, in that order —
    /// the pair every cache-filling path must capture together.
    ///
    /// The order matters for the in-flight-fill guard: `apply_update`
    /// publishes the graph *before* bumping the epoch, so reading the epoch
    /// first guarantees `epoch ≤ the epoch the snapshot belongs to`. A fill
    /// whose snapshot predates an update then always observes the epoch bump
    /// in its post-insert check and self-evicts; reading the pair in the
    /// opposite order could pair an old graph with the new epoch number and
    /// silently retain a stale entry.
    fn graph_snapshot(&self) -> (u64, Arc<HybridGraph<'n>>) {
        let epoch = self.epoch.load(Ordering::SeqCst);
        (epoch, self.graph())
    }

    /// Installs `graph` as the published snapshot (the swap half of
    /// [`Self::apply_update`]).
    pub(crate) fn publish_graph(&self, graph: Arc<HybridGraph<'n>>) {
        *self.graph.write().expect("graph lock poisoned") = graph;
    }

    /// The version of the currently published weight-function epoch:
    /// 0 at construction, bumped by every applied update.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Re-stamps the engine at a recovered ingest epoch, so a warm-restarted
    /// process reports and continues the persisted lineage's epoch sequence
    /// instead of appearing to restart at 0. Only ever moves forward; calling
    /// it with an older epoch is a no-op.
    pub fn resume_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::SeqCst);
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The distribution cache (exposed for inspection and tests).
    pub fn cache(&self) -> &DistributionCache {
        &self.cache
    }

    /// The registry holding every engine-level metric family, with the
    /// `pathcost_epoch` gauge brought up to date — render it for `/metrics`.
    pub fn registry(&self) -> &Registry {
        self.epoch_gauge.set(self.epoch() as f64);
        &self.registry
    }

    /// Point-in-time typed view of the same instruments.
    pub fn stats(&self) -> ServiceStats {
        self.recorder.snapshot(
            self.cache.hits(),
            self.cache.misses(),
            self.cache.insertions(),
            self.cache.evictions(),
        )
    }

    /// Per-regime distribution-lookup tallies, keyed by raw [`RegimeId`]
    /// value. Empty until a regime other than all-traffic is queried —
    /// all-traffic lookups are the engine-level counters in [`Self::stats`].
    pub fn regime_stats(&self) -> std::collections::BTreeMap<u16, crate::stats::RegimeTally> {
        self.recorder.regime_tallies()
    }

    /// Counts one request refused at the admission door because the service
    /// was degraded ([`ServiceStats::rejected_degraded`]); called by the
    /// front-end that owns both the admission queue and the engine.
    pub fn record_rejected_degraded(&self) {
        self.recorder.rejected_degraded.inc();
    }

    /// The day partition (α) the engine serves under; fixed for the engine's
    /// lifetime (updates that would change it are rejected).
    pub fn partition(&self) -> &DayPartition {
        &self.partition
    }

    /// The α-interval a departure falls into.
    pub fn interval_of(&self, departure: Timestamp) -> IntervalId {
        self.partition.interval_of(departure.time_of_day())
    }

    /// The canonical departure the engine estimates an interval at: day 0 at
    /// the interval's start. All departures inside one interval share this
    /// anchor — and therefore one cache entry.
    pub fn canonical_departure(&self, interval: IntervalId) -> Timestamp {
        Timestamp::new(0, TimeOfDay::wrap(self.partition.range(interval).start))
    }

    /// Worker threads used for batch fan-out: [`ServiceConfig::workers`], or
    /// the machine's available parallelism as read at construction.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Cache-backed estimation: returns the distribution of `path` over the
    /// α-interval of `departure`, estimating (and caching) it on a miss.
    ///
    /// On a miss this runs [`OdEstimator::estimate_with_artifacts`]
    /// anchored at [`Self::canonical_departure`], so a cached entry is
    /// bit-identical to `OdEstimator::estimate` at that anchor.
    fn estimate_cached(
        &self,
        path: &Path,
        departure: Timestamp,
        regime: RegimeId,
        counters: &QueryCounters,
    ) -> Result<CachedDistribution, ServiceError> {
        let (snapshot_epoch, graph) = self.graph_snapshot();
        self.estimate_cached_on(&graph, snapshot_epoch, path, departure, regime, counters)
    }

    /// As [`Self::estimate_cached`], estimating misses against the given
    /// epoch snapshot instead of re-reading the published graph — a routing
    /// search pins one snapshot so every candidate it estimates *fresh* is
    /// evaluated under that epoch even while an update lands mid-search
    /// (cache hits may still carry a concurrently published adjacent epoch;
    /// see the `Route` arm of `execute_inner`).
    fn estimate_cached_on(
        &self,
        graph: &HybridGraph<'n>,
        snapshot_epoch: u64,
        path: &Path,
        departure: Timestamp,
        regime: RegimeId,
        counters: &QueryCounters,
    ) -> Result<CachedDistribution, ServiceError> {
        let interval = self.interval_of(departure);
        if let Some(hit) = self.cache.get(path, interval, regime) {
            counters.record(true, 0);
            counters.record_fallback(hit.fallback_depth);
            self.recorder
                .record_regime_lookup(&self.registry, regime, true, hit.fallback_depth);
            return Ok(hit);
        }
        let canonical = self.canonical_departure(interval);
        // The estimate reads what the regime's fallback ladder resolves to:
        // the regime's own view, or the all-traffic one when no table above
        // the ladder's last rung holds anything (an `Arc` bump either way).
        let graph = graph.for_regime(regime);
        let artifacts = OdEstimator::new(&graph).estimate_with_artifacts(path, canonical)?;
        let depth = artifacts.decomposition.len();
        // A read is a position in the view the estimate read, and names the
        // variable's *source* — the table it actually resolved from — so an
        // all-traffic update stales this entry exactly when it read through
        // the fallback ladder, and a sibling regime's update never does.
        // A table's fallback depth is its position on the
        // regime's ladder; the entry's is the deepest of the view that
        // answered and of every variable it read. The regime's own table is
        // rung 0, so the ladder is built only once something fell back.
        let view = graph.view();
        let mut ladder = None;
        let mut depth_of = |table: RegimeId| {
            if table == regime {
                return 0;
            }
            let ladder =
                ladder.get_or_insert_with(|| graph.weights().regime_schema().ladder(regime));
            let rung = ladder.iter().position(|rung| *rung == table);
            rung.expect("a view reads the tables of its regime's ladder")
        };
        let mut fallback_depth = depth_of(view.regime());
        let reads: Vec<u64> = artifacts
            .dependencies
            .iter()
            .map(|&index| {
                let (var, source) = (view.variable(index), view.source(index));
                fallback_depth = fallback_depth.max(depth_of(source));
                key_fingerprint(&var.path, var.interval, source)
            })
            .collect();
        let value = CachedDistribution {
            histogram: Arc::new(artifacts.histogram),
            decomposition_depth: depth,
            fallback_depth,
        };
        self.cache
            .insert(path, interval, regime, value.clone(), reads);
        // Guard against a fill racing `apply_update`: an update published
        // while this estimation was in flight may have run its invalidation
        // pass before the insert above landed, which would otherwise strand
        // a pre-update entry no later update can find. Seeing an epoch newer
        // than the snapshot here (`snapshot_epoch` was read before the graph,
        // see `graph_snapshot`) and evicting our own entry restores the
        // invariant: the caller still gets its (raced, pre-update — allowed)
        // answer, but the cache does not retain it. An update whose epoch
        // bump comes after this check runs its pass after the insert, and
        // finds the entry with its reads.
        if self.epoch.load(Ordering::SeqCst) != snapshot_epoch {
            self.cache.remove(path, interval, regime);
        }
        self.recorder.record_estimation(depth);
        counters.record(false, depth);
        counters.record_fallback(fallback_depth);
        self.recorder
            .record_regime_lookup(&self.registry, regime, false, fallback_depth);
        Ok(value)
    }

    /// Executes a single query, recording per-query and engine-level stats.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryOutcome, ServiceError> {
        self.execute_under(request, &RequestContext::unbounded(), false)
    }

    /// As [`Self::execute`], under a per-request deadline/cancellation
    /// context and an optional degraded-mode flag. Evaluation polls `ctx`
    /// cooperatively — the routing expansion loop checks it every frontier
    /// pop, ranking checks it between candidates — and stops with
    /// [`ServiceError::DeadlineExceeded`] or [`ServiceError::Cancelled`]
    /// instead of running to completion for a caller that gave up. With
    /// `degraded` set (the admission queue's load-watermark policy), the
    /// `Route` search runs with quartered expansion/candidate budgets and
    /// the outcome is flagged via [`QueryStats::degraded`].
    pub fn execute_under(
        &self,
        request: &QueryRequest,
        ctx: &RequestContext,
        degraded: bool,
    ) -> Result<QueryOutcome, ServiceError> {
        let counters = QueryCounters::default();
        let start = Instant::now();
        let response = if ctx.should_stop() {
            Err(stop_error(ctx))
        } else {
            self.execute_inner(request, &counters, ctx, degraded)
        };
        let latency = start.elapsed();
        if let Some(trace) = ctx.trace() {
            trace.record(pathcost_obs::Stage::Eval, latency);
        }
        self.recorder
            .record_query(request.kind(), latency, response.is_ok());
        match &response {
            Err(ServiceError::DeadlineExceeded) => self.recorder.deadline_exceeded.inc(),
            Err(ServiceError::Cancelled) => self.recorder.cancelled.inc(),
            _ => {}
        }
        if degraded && response.is_ok() {
            self.recorder.degraded_answers.inc();
        }
        response.map(|response| QueryOutcome {
            response,
            stats: QueryStats {
                cache_hits: counters.hits.load(Ordering::Relaxed),
                cache_misses: counters.misses.load(Ordering::Relaxed),
                max_decomposition_depth: counters.max_depth.load(Ordering::Relaxed),
                max_fallback_depth: counters.max_fallback.load(Ordering::Relaxed),
                latency,
                degraded,
            },
        })
    }

    fn execute_inner(
        &self,
        request: &QueryRequest,
        counters: &QueryCounters,
        ctx: &RequestContext,
        degraded: bool,
    ) -> Result<QueryResponse, ServiceError> {
        match request {
            QueryRequest::EstimateDistribution {
                path,
                departure,
                regime,
            } => {
                chaos_panic_failpoint(path);
                let cached = self.estimate_cached(path, *departure, *regime, counters)?;
                Ok(QueryResponse::Distribution(cached.histogram))
            }
            QueryRequest::ProbWithinBudget {
                path,
                departure,
                budget_s,
                regime,
            } => {
                validate_budget(*budget_s)?;
                let cached = self.estimate_cached(path, *departure, *regime, counters)?;
                Ok(QueryResponse::Probability(prob_within_budget(
                    &cached.histogram,
                    *budget_s,
                )))
            }
            QueryRequest::RankPaths {
                candidates,
                departure,
                budget_s,
                regime,
            } => {
                validate_budget(*budget_s)?;
                if candidates.is_empty() {
                    return Err(ServiceError::InvalidRequest(
                        "RankPaths needs at least one candidate",
                    ));
                }
                let mut ranking: Vec<RankedPath> = Vec::with_capacity(candidates.len());
                for (index, path) in candidates.iter().enumerate() {
                    // Candidate estimations are the expensive unit of work
                    // here; poll the context between them so an abandoned
                    // ranking stops mid-list.
                    if ctx.should_stop() {
                        return Err(stop_error(ctx));
                    }
                    if let Ok(cached) = self.estimate_cached(path, *departure, *regime, counters) {
                        ranking.push(RankedPath {
                            index,
                            probability: prob_within_budget(&cached.histogram, *budget_s),
                        });
                    }
                }
                ranking.sort_by(|a, b| {
                    b.probability
                        .total_cmp(&a.probability)
                        .then(a.index.cmp(&b.index))
                });
                Ok(QueryResponse::Ranking(ranking))
            }
            QueryRequest::Route {
                source,
                destination,
                departure,
                budget_s,
                k,
                regime,
            } => {
                validate_budget(*budget_s)?;
                if *k == 0 {
                    return Err(ServiceError::InvalidRequest(
                        "Route needs k >= 1 ranked results",
                    ));
                }
                // One epoch snapshot for the whole search: the router's
                // bounds, partial estimates and every *fresh* candidate
                // estimation read the same weight function even if an update
                // lands mid-search. Cache hits are the remaining caveat: a
                // concurrent update can re-fill evicted entries under the
                // new epoch, so a racing search may compare candidates from
                // two adjacent epochs — each individually valid, the
                // ranking's usual raced-query semantics.
                let (snapshot_epoch, graph) = self.graph_snapshot();
                // Under the load-watermark degradation policy the search
                // budgets are quartered: the answer stays valid (the router
                // limits were always best-effort bounds) but each query
                // burns a fraction of a worker's time.
                let router_config = if degraded {
                    let base = &self.config.router;
                    RouterConfig {
                        max_expansions: (base.max_expansions / 4).max(1),
                        max_candidates: (base.max_candidates / 4).max(1),
                        max_path_edges: base.max_path_edges,
                    }
                } else {
                    self.config.router.clone()
                };
                // The search's partial chains and incumbent bound read the
                // requested regime's view, as its candidates do; the
                // estimator keeps the unbound snapshot because
                // `estimate_cached_on` binds it itself.
                let bound = graph.for_regime(*regime);
                let router = BestFirstRouter::with_cache(
                    &bound,
                    router_config,
                    Arc::clone(&self.free_flow),
                )?;
                let estimator = CachingEstimator {
                    engine: self,
                    counters,
                    pinned: (snapshot_epoch, graph.clone()),
                    regime: *regime,
                };
                let (mut ranked, telemetry) = match router.route_top_k_cancellable(
                    &estimator,
                    *source,
                    *destination,
                    *departure,
                    *budget_s,
                    *k,
                    &|| ctx.should_stop(),
                ) {
                    Err(RoutingError::Cancelled) => return Err(stop_error(ctx)),
                    other => other?,
                };
                // The per-query counters are exclusive to this request here
                // (they were created fresh in `execute`), so their hit total
                // is exactly the candidate evaluations answered by the cache.
                let recorder = &self.recorder;
                recorder
                    .route_candidates_evaluated
                    .add(telemetry.evaluated_candidates as u64);
                recorder
                    .route_eval_cache_hits
                    .add(counters.hits.load(Ordering::Relaxed));
                recorder
                    .route_incumbent_prunes
                    .add(telemetry.incumbent_prunes as u64);
                recorder.route_expansions.add(telemetry.expansions as u64);
                if *k == 1 {
                    let best = (!ranked.is_empty()).then(|| ranked.swap_remove(0));
                    Ok(QueryResponse::Route(best))
                } else {
                    Ok(QueryResponse::Routes(ranked))
                }
            }
        }
    }
}

/// Classifies why a context asked evaluation to stop: an expired deadline
/// answers 504, an explicit cancellation answers as cancelled. Checked in
/// this order because a request can be both (the client gave up *because*
/// the deadline passed) and the deadline is the actionable signal.
pub(crate) fn stop_error(ctx: &RequestContext) -> ServiceError {
    if ctx.expired() {
        ServiceError::DeadlineExceeded
    } else {
        ServiceError::Cancelled
    }
}

/// Chaos-testing failpoint: when `PATHCOST_CHAOS_PANIC_EDGE` is set to an
/// edge id, a single-edge `EstimateDistribution` of exactly that edge panics.
/// The chaos harness points it at an edge id far outside any real network so
/// ordinary requests can never trip it; the panic exercises the batch
/// executor's containment (one poisoned request answers as an internal
/// error, the batch and the dispatcher survive). See `ROBUSTNESS.md`.
fn chaos_panic_failpoint(path: &Path) {
    if path.cardinality() != 1 {
        return;
    }
    if let Ok(armed) = std::env::var("PATHCOST_CHAOS_PANIC_EDGE") {
        if armed.parse::<u64>().ok() == Some(u64::from(path.edges()[0].0)) {
            panic!("chaos failpoint: injected panic on edge {armed}");
        }
    }
}

fn validate_budget(budget_s: f64) -> Result<(), ServiceError> {
    if !(budget_s.is_finite() && budget_s >= 0.0) {
        return Err(ServiceError::InvalidRequest(
            "budget must be a non-negative finite number of seconds",
        ));
    }
    Ok(())
}

/// Estimator adapter that lets [`BestFirstRouter`] (or any [`CostEstimator`]
/// consumer) read complete-candidate distributions through the engine's
/// cache: repeated routing over popular OD pairs re-estimates nothing. The
/// router asks through [`CostEstimator::estimate_arc`], which this adapter
/// answers with the cached `Arc` itself — a hit costs a reference bump, not
/// a histogram copy.
///
/// Timing caveat: the reported [`EstimateBreakdown`] attributes the whole
/// call to the joint-computation phase (`joint_s`) on a miss and is zero on a
/// hit — the cache does not observe the OI/JC/MC split of Figure 17.
struct CachingEstimator<'e, 'n> {
    engine: &'e QueryEngine<'n>,
    /// Per-query tallies of the `Route` request this adapter serves.
    counters: &'e QueryCounters,
    /// The epoch snapshot misses are estimated against, paired with the
    /// epoch version observed at pin time (the in-flight-fill guard's
    /// reference point).
    pinned: (u64, Arc<HybridGraph<'n>>),
    /// The traffic regime every lookup evaluates under.
    regime: RegimeId,
}

impl CostEstimator for CachingEstimator<'_, '_> {
    fn name(&self) -> &str {
        "OD-cached"
    }

    fn estimate_with_breakdown(
        &self,
        path: &Path,
        departure: Timestamp,
    ) -> Result<(Histogram1D, EstimateBreakdown), pathcost_core::CoreError> {
        let start = Instant::now();
        let cached = self.lookup(path, departure)?;
        let breakdown = EstimateBreakdown {
            decomposition_s: 0.0,
            joint_s: start.elapsed().as_secs_f64(),
            marginal_s: 0.0,
        };
        // The trait's breakdown form hands out an owned histogram; callers
        // on the hot path use `estimate_arc` below and share the cached one.
        Ok(((*cached.histogram).clone(), breakdown))
    }

    fn estimate_arc(
        &self,
        path: &Path,
        departure: Timestamp,
    ) -> Result<Arc<Histogram1D>, pathcost_core::CoreError> {
        self.lookup(path, departure).map(|cached| cached.histogram)
    }
}

impl CachingEstimator<'_, '_> {
    fn lookup(
        &self,
        path: &Path,
        departure: Timestamp,
    ) -> Result<CachedDistribution, pathcost_core::CoreError> {
        let (snapshot_epoch, graph) = &self.pinned;
        self.engine
            .estimate_cached_on(
                graph,
                *snapshot_epoch,
                path,
                departure,
                self.regime,
                self.counters,
            )
            .map_err(|e| match e {
                ServiceError::Core(core) => core,
                // Non-core failures cannot escape `estimate_cached`.
                _ => pathcost_core::CoreError::NoDistribution,
            })
    }
}
