//! The query engine: cache-backed serving of path-cost-distribution queries.
//!
//! Every cached distribution enters through one two-step fill
//! (`QueryEngine::lookup`): **estimate** against an epoch
//! snapshot, then **insert** the value together with the variable keys the
//! estimate read (one shard lock, so invalidation never sees one without the
//! other) only if, under that lock, no update has bumped the epoch since the
//! snapshot. The [`update`](crate::update) module has the invalidation rule
//! the reads feed and the consistency argument.
//!
//! Above the distributions sits a small **route map**: the answer of every
//! `Route` search completed in the current epoch, keyed by the request
//! exactly as asked — source, destination, departure and budget bits, `k`,
//! regime — so a popular route is searched once per epoch. It is exact
//! because a route answer is a pure function of the request and the
//! epoch's graph: the search reads the regime's bound view, the free-flow
//! bounds (a function of the network alone) and candidate distributions,
//! which a cache hit and a fresh estimate give bit for bit alike. The key
//! keeps the exact departure, not its interval's anchor, because the
//! search's arrival windows start at it and read later intervals from it.
//! An applied update empties the map once its invalidation pass is done; a
//! search keeps its answer only if it began after the pass of the epoch it
//! pinned and no update emptied the map meanwhile (`keep_route`), and only
//! when it completed at full budgets — a degraded, expired or cancelled
//! search leaves nothing. The map holds a constant number of answers and
//! drops the oldest insertion first.
//!
//! The regime a request names only selects what the estimate reads —
//! `graph.for_regime(regime)`, the view of that regime's fallback ladder —
//! and the fill is otherwise the same for every regime, all-traffic
//! included: each read names the table it resolved from, and the entry's
//! fallback depth is the deepest ladder position among them.
//!
//! One function, `execute_inner`, validates every request and builds its
//! response. A dispatch lane runs it in `Mode::Fill`, which estimates a
//! missing distribution and searches a missing route. A connection thread
//! runs it in `Mode::CachedOnly`: every arm reads through the same lookups
//! (the distribution cache, the route map) and reports a miss instead of
//! filling it. A query's hits are counted only once it is answered
//! (`conclude`), so an envelope that misses on its last key and is then
//! queued leaves no count behind from its first try.

use crate::cache::{key_fingerprint, CachedDistribution, DistributionCache, Entry};
use crate::deadline::RequestContext;
use crate::error::ServiceError;
use crate::request::{QueryOutcome, QueryRequest, QueryResponse, QueryStats, RankedPath};
use crate::stats::{ServiceStats, StatsRecorder};
use pathcost_core::exec;
use pathcost_core::interval::DayPartition;
use pathcost_core::{
    BoundedMap, CostEstimator, EstimateBreakdown, HybridGraph, IntervalId, OdEstimator, RegimeId,
};
use pathcost_hist::Histogram1D;
use pathcost_obs::{Gauge, Registry};
use pathcost_roadnet::{Path, VertexId};
use pathcost_routing::{
    prob_within_budget, BestFirstRouter, FreeFlowCache, RouterConfig, RoutingError,
};
use pathcost_traj::{TimeOfDay, Timestamp};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Configuration of the query engine.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of independent cache shards (lock granularity).
    pub cache_shards: usize,
    /// LRU capacity of each shard, in `(path, interval)` entries.
    pub shard_capacity: usize,
    /// The number of admission lanes a server runs over the engine (at
    /// least one); `None` runs one per core. Batches fan out over the
    /// process-wide pool ([`exec::global`]) whatever this says.
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

/// Route answers kept per epoch: `route_batch` asks 192 distinct routes.
const ROUTE_ANSWERS: usize = 1024;

// The route map's lock guards lookups, `Arc` clones, insertions and clears;
// the graph lock guards an `Arc` clone and a store. No code that can panic
// runs under either, so neither is ever poisoned.
const ROUTES_POISONED: &str = "no panic while the route map is locked";
const GRAPH_POISONED: &str = "no panic while the graph handle is locked";

/// What [`QueryEngine::execute_inner`] does with a request that neither the
/// distribution cache nor the route map answers.
#[derive(Clone, Copy)]
enum Mode {
    /// Estimate the distribution, or search the route — on quartered
    /// budgets when `degraded` — as a dispatch lane does.
    Fill { degraded: bool },
    /// Report the miss (`Ok(None)`) and count nothing: the admission queue
    /// answers an envelope of hits on its connection thread this way.
    CachedOnly,
}

/// A `Route` request exactly as asked — the departure and the budget by
/// their bits. The departure is not canonicalised to its interval: the
/// search's arrival windows start at it and read later intervals from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RouteKey {
    source: VertexId,
    destination: VertexId,
    departure: u64,
    budget: u64,
    k: usize,
    regime: RegimeId,
}

/// A completed search's response and the depths its stats reported.
struct RouteAnswer {
    response: QueryResponse,
    max_decomposition_depth: usize,
    max_fallback_depth: usize,
}

/// The answers of completed route searches, all of one epoch.
struct RouteAnswers {
    /// The epoch the answers were searched under: the one whose update last
    /// emptied the map (after its invalidation pass).
    epoch: u64,
    answers: BoundedMap<RouteKey, Arc<RouteAnswer>>,
}

/// Per-query tallies, kept through shared references (the routing
/// estimator adapter only sees `&self`) by the one thread answering it.
#[derive(Default)]
struct QueryCounters {
    hits: Cell<u64>,
    misses: Cell<u64>,
    max_depth: Cell<usize>,
    max_fallback: Cell<usize>,
    /// The shard and fallback depth of each distribution-cache hit, and
    /// whether the route map answered: counted in the shared instruments by
    /// [`QueryEngine::conclude`], once the query is answered.
    read: RefCell<Vec<(usize, usize)>>,
    route_hit: Cell<bool>,
}

impl QueryCounters {
    fn record_hit(&self, shard: usize, hit: &CachedDistribution) {
        self.hits.set(self.hits.get() + 1);
        self.record_depths(0, hit.fallback_depth);
        self.read.borrow_mut().push((shard, hit.fallback_depth));
    }

    fn record_miss(&self, depth: usize, fallback_depth: usize) {
        self.misses.set(self.misses.get() + 1);
        self.record_depths(depth, fallback_depth);
    }

    /// What a route answered from the route map reports: one hit and the
    /// depths its search reported.
    fn record_route_hit(&self, answer: &RouteAnswer) {
        self.hits.set(self.hits.get() + 1);
        self.record_depths(answer.max_decomposition_depth, answer.max_fallback_depth);
        self.route_hit.set(true);
    }

    /// Folds a decomposition depth and a regime-fallback depth (a cached
    /// entry carries the one it was resolved at) into the query's maxima.
    fn record_depths(&self, depth: usize, fallback_depth: usize) {
        self.max_depth.set(self.max_depth.get().max(depth));
        self.max_fallback
            .set(self.max_fallback.get().max(fallback_depth));
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
    /// The answers of route searches completed in the current epoch (see
    /// the `Route` arm of `execute_inner`).
    routes: Mutex<RouteAnswers>,
    pub(crate) epoch: AtomicU64,
    /// Serializes [`Self::apply_update`]s against each other (queries are
    /// never blocked by it).
    update_lock: std::sync::Mutex<()>,
    /// Every engine-level metric family (the recorder's and the cache's),
    /// plus the `pathcost_epoch` gauge [`Self::registry`] refreshes.
    registry: Registry,
    epoch_gauge: Gauge,
    pub(crate) recorder: StatsRecorder,
    /// [`ServiceConfig::workers`] resolved once at construction.
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
        let workers = config
            .workers
            .unwrap_or_else(|| exec::global().width() + 1)
            .max(1);
        QueryEngine {
            graph: RwLock::new(graph),
            partition,
            cache,
            free_flow: Arc::new(free_flow),
            routes: Mutex::new(RouteAnswers {
                epoch: 0,
                answers: BoundedMap::new(ROUTE_ANSWERS),
            }),
            epoch: AtomicU64::new(0),
            update_lock: std::sync::Mutex::new(()),
            registry,
            epoch_gauge,
            recorder,
            workers,
            config,
        }
    }

    /// The lock serializing update application (see `apply_update`).
    pub(crate) fn update_lock(&self) -> &std::sync::Mutex<()> {
        &self.update_lock
    }

    /// A snapshot of the currently published hybrid graph (an `Arc` bump).
    /// Holders keep a consistent epoch even while an update swaps in a new
    /// one.
    pub fn graph(&self) -> Arc<HybridGraph<'n>> {
        self.graph.read().expect(GRAPH_POISONED).clone()
    }

    /// The epoch version *followed by* the graph snapshot, in that order —
    /// the pair every cache-filling path must capture together.
    ///
    /// The order matters for the in-flight-fill guard: `apply_update`
    /// publishes the graph *before* bumping the epoch, so reading the epoch
    /// first guarantees `epoch ≤ the epoch the snapshot belongs to`. A fill
    /// whose snapshot predates an update then always observes the epoch bump
    /// in its insert's check and keeps out; reading the pair in the
    /// opposite order could pair an old graph with the new epoch number and
    /// silently retain a stale entry.
    fn graph_snapshot(&self) -> (u64, Arc<HybridGraph<'n>>) {
        let epoch = self.epoch.load(Ordering::SeqCst);
        (epoch, self.graph())
    }

    /// Installs `graph` as the published snapshot (the swap half of
    /// [`Self::apply_update`]).
    pub(crate) fn publish_graph(&self, graph: Arc<HybridGraph<'n>>) {
        *self.graph.write().expect(GRAPH_POISONED) = graph;
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
        let _serialized = self.update_lock.lock().expect("update lock poisoned");
        self.epoch.fetch_max(epoch, Ordering::SeqCst);
        self.forget_routes(self.epoch.load(Ordering::SeqCst));
    }

    /// Empties the route map and dedicates it to `epoch`'s answers. Called
    /// under the update lock once nothing of an earlier epoch is left to
    /// read: by [`Self::apply_update`] after its invalidation pass.
    pub(crate) fn forget_routes(&self, epoch: u64) {
        let mut routes = self.routes.lock().expect(ROUTES_POISONED);
        routes.answers.clear();
        routes.epoch = epoch;
    }

    /// The answer a completed search gave `key` in the current epoch; on a
    /// miss, the epoch the route map holds answers of, for
    /// [`Self::keep_route`].
    fn cached_route(&self, key: &RouteKey) -> Result<Arc<RouteAnswer>, u64> {
        let routes = self.routes.lock().expect(ROUTES_POISONED);
        match routes.answers.get(key) {
            Some(answer) if routes.epoch == self.epoch.load(Ordering::SeqCst) => {
                Ok(Arc::clone(answer))
            }
            _ => Err(routes.epoch),
        }
    }

    /// Keeps the answer of a search that pinned `snapshot_epoch`, if the
    /// route map held that epoch's answers both when the search looked it
    /// up (`held`, read before the snapshot) and now. Then the search began
    /// after that epoch's invalidation pass, so every distribution it read
    /// was valid for the epoch, and no update has emptied the map since —
    /// an update landing later empties it again.
    fn keep_route(&self, key: RouteKey, answer: RouteAnswer, held: u64, snapshot_epoch: u64) {
        let mut routes = self.routes.lock().expect(ROUTES_POISONED);
        if held == snapshot_epoch && routes.epoch == snapshot_epoch {
            routes.answers.insert_if_absent(key, Arc::new(answer));
        }
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

    /// The counters the acceptance benchmark reads, copied off the same
    /// instruments; every other number is read from [`Self::registry`].
    pub fn stats(&self) -> ServiceStats {
        let r = &self.recorder;
        ServiceStats {
            batches: r.batches.get(),
            batch_requests: r.batch_requests.get(),
            batch_jobs_deduplicated: 0,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_evictions: self.cache.evictions(),
            estimations: r.estimations.get(),
            route_expansions: r.route_expansions.get(),
            route_candidates_evaluated: r.route_candidates_evaluated.get(),
            route_incumbent_prunes: r.route_incumbent_prunes.get(),
            route_eval_cache_hits: r.route_eval_cache_hits.get(),
        }
    }

    /// Counts one request refused at the admission door because the service
    /// was degraded (`pathcost_admission_rejected_degraded_total`); called by the
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

    /// The admission lanes a server runs over the engine:
    /// [`ServiceConfig::workers`] clamped to at least one, or one per core
    /// (the process-wide pool's workers plus its submitter).
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// The distribution of `path` over the α-interval of `departure` under
    /// `regime`, read through the cache. A hit is noted in `counters` and
    /// counted when the query concludes. A miss is estimated against
    /// `snapshot` (see [`Self::graph_snapshot`]) and cached — by
    /// [`OdEstimator::estimate_with_artifacts`] at the interval's
    /// [`Self::canonical_departure`], so an entry is bit-identical to
    /// `OdEstimator::estimate` there — or, without a snapshot, reported as
    /// `Ok(None)` with nothing counted. A routing search passes the snapshot
    /// it pinned, so every candidate it estimates *fresh* is evaluated under
    /// that epoch (see the `Route` arm of `execute_inner`).
    fn lookup(
        &self,
        path: &Path,
        departure: Timestamp,
        regime: RegimeId,
        counters: &QueryCounters,
        snapshot: Option<&(u64, Arc<HybridGraph<'n>>)>,
    ) -> Result<Option<CachedDistribution>, ServiceError> {
        let interval = self.interval_of(departure);
        let (shard, found) = self.cache.probe(path, interval, regime);
        if let Some(hit) = found {
            counters.record_hit(shard, &hit);
            return Ok(Some(hit));
        }
        let Some((snapshot_epoch, graph)) = snapshot else {
            return Ok(None);
        };
        chaos_panic_failpoint(path);
        self.cache.count(shard, false);
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
        // Guard against a fill racing `apply_update`: an update published
        // while this estimation was in flight may already have run its
        // invalidation pass over this key's shard, which would strand a
        // pre-update entry no later update can find. So the entry lands only
        // if, under the shard lock, the epoch is still the snapshot's
        // (`snapshot_epoch` was read before the graph, see `graph_snapshot`):
        // an update's pass takes that lock after its bump, so either it finds
        // the entry with its reads or the fill sees the bump and keeps out.
        // The caller still gets its (raced, pre-update — allowed) answer, but
        // no other query ever reads it from the cache.
        let entry = Entry::new(value.clone(), reads, &artifacts.footprints);
        self.cache.insert_unless(path, interval, regime, entry, || {
            self.epoch.load(Ordering::SeqCst) != *snapshot_epoch
        });
        self.recorder.record_estimation(depth);
        counters.record_miss(depth, fallback_depth);
        self.recorder
            .record_regime_lookup(&self.registry, regime, false, fallback_depth);
        Ok(Some(value))
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
            let fill = Mode::Fill { degraded };
            (self.execute_inner(request, &counters, ctx, fill))
                .and_then(|answer| answer.ok_or(ServiceError::Internal("a fill left a miss")))
        };
        self.conclude(request, ctx, start.elapsed(), &counters, response, degraded)
    }

    /// Answers one envelope of requests from the distribution cache and the
    /// route map alone, estimating and searching nothing: `Some` with every
    /// outcome, each recorded as [`Self::execute_under`] records it, when
    /// every request hits; `None`, with nothing recorded, when any request
    /// misses, fails validation or sees `ctx` stop. The admission queue
    /// answers an envelope of hits on its connection thread this way.
    pub(crate) fn execute_cached(
        &self,
        requests: &[QueryRequest],
        ctx: &RequestContext,
    ) -> Option<Vec<QueryOutcome>> {
        let mut answered = Vec::with_capacity(requests.len());
        for request in requests {
            let (counters, start) = (QueryCounters::default(), Instant::now());
            let response =
                (self.execute_inner(request, &counters, ctx, Mode::CachedOnly)).ok()??;
            answered.push((response, counters, start.elapsed()));
        }
        let conclude = |(request, (response, counters, latency))| {
            (self.conclude(request, ctx, latency, &counters, Ok(response), false)).ok()
        };
        requests.iter().zip(answered).map(conclude).collect()
    }

    /// Records an answered query — its eval span and latency, the hits it
    /// read, its failure or degraded answer — and stamps its outcome.
    fn conclude(
        &self,
        request: &QueryRequest,
        ctx: &RequestContext,
        latency: Duration,
        counters: &QueryCounters,
        response: Result<QueryResponse, ServiceError>,
        degraded: bool,
    ) -> Result<QueryOutcome, ServiceError> {
        if let Some(trace) = ctx.trace() {
            trace.record(pathcost_obs::Stage::Eval, latency);
        }
        let regime = request.regime();
        for &(shard, fallback_depth) in counters.read.borrow().iter() {
            self.cache.count(shard, true);
            self.recorder
                .record_regime_lookup(&self.registry, regime, true, fallback_depth);
        }
        if counters.route_hit.get() {
            self.recorder.route_cache_hits.inc();
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
                cache_hits: counters.hits.get(),
                cache_misses: counters.misses.get(),
                max_decomposition_depth: counters.max_depth.get(),
                max_fallback_depth: counters.max_fallback.get(),
                latency,
                degraded,
            },
        })
    }

    /// Validates `request` and builds its response: the one code that does,
    /// for a dispatch lane and a connection thread alike. `Ok(None)` is a
    /// miss under [`Mode::CachedOnly`], which never estimates or searches.
    fn execute_inner(
        &self,
        request: &QueryRequest,
        counters: &QueryCounters,
        ctx: &RequestContext,
        mode: Mode,
    ) -> Result<Option<QueryResponse>, ServiceError> {
        // A fill estimates a distribution against the epoch published now.
        let snapshot = || matches!(mode, Mode::Fill { .. }).then(|| self.graph_snapshot());
        match request {
            QueryRequest::EstimateDistribution {
                path,
                departure,
                regime,
            } => {
                let fill = snapshot();
                let cached = self.lookup(path, *departure, *regime, counters, fill.as_ref())?;
                Ok(cached.map(|cached| QueryResponse::Distribution(cached.histogram)))
            }
            QueryRequest::ProbWithinBudget {
                path,
                departure,
                budget_s,
                regime,
            } => {
                validate_budget(*budget_s)?;
                let fill = snapshot();
                let cached = self.lookup(path, *departure, *regime, counters, fill.as_ref())?;
                Ok(cached.map(|cached| {
                    QueryResponse::Probability(prob_within_budget(&cached.histogram, *budget_s))
                }))
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
                    let fill = snapshot();
                    match self.lookup(path, *departure, *regime, counters, fill.as_ref()) {
                        Ok(Some(cached)) => ranking.push(RankedPath {
                            index,
                            probability: prob_within_budget(&cached.histogram, *budget_s),
                        }),
                        Ok(None) => return Ok(None),
                        // A candidate that cannot be estimated is not ranked.
                        Err(_) => {}
                    }
                }
                ranking.sort_by(|a, b| {
                    b.probability
                        .total_cmp(&a.probability)
                        .then(a.index.cmp(&b.index))
                });
                Ok(Some(QueryResponse::Ranking(ranking)))
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
                // A route answer is a pure function of the request and the
                // epoch's graph, so a search completed in this epoch answers
                // its request again — degraded or not — with the depths it
                // reported. The map is looked up before the snapshot is
                // pinned (see `keep_route`).
                let key = RouteKey {
                    source: *source,
                    destination: *destination,
                    departure: departure.0.to_bits(),
                    budget: budget_s.to_bits(),
                    k: *k,
                    regime: *regime,
                };
                let held = match self.cached_route(&key) {
                    Ok(answer) => {
                        counters.record_route_hit(&answer);
                        return Ok(Some(answer.response.clone()));
                    }
                    Err(held) => held,
                };
                let Mode::Fill { degraded } = mode else {
                    return Ok(None);
                };
                self.recorder.route_cache_misses.inc();
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
                // `lookup` binds it itself.
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
                let (mut ranked, telemetry) = match router.route_top_k(
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
                recorder.route_eval_cache_hits.add(counters.hits.get());
                recorder
                    .route_incumbent_prunes
                    .add(telemetry.incumbent_prunes as u64);
                recorder.route_expansions.add(telemetry.expansions as u64);
                let response = if *k == 1 {
                    let best = (!ranked.is_empty()).then(|| ranked.swap_remove(0));
                    QueryResponse::Route(best)
                } else {
                    QueryResponse::Routes(ranked)
                };
                // A degraded search ran on quartered budgets: its answer is
                // valid but not the one a full search gives, so it is not
                // kept. (A cancelled or expired one returned above.)
                if !degraded {
                    let answer = RouteAnswer {
                        response: response.clone(),
                        max_decomposition_depth: counters.max_depth.get(),
                        max_fallback_depth: counters.max_fallback.get(),
                    };
                    self.keep_route(key, answer, held, snapshot_epoch);
                }
                Ok(Some(response))
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
/// edge id, a fill about to estimate the single-edge path of exactly that
/// edge panics. The chaos harness points it at an edge id far outside any
/// real network so ordinary requests can never trip it; the panic exercises
/// the batch executor's containment (one poisoned request answers as an
/// internal error, the batch and its dispatch lane survive). A fill runs
/// only on a lane, so it never fires on a connection thread. See
/// `ROBUSTNESS.md`.
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
/// cache. A route asked again in the same epoch never reaches it — the
/// route map answers without a search — but searches that differ (another
/// budget, departure or `k` over a popular OD pair) share their candidates'
/// distributions through it and re-estimate nothing. The router asks
/// through [`CostEstimator::estimate_arc`], which this adapter answers with
/// the cached `Arc` itself — a hit costs a reference bump, not a histogram
/// copy.
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
        let (engine, pinned) = (self.engine, Some(&self.pinned));
        match engine.lookup(path, departure, self.regime, self.counters, pinned) {
            Ok(Some(cached)) => Ok(cached),
            Err(ServiceError::Core(core)) => Err(core),
            // A pinned snapshot fills every miss, and non-core failures
            // cannot escape a fill.
            _ => Err(pathcost_core::CoreError::NoDistribution),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_core::HybridConfig;
    use pathcost_roadnet::RoadNetwork;
    use pathcost_traj::{DatasetPreset, TrajectoryStore};
    use std::time::Duration;

    fn fixture() -> (RoadNetwork, TrajectoryStore, HybridConfig) {
        let (net, store) = DatasetPreset::tiny(331).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        (net, store, cfg)
    }

    fn route(budget_s: f64) -> QueryRequest {
        QueryRequest::Route {
            source: VertexId(0),
            destination: VertexId(18),
            departure: Timestamp::from_day_hms(0, 8, 0, 0),
            budget_s,
            k: 1,
            regime: RegimeId::ALL_TRAFFIC,
        }
    }

    fn kept(engine: &QueryEngine<'_>) -> usize {
        engine.routes.lock().unwrap().answers.len()
    }

    /// The best route's path and probability bits.
    fn best(response: &QueryResponse) -> Option<(Path, u64)> {
        (response.route()).map(|route| (route.path.clone(), route.probability.to_bits()))
    }

    /// Only a completed search at full budgets is kept: a degraded one, one
    /// whose deadline expires and one that is cancelled leave the route map
    /// empty, and the next full request searches.
    #[test]
    fn route_cache_keeps_nothing_from_degraded_expired_or_cancelled_searches() {
        let (net, store, cfg) = fixture();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
        let request = route(3_600.0);

        let degraded = engine.execute_under(&request, &RequestContext::unbounded(), true);
        assert!(degraded.unwrap().response.route().is_some());
        assert_eq!(kept(&engine), 0, "a degraded search is not kept");
        let expired = RequestContext::with_deadline(Some(Duration::ZERO));
        let cancelled = RequestContext::unbounded();
        cancelled.cancel();
        for (ctx, error) in [
            (&expired, ServiceError::DeadlineExceeded),
            (&cancelled, ServiceError::Cancelled),
        ] {
            // Straight into the `Route` arm, past `execute_under`'s
            // pre-flight check: the search itself stops at its first poll.
            let counters = QueryCounters::default();
            let fill = Mode::Fill { degraded: false };
            let stopped = engine.execute_inner(&request, &counters, ctx, fill);
            assert_eq!(stopped.unwrap_err().to_string(), error.to_string());
            assert_eq!(kept(&engine), 0, "a stopped search is not kept");
        }
        let misses = engine.recorder.route_cache_misses.get();
        assert_eq!(misses, 3);
        engine.execute(&request).unwrap();
        assert_eq!(kept(&engine), 1);
        // A degraded request reads what a full search kept.
        let again = engine.execute_under(&request, &RequestContext::unbounded(), true);
        assert_eq!(again.unwrap().stats.cache_hits, 1);
        assert_eq!(engine.recorder.route_cache_hits.get(), 1);
    }

    /// The route map answers only for the epoch it holds. Between an
    /// update's invalidation pass and its emptying the map (simulated here
    /// by publishing other weights, bumping the epoch and flushing the
    /// distribution cache), a request searches the new graph; and after
    /// `resume_epoch` the map holds the resumed epoch's answers.
    #[test]
    fn route_cache_answers_only_its_own_epoch() {
        let (net, store, cfg) = fixture();
        let half = TrajectoryStore::new(store.matched()[..store.len() / 3].to_vec());
        let full = Arc::new(HybridGraph::build(&net, &store, cfg.clone()).unwrap());
        let sparse = Arc::new(HybridGraph::build(&net, &half, cfg).unwrap());
        let request = route(1_500.0);
        let fresh = |graph: &Arc<HybridGraph<'_>>| {
            let engine = QueryEngine::new(graph.clone(), ServiceConfig::default());
            best(&engine.execute(&request).unwrap().response)
        };
        let (before, after) = (fresh(&full), fresh(&sparse));
        assert!(before.is_some() && after.is_some());
        assert_ne!(before, after, "the two weight functions route apart");

        let engine = QueryEngine::new(full, ServiceConfig::default());
        assert_eq!(best(&engine.execute(&request).unwrap().response), before);
        engine.publish_graph(sparse);
        engine.epoch.store(1, Ordering::SeqCst);
        engine.cache().clear();
        let raced = engine.execute(&request).unwrap();
        let hits = engine.recorder.route_cache_hits.get();
        assert_eq!(hits, 0, "an older epoch's answer is not read");
        assert_eq!(best(&raced.response), after);
        assert_eq!(
            kept(&engine),
            1,
            "nor is a search kept until the map moves on"
        );

        engine.resume_epoch(4);
        assert_eq!((kept(&engine), engine.epoch()), (0, 4));
        assert_eq!(best(&engine.execute(&request).unwrap().response), after);
        let hit = engine.execute(&request).unwrap();
        assert_eq!((hit.stats.cache_hits, best(&hit.response)), (1, after));
    }
}
