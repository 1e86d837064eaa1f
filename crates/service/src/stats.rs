//! The engine's metrics: registry-backed instruments and the typed view
//! over them.
//!
//! `StatsRecorder` registers every engine-level instrument — with the
//! family name and help text `GET /metrics` shows — in the engine's
//! [`Registry`] at construction and keeps the lock-free handles the query
//! path bumps. [`ServiceStats`] is the typed point-in-time *view*
//! [`QueryEngine::stats`](crate::QueryEngine::stats) fills by reading those
//! same handles (relaxed loads — totals can be off by in-flight queries, the
//! usual contract for serving metrics) for in-process readers; over HTTP the
//! numbers exist only as `GET /metrics` renders them.

use pathcost_obs::{Counter, Histogram, HistogramSnapshot, Registry};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Number of fixed regime-fallback depth buckets in [`ServiceStats`]:
/// bucket `d` counts distributions served whose deepest variable resolved
/// `d` rungs down the requested regime's fallback ladder (bucket 0 = fully
/// answered from the regime's own table). The last bucket absorbs deeper
/// ladders. Only non-global lookups are counted — the global regime never
/// falls back.
pub const FALLBACK_DEPTH_BUCKETS: usize = 5;

/// Upper bounds, in seconds, of every serving-latency histogram: the 31
/// power-of-two microsecond edges `2^(i+1) µs` (2 µs … ~36 minutes); the
/// implicit `+Inf` bucket takes anything slower.
pub(crate) fn latency_bounds() -> Vec<f64> {
    (0..31).map(|i| (1u64 << (i + 1)) as f64 / 1e6).collect()
}

/// Which kind of request a counter bucket refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `EstimateDistribution`.
    Estimate,
    /// `ProbWithinBudget`.
    Probability,
    /// `RankPaths`.
    Rank,
    /// `Route`.
    Route,
}

impl QueryKind {
    /// The `kind` label values, indexed by `self as usize`.
    const LABELS: [&'static str; 4] = ["estimate", "probability", "rank", "route"];
}

/// The engine's instruments. Events with a single call site bump the public
/// handles directly; the `record_*` methods cover the ones several paths
/// share.
pub(crate) struct StatsRecorder {
    shed_deadline: Counter,
    pub rejected_degraded: Counter,
    batches: Counter,
    batch_requests: Counter,
    queries: [Counter; 4],
    errors: Counter,
    latency: Histogram,
    latency_ok: Histogram,
    latency_failed: Histogram,
    latency_shed: Histogram,
    pub deadline_exceeded: Counter,
    pub cancelled: Counter,
    pub degraded_answers: Counter,
    pub panicked_queries: Counter,
    estimations: Counter,
    decomposition_depth_sum: Counter,
    pub route_expansions: Counter,
    pub route_candidates_evaluated: Counter,
    pub route_incumbent_prunes: Counter,
    pub route_eval_cache_hits: Counter,
    pub free_flow_hits: Counter,
    pub free_flow_misses: Counter,
    pub invalidation_tracked_evictions: Counter,
    pub invalidation_swept_evictions: Counter,
    regime_fallback: [Counter; FALLBACK_DEPTH_BUCKETS],
    pub ingest_updates: Counter,
    pub ingest_publish_latency: Histogram,
    pub ingest_trajectories: Counter,
    pub ingest_trajectories_retired: Counter,
    pub ingest_variables_updated: Counter,
    pub ingest_variables_added: Counter,
    pub ingest_variables_removed: Counter,
    /// Per-regime `(hits, misses)` handles, registered on a regime's first
    /// lookup. Behind a mutex because the regime set is open-ended — but the
    /// lock is only touched by *non-global* lookups, so the global hot path
    /// stays lock-free.
    regimes: Mutex<BTreeMap<u16, (Counter, Counter)>>,
}

impl StatsRecorder {
    /// Registers every engine-level family in `registry`; the field order
    /// below is the order the families appear on the page.
    pub fn new(registry: &Registry) -> Self {
        let counter = |name: &str, help: &str| registry.counter(name, help, &[]);
        let bounds = latency_bounds();
        let outcome = |outcome: &str| {
            registry.histogram(
                "pathcost_query_outcome_seconds",
                "Per-query latency split by outcome (shed = queue wait until shed).",
                &[("outcome", outcome)],
                &bounds,
            )
        };
        let invalidated = |mode: &str| {
            registry.counter(
                "pathcost_cache_invalidation_evictions_total",
                "Entries evicted by live-update invalidation, by mechanism.",
                &[("mode", mode)],
            )
        };
        let variables = |op: &str| {
            registry.counter(
                "pathcost_ingest_variables_total",
                "Weight-function variables touched by updates, by operation.",
                &[("op", op)],
            )
        };
        StatsRecorder {
            shed_deadline: counter(
                "pathcost_admission_shed_total",
                "Requests shed in the queue on an expired deadline (answered 504).",
            ),
            rejected_degraded: counter(
                "pathcost_admission_rejected_degraded_total",
                "Submissions refused at the admission door while degraded (answered 429).",
            ),
            batches: counter(
                "pathcost_batches_total",
                "Cross-connection batches dispatched.",
            ),
            batch_requests: counter(
                "pathcost_batch_requests_total",
                "Requests that arrived inside dispatched batches.",
            ),
            queries: QueryKind::LABELS.map(|kind| {
                registry.counter(
                    "pathcost_queries_total",
                    "Queries served by kind (including failed ones).",
                    &[("kind", kind)],
                )
            }),
            errors: counter(
                "pathcost_query_errors_total",
                "Queries that returned an error.",
            ),
            latency: registry.histogram(
                "pathcost_query_seconds",
                "Per-query evaluation latency, all outcomes merged.",
                &[],
                &bounds,
            ),
            latency_ok: outcome("ok"),
            latency_failed: outcome("failed"),
            latency_shed: outcome("shed"),
            deadline_exceeded: counter(
                "pathcost_deadline_exceeded_total",
                "Requests answered DeadlineExceeded (shed or mid-evaluation).",
            ),
            cancelled: counter(
                "pathcost_cancelled_total",
                "Requests abandoned mid-evaluation by explicit cancellation.",
            ),
            degraded_answers: counter(
                "pathcost_degraded_answers_total",
                "Requests answered in degraded mode (capped route budgets).",
            ),
            panicked_queries: counter(
                "pathcost_panicked_queries_total",
                "Query evaluations that panicked (contained, answered 500).",
            ),
            estimations: counter(
                "pathcost_estimations_total",
                "Full estimator runs (cache misses that did the work).",
            ),
            decomposition_depth_sum: counter(
                "pathcost_decomposition_components_total",
                "Coarsest-decomposition components summed over all estimator runs.",
            ),
            route_expansions: counter(
                "pathcost_route_expansions_total",
                "Partial paths popped and extended by the best-first router.",
            ),
            route_candidates_evaluated: counter(
                "pathcost_route_candidates_total",
                "Complete candidate paths evaluated across Route searches.",
            ),
            route_incumbent_prunes: counter(
                "pathcost_route_prunes_total",
                "Partial paths dropped by the router's incumbent bound.",
            ),
            route_eval_cache_hits: counter(
                "pathcost_route_cache_hits_total",
                "Distribution-cache hits scored by Route candidate evaluations.",
            ),
            free_flow_hits: registry.counter(
                "pathcost_free_flow_cache_hits_total",
                "Free-flow destination-index lookups answered from the per-network cache.",
                &[("map", "destination")],
            ),
            free_flow_misses: registry.counter(
                "pathcost_free_flow_cache_misses_total",
                "Free-flow searches run (a reverse Dijkstra per destination).",
                &[("map", "destination")],
            ),
            invalidation_tracked_evictions: invalidated("tracked"),
            invalidation_swept_evictions: invalidated("swept"),
            regime_fallback: std::array::from_fn(|depth| {
                let label = if depth == FALLBACK_DEPTH_BUCKETS - 1 {
                    format!("{depth}+")
                } else {
                    depth.to_string()
                };
                registry.counter(
                    "pathcost_regime_fallback_total",
                    "Regime-tagged lookups by fallback-ladder depth (0 = regime-specific data).",
                    &[("depth", &label)],
                )
            }),
            ingest_updates: counter(
                "pathcost_ingest_updates_total",
                "Live weight updates applied through apply_update.",
            ),
            ingest_publish_latency: registry.histogram(
                "pathcost_ingest_publish_seconds",
                "Wall time each update spent publishing its epoch (swap + invalidation).",
                &[],
                &bounds,
            ),
            ingest_trajectories: counter(
                "pathcost_ingest_trajectories_total",
                "Trajectories appended across applied updates.",
            ),
            ingest_trajectories_retired: counter(
                "pathcost_ingest_trajectories_retired_total",
                "Trajectories retired (TTL or removal) across applied updates.",
            ),
            ingest_variables_updated: variables("updated"),
            ingest_variables_added: variables("added"),
            ingest_variables_removed: variables("removed"),
            regimes: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn record_query(&self, kind: QueryKind, latency: Duration, ok: bool) {
        self.queries[kind as usize].inc();
        self.latency.observe_duration(latency);
        if ok {
            self.latency_ok.observe_duration(latency);
        } else {
            self.errors.inc();
            self.latency_failed.observe_duration(latency);
        }
    }

    /// Files a request shed in the admission queue because its deadline
    /// expired while it waited — answered 504 *before* any evaluation.
    /// `queued` is how long the request sat in the queue.
    pub fn record_shed(&self, queued: Duration) {
        self.shed_deadline.inc();
        self.deadline_exceeded.inc();
        self.latency_shed.observe_duration(queued);
    }

    pub fn record_estimation(&self, decomposition_depth: usize) {
        self.estimations.inc();
        self.decomposition_depth_sum.add(decomposition_depth as u64);
    }

    pub fn record_batch(&self, requests: u64) {
        self.batches.inc();
        self.batch_requests.add(requests);
    }

    /// Files one distribution lookup under the `pathcost_regime_*` families:
    /// its hit/miss under the requested regime (the `regime`-labelled series
    /// are registered on the regime's first lookup) and its fallback depth
    /// (the last bucket absorbs deeper ladders). All-traffic lookups are the
    /// engine-level counters and stay out of these families — and off the
    /// tally lock, which the hit path would otherwise contend on.
    pub fn record_regime_lookup(
        &self,
        registry: &Registry,
        regime: pathcost_core::RegimeId,
        hit: bool,
        fallback_depth: usize,
    ) {
        if regime.is_global() {
            return;
        }
        self.regime_fallback[fallback_depth.min(FALLBACK_DEPTH_BUCKETS - 1)].inc();
        let mut regimes = self.regimes.lock().expect("regime tally lock poisoned");
        let (hits, misses) = regimes.entry(regime.0).or_insert_with(|| {
            let label = regime.0.to_string();
            (
                registry.counter(
                    "pathcost_regime_cache_hits_total",
                    "Distribution-cache hits by requested (non-global) regime.",
                    &[("regime", &label)],
                ),
                registry.counter(
                    "pathcost_regime_cache_misses_total",
                    "Distribution-cache misses by requested (non-global) regime.",
                    &[("regime", &label)],
                ),
            )
        });
        if hit { hits } else { misses }.inc();
    }

    /// Reads every handle into the typed view; cache hit/miss/insertion/
    /// eviction totals are owned by the
    /// [`DistributionCache`](crate::cache::DistributionCache) and passed in.
    pub fn snapshot(
        &self,
        cache_hits: u64,
        cache_misses: u64,
        cache_insertions: u64,
        cache_evictions: u64,
    ) -> ServiceStats {
        let [estimate_queries, probability_queries, rank_queries, route_queries] =
            self.queries.each_ref().map(Counter::get);
        ServiceStats {
            estimate_queries,
            probability_queries,
            rank_queries,
            route_queries,
            errors: self.errors.get(),
            cache_hits,
            cache_misses,
            estimations: self.estimations.get(),
            decomposition_depth_sum: self.decomposition_depth_sum.get(),
            latency: self.latency.snapshot(),
            latency_ok: self.latency_ok.snapshot(),
            latency_failed: self.latency_failed.snapshot(),
            latency_shed: self.latency_shed.snapshot(),
            shed_deadline: self.shed_deadline.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            cancelled: self.cancelled.get(),
            degraded_answers: self.degraded_answers.get(),
            panicked_queries: self.panicked_queries.get(),
            batches: self.batches.get(),
            batch_requests: self.batch_requests.get(),
            batch_jobs_deduplicated: 0,
            route_candidates_evaluated: self.route_candidates_evaluated.get(),
            route_eval_cache_hits: self.route_eval_cache_hits.get(),
            route_incumbent_prunes: self.route_incumbent_prunes.get(),
            route_expansions: self.route_expansions.get(),
            free_flow_hits: self.free_flow_hits.get(),
            free_flow_misses: self.free_flow_misses.get(),
            cache_insertions,
            cache_evictions,
            ingest_updates: self.ingest_updates.get(),
            ingest_publish_latency: self.ingest_publish_latency.snapshot(),
            ingest_trajectories: self.ingest_trajectories.get(),
            ingest_trajectories_retired: self.ingest_trajectories_retired.get(),
            ingest_variables_updated: self.ingest_variables_updated.get(),
            ingest_variables_added: self.ingest_variables_added.get(),
            ingest_variables_removed: self.ingest_variables_removed.get(),
            invalidation_tracked_evictions: self.invalidation_tracked_evictions.get(),
            invalidation_swept_evictions: self.invalidation_swept_evictions.get(),
            rejected_degraded: self.rejected_degraded.get(),
            regime_fallback: self.regime_fallback.each_ref().map(Counter::get),
        }
    }
}

/// Point-in-time view of the engine's metrics, read off the registered
/// instruments by [`QueryEngine::stats`](crate::QueryEngine::stats).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceStats {
    /// `EstimateDistribution` queries served (including failed ones).
    pub estimate_queries: u64,
    /// `ProbWithinBudget` queries served.
    pub probability_queries: u64,
    /// `RankPaths` queries served.
    pub rank_queries: u64,
    /// `Route` queries served.
    pub route_queries: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Distribution-cache hits.
    pub cache_hits: u64,
    /// Distribution-cache misses.
    pub cache_misses: u64,
    /// Full estimations performed (cache misses that ran the estimator).
    pub estimations: u64,
    /// Sum of coarsest-decomposition component counts over all estimations.
    pub decomposition_depth_sum: u64,
    /// Fixed-bucket per-query latency distribution, in seconds — the tail
    /// ([`HistogramSnapshot::p50`] / [`HistogramSnapshot::p99`] /
    /// [`HistogramSnapshot::max`]) behind [`Self::mean_latency`]'s average.
    pub latency: HistogramSnapshot,
    /// Latency distribution of successful queries only.
    pub latency_ok: HistogramSnapshot,
    /// Latency distribution of failed queries (errors, deadline expiry,
    /// cancellation, contained panics).
    pub latency_failed: HistogramSnapshot,
    /// Queue-wait distribution of requests shed in the admission queue
    /// because their deadline expired before dispatch.
    pub latency_shed: HistogramSnapshot,
    /// Requests shed in the admission queue on an expired deadline — they
    /// were answered 504 without ever reaching a worker.
    pub shed_deadline: u64,
    /// All requests answered `DeadlineExceeded` — shed in the queue or
    /// abandoned mid-evaluation by the cooperative deadline poll.
    pub deadline_exceeded: u64,
    /// Requests abandoned mid-evaluation by explicit cancellation.
    pub cancelled: u64,
    /// Requests answered in degraded mode (route search budgets capped)
    /// under the load-watermark policy.
    pub degraded_answers: u64,
    /// Queries whose evaluation panicked; each panic was contained by the
    /// batch executor and answered as an internal error.
    pub panicked_queries: u64,
    /// Batches executed.
    pub batches: u64,
    /// Requests that arrived inside batches.
    pub batch_requests: u64,
    /// Always 0: a batch is one pass over its requests and folds no
    /// estimation jobs. Kept only because the benchmark reads the field.
    pub batch_jobs_deduplicated: u64,
    /// Complete candidate paths evaluated across all `Route` searches.
    pub route_candidates_evaluated: u64,
    /// Distribution-cache hits scored by `Route` candidate evaluations —
    /// how often the search frontier reused a `(path, interval)` entry from
    /// an earlier query or route.
    pub route_eval_cache_hits: u64,
    /// Partial paths dropped by the best-first router's incumbent bound
    /// across all `Route` searches.
    pub route_incumbent_prunes: u64,
    /// Partial paths popped and extended by the best-first router across all
    /// `Route` searches — the search-effort knob the candidate-budget
    /// trade-off (Fig 18) is tuned against.
    pub route_expansions: u64,
    /// Destination-index lookups (one per `Route` search) the engine's
    /// free-flow cache answered from a resident entry.
    pub free_flow_hits: u64,
    /// Destination-index lookups that ran the search instead — a reverse
    /// Dijkstra over the whole network.
    pub free_flow_misses: u64,
    /// Distribution-cache insertions (one per estimation).
    pub cache_insertions: u64,
    /// Distribution-cache entries dropped under capacity pressure (LRU).
    pub cache_evictions: u64,
    /// Live-ingest updates applied through
    /// [`QueryEngine::apply_update`](crate::QueryEngine::apply_update).
    pub ingest_updates: u64,
    /// Wall time each applied update spent publishing its epoch (graph swap
    /// plus targeted cache invalidation), as a latency distribution.
    pub ingest_publish_latency: HistogramSnapshot,
    /// Trajectories appended across all applied updates.
    pub ingest_trajectories: u64,
    /// Trajectories retired (TTL-expired or removed by id) across all
    /// applied updates.
    pub ingest_trajectories_retired: u64,
    /// Weight-function variables whose histograms were re-derived (their
    /// qualified occurrence sets changed) across all applied updates.
    pub ingest_variables_updated: u64,
    /// Weight-function variables newly instantiated (crossed β) across all
    /// applied updates.
    pub ingest_variables_added: u64,
    /// Weight-function variables deleted because their support dropped below
    /// β after trajectories were retired, across all applied updates.
    pub ingest_variables_removed: u64,
    /// Cache entries surgically evicted because their recorded reads name
    /// an updated or removed variable.
    pub invalidation_tracked_evictions: u64,
    /// Cache entries evicted by sub-path containment alone, for newly added
    /// or removed variables (which change candidate selection, not just
    /// values).
    pub invalidation_swept_evictions: u64,
    /// Requests answered 429 at the admission door because the service was
    /// already degraded when they arrived — shed *before* enqueueing, the
    /// load-watermark policy's early-rejection half.
    pub rejected_degraded: u64,
    /// Non-global distribution lookups by regime-fallback depth: bucket `d`
    /// counts distributions whose deepest variable resolved `d` rungs down
    /// the requested regime's fallback ladder (0 = the regime's own table;
    /// the last bucket absorbs deeper ladders). Per-regime hit/miss splits
    /// are the `pathcost_regime_cache_{hits,misses}_total` families on
    /// `/metrics` — they live behind a lock, outside this view.
    pub regime_fallback: [u64; FALLBACK_DEPTH_BUCKETS],
}

impl ServiceStats {
    /// Cache hit rate in `[0, 1]`; 0 before any lookup happened.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Total cache entries evicted by live-update invalidation (dependency-
    /// tracked plus containment-swept).
    pub fn invalidation_evictions(&self) -> u64 {
        self.invalidation_tracked_evictions + self.invalidation_swept_evictions
    }

    /// Fraction of inserted entries that were later evicted — capacity (LRU)
    /// and targeted invalidation combined — in `[0, 1]`; 0 before any
    /// insertion.
    pub fn eviction_rate(&self) -> f64 {
        if self.cache_insertions == 0 {
            0.0
        } else {
            (self.cache_evictions + self.invalidation_evictions()) as f64
                / self.cache_insertions as f64
        }
    }

    /// Mean components per coarsest decomposition; 0 before any estimation.
    pub fn mean_decomposition_depth(&self) -> f64 {
        if self.estimations == 0 {
            0.0
        } else {
            self.decomposition_depth_sum as f64 / self.estimations as f64
        }
    }

    /// Mean per-query latency; zero before any query.
    pub fn mean_latency(&self) -> Duration {
        match self.latency.count() {
            0 => Duration::ZERO,
            n => Duration::from_secs_f64(self.latency.sum / n as f64),
        }
    }
}

/// Renders `registry`, checks the page is a valid exposition and returns the
/// value of the series with exactly this name-plus-labels.
#[cfg(test)]
pub(crate) fn rendered_value(registry: &Registry, series: &str) -> f64 {
    let mut page = pathcost_obs::ExpositionWriter::new();
    registry.render_into(&mut page);
    let page = page.finish();
    pathcost_obs::expo::validate(&page).expect("registry renders a valid page");
    pathcost_obs::expo::series_value(&page, series)
        .unwrap_or_else(|| panic!("{series} missing:\n{page}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_core::RegimeId;

    #[test]
    fn snapshot_reflects_recorded_events() {
        let registry = Registry::new();
        let rec = StatsRecorder::new(&registry);
        rec.record_query(QueryKind::Estimate, Duration::from_micros(100), true);
        rec.record_query(QueryKind::Route, Duration::from_micros(300), false);
        rec.record_estimation(2);
        rec.record_estimation(4);
        rec.record_batch(10);
        rec.route_candidates_evaluated.add(5);
        rec.route_eval_cache_hits.add(2);
        rec.route_incumbent_prunes.add(9);
        rec.route_expansions.add(13);
        rec.ingest_updates.inc();
        rec.ingest_trajectories.add(25);
        rec.ingest_trajectories_retired.add(7);
        rec.ingest_variables_updated.add(4);
        rec.ingest_variables_added.add(2);
        rec.ingest_variables_removed.add(1);
        rec.invalidation_tracked_evictions.add(11);
        rec.invalidation_swept_evictions.add(3);
        rec.ingest_publish_latency
            .observe_duration(Duration::from_micros(40));
        rec.record_shed(Duration::from_micros(50));
        rec.deadline_exceeded.inc();
        rec.cancelled.inc();
        rec.degraded_answers.inc();
        rec.panicked_queries.inc();
        rec.rejected_degraded.inc();
        rec.record_regime_lookup(&registry, RegimeId(1), true, 0);
        rec.record_regime_lookup(&registry, RegimeId(1), false, 2);
        rec.record_regime_lookup(&registry, RegimeId(2), false, 99); // clamped into the last bucket
        let s = rec.snapshot(3, 1, 20, 5);
        assert_eq!(s.estimate_queries, 1);
        assert_eq!(s.route_queries, 1);
        assert_eq!(s.errors, 1);
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.mean_decomposition_depth() - 3.0).abs() < 1e-12);
        assert_eq!(s.mean_latency(), Duration::from_micros(200));
        assert_eq!(s.batches, 1);
        assert_eq!(s.batch_requests, 10);
        assert_eq!(s.batch_jobs_deduplicated, 0);
        assert_eq!(s.route_candidates_evaluated, 5);
        assert_eq!(s.route_eval_cache_hits, 2);
        assert_eq!(s.route_incumbent_prunes, 9);
        assert_eq!(s.route_expansions, 13);
        assert_eq!(s.ingest_updates, 1);
        assert_eq!(s.ingest_publish_latency.count(), 1);
        assert_eq!(s.ingest_trajectories, 25);
        assert_eq!(s.ingest_trajectories_retired, 7);
        assert_eq!(s.ingest_variables_updated, 4);
        assert_eq!(s.ingest_variables_added, 2);
        assert_eq!(s.ingest_variables_removed, 1);
        assert_eq!(s.invalidation_tracked_evictions, 11);
        assert_eq!(s.invalidation_swept_evictions, 3);
        assert_eq!(s.invalidation_evictions(), 14);
        assert_eq!(s.cache_insertions, 20);
        assert_eq!(s.cache_evictions, 5);
        // (5 LRU + 14 invalidated) / 20 insertions
        assert!((s.eviction_rate() - 0.95).abs() < 1e-12);
        // Outcome accounting: one ok + one failed query, one shed request,
        // and the shed also counts toward deadline_exceeded.
        assert_eq!(s.latency.count(), 2);
        assert_eq!(s.latency_ok.count(), 1);
        assert_eq!(s.latency_failed.count(), 1);
        assert_eq!(s.latency_shed.count(), 1);
        assert_eq!(s.shed_deadline, 1);
        assert_eq!(s.deadline_exceeded, 2);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.degraded_answers, 1);
        assert_eq!(s.panicked_queries, 1);
        assert_eq!(s.rejected_degraded, 1);
        assert_eq!(s.regime_fallback, [1, 0, 1, 0, 1]);
        // Per-regime splits exist only on the rendered page.
        for (series, want) in [
            (r#"pathcost_regime_cache_hits_total{regime="1"}"#, 1.0),
            (r#"pathcost_regime_cache_misses_total{regime="1"}"#, 1.0),
            (r#"pathcost_regime_cache_hits_total{regime="2"}"#, 0.0),
            (r#"pathcost_regime_cache_misses_total{regime="2"}"#, 1.0),
        ] {
            assert_eq!(rendered_value(&registry, series), want, "{series}");
        }
    }

    #[test]
    fn rendered_histogram_sums_are_exact() {
        let registry = Registry::new();
        let rec = StatsRecorder::new(&registry);
        // Durations far from any bucket's upper edge, so a sum rebuilt from
        // edges (up to 2x high) cannot pass for the real one.
        rec.record_query(QueryKind::Estimate, Duration::from_micros(1_100), true);
        rec.record_query(QueryKind::Rank, Duration::from_micros(2_300), true);
        rec.record_query(QueryKind::Route, Duration::from_micros(70), false);
        rec.record_shed(Duration::from_micros(5_000));
        rec.ingest_publish_latency
            .observe_duration(Duration::from_micros(33_000));
        rec.ingest_publish_latency
            .observe_duration(Duration::from_micros(9));
        for (series, micros) in [
            ("pathcost_query_seconds_sum", 3_470.0),
            (
                r#"pathcost_query_outcome_seconds_sum{outcome="ok"}"#,
                3_400.0,
            ),
            (
                r#"pathcost_query_outcome_seconds_sum{outcome="failed"}"#,
                70.0,
            ),
            (
                r#"pathcost_query_outcome_seconds_sum{outcome="shed"}"#,
                5_000.0,
            ),
            ("pathcost_ingest_publish_seconds_sum", 33_009.0),
        ] {
            let value = rendered_value(&registry, series);
            assert!(
                (value * 1e6 - micros).abs() < 1.0,
                "{series} = {value} s, want {micros} µs"
            );
        }
    }

    #[test]
    fn empty_snapshot_divides_safely() {
        let s = StatsRecorder::new(&Registry::new()).snapshot(0, 0, 0, 0);
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.mean_decomposition_depth(), 0.0);
        assert_eq!(s.mean_latency(), Duration::ZERO);
        assert_eq!(s.latency.p50(), 0.0);
        assert_eq!(s.latency.p99(), 0.0);
        assert_eq!(s.latency.max, 0.0);
        assert_eq!(s.eviction_rate(), 0.0);
        assert_eq!(s.invalidation_evictions(), 0);
    }
}
