//! The engine's metrics: registry-backed instruments.
//!
//! `StatsRecorder` registers every engine-level instrument — with the
//! family name and help text `GET /metrics` shows — in the engine's
//! [`Registry`] at construction and keeps the lock-free handles the query
//! path bumps. A reader looks a number up by family name in that registry
//! (`Registry::value`), as the page renders it. [`ServiceStats`] copies
//! the eleven counters the acceptance benchmark reads (relaxed loads —
//! totals can be off by in-flight queries, the usual contract for serving
//! metrics).

use pathcost_obs::{Counter, Histogram, Registry};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Number of fixed `pathcost_regime_fallback_total` depth buckets:
/// bucket `d` counts distributions served whose deepest variable resolved
/// `d` rungs down the requested regime's fallback ladder (bucket 0 = fully
/// answered from the regime's own table). The last bucket absorbs deeper
/// ladders. Only non-global lookups are counted — the global regime never
/// falls back.
pub(crate) const FALLBACK_DEPTH_BUCKETS: usize = 5;

/// Upper bounds, in seconds, of every serving-latency histogram: the 31
/// power-of-two microsecond edges `2^(i+1) µs` (2 µs … ~36 minutes); the
/// implicit `+Inf` bucket takes anything slower.
pub(crate) fn latency_bounds() -> Vec<f64> {
    (0..31).map(|i| (1u64 << (i + 1)) as f64 / 1e6).collect()
}

/// Which kind of request a counter bucket refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueryKind {
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
    pub batches: Counter,
    pub batch_requests: Counter,
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
    pub estimations: Counter,
    decomposition_depth_sum: Counter,
    pub route_expansions: Counter,
    pub route_candidates_evaluated: Counter,
    pub route_incumbent_prunes: Counter,
    pub route_eval_cache_hits: Counter,
    pub route_cache_hits: Counter,
    pub route_cache_misses: Counter,
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
                "pathcost_route_eval_cache_hits_total",
                "Distribution-cache hits scored by Route candidate evaluations.",
            ),
            route_cache_hits: counter(
                "pathcost_route_cache_hits_total",
                "Route requests answered by a search completed earlier in the epoch.",
            ),
            route_cache_misses: counter(
                "pathcost_route_cache_misses_total",
                "Route requests that ran a search (a valid request the route map did not hold).",
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
}

/// The engine counters the acceptance benchmark reads, as of one call to
/// [`QueryEngine::stats`](crate::QueryEngine::stats). Every other engine
/// number is read from [`QueryEngine::registry`](crate::QueryEngine::registry)
/// by family name (`Registry::value`), as `GET /metrics` renders it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceStats {
    /// Batches executed (`pathcost_batches_total`).
    pub batches: u64,
    /// Requests that arrived inside batches (`pathcost_batch_requests_total`).
    pub batch_requests: u64,
    /// Always 0: a batch is one pass over its requests and folds no
    /// estimation jobs. Kept only because the benchmark reads the field.
    pub batch_jobs_deduplicated: u64,
    /// Distribution-cache hits, summed over the shards of
    /// `pathcost_cache_hits_total`.
    pub cache_hits: u64,
    /// Distribution-cache misses (`pathcost_cache_misses_total`, summed).
    pub cache_misses: u64,
    /// LRU capacity evictions (`pathcost_cache_evictions_total`, summed).
    pub cache_evictions: u64,
    /// Full estimator runs (`pathcost_estimations_total`).
    pub estimations: u64,
    /// Partial paths the router expanded (`pathcost_route_expansions_total`).
    pub route_expansions: u64,
    /// Complete candidate paths the router evaluated
    /// (`pathcost_route_candidates_total`).
    pub route_candidates_evaluated: u64,
    /// Partial paths dropped by the incumbent bound
    /// (`pathcost_route_prunes_total`).
    pub route_incumbent_prunes: u64,
    /// Cache hits scored by route candidate evaluations
    /// (`pathcost_route_eval_cache_hits_total`).
    pub route_eval_cache_hits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_core::RegimeId;

    #[test]
    fn recorded_events_render_under_their_families() {
        let registry = Registry::new();
        let rec = StatsRecorder::new(&registry);
        rec.record_query(QueryKind::Estimate, Duration::from_micros(100), true);
        rec.record_query(QueryKind::Route, Duration::from_micros(300), false);
        rec.record_estimation(2);
        rec.record_estimation(4);
        rec.record_batch(10);
        rec.route_candidates_evaluated.add(5);
        rec.route_eval_cache_hits.add(2);
        rec.route_cache_hits.add(6);
        rec.route_cache_misses.add(8);
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
        let mut page = pathcost_obs::ExpositionWriter::new();
        registry.render_into(&mut page);
        pathcost_obs::expo::validate(&page.finish()).expect("registry renders a valid page");
        for (series, want) in [
            (r#"pathcost_queries_total{kind="estimate"}"#, 1.0),
            (r#"pathcost_queries_total{kind="probability"}"#, 0.0),
            (r#"pathcost_queries_total{kind="route"}"#, 1.0),
            ("pathcost_query_errors_total", 1.0),
            ("pathcost_estimations_total", 2.0),
            ("pathcost_decomposition_components_total", 6.0),
            ("pathcost_batches_total", 1.0),
            ("pathcost_batch_requests_total", 10.0),
            ("pathcost_route_candidates_total", 5.0),
            ("pathcost_route_eval_cache_hits_total", 2.0),
            ("pathcost_route_cache_hits_total", 6.0),
            ("pathcost_route_cache_misses_total", 8.0),
            ("pathcost_route_prunes_total", 9.0),
            ("pathcost_route_expansions_total", 13.0),
            ("pathcost_ingest_updates_total", 1.0),
            ("pathcost_ingest_publish_seconds_count", 1.0),
            ("pathcost_ingest_trajectories_total", 25.0),
            ("pathcost_ingest_trajectories_retired_total", 7.0),
            (r#"pathcost_ingest_variables_total{op="updated"}"#, 4.0),
            (r#"pathcost_ingest_variables_total{op="added"}"#, 2.0),
            (r#"pathcost_ingest_variables_total{op="removed"}"#, 1.0),
            (
                r#"pathcost_cache_invalidation_evictions_total{mode="tracked"}"#,
                11.0,
            ),
            (
                r#"pathcost_cache_invalidation_evictions_total{mode="swept"}"#,
                3.0,
            ),
            // Outcome accounting: one ok + one failed query, one shed
            // request, and the shed also counts toward deadline_exceeded.
            ("pathcost_query_seconds_count", 2.0),
            (r#"pathcost_query_outcome_seconds_count{outcome="ok"}"#, 1.0),
            (
                r#"pathcost_query_outcome_seconds_count{outcome="failed"}"#,
                1.0,
            ),
            (
                r#"pathcost_query_outcome_seconds_count{outcome="shed"}"#,
                1.0,
            ),
            ("pathcost_admission_shed_total", 1.0),
            ("pathcost_deadline_exceeded_total", 2.0),
            ("pathcost_cancelled_total", 1.0),
            ("pathcost_degraded_answers_total", 1.0),
            ("pathcost_panicked_queries_total", 1.0),
            ("pathcost_admission_rejected_degraded_total", 1.0),
            (r#"pathcost_regime_fallback_total{depth="0"}"#, 1.0),
            (r#"pathcost_regime_fallback_total{depth="1"}"#, 0.0),
            (r#"pathcost_regime_fallback_total{depth="2"}"#, 1.0),
            (r#"pathcost_regime_fallback_total{depth="4+"}"#, 1.0),
            (r#"pathcost_regime_cache_hits_total{regime="1"}"#, 1.0),
            (r#"pathcost_regime_cache_misses_total{regime="1"}"#, 1.0),
            (r#"pathcost_regime_cache_hits_total{regime="2"}"#, 0.0),
            (r#"pathcost_regime_cache_misses_total{regime="2"}"#, 1.0),
        ] {
            assert_eq!(registry.value(series), Some(want), "{series}");
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
            let value = registry.value(series).expect(series);
            assert!(
                (value * 1e6 - micros).abs() < 1.0,
                "{series} = {value} s, want {micros} µs"
            );
        }
    }
}
