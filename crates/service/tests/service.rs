//! Integration tests of the query-serving subsystem: cache semantics across
//! departure intervals, batch-vs-sequential equivalence, concurrent read
//! correctness, live-update invalidation and k-best routing.

use pathcost_core::{CostEstimator, HybridConfig, HybridGraph, OdEstimator, PathWeightFunction};
use pathcost_live::LiveIngestor;
use pathcost_roadnet::{Path, RoadNetwork, VertexId};
use pathcost_service::{
    QueryEngine, QueryOutcome, QueryRequest, QueryResponse, ServiceConfig, ServiceError,
};
use pathcost_traj::{DatasetPreset, Timestamp, TrajectoryStore};
use std::sync::Arc;

/// One engine series as `GET /metrics` renders it, read by family name.
fn metric(engine: &QueryEngine<'_>, series: &str) -> u64 {
    engine
        .registry()
        .value(series)
        .unwrap_or_else(|| panic!("{series} is not registered")) as u64
}

/// `(hits, misses)` of the engine's free-flow destination cache.
fn free_flow(engine: &QueryEngine<'_>) -> (u64, u64) {
    (
        metric(
            engine,
            r#"pathcost_free_flow_cache_hits_total{map="destination"}"#,
        ),
        metric(
            engine,
            r#"pathcost_free_flow_cache_misses_total{map="destination"}"#,
        ),
    )
}

struct Fixture {
    net: RoadNetwork,
    store: TrajectoryStore,
    cfg: HybridConfig,
}

fn fixture(seed: u64) -> Fixture {
    let (net, store) = DatasetPreset::tiny(seed).materialise().unwrap();
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    Fixture { net, store, cfg }
}

fn query_paths(store: &TrajectoryStore, n: usize) -> Vec<(Path, Timestamp)> {
    let mut out = Vec::new();
    for (path, _) in store.frequent_paths(3, 10, None) {
        let departure = store.occurrences_on(&path)[0].entry_time;
        out.push((path, departure));
        if out.len() == n {
            break;
        }
    }
    assert!(!out.is_empty(), "fixture needs frequent paths");
    out
}

#[test]
fn cache_semantics_across_departure_intervals() {
    let f = fixture(301);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let (path, departure) = query_paths(&f.store, 1).remove(0);

    // First query: a miss that runs the estimator and fills the cache.
    let first = engine
        .execute(&QueryRequest::EstimateDistribution {
            path: path.clone(),
            departure,
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        })
        .unwrap();
    assert_eq!(first.stats.cache_misses, 1);
    assert_eq!(first.stats.cache_hits, 0);
    assert!(first.stats.max_decomposition_depth >= 1);

    // Any departure in the same α-interval: a hit with the identical result.
    let same_interval = departure.plus(30.0);
    assert_eq!(
        engine.interval_of(departure),
        engine.interval_of(same_interval)
    );
    let second = engine
        .execute(&QueryRequest::EstimateDistribution {
            path: path.clone(),
            departure: same_interval,
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        })
        .unwrap();
    assert_eq!(second.stats.cache_hits, 1);
    assert_eq!(second.stats.cache_misses, 0);
    assert_eq!(
        first.response.distribution().unwrap(),
        second.response.distribution().unwrap()
    );

    // A departure in a different interval keys a different entry.
    let alpha_s = f.cfg.alpha_minutes as f64 * 60.0;
    let other_interval = departure.plus(alpha_s);
    assert_ne!(
        engine.interval_of(departure),
        engine.interval_of(other_interval)
    );
    let third = engine
        .execute(&QueryRequest::EstimateDistribution {
            path: path.clone(),
            departure: other_interval,
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        })
        .unwrap();
    assert_eq!(third.stats.cache_misses, 1);
    assert_eq!(engine.cache().len(), 2);

    // The cached distribution is exactly the OD estimate at the engine's
    // canonical (interval-start) departure.
    let graph2 = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let od = OdEstimator::new(&graph2);
    let canonical = engine.canonical_departure(engine.interval_of(departure));
    let direct = od.estimate(&path, canonical).unwrap();
    assert_eq!(first.response.distribution().unwrap(), &direct);

    let stats = engine.stats();
    assert_eq!(
        metric(&engine, r#"pathcost_queries_total{kind="estimate"}"#),
        3
    );
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 2);
    assert!(metric(&engine, "pathcost_decomposition_components_total") >= stats.estimations);
}

#[test]
fn probability_and_ranking_read_the_same_cache() {
    let f = fixture(302);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let pairs = query_paths(&f.store, 3);
    let departure = pairs[0].1;
    let candidates: Vec<Path> = pairs.iter().map(|(p, _)| p.clone()).collect();

    let ranking = engine
        .execute(&QueryRequest::RankPaths {
            candidates: candidates.clone(),
            departure,
            budget_s: 1e6,
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        })
        .unwrap();
    let ranked = ranking.response.ranking().unwrap().to_vec();
    assert!(!ranked.is_empty());
    // With an effectively unbounded budget every estimated candidate
    // completes with probability 1.
    assert!(ranked.iter().all(|r| (r.probability - 1.0).abs() < 1e-9));

    // A follow-up point query on a ranked candidate is a pure cache hit.
    let followup = engine
        .execute(&QueryRequest::ProbWithinBudget {
            path: candidates[ranked[0].index].clone(),
            departure,
            budget_s: 600.0,
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        })
        .unwrap();
    assert_eq!(followup.stats.cache_hits, 1);
    assert_eq!(followup.stats.cache_misses, 0);
    let p = followup.response.probability().unwrap();
    assert!((0.0..=1.0).contains(&p));
}

/// A histogram as raw bits, so comparisons see `-0.0` and the last ulp.
fn histogram_bits(h: &pathcost_hist::Histogram1D) -> Vec<[u64; 3]> {
    h.buckets()
        .iter()
        .zip(h.probs())
        .map(|(b, &p)| [b.lo, b.hi, p].map(f64::to_bits))
        .collect()
}

/// Asserts two answers to the same request are equal bit for bit (per-query
/// `stats` aside: hits and misses legitimately depend on the cache state).
fn assert_bit_identical(i: usize, a: &QueryResponse, b: &QueryResponse) {
    let route_bits = |r: &pathcost_routing::RouteResult| {
        (
            r.path.clone(),
            r.probability.to_bits(),
            histogram_bits(&r.distribution),
        )
    };
    match (a, b) {
        (QueryResponse::Distribution(a), QueryResponse::Distribution(b)) => {
            assert_eq!(histogram_bits(a), histogram_bits(b), "request {i}")
        }
        (QueryResponse::Probability(a), QueryResponse::Probability(b)) => {
            assert_eq!(a.to_bits(), b.to_bits(), "request {i}: {a} vs {b}")
        }
        (QueryResponse::Ranking(a), QueryResponse::Ranking(b)) => {
            let bits = |r: &[pathcost_service::RankedPath]| -> Vec<(usize, u64)> {
                r.iter()
                    .map(|x| (x.index, x.probability.to_bits()))
                    .collect()
            };
            assert_eq!(bits(a), bits(b), "request {i}");
        }
        (QueryResponse::Route(a), QueryResponse::Route(b)) => {
            assert_eq!(
                a.as_ref().map(route_bits),
                b.as_ref().map(route_bits),
                "request {i}"
            )
        }
        (QueryResponse::Routes(a), QueryResponse::Routes(b)) => {
            let bits = |r: &[pathcost_routing::RouteResult]| -> Vec<_> {
                r.iter().map(route_bits).collect()
            };
            assert_eq!(bits(a), bits(b), "request {i}");
        }
        _ => panic!("request {i}: response kinds diverge"),
    }
}

#[test]
fn batch_execution_equals_sequential_execution() {
    use pathcost_service::RegimeId;
    use pathcost_traj::{tag_batch, PeakOffPeak, RegimeSchema};

    // A regime-tagged store, so the batch mixes the global regime with one
    // that answers from its own table (peak = 1) through the fallback ladder.
    let f = fixture(303);
    let peak = RegimeId(1);
    let mut matched = f.store.matched().to_vec();
    tag_batch(
        &mut matched,
        &PeakOffPeak {
            peak,
            off_peak: RegimeId(2),
            ..PeakOffPeak::default()
        },
    );
    let store = TrajectoryStore::new(matched);
    let cfg = HybridConfig {
        regimes: RegimeSchema::flat()
            .with_group(peak, RegimeId::ALL_TRAFFIC)
            .with_group(RegimeId(2), RegimeId::ALL_TRAFFIC),
        ..f.cfg.clone()
    };
    let weights = PathWeightFunction::instantiate(&f.net, &store, &cfg).unwrap();
    assert!(weights.tables().contains_key(&peak));
    let pairs = query_paths(&store, 4);
    let departure = pairs[0].1;

    // A mixed batch with deliberate duplication: every path appears in an
    // estimate, a probability query and the ranking, under both regimes,
    // beside one route search per regime. Requests sharing a key may fill it
    // concurrently; both compute the same bits.
    let mut requests: Vec<QueryRequest> = Vec::new();
    for regime in [RegimeId::ALL_TRAFFIC, peak] {
        for (path, dep) in &pairs {
            requests.push(QueryRequest::EstimateDistribution {
                path: path.clone(),
                departure: *dep,
                regime,
            });
            requests.push(QueryRequest::ProbWithinBudget {
                path: path.clone(),
                departure: *dep,
                budget_s: 900.0,
                regime,
            });
        }
        requests.push(QueryRequest::RankPaths {
            candidates: pairs.iter().map(|(p, _)| p.clone()).collect(),
            departure,
            budget_s: 900.0,
            regime,
        });
        requests.push(QueryRequest::Route {
            source: VertexId(0),
            destination: VertexId(18),
            departure: Timestamp::from_day_hms(0, 8, 0, 0),
            budget_s: 3_600.0,
            k: if regime.is_global() { 1 } else { 3 },
            regime,
        });
    }

    let engine = || {
        QueryEngine::new(
            Arc::new(HybridGraph::from_parts(
                &f.net,
                weights.clone(),
                cfg.clone(),
            )),
            ServiceConfig::default(),
        )
    };
    let seq_engine = engine();
    let sequential: Vec<_> = requests.iter().map(|r| seq_engine.execute(r)).collect();
    let assert_equals_sequential = |results: &[Result<QueryOutcome, ServiceError>]| {
        assert_eq!(results.len(), sequential.len());
        for (i, (batch, seq)) in results.iter().zip(&sequential).enumerate() {
            let batch = batch.as_ref().expect("batch request succeeds");
            let seq = seq.as_ref().expect("sequential request succeeds");
            assert_bit_identical(i, &batch.response, &seq.response);
        }
    };

    // Cold: the batch's requests fill every key themselves.
    let cold_engine = engine();
    assert_equals_sequential(&cold_engine.execute_batch(&requests));
    // Pre-warmed by point queries arriving in the opposite order: who filled
    // a key first never shows in an answer, rankings and routes included.
    let warm_engine = engine();
    for request in requests.iter().rev() {
        warm_engine.execute(request).unwrap();
    }
    assert_equals_sequential(&warm_engine.execute_batch(&requests));
    // Submitted from inside tasks of the process-wide pool, as from a fit
    // or another lane's batch: both batches find the one pool busy and run
    // on their callers, sharing one cold engine.
    let nested_engine = engine();
    let nested: [std::sync::OnceLock<_>; 2] = Default::default();
    pathcost_core::exec::global().run(2, |i| {
        let _ = nested[i].set(nested_engine.execute_batch(&requests));
    });
    for answers in nested {
        assert_equals_sequential(&answers.into_inner().expect("both tasks ran"));
    }

    // The cold batch cached exactly the keys sequential execution did, and
    // read entries its own requests filled: each probability query follows
    // the estimate of its key, and each ranking reads the key of the first
    // path's estimate, so no hit at all would need all ten of those reads
    // to race their fillers.
    let stats = cold_engine.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(cold_engine.cache().len(), seq_engine.cache().len());
    assert!(stats.cache_hits > 0, "the batch must hit keys it filled");
}

/// A `Route` under a regime searches that regime's view: its partial chains
/// and incumbent bound read the regime's own unit table, as its candidates
/// do. Regime 1 holds the even trajectory ids of a 4× tiny preset, so every
/// unit variable it has is fitted from half the samples and differs from
/// the all-traffic one. The engine over the unbound graph must answer what
/// the engine over `graph.for_regime(1)` answers. Before the router was
/// bound, the pair 20 → 7 at 08:00 on 1.2 × its free-flow time answered
/// P = 0.1196 after 8 expansions through the unbound engine and P = 0.1396
/// after 9 through the bound one.
#[test]
fn route_searches_under_the_requested_regime() {
    use pathcost_service::RegimeId;
    use pathcost_traj::RegimeSchema;

    let (net, store) = DatasetPreset::tiny(303)
        .with_trip_factor(4.0)
        .materialise()
        .unwrap();
    let regime = RegimeId(1);
    let mut matched = store.matched().to_vec();
    for m in &mut matched {
        m.regime = if m.id % 2 == 0 { regime } else { RegimeId(2) };
    }
    let store = TrajectoryStore::new(matched);
    let cfg = HybridConfig {
        beta: 10,
        regimes: RegimeSchema::flat()
            .with_group(regime, RegimeId::ALL_TRAFFIC)
            .with_group(RegimeId(2), RegimeId::ALL_TRAFFIC),
        ..HybridConfig::default()
    };
    let weights = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
    assert!(weights.tables()[&regime]
        .iter()
        .any(|v| v.path.cardinality() == 1));
    let graph = HybridGraph::from_parts(&net, weights, cfg);

    let (source, destination) = (VertexId(20), VertexId(7));
    let fastest = pathcost_roadnet::search::fastest_path(&net, source, destination).unwrap();
    let request = QueryRequest::Route {
        source,
        destination,
        departure: Timestamp::from_day_hms(0, 8, 0, 0),
        budget_s: 1.2 * pathcost_roadnet::search::free_flow_time_s(&net, &fastest),
        k: 1,
        regime,
    };
    let answer = |graph: HybridGraph<'_>| {
        let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
        let response = engine.execute(&request).unwrap().response;
        let route = response.route().map(|route| {
            (
                route.path.clone(),
                route.probability.to_bits(),
                histogram_bits(&route.distribution),
            )
        });
        (route, engine.stats().route_expansions)
    };
    let bound = answer(graph.for_regime(regime));
    assert!(bound.0.is_some(), "the pair is feasible under its regime");
    assert_eq!(answer(graph), bound);
}

#[test]
fn concurrent_readers_get_identical_distributions() {
    let f = fixture(304);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let pairs = query_paths(&f.store, 3);

    const THREADS: usize = 8;
    let all: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                let pairs = &pairs;
                scope.spawn(move || {
                    // Interleave differently per thread to stress the shards.
                    let mut mine = Vec::new();
                    for k in 0..pairs.len() {
                        let (path, departure) = &pairs[(k + t) % pairs.len()];
                        let outcome = engine
                            .execute(&QueryRequest::EstimateDistribution {
                                path: path.clone(),
                                departure: *departure,
                                regime: pathcost_service::RegimeId::ALL_TRAFFIC,
                            })
                            .expect("estimation succeeds");
                        let QueryResponse::Distribution(hist) = outcome.response else {
                            panic!("wrong response kind");
                        };
                        mine.push(((k + t) % pairs.len(), hist));
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every thread observed the same distribution for the same query.
    for results in &all {
        for (slot, hist) in results {
            let reference = all[0]
                .iter()
                .find(|(s, _)| s == slot)
                .map(|(_, h)| h)
                .unwrap();
            assert_eq!(hist, reference);
        }
    }
    // Each unique (path, interval) was estimated at most... exactly once? Two
    // threads can race past the same cache miss and both estimate; the cache
    // stays consistent because both compute identical values. What must hold:
    // the cache holds one entry per unique job and most lookups were hits.
    let stats = engine.stats();
    let unique: std::collections::HashSet<_> = pairs
        .iter()
        .map(|(p, d)| (p.fingerprint(), engine.interval_of(*d)))
        .collect();
    assert_eq!(engine.cache().len(), unique.len());
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        (THREADS * pairs.len()) as u64
    );
    assert!(stats.cache_hits >= (THREADS * pairs.len() - THREADS * unique.len()) as u64);
}

#[test]
fn routing_reads_through_the_cache_across_queries() {
    let f = fixture(305);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let departure = Timestamp::from_day_hms(0, 8, 0, 0);
    let request = QueryRequest::Route {
        source: VertexId(0),
        destination: VertexId(18),
        departure,
        budget_s: 3_600.0,
        k: 1,
        regime: pathcost_service::RegimeId::ALL_TRAFFIC,
    };

    let first = engine.execute(&request).unwrap();
    let Some(route) = first.response.route() else {
        panic!("a one-hour budget on the tiny grid must be feasible");
    };
    assert!(route.probability > 0.0);
    assert!(
        first.stats.cache_misses > 0,
        "cold cache estimates candidates"
    );

    // The same route query again: every candidate distribution is cached.
    let second = engine.execute(&request).unwrap();
    let reroute = second.response.route().expect("still feasible");
    assert_eq!(route.path, reroute.path);
    assert!((route.probability - reroute.probability).abs() < 1e-12);
    assert_eq!(
        second.stats.cache_misses, 0,
        "warm cache re-estimates nothing"
    );
    assert!(second.stats.cache_hits > 0);
    assert!(
        second.stats.latency
            <= first
                .stats
                .latency
                .max(std::time::Duration::from_millis(50))
    );
}

#[test]
fn warm_hits_share_the_cached_histogram_allocation() {
    // The warm serving path must be allocation-free: every response for the
    // same (path, interval) hands out the same Arc'd histogram.
    let f = fixture(307);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let (path, departure) = query_paths(&f.store, 1).remove(0);
    let request = QueryRequest::EstimateDistribution {
        path,
        departure,
        regime: pathcost_service::RegimeId::ALL_TRAFFIC,
    };

    let first = engine.execute(&request).unwrap();
    let second = engine.execute(&request).unwrap();
    let QueryResponse::Distribution(a) = &first.response else {
        panic!("expected a distribution");
    };
    let QueryResponse::Distribution(b) = &second.response else {
        panic!("expected a distribution");
    };
    assert!(
        Arc::ptr_eq(a, b),
        "a warm hit must share the cached allocation, not copy it"
    );
    assert_eq!(second.stats.cache_hits, 1);
    assert_eq!(second.stats.cache_misses, 0);
}

#[test]
fn route_counters_track_search_and_cache_reuse() {
    let f = fixture(308);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let departure = Timestamp::from_day_hms(0, 8, 0, 0);
    let request = QueryRequest::Route {
        source: VertexId(0),
        destination: VertexId(18),
        departure,
        budget_s: 3_600.0,
        k: 1,
        regime: pathcost_service::RegimeId::ALL_TRAFFIC,
    };

    let first = engine.execute(&request).unwrap();
    assert!(first.response.route().is_some());
    let stats = engine.stats();
    assert!(
        stats.route_candidates_evaluated > 0,
        "the search must have evaluated candidates"
    );
    let evaluated_after_first = stats.route_candidates_evaluated;

    // The same pair under another budget searches again, and its candidate
    // evaluations hit the distribution cache.
    let mut tighter = request.clone();
    if let QueryRequest::Route { budget_s, .. } = &mut tighter {
        *budget_s = 3_000.0;
    }
    let second = engine.execute(&tighter).unwrap();
    assert!(second.response.route().is_some());
    let stats = engine.stats();
    assert!(stats.route_candidates_evaluated > evaluated_after_first);
    assert!(
        stats.route_eval_cache_hits > 0,
        "Route requests must reuse (path, interval) entries"
    );
    assert_eq!(
        metric(&engine, r#"pathcost_queries_total{kind="route"}"#),
        2
    );

    // The identical request again is answered by the route map: no search.
    let third = engine.execute(&request).unwrap();
    assert_bit_identical(0, &first.response, &third.response);
    assert_eq!((third.stats.cache_hits, third.stats.cache_misses), (1, 0));
    assert_eq!(engine.stats().route_expansions, stats.route_expansions);
    assert_eq!(metric(&engine, "pathcost_route_cache_hits_total"), 1);
    assert_eq!(metric(&engine, "pathcost_route_cache_misses_total"), 2);
}

/// The stats a route answer reports whatever the cache held: its two
/// depths, with the hit and miss counts left out.
fn depths(outcome: &QueryOutcome) -> (usize, usize) {
    (
        outcome.stats.max_decomposition_depth,
        outcome.stats.max_fallback_depth,
    )
}

/// A repeated `Route` is answered by the route map, bit for bit what a
/// fresh engine's search answers — path, probability, histogram and the
/// two depths — for k = 1 and k = 2, under the global regime and under one
/// the schema does not declare (which falls back to the global table).
#[test]
fn route_cache_hits_answer_like_a_fresh_search() {
    use pathcost_service::RegimeId;

    let f = fixture(321);
    let graph = Arc::new(HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap());
    let fresh = || QueryEngine::new(graph.clone(), ServiceConfig::default());
    let mut fell_back = false;
    for regime in [RegimeId::ALL_TRAFFIC, RegimeId(9)] {
        for k in [1, 2] {
            let mut request = route(0, 18, k);
            if let QueryRequest::Route { regime: asked, .. } = &mut request {
                *asked = regime;
            }
            let engine = fresh();
            let searched = engine.execute(&request).unwrap();
            let expansions = engine.stats().route_expansions;
            let hit = engine.execute(&request).unwrap();
            assert_eq!(engine.stats().route_expansions, expansions, "{request:?}");
            assert_eq!(metric(&engine, "pathcost_route_cache_hits_total"), 1);
            assert_eq!(metric(&engine, "pathcost_route_cache_misses_total"), 1);
            assert_eq!((hit.stats.cache_hits, hit.stats.cache_misses), (1, 0));

            let reference = fresh().execute(&request).unwrap();
            assert!(reference.stats.cache_misses > 0, "a fresh engine searches");
            assert!(reference.response.route().is_some(), "{request:?}");
            assert_bit_identical(0, &hit.response, &reference.response);
            assert_bit_identical(0, &hit.response, &searched.response);
            assert_eq!(depths(&hit), depths(&reference), "{request:?}");
            assert_eq!(depths(&hit), depths(&searched), "{request:?}");
            fell_back |= hit.stats.max_fallback_depth > 0;
        }
    }
    assert!(fell_back, "the undeclared regime reads through its ladder");
}

/// Another departure in the same α-interval, or another budget, is another
/// request: the search's arrival windows start at the exact departure, so
/// the route map keys on it, not on its interval.
#[test]
fn route_cache_misses_another_departure_or_budget() {
    let f = fixture(322);
    let graph = Arc::new(HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap());
    let engine = QueryEngine::new(graph.clone(), ServiceConfig::default());
    let mut later = route(0, 18, 1);
    engine.execute(&later).unwrap();
    if let QueryRequest::Route { departure, .. } = &mut later {
        assert_eq!(
            engine.interval_of(*departure),
            engine.interval_of(departure.plus(60.0))
        );
        *departure = departure.plus(60.0);
    }
    for (misses, request) in [(2, later), (3, route_within(0, 18, 3_000.0))] {
        let expansions = engine.stats().route_expansions;
        let outcome = engine.execute(&request).unwrap();
        assert!(engine.stats().route_expansions > expansions, "{request:?}");
        assert_eq!(metric(&engine, "pathcost_route_cache_misses_total"), misses);
        assert_eq!(metric(&engine, "pathcost_route_cache_hits_total"), 0);
        let fresh = QueryEngine::new(graph.clone(), ServiceConfig::default());
        let reference = fresh.execute(&request).unwrap();
        assert_bit_identical(0, &outcome.response, &reference.response);
    }
}

/// An applied update empties the route map: the same request searches
/// again and answers what an engine rebuilt from the merged store answers,
/// and the map then keeps the new epoch's answer.
#[test]
fn route_cache_is_emptied_by_an_update() {
    let (net, full, cfg) = live_fixture(323);
    let split = full.len() * 80 / 100;
    let base = TrajectoryStore::new(full.matched()[..split].to_vec());
    let weights = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
    let graph = HybridGraph::from_parts(&net, weights.clone(), cfg.clone());
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let mut ingestor = LiveIngestor::from_instantiated(&net, base, weights, cfg.clone()).unwrap();
    let requests = [route(0, 18, 1), route(2, 22, 2)];
    for request in &requests {
        engine.execute(request).unwrap();
        engine.execute(request).unwrap();
    }
    assert_eq!(metric(&engine, "pathcost_route_cache_hits_total"), 2);

    let update = ingestor.ingest(full.matched()[split..].to_vec()).unwrap();
    assert!(update.changed() > 0);
    engine.apply_update(update).unwrap();
    let rebuilt = PathWeightFunction::instantiate(&net, ingestor.store(), &cfg).unwrap();
    let oracle = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, rebuilt, cfg)),
        ServiceConfig::default(),
    );
    for request in &requests {
        let expansions = metric(&engine, "pathcost_route_expansions_total");
        let live = engine.execute(request).unwrap();
        assert!(
            metric(&engine, "pathcost_route_expansions_total") > expansions,
            "{request:?} searched again after the update"
        );
        let reference = oracle.execute(request).unwrap();
        assert_bit_identical(0, &live.response, &reference.response);
        // The map now holds the new epoch's answers.
        let again = engine.execute(request).unwrap();
        assert_eq!((again.stats.cache_hits, again.stats.cache_misses), (1, 0));
        assert_bit_identical(0, &again.response, &reference.response);
    }
    assert_eq!(metric(&engine, "pathcost_route_cache_hits_total"), 4);
    assert_eq!(metric(&engine, "pathcost_route_cache_misses_total"), 4);
}

/// Route searches racing updates: reader threads repeat four routes over a
/// 16-entry distribution cache (so fills are in flight at every instant)
/// while the main thread publishes ingest epochs. A raced search may answer
/// its caller with a pre-update epoch's bits, but the route map may not keep
/// them: after every update, once the readers have answered four more
/// rounds, they are held at a gate, and every route the map answers must
/// equal what an engine rebuilt from the current store answers.
#[test]
fn route_cache_never_keeps_a_pre_update_answer() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let (net, full, cfg) = live_fixture(324);
    let split = full.len() * 70 / 100;
    let base = TrajectoryStore::new(full.matched()[..split].to_vec());
    let rest = full.matched()[split..].to_vec();
    let weights = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
    let engine = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, weights.clone(), cfg.clone())),
        ServiceConfig {
            cache_shards: 2,
            shard_capacity: 8,
            ..ServiceConfig::default()
        },
    );
    let mut ingestor = LiveIngestor::from_instantiated(&net, base, weights, cfg.clone()).unwrap();
    let requests = [
        route(0, 18, 1),
        route(2, 22, 2),
        route(6, 12, 1),
        route_within(4, 22, 2_400.0),
    ];
    let stop = AtomicBool::new(false);
    let answered = AtomicUsize::new(0);
    // Readers hold the gate shared for one query; the main thread takes it
    // exclusively to look at a quiescent engine.
    let gate = std::sync::RwLock::new(());
    let mut checked = 0;
    std::thread::scope(|scope| {
        for reader in 0..2 {
            let (engine, requests, stop, answered, gate) =
                (&engine, &requests, &stop, &answered, &gate);
            scope.spawn(move || {
                for request in requests.iter().cycle().skip(reader) {
                    let _serving = gate.read().unwrap();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    engine.execute(request).expect("serving route succeeds");
                    answered.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        for batch in rest.chunks(rest.len().div_ceil(4)) {
            let update = ingestor.ingest(batch.to_vec()).unwrap();
            engine.apply_update(update).unwrap();
            // Let the readers search, and keep, under the new epoch.
            let target = answered.load(Ordering::SeqCst) + 4 * requests.len();
            while answered.load(Ordering::SeqCst) < target {
                std::thread::yield_now();
            }

            let _quiescent = gate.write().unwrap();
            let rebuilt = PathWeightFunction::instantiate(&net, ingestor.store(), &cfg).unwrap();
            let oracle = QueryEngine::new(
                Arc::new(HybridGraph::from_parts(&net, rebuilt, cfg.clone())),
                ServiceConfig::default(),
            );
            for request in &requests {
                let hits = metric(&engine, "pathcost_route_cache_hits_total");
                let live = engine.execute(request).unwrap();
                if metric(&engine, "pathcost_route_cache_hits_total") > hits {
                    let reference = oracle.execute(request).unwrap();
                    assert_bit_identical(checked, &live.response, &reference.response);
                    checked += 1;
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
    });
    assert_eq!(engine.epoch(), 4);
    assert!(checked > 0, "the readers kept answers between updates");
}

/// A `Route` request under the global regime with a generous budget.
fn route(source: u32, destination: u32, k: usize) -> QueryRequest {
    QueryRequest::Route {
        source: VertexId(source),
        destination: VertexId(destination),
        departure: Timestamp::from_day_hms(0, 8, 0, 0),
        budget_s: 3_600.0,
        k,
        regime: pathcost_service::RegimeId::ALL_TRAFFIC,
    }
}

/// `route(source, destination, 1)` under another budget.
fn route_within(source: u32, destination: u32, budget: f64) -> QueryRequest {
    let mut request = route(source, destination, 1);
    if let QueryRequest::Route { budget_s, .. } = &mut request {
        *budget_s = budget;
    }
    request
}

#[test]
fn a_second_search_to_a_destination_hits_the_free_flow_cache_for_bounds() {
    let f = fixture(312);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let batch = [route(0, 18, 1)];

    let first = engine.execute_batch(&batch).remove(0).unwrap();
    assert_eq!(free_flow(&engine), (0, 1));

    // Another budget is another search, over the same destination's bounds.
    let tighter = [route_within(0, 18, 3_000.0)];
    engine.execute_batch(&tighter).remove(0).unwrap();
    assert_eq!(free_flow(&engine), (1, 1));

    // The identical request is answered by the route map: no search, so no
    // lookup.
    let again = engine.execute_batch(&batch).remove(0).unwrap();
    assert_eq!(free_flow(&engine), (1, 1));
    assert_bit_identical(0, &first.response, &again.response);

    // A point `execute` makes the same single lookup as a batched one.
    engine.execute(&route_within(0, 18, 2_400.0)).unwrap();
    assert_eq!(free_flow(&engine), (2, 1));
}

#[test]
fn route_batches_equal_sequential_execution_with_the_free_flow_cache_at_capacity_one() {
    let f = fixture(313);
    let engine = || {
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        QueryEngine::with_free_flow_cache(
            Arc::new(graph),
            ServiceConfig::default(),
            pathcost_routing::FreeFlowCache::with_capacity(&f.net, 1),
        )
    };
    // Four OD pairs over three destinations, interleaved and repeated, so
    // nearly every lookup finds its entry evicted by the previous request —
    // beside point queries sharing the batch. The last route repeats the
    // second one exactly, so sequential execution answers it from the route
    // map, with no search.
    let mut requests = vec![
        route(0, 18, 1),
        route(2, 22, 2),
        route(0, 18, 3),
        route(6, 12, 1),
        route(4, 22, 1),
        route(6, 12, 2),
        route(2, 22, 2),
    ];
    for (path, departure) in query_paths(&f.store, 3) {
        requests.push(QueryRequest::EstimateDistribution {
            path,
            departure,
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        });
    }

    let sequential_engine = engine();
    let sequential: Vec<_> = requests
        .iter()
        .map(|r| sequential_engine.execute(r).unwrap())
        .collect();
    assert_eq!(
        free_flow(&sequential_engine),
        (0, 6),
        "every search found its bounds evicted"
    );

    let batch_engine = engine();
    for _ in 0..2 {
        let batch = batch_engine.execute_batch(&requests);
        for (i, (batch, seq)) in batch.iter().zip(&sequential).enumerate() {
            let batch = batch.as_ref().expect("batch request succeeds");
            assert_bit_identical(i, &batch.response, &seq.response);
        }
    }
}

#[test]
fn invalid_routes_are_answered_their_own_error_without_any_search() {
    let f = fixture(314);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let bad_budget = |bad: f64| {
        let mut request = route(0, 18, 1);
        if let QueryRequest::Route { budget_s, .. } = &mut request {
            *budget_s = bad;
        }
        request
    };
    let kinds = [
        route(0, 18, 0),
        route(7, 7, 1),
        route(0, 40_000, 1),
        route(40_000, 18, 1),
        bad_budget(f64::NAN),
        bad_budget(-1.0),
    ];
    let requests: Vec<QueryRequest> = kinds.iter().cycle().take(16).cloned().collect();

    use pathcost_routing::RoutingError;
    let results = engine.execute_batch(&requests);
    assert_eq!(results.len(), 16);
    for (i, result) in results.iter().enumerate() {
        let error = result.as_ref().expect_err("every request is invalid");
        let as_expected = match i % kinds.len() {
            0 | 4 | 5 => matches!(error, ServiceError::InvalidRequest(_)),
            1 => matches!(
                error,
                ServiceError::Routing(RoutingError::SameSourceAndDestination)
            ),
            _ => matches!(error, ServiceError::Routing(RoutingError::RoadNet(_))),
        };
        assert!(as_expected, "request {i} answered {error:?}");
    }
    // Rejected before any free-flow search: not one lookup, let alone a
    // whole-graph Dijkstra towards a vertex that does not exist.
    assert_eq!(free_flow(&engine), (0, 0));
    assert_eq!(metric(&engine, "pathcost_query_errors_total"), 16);
}

#[test]
fn invalid_requests_are_rejected_without_panicking() {
    let f = fixture(306);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let (path, departure) = query_paths(&f.store, 1).remove(0);

    assert!(engine
        .execute(&QueryRequest::ProbWithinBudget {
            path,
            departure,
            budget_s: f64::NAN,
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        })
        .is_err());
    assert!(engine
        .execute(&QueryRequest::RankPaths {
            candidates: Vec::new(),
            departure,
            budget_s: 100.0,
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        })
        .is_err());
    assert!(engine
        .execute(&QueryRequest::Route {
            source: VertexId(0),
            destination: VertexId(0),
            departure,
            budget_s: 100.0,
            k: 1,
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        })
        .is_err());
    assert_eq!(metric(&engine, "pathcost_query_errors_total"), 3);
}

#[test]
fn route_top_k_returns_ordered_distinct_alternatives() {
    let f = fixture(311);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let departure = Timestamp::from_day_hms(0, 8, 0, 0);
    let request = |k| QueryRequest::Route {
        source: VertexId(0),
        destination: VertexId(18),
        departure,
        budget_s: 3_600.0,
        k,
        regime: pathcost_service::RegimeId::ALL_TRAFFIC,
    };

    let outcome = engine.execute(&request(3)).unwrap();
    let alternatives = outcome
        .response
        .routes()
        .expect("k > 1 answers with Routes");
    assert!((1..=3).contains(&alternatives.len()));
    for w in alternatives.windows(2) {
        assert!(w[0].probability >= w[1].probability);
        assert_ne!(w[0].path, w[1].path, "alternatives must be distinct");
    }
    // The best alternative is the single-result answer (and `route()` reads
    // the best of either response shape).
    let single = engine.execute(&request(1)).unwrap();
    let best = single.response.route().expect("feasible");
    assert_eq!(outcome.response.route().unwrap().path, best.path);
    assert_eq!(alternatives[0].probability, best.probability);
    // k = 0 is an invalid request.
    assert!(engine.execute(&request(0)).is_err());
}

/// Shared setup for the live-update tests: the network, the full trajectory
/// store (callers split it into base + ingest parts) and the hybrid config.
fn live_fixture(
    seed: u64,
) -> (
    RoadNetwork,
    TrajectoryStore, // the full store (base + rest)
    HybridConfig,
) {
    let f = fixture(seed);
    (f.net, f.store, f.cfg)
}

#[test]
fn apply_update_evicts_a_strict_subset_and_serves_rebuild_identical_answers() {
    // A small (5%) ingest: most of the weight function stays untouched, so
    // targeted invalidation has survivors to preserve.
    let (net, full, cfg) = live_fixture(312);
    let split = full.len() * 95 / 100;
    let base = TrajectoryStore::new(full.matched()[..split].to_vec());
    let rest = full.matched()[split..].to_vec();
    assert!(!rest.is_empty());

    let weights = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
    let graph = HybridGraph::from_parts(&net, weights.clone(), cfg.clone());
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let mut ingestor = LiveIngestor::from_instantiated(&net, base, weights, cfg.clone()).unwrap();

    // Warm the cache: entries anchored at instantiated variables' own
    // (path, interval) pairs — their estimates consume those variables, so
    // they are exactly the entries an update of them must evict — plus
    // dead-hour entries (fallback-backed, likely untouched survivors).
    let mut requests: Vec<QueryRequest> = Vec::new();
    for var in engine.graph().weights().variables().iter().take(16) {
        requests.push(QueryRequest::EstimateDistribution {
            path: var.path.clone(),
            departure: engine.canonical_departure(var.interval),
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        });
        requests.push(QueryRequest::EstimateDistribution {
            path: var.path.clone(),
            departure: Timestamp::from_day_hms(0, 3, 0, 0),
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        });
    }
    for r in &requests {
        engine.execute(r).unwrap();
    }
    let warmed = engine.cache().len();
    assert!(warmed >= 4, "need a warm cache to invalidate");

    // Ingest the held-out 5% and apply the update.
    let update = ingestor.ingest(rest).unwrap();
    assert!(update.changed() > 0, "a 5% append must change variables");
    let report = engine.apply_update(update).unwrap();
    assert_eq!(report.epoch, 1);
    assert_eq!(engine.epoch(), 1);
    assert_eq!(report.cache_entries_before, warmed);
    assert!(
        report.evicted_tracked > 0,
        "busy-hour entries must have read updated variables: {report:?}"
    );
    assert!(
        (report.evicted_total() as usize) < warmed,
        "targeted invalidation must evict a strict subset: {report:?}"
    );
    assert_eq!(
        report.cache_entries_after,
        warmed - report.evicted_total() as usize
    );
    assert_eq!(metric(&engine, "pathcost_ingest_updates_total"), 1);
    assert_eq!(
        metric(
            &engine,
            r#"pathcost_cache_invalidation_evictions_total{mode="tracked"}"#
        ) + metric(
            &engine,
            r#"pathcost_cache_invalidation_evictions_total{mode="swept"}"#
        ),
        report.evicted_total()
    );
    assert_eq!(
        metric(&engine, r#"pathcost_ingest_variables_total{op="updated"}"#)
            + metric(&engine, r#"pathcost_ingest_variables_total{op="added"}"#),
        (report.variables_updated + report.variables_added) as u64
    );

    // Correctness oracle: every post-update answer — from a surviving entry
    // or a fresh estimate — is bit-identical to a rebuilt engine with a cold
    // cache.
    let oracle_weights = PathWeightFunction::instantiate(&net, ingestor.store(), &cfg).unwrap();
    let oracle_graph = HybridGraph::from_parts(&net, oracle_weights, cfg);
    let oracle = QueryEngine::new(Arc::new(oracle_graph), ServiceConfig::default());
    for r in &requests {
        let live = engine.execute(r).unwrap();
        let reference = oracle.execute(r).unwrap();
        assert_eq!(
            live.response.distribution().unwrap(),
            reference.response.distribution().unwrap(),
            "post-update answer diverges from full rebuild for {r:?}"
        );
    }
}

#[test]
fn apply_update_rejects_a_changed_partition() {
    let (net, store, cfg) = live_fixture(313);
    let graph = HybridGraph::build(&net, &store, cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let recut = HybridConfig {
        alpha_minutes: cfg.alpha_minutes * 2,
        ..cfg
    };
    let repartitioned = PathWeightFunction::instantiate(&net, &store, &recut).unwrap();
    let update = repartitioned
        .rederive_regimes(&net, &store, &recut, &std::collections::BTreeSet::new())
        .unwrap();
    assert!(engine.apply_update(update).is_err());
}

#[test]
fn apply_update_rejects_out_of_order_epochs() {
    let (net, full, cfg) = live_fixture(314);
    let split = full.len() * 9 / 10;
    let base = TrajectoryStore::new(full.matched()[..split].to_vec());
    let rest = full.matched()[split..].to_vec();
    let mid = rest.len() / 2;

    let weights = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
    let graph = HybridGraph::from_parts(&net, weights.clone(), cfg.clone());
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let mut ingestor = LiveIngestor::from_instantiated(&net, base, weights, cfg).unwrap();

    let first = ingestor.ingest(rest[..mid].to_vec()).unwrap();
    let second = ingestor.ingest(rest[mid..].to_vec()).unwrap();
    // Deliver the newer epoch first; the stale one must be rejected and the
    // published epoch must stay at the newer version.
    engine.apply_update(second).unwrap();
    assert_eq!(engine.epoch(), 2);
    assert!(engine.apply_update(first).is_err(), "stale epoch accepted");
    assert_eq!(engine.epoch(), 2);
}

#[test]
fn expired_deadlines_are_shed_before_dispatch() {
    use pathcost_service::{AdmissionConfig, AdmissionQueue, RequestContext, ServiceError};
    use std::time::Duration;

    // A request whose deadline has already passed when the dispatcher picks
    // it up must be answered 504-style (DeadlineExceeded) *without* being
    // evaluated; a healthy request in the same batch is unaffected.
    let f = fixture(812);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let (path, departure) = query_paths(&f.store, 1).remove(0);
    let queue = AdmissionQueue::new(AdmissionConfig::default());

    let expired = RequestContext::with_deadline(Some(Duration::ZERO));
    let shed_ticket = queue
        .admit(
            &engine,
            vec![QueryRequest::EstimateDistribution {
                path: path.clone(),
                departure,
                regime: pathcost_service::RegimeId::ALL_TRAFFIC,
            }],
            expired,
        )
        .unwrap()
        .remove(0);
    let healthy_ticket = queue
        .submit(QueryRequest::EstimateDistribution {
            path,
            departure,
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        })
        .unwrap();
    queue.close();
    queue.dispatch(&engine);

    assert!(matches!(
        shed_ticket.wait(),
        Err(ServiceError::DeadlineExceeded)
    ));
    assert!(healthy_ticket.wait().is_ok());
    assert_eq!(metric(&engine, "pathcost_admission_shed_total"), 1);
    assert!(metric(&engine, "pathcost_deadline_exceeded_total") >= 1);
    assert_eq!(
        metric(
            &engine,
            r#"pathcost_query_outcome_seconds_count{outcome="shed"}"#
        ),
        1
    );
    assert_eq!(
        metric(&engine, r#"pathcost_queries_total{kind="estimate"}"#),
        1,
        "the shed request must never reach the engine"
    );
    // Both tickets count in the end-to-end histogram (clients waited on both).
    assert_eq!(
        queue.registry().value("pathcost_request_e2e_seconds_count"),
        Some(2.0)
    );
}

#[test]
fn cancelled_requests_stop_before_and_during_evaluation() {
    use pathcost_service::{RequestContext, ServiceError};
    use std::time::Duration;

    let f = fixture(813);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let route = QueryRequest::Route {
        source: VertexId(0),
        destination: VertexId(18),
        departure: Timestamp::from_day_hms(0, 8, 0, 0),
        budget_s: 3_600.0,
        k: 1,
        regime: pathcost_service::RegimeId::ALL_TRAFFIC,
    };

    // Pre-flight: an already-cancelled context never starts evaluating.
    let ctx = RequestContext::unbounded();
    ctx.cancel();
    assert!(matches!(
        engine.execute_under(&route, &ctx, false),
        Err(ServiceError::Cancelled)
    ));
    assert_eq!(metric(&engine, "pathcost_cancelled_total"), 1);
    assert_eq!(engine.stats().estimations, 0, "no candidate was estimated");

    // Mid-route: cancel concurrently with a cold-cache search. The router
    // polls the token once per expansion, so whichever poll observes the
    // cancel, the outcome is Cancelled — unless the search already finished,
    // which is also legal (the flag raced the final expansion).
    engine.cache().clear();
    let ctx = RequestContext::unbounded();
    let flag = ctx.clone();
    let outcome = std::thread::scope(|scope| {
        scope.spawn(move || {
            std::thread::sleep(Duration::from_micros(300));
            flag.cancel();
        });
        engine.execute_under(&route, &ctx, false)
    });
    match outcome {
        Err(ServiceError::Cancelled) | Ok(_) => {}
        Err(other) => panic!("cancellation must map to Cancelled, got {other}"),
    }
}

#[test]
fn abandoned_batch_is_never_evaluated() {
    use pathcost_service::{RequestContext, ServiceError};

    let f = fixture(814);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let requests: Vec<QueryRequest> = query_paths(&f.store, 3)
        .into_iter()
        .map(|(path, departure)| QueryRequest::EstimateDistribution {
            path,
            departure,
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        })
        .collect();
    let contexts: Vec<RequestContext> = requests
        .iter()
        .map(|_| RequestContext::unbounded())
        .collect();
    for ctx in &contexts {
        ctx.cancel();
    }

    let results = engine.execute_batch_under(&requests, &contexts, false);
    assert_eq!(results.len(), requests.len());
    for result in &results {
        assert!(matches!(result, Err(ServiceError::Cancelled)), "{result:?}");
    }
    assert_eq!(
        metric(&engine, "pathcost_cancelled_total"),
        requests.len() as u64
    );
    assert_eq!(
        engine.stats().estimations,
        0,
        "abandoned work must not be estimated"
    );
    assert!(engine.cache().is_empty());
}

#[test]
fn degraded_mode_answers_are_flagged_and_counted() {
    use pathcost_service::RequestContext;

    let f = fixture(815);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let route = QueryRequest::Route {
        source: VertexId(0),
        destination: VertexId(18),
        departure: Timestamp::from_day_hms(0, 8, 0, 0),
        budget_s: 3_600.0,
        k: 1,
        regime: pathcost_service::RegimeId::ALL_TRAFFIC,
    };

    let normal = engine.execute(&route).unwrap();
    assert!(!normal.stats.degraded);

    let degraded = engine
        .execute_under(&route, &RequestContext::unbounded(), true)
        .unwrap();
    assert!(degraded.stats.degraded, "degraded answers must say so");
    assert_eq!(metric(&engine, "pathcost_degraded_answers_total"), 1);
    // The degradation policy caps the search budget; it must not cost more
    // work than the normal answer (the tiny grid stays feasible either way).
    assert!(degraded.response.route().is_some());

    // A degraded batch advances the batch counters and answers each request
    // exactly as the single degraded request did.
    let before = engine.stats();
    let batch = vec![route; 3];
    let results = engine.execute_batch_under(&batch, &[], true);
    let after = engine.stats();
    assert_eq!(after.batches, before.batches + 1);
    assert_eq!(after.batch_requests, before.batch_requests + 3);
    for (i, result) in results.iter().enumerate() {
        let outcome = result.as_ref().expect("degraded batch request succeeds");
        assert!(outcome.stats.degraded);
        assert_bit_identical(i, &outcome.response, &degraded.response);
    }
}

#[test]
fn submit_racing_close_never_hangs_a_ticket() {
    // Stress the shutdown/overflow edge: submissions racing `close()` must
    // either be admitted (and then answered by a draining lane) or rejected
    // with `ShuttingDown` — never left as a ticket whose `wait()` blocks
    // forever — and every lane must return. Run with one lane and with
    // several (lanes wake one at a time; `close` must still wake them all).
    // Repeated because the interleaving is the test.
    use pathcost_service::{AdmissionConfig, AdmissionQueue, ServiceError};

    let f = fixture(811);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let (path, departure) = query_paths(&f.store, 1).remove(0);
    let request = || QueryRequest::EstimateDistribution {
        path: path.clone(),
        departure,
        regime: pathcost_service::RegimeId::ALL_TRAFFIC,
    };

    const ROUNDS: usize = 25;
    const SUBMITTERS: usize = 4;
    for lanes in [1, 3] {
        for round in 0..ROUNDS {
            let queue = AdmissionQueue::new(AdmissionConfig {
                // A tight capacity so overflow races the close too.
                capacity: 8,
                ..AdmissionConfig::default()
            });
            std::thread::scope(|scope| {
                let dispatchers: Vec<_> = (0..lanes)
                    .map(|_| scope.spawn(|| queue.dispatch(&engine)))
                    .collect();
                let submitters: Vec<_> = (0..SUBMITTERS)
                    .map(|s| {
                        let (queue, request) = (&queue, &request);
                        scope.spawn(move || {
                            let mut admitted = 0usize;
                            let mut rejected_shutdown = 0usize;
                            loop {
                                match queue.submit(request()) {
                                    Ok(ticket) => {
                                        // Every admitted ticket must resolve,
                                        // even when close() lands mid-drain.
                                        ticket.wait().expect("admitted ticket answered");
                                        admitted += 1;
                                    }
                                    Err(ServiceError::ShuttingDown) => {
                                        rejected_shutdown += 1;
                                        // After close, submission must *stay*
                                        // rejected — hammer a few more times.
                                        if rejected_shutdown > 3 + s {
                                            break;
                                        }
                                    }
                                    Err(ServiceError::Overloaded) => {
                                        std::thread::yield_now();
                                    }
                                    Err(other) => panic!("unexpected error: {other}"),
                                }
                            }
                            (admitted, rejected_shutdown)
                        })
                    })
                    .collect();
                // Close while the submitters are mid-flight; stagger the
                // timing a little across rounds to vary the interleaving.
                std::thread::sleep(std::time::Duration::from_micros((round * 37) as u64));
                queue.close();
                let mut any_rejected = 0;
                for s in submitters {
                    let (_, rejected) = s.join().expect("submitter thread");
                    any_rejected += rejected;
                }
                assert!(
                    any_rejected > 0,
                    "{lanes} lanes, round {round}: close() must reject"
                );
                for dispatcher in dispatchers {
                    dispatcher.join().expect("every lane drains and exits");
                }
                assert!(
                    queue.is_empty(),
                    "{lanes} lanes, round {round}: queue drained"
                );
                assert!(queue.is_closed());
                assert!(
                    matches!(queue.submit(request()), Err(ServiceError::ShuttingDown)),
                    "{lanes} lanes, round {round}: a submission after close is refused"
                );
            });
        }
    }
}

/// Every counter, gauge and histogram count of the engine's and the
/// queue's registries, by series: what answering moves, latency aside.
fn counted(
    engine: &QueryEngine<'_>,
    queue: &pathcost_service::AdmissionQueue,
) -> std::collections::BTreeMap<String, f64> {
    let mut page = pathcost_obs::expo::ExpositionWriter::new();
    engine.registry().render_into(&mut page);
    queue.registry().render_into(&mut page);
    let page = page.finish();
    let histograms: Vec<&str> = page
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.strip_suffix(" histogram"))
        .collect();
    let latency = |name: &str| {
        let family = name.strip_suffix("_bucket").or(name.strip_suffix("_sum"));
        family.is_some_and(|family| histograms.contains(&family))
    };
    page.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.rsplit_once(' '))
        .filter(|(series, _)| !latency(series.split('{').next().unwrap_or(series)))
        .map(|(series, value)| (series.to_string(), value.parse().unwrap()))
        .collect()
}

/// A `route_batch`-shaped envelope: 2 routes, 2 rankings and 12 point
/// queries with repeats, two of them under an undeclared regime.
fn route_batch_envelope(store: &TrajectoryStore) -> Vec<QueryRequest> {
    use pathcost_service::RegimeId;
    let pairs = query_paths(store, 4);
    let candidates: Vec<Path> = pairs.iter().map(|(p, _)| p.clone()).collect();
    let rank = |budget_s: f64| QueryRequest::RankPaths {
        candidates: candidates.clone(),
        departure: pairs[0].1,
        budget_s,
        regime: RegimeId::ALL_TRAFFIC,
    };
    let point = |i: usize| {
        let (path, departure) = pairs[i % pairs.len()].clone();
        let regime = if i == 5 {
            RegimeId(9)
        } else {
            RegimeId::ALL_TRAFFIC
        };
        match i % 2 {
            0 => QueryRequest::EstimateDistribution {
                path,
                departure,
                regime,
            },
            _ => QueryRequest::ProbWithinBudget {
                path,
                departure,
                budget_s: 600.0,
                regime,
            },
        }
    };
    let mut envelope = vec![route(0, 18, 1), rank(600.0)];
    envelope.extend((0..6).map(point));
    envelope.extend([route(2, 22, 2), rank(900.0)]);
    envelope.extend((0..6).map(point));
    envelope
}

/// An envelope answered inline by `admit` moves every engine and admission
/// counter exactly as the same envelope run by a lane (`execute_batch`)
/// moves them on an identical engine, batch counters aside, and its answers
/// carry the same stats. An envelope whose last ranking candidate misses is
/// queued whole, counts its earlier hits once, and moves the batch counters
/// by 1 / n on both engines.
#[test]
fn an_inline_envelope_counts_as_a_lane_does() {
    use pathcost_service::{AdmissionConfig, AdmissionQueue, RequestContext};

    let f = fixture(323);
    let build = || {
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        QueryEngine::new(Arc::new(graph), ServiceConfig::default())
    };
    let (inline, lane) = (build(), build());
    let hits = route_batch_envelope(&f.store);
    for engine in [&inline, &lane] {
        assert!(engine.execute_batch(&hits).iter().all(Result::is_ok));
    }
    let mut missing = hits.clone();
    let cold = f.store.frequent_paths(2, 30, None).pop().unwrap().0;
    let last_rank = missing
        .iter()
        .rposition(|r| matches!(r, QueryRequest::RankPaths { .. }));
    if let QueryRequest::RankPaths { candidates, .. } = &mut missing[last_rank.unwrap()] {
        assert!(
            !candidates.contains(&cold),
            "the appended candidate is cold"
        );
        candidates.push(cold);
    }

    let n = hits.len() as f64;
    for (envelope, queued) in [(hits, false), (missing, true)] {
        let (inline_queue, lane_queue) = (
            AdmissionQueue::new(AdmissionConfig::default()),
            AdmissionQueue::new(AdmissionConfig::default()),
        );
        let before = [counted(&inline, &inline_queue), counted(&lane, &lane_queue)];
        let context = RequestContext::unbounded();
        let answered = inline_queue
            .admit(&inline, envelope.clone(), context)
            .unwrap();
        assert_eq!(inline_queue.len(), if queued { envelope.len() } else { 0 });
        let run = envelope
            .iter()
            .map(|r| lane_queue.submit(r.clone()).unwrap());
        let ran: Vec<_> = run.collect();
        for (queue, engine) in [(&inline_queue, &inline), (&lane_queue, &lane)] {
            queue.close();
            queue.dispatch(engine);
        }
        for (i, (a, b)) in answered.into_iter().zip(ran).enumerate() {
            let (a, b) = (a.wait().unwrap(), b.wait().unwrap());
            assert_bit_identical(i, &a.response, &b.response);
            let stats = |o: &QueryOutcome| {
                let s = &o.stats;
                let depths = (s.max_decomposition_depth, s.max_fallback_depth);
                (s.cache_hits, s.cache_misses, depths, s.degraded)
            };
            assert_eq!(stats(&a), stats(&b), "request {i}");
        }
        let mut moved = [counted(&inline, &inline_queue), counted(&lane, &lane_queue)]
            .into_iter()
            .zip(&before)
            .map(|(after, before)| {
                let mut moved = after;
                for (series, value) in moved.iter_mut() {
                    *value -= before.get(series).copied().unwrap_or(0.0);
                }
                moved
            })
            .collect::<Vec<_>>();
        let batches = ["pathcost_batches_total", "pathcost_batch_requests_total"];
        let inline_batches = if queued { [1.0, n] } else { [0.0, 0.0] };
        for ((family, inline), lane) in batches.iter().zip(inline_batches).zip([1.0, n]) {
            assert_eq!(moved[0].remove(*family), Some(inline), "{family} inline");
            assert_eq!(moved[1].remove(*family), Some(lane), "{family} lane");
        }
        let hits: f64 = (moved[0].iter())
            .filter(|(series, _)| series.starts_with("pathcost_cache_hits_total"))
            .map(|(_, moved)| moved)
            .sum();
        assert!(hits >= n, "the envelope reads its hits: {hits}");
        assert_eq!(moved[0]["pathcost_route_cache_hits_total"], 2.0);
        assert_eq!(moved[0], moved[1], "queued: {queued}");
    }
}
