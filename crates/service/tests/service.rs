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
    assert_eq!(stats.estimate_queries, 3);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 2);
    assert!(stats.cache_hit_rate() > 0.0);
    assert!(stats.mean_decomposition_depth() >= 1.0);
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

    let engine = |workers| {
        QueryEngine::new(
            Arc::new(HybridGraph::from_parts(
                &f.net,
                weights.clone(),
                cfg.clone(),
            )),
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
        )
    };
    let seq_engine = engine(None);
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
    let cold_engine = engine(Some(4));
    assert_equals_sequential(&cold_engine.execute_batch(&requests));
    // Pre-warmed by point queries arriving in the opposite order: who filled
    // a key first never shows in an answer, rankings and routes included.
    let warm_engine = engine(Some(4));
    for request in requests.iter().rev() {
        warm_engine.execute(request).unwrap();
    }
    assert_equals_sequential(&warm_engine.execute_batch(&requests));

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

    // The identical route again: candidate evaluations hit the cache.
    let second = engine.execute(&request).unwrap();
    assert!(second.response.route().is_some());
    let stats = engine.stats();
    assert!(stats.route_candidates_evaluated > evaluated_after_first);
    assert!(
        stats.route_eval_cache_hits > 0,
        "repeated Route requests must reuse (path, interval) entries"
    );
    assert_eq!(stats.route_queries, 2);
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

#[test]
fn second_identical_route_hits_the_free_flow_cache_for_bounds() {
    let f = fixture(312);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let batch = [route(0, 18, 1)];

    let first = engine.execute_batch(&batch).remove(0).unwrap();
    let stats = engine.stats();
    assert_eq!((stats.free_flow_hits, stats.free_flow_misses), (0, 1));

    let second = engine.execute_batch(&batch).remove(0).unwrap();
    let stats = engine.stats();
    assert_eq!((stats.free_flow_hits, stats.free_flow_misses), (1, 1));
    assert_bit_identical(0, &first.response, &second.response);

    // A point `execute` makes the same single lookup as a batched one.
    engine.execute(&batch[0]).unwrap();
    let stats = engine.stats();
    assert_eq!((stats.free_flow_hits, stats.free_flow_misses), (2, 1));
}

#[test]
fn route_batches_equal_sequential_execution_with_the_free_flow_cache_at_capacity_one() {
    let f = fixture(313);
    let engine = |workers| {
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        QueryEngine::with_free_flow_cache(
            Arc::new(graph),
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
            pathcost_routing::FreeFlowCache::with_capacity(&f.net, 1),
        )
    };
    // Four OD pairs over three destinations, interleaved and repeated, so
    // nearly every lookup finds its entry evicted by the previous request —
    // beside point queries sharing the batch.
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

    let sequential_engine = engine(Some(1));
    let sequential: Vec<_> = requests
        .iter()
        .map(|r| sequential_engine.execute(r).unwrap())
        .collect();
    let stats = sequential_engine.stats();
    assert_eq!(
        stats.free_flow_hits, 0,
        "every search found its bounds evicted"
    );
    assert_eq!(stats.free_flow_misses, 7);

    for workers in [1, 4] {
        let batch_engine = engine(Some(workers));
        for _ in 0..2 {
            let batch = batch_engine.execute_batch(&requests);
            for (i, (batch, seq)) in batch.iter().zip(&sequential).enumerate() {
                let batch = batch.as_ref().expect("batch request succeeds");
                assert_bit_identical(i, &batch.response, &seq.response);
            }
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
    let stats = engine.stats();
    assert_eq!((stats.free_flow_hits, stats.free_flow_misses), (0, 0));
    assert_eq!(stats.errors, 16);
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
    let stats = engine.stats();
    assert_eq!(stats.errors, 3);
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
    let stats = engine.stats();
    assert_eq!(stats.ingest_updates, 1);
    assert_eq!(stats.invalidation_evictions(), report.evicted_total());
    assert_eq!(
        stats.ingest_variables_updated as usize + stats.ingest_variables_added as usize,
        report.variables_updated + report.variables_added
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
        .submit_with_context(
            QueryRequest::EstimateDistribution {
                path: path.clone(),
                departure,
                regime: pathcost_service::RegimeId::ALL_TRAFFIC,
            },
            expired,
        )
        .unwrap();
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
    let stats = engine.stats();
    assert_eq!(stats.shed_deadline, 1, "{stats:?}");
    assert!(stats.deadline_exceeded >= 1);
    assert_eq!(stats.latency_shed.count(), 1);
    assert_eq!(
        stats.estimate_queries, 1,
        "the shed request must never reach the engine"
    );
    // Both tickets count in the end-to-end histogram (clients waited on both).
    assert_eq!(queue.latency().count(), 2);
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
    let stats = engine.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.estimations, 0, "no candidate was estimated");

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
    let stats = engine.stats();
    assert_eq!(stats.cancelled, requests.len() as u64);
    assert_eq!(stats.estimations, 0, "abandoned work must not be estimated");
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
    let stats = engine.stats();
    assert_eq!(stats.degraded_answers, 1);
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
    // either be admitted (and then answered by the draining dispatcher) or
    // rejected with `ShuttingDown` — never left as a ticket whose `wait()`
    // blocks forever. Repeated because the interleaving is the test.
    use pathcost_service::{AdmissionConfig, AdmissionQueue, ServiceError};

    let f = fixture(811);
    let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let (path, departure) = query_paths(&f.store, 1).remove(0);

    const ROUNDS: usize = 25;
    const SUBMITTERS: usize = 4;
    for round in 0..ROUNDS {
        let queue = AdmissionQueue::new(AdmissionConfig {
            // A tight capacity so overflow races the close too.
            capacity: 8,
            ..AdmissionConfig::default()
        });
        std::thread::scope(|scope| {
            let dispatcher = scope.spawn(|| queue.dispatch(&engine));
            let submitters: Vec<_> = (0..SUBMITTERS)
                .map(|s| {
                    let path = path.clone();
                    let queue = &queue;
                    scope.spawn(move || {
                        let mut admitted = 0usize;
                        let mut rejected_shutdown = 0usize;
                        loop {
                            match queue.submit(QueryRequest::EstimateDistribution {
                                path: path.clone(),
                                departure,
                                regime: pathcost_service::RegimeId::ALL_TRAFFIC,
                            }) {
                                Ok(ticket) => {
                                    // Every admitted ticket must resolve, even
                                    // when close() lands mid-drain.
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
            // Close while the submitters are mid-flight; stagger the timing
            // a little across rounds to vary the interleaving.
            std::thread::sleep(std::time::Duration::from_micros((round * 37) as u64));
            queue.close();
            let mut any_rejected = 0;
            for s in submitters {
                let (_, rejected) = s.join().expect("submitter thread");
                any_rejected += rejected;
            }
            assert!(any_rejected > 0, "round {round}: close() must reject");
            dispatcher.join().expect("dispatcher drains and exits");
            assert!(queue.is_empty(), "round {round}: queue drained");
            assert!(queue.is_closed());
        });
    }
}
