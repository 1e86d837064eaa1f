//! Admission lanes and inline hits: a cached point query, or a
//! `/query/batch` envelope of hits, is answered on its connection's thread
//! and never enters the admission queue, so it does not wait for another
//! connection's cold request, on any number of lanes; the server runs
//! `QueryEngine::worker_count()` dispatch lanes for everything else, and an
//! envelope with one miss is queued whole. A hit or an envelope the queue
//! would refuse or shed is refused or shed.

mod common;

use common::{get, post, roundtrip, send_raw, serve_with};
use pathcost_core::{HybridConfig, HybridGraph};
use pathcost_roadnet::Path;
use pathcost_routing::RouterConfig;
use pathcost_server::{json, wire, ServerConfig};
use pathcost_service::{
    AdmissionConfig, AdmissionQueue, QueryEngine, QueryRequest, RegimeId, RequestContext,
    ServiceConfig, ServiceError,
};
use pathcost_traj::DatasetPreset;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many candidates the cold route evaluates: each is a cache miss that
/// runs the estimator (≈ 16 µs apiece in release on an 8 × 8 grid), so the
/// route takes thousands of times as long as a cache hit.
const ROUTE_CANDIDATES: usize = 8_000;

fn edges_json(path: &Path) -> String {
    let ids: Vec<String> = path.edges().iter().map(|e| e.0.to_string()).collect();
    format!("[{}]", ids.join(","))
}

/// The `stats` field of a query response.
fn stat(body: &str, field: &str) -> f64 {
    let value = json::parse(body.as_bytes()).expect("json response");
    value
        .get("stats")
        .and_then(|stats| stats.get(field))
        .and_then(json::Json::as_f64)
        .unwrap_or_else(|| panic!("stats.{field} missing from {body}"))
}

/// What one connection's cache hit costs while another connection's cold
/// route runs, on a server with `workers` admission lanes:
/// `(hit latency, route latency, whether the hit was answered first)`.
fn hit_during_a_cold_route(workers: usize) -> (Duration, Duration, bool) {
    let mut preset = DatasetPreset::tiny(5);
    preset.network.rows = 8;
    preset.network.cols = 8;
    preset.simulation.trips = 512;
    let (net, store) = preset.materialise().unwrap();
    let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
    let engine = QueryEngine::new(
        Arc::new(graph),
        ServiceConfig {
            workers: Some(workers),
            // Room for every estimate the route fills, so none evicts the
            // point query's entry.
            shard_capacity: 4_096,
            router: RouterConfig {
                max_expansions: 1_000_000,
                max_candidates: ROUTE_CANDIDATES,
                max_path_edges: 120,
            },
            ..ServiceConfig::default()
        },
    );

    // The point query, pre-filled so the server answers it from the cache.
    let (path, _) = store.frequent_paths(2, 5, None).remove(0);
    let departure = store.occurrences_on(&path)[0].entry_time;
    engine
        .execute(&QueryRequest::ProbWithinBudget {
            path: path.clone(),
            departure,
            budget_s: 600.0,
            regime: RegimeId::ALL_TRAFFIC,
        })
        .unwrap();
    let point = format!(
        r#"{{"type":"prob","path":{},"departure_s":{},"budget_s":600}}"#,
        edges_json(&path),
        departure.0
    );
    // Corner to corner with ten times the free-flow time: nearly every
    // partial path can still make it, so the search runs until it has
    // evaluated `ROUTE_CANDIDATES` cold candidates.
    let destination = net.vertex_count() - 1;
    let free_flow = pathcost_routing::free_flow_to_destination(
        &net,
        pathcost_roadnet::VertexId(destination as u32),
    )[0];
    let route = format!(
        r#"{{"type":"route","source":0,"destination":{destination},"departure_s":{},"budget_s":{}}}"#,
        departure.0,
        10.0 * free_flow
    );

    let batches = || engine.registry().value("pathcost_batches_total").unwrap();
    let mut measured = None;
    serve_with(&engine, ServerConfig::default(), |addr| {
        // The point query's connection is open and accepted before the route
        // is sent, so its timing below is the request's alone.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "POST", "/query", &point).0,
            200
        );
        std::thread::scope(|scope| {
            let before = batches();
            let slow = scope.spawn(|| {
                let sent = Instant::now();
                let (status, body) = post(addr, "/query", &route);
                (status, body, sent.elapsed(), Instant::now())
            });
            // Once a lane has started the route (its batch is counted as it
            // begins), the queue is empty again and the route is running.
            let waiting = Instant::now();
            while batches() == before {
                assert!(
                    waiting.elapsed() < Duration::from_secs(60),
                    "no lane picked up the route"
                );
                std::thread::sleep(Duration::from_micros(100));
            }
            let sent = Instant::now();
            let (status, body) = roundtrip(&mut stream, &mut reader, "POST", "/query", &point);
            let hit_latency = sent.elapsed();
            let hit_answered = Instant::now();
            let (route_status, route_body, route_latency, route_answered) = slow.join().unwrap();

            assert_eq!(status, 200, "{body}");
            assert_eq!(route_status, 200, "{route_body}");
            assert_eq!(stat(&body, "cache_misses"), 0.0, "the point query hits");
            assert_eq!(
                stat(&route_body, "cache_misses"),
                ROUTE_CANDIDATES as f64,
                "the route evaluates its full candidate budget, every one cold"
            );
            measured = Some((hit_latency, route_latency, hit_answered < route_answered));
        });
    });
    measured.expect("measured inside the server scope")
}

#[test]
fn a_cache_hit_never_waits_for_another_connections_cold_route() {
    // A cached point query is answered on its own connection's thread, so
    // it waits for no lane: with one lane busy on the route, or with a
    // second lane free, it comes back in a small fraction of the route's
    // time, and first.
    for workers in [1, 2] {
        let (hit, route, hit_first) = hit_during_a_cold_route(workers);
        assert!(
            hit_first && hit * 10 < route,
            "{workers} lane(s): the hit took {hit:?}, queued behind a route of {route:?}"
        );
    }
}

/// Runs `f` over a small engine with two `/query` bodies for it: an
/// `estimate` whose distribution is already cached, and one of another path
/// that is not.
fn with_prefilled(f: impl FnOnce(&QueryEngine<'_>, &str, &str)) {
    let (net, store) = DatasetPreset::tiny(7).materialise().unwrap();
    let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let paths = store.frequent_paths(2, 5, None);
    let body = |path: &Path| {
        let departure = store.occurrences_on(path)[0].entry_time;
        let body = format!(
            r#"{{"type":"estimate","path":{},"departure_s":{}}}"#,
            edges_json(path),
            departure.0
        );
        (body, departure)
    };
    let (cached, departure) = body(&paths[0].0);
    engine
        .execute(&QueryRequest::EstimateDistribution {
            path: paths[0].0.clone(),
            departure,
            regime: RegimeId::ALL_TRAFFIC,
        })
        .unwrap();
    f(&engine, &cached, &body(&paths[1].0).0);
}

/// The sum over every series of a family on a scraped page.
fn family(page: &str, name: &str) -> f64 {
    page.lines()
        .filter(|line| {
            line.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with([' ', '{']))
        })
        .map(|line| line.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum()
}

#[test]
fn a_cached_point_query_never_enters_the_queue() {
    with_prefilled(|engine, estimate, cold| {
        let prob = estimate.replace(r#""type":"estimate""#, r#""type":"prob","budget_s":600"#);
        serve_with(engine, ServerConfig::default(), |addr| {
            let scrape = |names: &[&str]| {
                let (status, page) = get(addr, "/metrics");
                assert_eq!(status, 200);
                names
                    .iter()
                    .map(|name| family(&page, name))
                    .collect::<Vec<f64>>()
            };
            let counted = [
                "pathcost_batches_total",
                "pathcost_cache_hits_total",
                "pathcost_cache_misses_total",
                "pathcost_request_e2e_seconds_count",
                "pathcost_admission_queue_wait_seconds_count",
                "pathcost_admission_queue_wait_seconds_sum",
                "pathcost_query_seconds_count",
            ];
            let before = scrape(&counted);
            for body in [estimate, &prob] {
                let (status, response) = post(addr, "/query", body);
                assert_eq!(status, 200, "{response}");
                assert_eq!(stat(&response, "cache_hits"), 1.0);
                assert_eq!(stat(&response, "cache_misses"), 0.0);
            }
            let hits = scrape(&counted);
            let moved: Vec<f64> = hits.iter().zip(&before).map(|(a, b)| a - b).collect();
            // No batch, two hits counted once each, no miss counted for either
            // probe; each answer observed end to end with a zero queue wait and
            // evaluated once.
            assert_eq!(moved, [0.0, 2.0, 0.0, 2.0, 2.0, 0.0, 2.0], "{counted:?}");

            // A miss goes through the queue and is counted once, by the lane.
            let (status, response) = post(addr, "/query", cold);
            assert_eq!(status, 200, "{response}");
            assert_eq!(stat(&response, "cache_misses"), 1.0);
            let after = scrape(&counted);
            assert_eq!(after[0] - hits[0], 1.0, "one batch");
            assert_eq!(after[2] - hits[2], 1.0, "one miss");
            assert_eq!(after[1] - hits[1], 0.0, "no hit");
        });
    });
}

#[test]
fn a_cache_hit_is_refused_or_shed_as_a_queued_request_is() {
    with_prefilled(|engine, estimate, _| {
        let hits = || engine.stats().cache_hits;
        let before = hits();
        let request = wire::decode_request(&json::parse(estimate.as_bytes()).unwrap()).unwrap();
        // An envelope of hits: the cached estimate, its probability, and the
        // estimate again.
        let prob = estimate.replace(r#""type":"estimate""#, r#""type":"prob","budget_s":600"#);
        let batch = format!(r#"{{"requests":[{estimate},{prob},{estimate}]}}"#);
        let envelope = wire::decode_batch(&json::parse(batch.as_bytes()).unwrap()).unwrap();

        // Closed: 503, and the cache is never read.
        let queue = AdmissionQueue::new(AdmissionConfig::default());
        queue.close();
        for requests in [vec![request], envelope.clone()] {
            let refused = queue
                .admit(engine, requests, RequestContext::unbounded())
                .err()
                .expect("a closed queue admits nothing");
            assert!(matches!(refused, ServiceError::ShuttingDown));
            assert_eq!(wire::error_status(&refused).0, 503);
        }
        assert_eq!(hits(), before, "a refused hit reads nothing");

        // Degraded: 429 at the door, counted as one degraded rejection per
        // envelope.
        let degraded = ServerConfig {
            admission: AdmissionConfig {
                degrade_queue_depth: 0,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        };
        serve_with(engine, degraded, |addr| {
            assert_eq!(post(addr, "/query", estimate).0, 429);
            assert_eq!(post(addr, "/query/batch", &batch).0, 429);
            let (_, page) = get(addr, "/metrics");
            assert_eq!(
                family(&page, "pathcost_admission_rejected_degraded_total"),
                2.0
            );
        });
        assert_eq!(hits(), before, "a refused hit reads nothing");

        // Already expired: queued, shed by the lane before it is evaluated,
        // 504 — for the envelope, each of its requests.
        serve_with(engine, ServerConfig::default(), |addr| {
            let expired = |target: &str, body: &str| {
                let raw = format!(
                    "POST {target} HTTP/1.1\r\nHost: t\r\nx-deadline-ms: 0\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                send_raw(addr, raw.as_bytes())
            };
            assert_eq!(expired("/query", estimate).0, 504);
            let (status, body) = expired("/query/batch", &batch);
            assert_eq!(status, 200, "{body}");
            let results = json::parse(body.as_bytes()).unwrap();
            let results = results.get("results").and_then(json::Json::as_array);
            assert_eq!(results.map(<[json::Json]>::len), Some(3), "{body}");
            assert!(
                results.unwrap().iter().all(|r| r.get("error").is_some()),
                "{body}"
            );
            let (_, page) = get(addr, "/metrics");
            assert_eq!(family(&page, "pathcost_admission_shed_total"), 4.0);
            assert_eq!(family(&page, "pathcost_batches_total"), 0.0);
        });
        let queue = AdmissionQueue::new(AdmissionConfig::default());
        let expired = RequestContext::with_deadline(Some(Duration::ZERO));
        let tickets = queue.admit(engine, envelope, expired).unwrap();
        assert_eq!(queue.len(), 3, "an expired envelope is queued whole");
        queue.close();
        queue.dispatch(engine);
        for ticket in tickets {
            let shed = ticket.wait().expect_err("shed");
            assert_eq!(wire::error_status(&shed).0, 504);
        }
        assert_eq!(hits(), before, "a shed hit reads nothing");
    });
}

#[test]
fn an_envelope_of_hits_never_enters_the_queue() {
    with_prefilled(|engine, estimate, cold| {
        let prob = estimate.replace(r#""type":"estimate""#, r#""type":"prob","budget_s":600"#);
        let hits = format!(r#"{{"requests":[{estimate},{prob},{estimate}]}}"#);
        let missing = format!(r#"{{"requests":[{estimate},{prob},{cold}]}}"#);
        serve_with(engine, ServerConfig::default(), |addr| {
            let counted = [
                "pathcost_batches_total",
                "pathcost_batch_requests_total",
                "pathcost_cache_hits_total",
                "pathcost_cache_misses_total",
                "pathcost_admission_queue_wait_seconds_count",
                "pathcost_admission_queue_wait_seconds_sum",
            ];
            let scrape = || {
                let (status, page) = get(addr, "/metrics");
                assert_eq!(status, 200);
                counted.map(|name| family(&page, name))
            };
            let moved = |body: &str| {
                let before = scrape();
                let (status, response) = post(addr, "/query/batch", body);
                assert_eq!(status, 200, "{response}");
                let after = scrape();
                let moved: Vec<f64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
                moved
            };
            // Three hits answered on the connection thread: no batch, three
            // hits, three zero queue waits.
            assert_eq!(moved(&hits), [0.0, 0.0, 3.0, 0.0, 3.0, 0.0], "{counted:?}");
            // One miss queues the envelope whole, and its two hits are
            // counted once, by the lane.
            let moved = moved(&missing);
            assert_eq!(moved[..5], [1.0, 3.0, 2.0, 1.0, 3.0], "{counted:?}");
        });
    });
}
