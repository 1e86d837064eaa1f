//! Admission lanes: the server runs `QueryEngine::worker_count()` dispatch
//! lanes, so a cache hit from one connection is answered while another
//! connection's cold request is still running, instead of queueing behind
//! it.

mod common;

use common::{post, roundtrip, serve_with};
use pathcost_core::{HybridConfig, HybridGraph};
use pathcost_roadnet::Path;
use pathcost_routing::RouterConfig;
use pathcost_server::{json, ServerConfig};
use pathcost_service::{QueryEngine, QueryRequest, RegimeId, ServiceConfig};
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
fn a_cache_hit_waits_for_another_connections_cold_route_only_on_a_single_lane() {
    // One worker, one lane: the hit queues behind the route and takes
    // nearly as long.
    let (hit, route, _) = hit_during_a_cold_route(1);
    assert!(
        hit * 2 > route,
        "one lane: the hit took {hit:?} beside a route of {route:?}"
    );
    // Two workers, two lanes: the free lane answers the hit while the route
    // runs, in a small fraction of the route's time.
    let (hit, route, hit_first) = hit_during_a_cold_route(2);
    assert!(
        hit_first && hit * 10 < route,
        "two lanes: the hit took {hit:?}, queued behind a route of {route:?}"
    );
}
