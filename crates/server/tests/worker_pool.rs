//! End-to-end correctness of the serving stack under concurrency: responses
//! through sockets + admission lanes + the process-wide worker pool must be
//! bit-identical to direct [`QueryEngine`] calls, stay valid while a live
//! ingest/retire epoch lands mid-flight, and graceful shutdown must drain
//! without deadlocking.

mod common;

use common::{get, post, roundtrip, serve_with};
use pathcost_core::{HybridConfig, HybridGraph, PathWeightFunction};
use pathcost_live::LiveIngestor;
use pathcost_server::{wire, Json, ServerConfig};
use pathcost_service::{QueryEngine, QueryRequest, ServiceConfig};
use pathcost_traj::{DatasetPreset, MatchedTrajectory, TrajectoryStore};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn test_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(50),
        ..ServerConfig::default()
    }
}

/// `(wire body, typed request)` pairs covering estimate and prob queries.
fn workload(store: &TrajectoryStore, n: usize) -> Vec<(String, QueryRequest)> {
    let mut out = Vec::new();
    for (i, (path, _)) in store.frequent_paths(2, 5, None).into_iter().enumerate() {
        let departure = store.occurrences_on(&path)[0].entry_time;
        let edges: Vec<String> = path.edges().iter().map(|e| e.0.to_string()).collect();
        if i % 2 == 0 {
            out.push((
                format!(
                    r#"{{"type":"estimate","path":[{}],"departure_s":{}}}"#,
                    edges.join(","),
                    departure.0
                ),
                QueryRequest::EstimateDistribution {
                    path: path.clone(),
                    departure,
                    regime: pathcost_service::RegimeId::ALL_TRAFFIC,
                },
            ));
        } else {
            out.push((
                format!(
                    r#"{{"type":"prob","path":[{}],"departure_s":{},"budget_s":600}}"#,
                    edges.join(","),
                    departure.0
                ),
                QueryRequest::ProbWithinBudget {
                    path: path.clone(),
                    departure,
                    budget_s: 600.0,
                    regime: pathcost_service::RegimeId::ALL_TRAFFIC,
                },
            ));
        }
        if out.len() == n {
            break;
        }
    }
    assert!(out.len() >= 2, "fixture needs frequent paths");
    out
}

/// The response payload (type + distribution/probability), with the
/// per-query stats stripped: those legitimately differ between a cache-miss
/// direct call and a cache-hit served call.
fn payload_of(body: &str) -> Json {
    let parsed = pathcost_server::json::parse(body.as_bytes()).expect("valid response JSON");
    match parsed {
        Json::Object(fields) => {
            Json::Object(fields.into_iter().filter(|(k, _)| k != "stats").collect())
        }
        other => other,
    }
}

#[test]
fn concurrent_socket_clients_get_engine_identical_responses() {
    let (net, store) = DatasetPreset::tiny(7).materialise().unwrap();
    let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let requests = workload(&store, 6);

    // Ground truth straight from the engine, encoded through the same wire
    // layer the server uses — so equality below is bit-identical JSON.
    let expected: Vec<Json> = requests
        .iter()
        .map(|(_, request)| {
            let outcome = engine.execute(request).unwrap();
            payload_of(&wire::encode_outcome(&outcome).to_string())
        })
        .collect();

    serve_with(&engine, test_config(), |addr| {
        std::thread::scope(|scope| {
            for client in 0..8 {
                let requests = &requests;
                let expected = &expected;
                scope.spawn(move || {
                    // Each client holds one keep-alive connection and walks
                    // the workload from a different offset.
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    for round in 0..3 {
                        for i in 0..requests.len() {
                            let idx = (client + round + i) % requests.len();
                            let (status, body) = roundtrip(
                                &mut stream,
                                &mut reader,
                                "POST",
                                "/query",
                                &requests[idx].0,
                            );
                            assert_eq!(status, 200, "client {client}: {body}");
                            assert_eq!(
                                payload_of(&body),
                                expected[idx],
                                "served response must be bit-identical to a direct call"
                            );
                        }
                    }
                });
            }
        });
    });
}

#[test]
fn batch_endpoint_matches_direct_batch_execution() {
    let (net, store) = DatasetPreset::tiny(9).materialise().unwrap();
    let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let requests = workload(&store, 4);

    let direct: Vec<Json> = engine
        .execute_batch(&requests.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>())
        .into_iter()
        .map(|result| payload_of(&wire::encode_outcome(&result.unwrap()).to_string()))
        .collect();

    serve_with(&engine, test_config(), |addr| {
        let batch = format!(
            r#"{{"requests":[{}]}}"#,
            requests
                .iter()
                .map(|(body, _)| body.as_str())
                .collect::<Vec<_>>()
                .join(",")
        );
        let (status, body) = post(addr, "/query/batch", &batch);
        assert_eq!(status, 200, "{body}");
        let parsed = pathcost_server::json::parse(body.as_bytes()).unwrap();
        let results = parsed.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), direct.len());
        for (served, expected) in results.iter().zip(&direct) {
            assert_eq!(&payload_of(&served.to_string()), expected);
        }
    });
}

#[test]
fn live_epoch_lands_mid_flight_without_breaking_responses() {
    let (net, full) = DatasetPreset::tiny(31).materialise().unwrap();
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    let split = full.len() * 95 / 100;
    let base = TrajectoryStore::new(full.matched()[..split].to_vec());
    let rest: Vec<MatchedTrajectory> = full.matched()[split..].to_vec();
    assert!(!rest.is_empty());

    let weights = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
    let graph = HybridGraph::from_parts(&net, weights.clone(), cfg.clone());
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let mut ingestor = LiveIngestor::from_instantiated(&net, base.clone(), weights, cfg).unwrap();
    let requests = workload(&base, 4);
    // Each client writes a request in several pieces without TCP_NODELAY,
    // so a later piece can wait out a delayed ACK (about 40 ms) before it is
    // sent. Under `test_config`'s 50 ms read timeout, a loaded machine that
    // stalls a client thread a little more turns that gap into a 408 (6 of
    // 600 runs looped on a two-core machine under build load, debug and
    // release). Allow a second.
    let config = ServerConfig {
        read_timeout: Duration::from_secs(1),
        ..test_config()
    };

    serve_with(&engine, config, |addr| {
        std::thread::scope(|scope| {
            // Socket load: every response must be well-formed and 200,
            // whichever epoch answers it.
            let clients: Vec<_> = (0..4)
                .map(|client| {
                    let (requests, engine) = (&requests, &engine);
                    scope.spawn(move || {
                        let mut stream = TcpStream::connect(addr).unwrap();
                        let mut reader = BufReader::new(stream.try_clone().unwrap());
                        for i in 0..30 {
                            let (status, body) = roundtrip(
                                &mut stream,
                                &mut reader,
                                "POST",
                                "/query",
                                &requests[(client + i) % requests.len()].0,
                            );
                            let epoch = engine.epoch();
                            assert_eq!(
                                status, 200,
                                "client {client}, request {i}, epoch {epoch}: {body}"
                            );
                            let parsed = pathcost_server::json::parse(body.as_bytes()).unwrap();
                            assert!(parsed.get("type").is_some());
                        }
                    })
                })
                .collect();

            // Meanwhile: an ingest epoch and a TTL retirement epoch land.
            let update = ingestor.ingest(rest.clone()).unwrap();
            engine.apply_update(update).unwrap();
            let cutoff = base.start_time_at_percentile(10).unwrap();
            let update = ingestor.retire_before(cutoff).unwrap();
            engine.apply_update(update).unwrap();

            for client in clients {
                client.join().unwrap();
            }
        });

        // The epoch advanced while serving, and the server reports it.
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        let health = pathcost_server::json::parse(body.as_bytes()).unwrap();
        assert_eq!(health.get("epoch").and_then(Json::as_u64), Some(2));
    });
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let (net, store) = DatasetPreset::tiny(17).materialise().unwrap();
    let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let requests = workload(&store, 4);

    // serve_with itself shuts down after `f` returns and joins the server
    // thread — a deadlock would hang this test. Drive traffic right up to
    // the shutdown edge: clients race requests while the closure returns.
    serve_with(&engine, test_config(), |addr| {
        std::thread::scope(|scope| {
            for client in 0..4 {
                let requests = &requests;
                scope.spawn(move || {
                    for i in 0..10 {
                        let (status, body) =
                            post(addr, "/query", &requests[(client + i) % requests.len()].0);
                        assert_eq!(status, 200, "{body}");
                    }
                });
            }
        });
    });
    // After run() returned, the engine is fully quiescent and reusable.
    let outcome = engine.execute(&requests[0].1).unwrap();
    assert!(outcome.response.distribution().is_some() || outcome.response.probability().is_some());
}
