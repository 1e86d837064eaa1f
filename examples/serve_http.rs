//! Sustained multi-connection load against the HTTP front-end.
//!
//! Builds a 10x10 grid fixture, boots `pathcost-server` on an ephemeral
//! port, and hammers `POST /query` from several keep-alive client
//! connections at once. Every response must be a 200 with well-formed JSON
//! (zero errors over the whole run); the closed-loop rate is printed but not
//! asserted — a wall-clock floor has no place on a shared runner, and the
//! open-loop run under `benchmark/` is the source of q/s figures. Finishes
//! with the end-to-end count and mean and the cache totals read off
//! `/metrics`, and a graceful shutdown.
//!
//! A second **restart leg** then drives crash-safe persistence end to end
//! over HTTP: a persistence-backed engine serves live ingest epochs, takes a
//! snapshot via `POST /admin/snapshot`, is dropped mid-lineage (simulating a
//! crash after the journal's last fsync), and a recovered server must report
//! a warm recovery on `/healthz`, answer the same `/query` bodies
//! identically (modulo per-request latency telemetry), and keep accepting
//! updates.
//!
//! Run with: `cargo run --release --example serve_http`

use pathcost::core::{HybridConfig, HybridGraph, PathWeightFunction};
use pathcost::live::{LiveIngestor, PersistenceConfig, PersistentIngestor, RetentionConfig};
use pathcost::obs::expo::series_value;
use pathcost::persist::RecoveryOutcome;
use pathcost::roadnet::{GeneratorConfig, NetworkKind, RoadNetwork};
use pathcost::server::{Json, Server, ServerConfig};
use pathcost::service::{QueryEngine, ServiceConfig};
use pathcost::traj::{DatasetPreset, MatchedTrajectory, SimulationConfig, TrajectoryStore};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 16;
const REQUESTS_PER_CLIENT: usize = 1_250;

/// The 10x10 grid fixture the acceptance run is defined over.
fn grid_fixture() -> DatasetPreset {
    DatasetPreset {
        name: "grid10".to_string(),
        network: GeneratorConfig {
            kind: NetworkKind::Grid,
            rows: 10,
            cols: 10,
            spacing_m: 200.0,
            drop_probability: 0.0,
            seed: 4242,
        },
        simulation: SimulationConfig {
            trips: 400,
            days: 10,
            hotspot_pairs: 6,
            hotspot_fraction: 0.9,
            seed: 4242 ^ 0x7157,
            ..SimulationConfig::default()
        },
    }
}

/// `POST /query` bodies covering estimate and budget-probability queries.
fn workload(store: &TrajectoryStore) -> Vec<String> {
    let mut bodies = Vec::new();
    for (i, (path, _)) in store.frequent_paths(2, 5, None).into_iter().enumerate() {
        let departure = store.occurrences_on(&path)[0].entry_time;
        let edges: Vec<String> = path.edges().iter().map(|e| e.0.to_string()).collect();
        if i % 2 == 0 {
            bodies.push(format!(
                r#"{{"type":"estimate","path":[{}],"departure_s":{}}}"#,
                edges.join(","),
                departure.0
            ));
        } else {
            bodies.push(format!(
                r#"{{"type":"prob","path":[{}],"departure_s":{},"budget_s":600}}"#,
                edges.join(","),
                departure.0
            ));
        }
        if bodies.len() == 8 {
            break;
        }
    }
    assert!(bodies.len() >= 2, "fixture must yield frequent paths");
    bodies
}

/// `POST /query/batch` envelopes covering **all four** query kinds — rank
/// and route included — across a mixed-regime request stream (regimes
/// 0..=2). The serving engine holds no regime-tagged data, so non-global
/// requests resolve through the fallback ladder: every answer must still be
/// well-formed, with the requested regime echoed in its stats block.
fn batch_workload(net: &RoadNetwork, store: &TrajectoryStore) -> Vec<String> {
    fn edges_csv(path: &pathcost::roadnet::Path) -> String {
        path.edges()
            .iter()
            .map(|e| e.0.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
    let paths: Vec<_> = store
        .frequent_paths(2, 5, None)
        .into_iter()
        .map(|(p, _)| p)
        .collect();
    assert!(paths.len() >= 2, "fixture must yield frequent paths");
    let mut bodies = Vec::new();
    for (i, pair) in paths.chunks(2).take(4).enumerate() {
        let path = &pair[0];
        let departure = store.occurrences_on(path)[0].entry_time;
        let regime = i % 3;
        let first = path.edges()[0];
        let last = *path.edges().last().unwrap();
        let source = net.edges()[first.0 as usize].from.0;
        let destination = net.edges()[last.0 as usize].to.0;
        let mut requests = vec![
            format!(
                r#"{{"type":"estimate","path":[{}],"departure_s":{},"regime":{regime}}}"#,
                edges_csv(path),
                departure.0
            ),
            format!(
                r#"{{"type":"prob","path":[{}],"departure_s":{},"budget_s":600,"regime":{}}}"#,
                edges_csv(path),
                departure.0,
                (regime + 1) % 3
            ),
            format!(
                r#"{{"type":"route","source":{source},"destination":{destination},"departure_s":{},"budget_s":900,"k":2,"regime":{}}}"#,
                departure.0,
                (regime + 2) % 3
            ),
        ];
        if pair.len() == 2 {
            requests.push(format!(
                r#"{{"type":"rank","candidates":[[{}],[{}]],"departure_s":{},"budget_s":600,"regime":{regime}}}"#,
                edges_csv(&pair[0]),
                edges_csv(&pair[1]),
                departure.0
            ));
        }
        bodies.push(format!(r#"{{"requests":[{}]}}"#, requests.join(",")));
    }
    bodies
}

/// One keep-alive round trip; returns `(status, body)`.
fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    method: &str,
    target: &str,
    body: &str,
) -> (u16, String) {
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

/// One client: `n` keep-alive requests walking the workload from `offset`.
/// Returns how many were answered 200 with well-formed JSON.
fn drive(addr: SocketAddr, bodies: &[String], offset: usize, n: usize) -> usize {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ok = 0;
    for i in 0..n {
        let body = &bodies[(offset + i) % bodies.len()];
        let (status, response) = roundtrip(&mut stream, &mut reader, "POST", "/query", body);
        if status == 200 && pathcost::server::json::parse(response.as_bytes()).is_ok() {
            ok += 1;
        }
    }
    ok
}

fn main() {
    let preset = grid_fixture();
    println!("materialising 10x10 grid fixture '{}' …", preset.name);
    let (net, store) = preset.materialise().expect("fixture materialises");
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    let graph = HybridGraph::build(&net, &store, cfg).expect("hybrid graph builds");
    println!(
        "hybrid graph: {} variables over {} edges",
        graph.stats().total_variables(),
        net.edge_count()
    );
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let bodies = workload(&store);

    let server = Server::bind(ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.shutdown_handle();
    println!("serving on http://{addr} — {CLIENTS} clients x {REQUESTS_PER_CLIENT} requests\n");

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&engine));

        // Observability smoke, scrape one of two: a valid exposition before
        // any load.
        let baseline = scrape_metrics(addr);
        let served_before = series(&baseline, "pathcost_http_requests_total{class=\"2xx\"}");

        let start = Instant::now();
        let oks: usize = std::thread::scope(|clients| {
            (0..CLIENTS)
                .map(|c| {
                    let bodies = &bodies;
                    clients.spawn(move || drive(addr, bodies, c, REQUESTS_PER_CLIENT))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .sum()
        });
        let elapsed = start.elapsed();
        let total = CLIENTS * REQUESTS_PER_CLIENT;
        let qps = total as f64 / elapsed.as_secs_f64();

        // Latency and cache totals straight from the server's own metrics.
        let page = scrape_metrics(addr);
        let e2e_count = series(&page, "pathcost_request_e2e_seconds_count");
        let e2e_sum = series(&page, "pathcost_request_e2e_seconds_sum");
        println!("served {total} queries in {elapsed:.2?}  ({qps:.0} queries/sec)");
        println!(
            "end-to-end latency: {e2e_count} requests, mean {:.0}µs",
            e2e_sum / e2e_count.max(1.0) * 1e6
        );
        println!(
            "cache: {} hits / {} misses",
            shard_sum(&page, "pathcost_cache_hits_total"),
            shard_sum(&page, "pathcost_cache_misses_total"),
        );

        // Batch leg: rank and route ride POST /query/batch alongside
        // estimate/prob, in a mixed-regime stream.
        let batches = batch_workload(&net, &store);
        let (mut stream, mut reader) = connect(addr);
        let mut batch_answers = 0usize;
        let mut regime_echoes = 0usize;
        for body in &batches {
            let (status, response) =
                roundtrip(&mut stream, &mut reader, "POST", "/query/batch", body);
            assert_eq!(status, 200, "batch must answer: {response}");
            let parsed = pathcost::server::json::parse(response.as_bytes()).expect("batch JSON");
            let results = parsed
                .get("results")
                .and_then(Json::as_array)
                .expect("results array");
            for result in results {
                assert!(
                    result.get("error").is_none(),
                    "batch item failed: {result:?} in {response}"
                );
                if result
                    .get("stats")
                    .and_then(|s| s.get("regime"))
                    .and_then(Json::as_u64)
                    .is_some()
                {
                    regime_echoes += 1;
                }
                batch_answers += 1;
            }
        }
        assert!(
            regime_echoes > 0,
            "mixed-regime stream must echo non-global regimes in stats"
        );
        println!(
            "batch: {} answers across {} mixed-regime envelopes (estimate/prob/rank/route), {} regime echoes",
            batch_answers,
            batches.len(),
            regime_echoes
        );

        // Observability smoke, scrape two of two: still valid after the
        // full load, with the request counter having advanced by the run.
        let page = scrape_metrics(addr);
        let served_after = series(&page, "pathcost_http_requests_total{class=\"2xx\"}");
        assert!(
            served_after >= served_before + total as f64,
            "2xx counter must advance with the load: {served_before} -> {served_after}"
        );
        println!(
            "metrics: exposition valid, 2xx counter {served_before} -> {served_after} across the run"
        );

        handle.shutdown();
        serving.join().expect("server thread");
        println!("graceful shutdown complete");

        assert_eq!(oks, total, "every response must be a 200 with valid JSON");
        println!("\n✓ {total} queries, zero errors");
    });

    restart_leg(&net, &store, &bodies);
}

/// Scrapes `/metrics`, validates the exposition with the crate's strict
/// parser, and returns the page (the CI smoke step runs this twice).
fn scrape_metrics(addr: SocketAddr) -> String {
    let (mut stream, mut reader) = connect(addr);
    let (status, page) = roundtrip(&mut stream, &mut reader, "GET", "/metrics", "");
    assert_eq!(status, 200, "/metrics must answer");
    pathcost::obs::expo::validate(&page)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{page}"));
    page
}

/// The value of the exposition series with exactly this name-plus-labels.
fn series(page: &str, name: &str) -> f64 {
    series_value(page, name).unwrap_or_else(|| panic!("series {name:?} missing from exposition"))
}

/// A per-shard cache family summed over its `shard` series.
fn shard_sum(page: &str, family: &str) -> f64 {
    (0..)
        .map_while(|shard| series_value(page, &format!("{family}{{shard=\"{shard}\"}}")))
        .sum()
}

/// One keep-alive client connection as a `(stream, reader)` pair.
fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// Signals shutdown on drop so a panicking assertion inside a serving scope
/// unblocks the accept loop instead of deadlocking the scope join.
struct ShutdownGuard(pathcost::server::ShutdownHandle);

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// A `/query` response with the per-request latency/cache telemetry
/// stripped: the recovered server must match on everything else.
fn canonical(response: &str) -> Json {
    let parsed = pathcost::server::json::parse(response.as_bytes()).expect("response JSON");
    match parsed {
        Json::Object(fields) => {
            Json::Object(fields.into_iter().filter(|(k, _)| k != "stats").collect())
        }
        other => other,
    }
}

/// Crash-safe persistence over HTTP: serve live epochs with a journal,
/// snapshot via the admin endpoint, crash, recover warm and answer the same
/// queries byte-identically.
fn restart_leg(net: &RoadNetwork, store: &TrajectoryStore, bodies: &[String]) {
    println!("\n— restart leg: crash-safe persistence over HTTP —");
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    let split = store.len() * 80 / 100;
    let base_rows: Vec<MatchedTrajectory> = store.matched()[..split].to_vec();
    let fresh: Vec<MatchedTrajectory> = store.matched()[split..].to_vec();
    let state_dir =
        std::env::temp_dir().join(format!("pathcost-serve-http-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    // First boot: cold lineage, three live epochs, snapshot at epoch 2 so a
    // journal tail (epoch 3) is left for the recovery to replay.
    let base = TrajectoryStore::new(base_rows.clone());
    let weights = PathWeightFunction::instantiate(net, &base, &cfg).expect("instantiates");
    let engine = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(net, weights.clone(), cfg.clone())),
        ServiceConfig::default(),
    );
    let mut ingestor = LiveIngestor::from_instantiated(net, base, weights, cfg.clone())
        .expect("config matches")
        .with_persistence(&state_dir, PersistenceConfig::default())
        .expect("state dir is writable");

    let server = Server::bind(ServerConfig {
        persistence: Some(ingestor.status()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.shutdown_handle();

    let chunk = fresh.len().div_ceil(3).max(1);
    let reference: Vec<String> = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&engine));
        let _guard = ShutdownGuard(handle.clone());
        let (mut stream, mut reader) = connect(addr);

        let mut chunks = fresh.chunks(chunk);
        let update = ingestor
            .ingest(chunks.next().unwrap().to_vec())
            .expect("ingest");
        engine.apply_update(update).expect("update applies");

        // The admin flag is honoured after the *next* published epoch.
        let (status, body) = roundtrip(&mut stream, &mut reader, "POST", "/admin/snapshot", "");
        assert_eq!(status, 202, "snapshot must be accepted: {body}");
        for batch in chunks {
            let update = ingestor.ingest(batch.to_vec()).expect("ingest");
            engine.apply_update(update).expect("update applies");
        }

        let (status, health) = roundtrip(&mut stream, &mut reader, "GET", "/healthz", "");
        assert_eq!(status, 200);
        let health = pathcost::server::json::parse(health.as_bytes()).expect("healthz JSON");
        let persistence = health.get("persistence").expect("persistence block");
        assert_eq!(
            persistence.get("recovery").and_then(Json::as_str),
            Some("cold")
        );
        assert_eq!(
            persistence.get("snapshot_epoch").and_then(Json::as_u64),
            Some(2),
            "the admin request snapshots the next epoch"
        );
        println!(
            "first boot: cold lineage, {} live epochs, snapshot taken at epoch 2 via POST /admin/snapshot",
            ingestor.epoch()
        );

        let reference = bodies
            .iter()
            .map(|body| {
                let (status, response) =
                    roundtrip(&mut stream, &mut reader, "POST", "/query", body);
                assert_eq!(status, 200, "reference query must answer: {response}");
                response
            })
            .collect();
        handle.shutdown();
        serving.join().expect("server thread");
        reference
    });
    let epoch_before = ingestor.epoch();
    drop(engine);
    drop(ingestor); // simulated crash: nothing flushed beyond the journal

    // Second boot: recover the lineage and serve it again.
    let (recovered, report) = PersistentIngestor::recover(
        net,
        &state_dir,
        cfg,
        RetentionConfig::default(),
        PersistenceConfig::default(),
        || TrajectoryStore::new(base_rows.clone()),
    )
    .expect("recovery succeeds");
    assert_eq!(report.outcome, RecoveryOutcome::Warm, "state dir was live");
    assert_eq!(report.snapshot_epoch, 2);
    assert_eq!(recovered.epoch(), epoch_before, "lineage resumes in place");
    println!(
        "restart: warm recovery from snapshot epoch {} + {} journal records",
        report.snapshot_epoch, report.replayed_records
    );

    let engine = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(
            net,
            recovered.weights().as_ref().clone(),
            recovered.config().clone(),
        )),
        ServiceConfig::default(),
    );
    engine.resume_epoch(recovered.epoch());
    let server = Server::bind(ServerConfig {
        persistence: Some(recovered.status()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.shutdown_handle();
    let mut recovered = recovered;

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&engine));
        let _guard = ShutdownGuard(handle.clone());
        let (mut stream, mut reader) = connect(addr);

        let (status, health) = roundtrip(&mut stream, &mut reader, "GET", "/healthz", "");
        assert_eq!(status, 200);
        let health = pathcost::server::json::parse(health.as_bytes()).expect("healthz JSON");
        assert_eq!(
            health.get("epoch").and_then(Json::as_u64),
            Some(epoch_before),
            "the serving epoch resumes where the crash left it"
        );
        let persistence = health.get("persistence").expect("persistence block");
        assert_eq!(
            persistence.get("recovery").and_then(Json::as_str),
            Some("warm")
        );

        // Identical answers (sans latency telemetry) for the whole
        // captured workload.
        for (body, expected) in bodies.iter().zip(&reference) {
            let (status, response) = roundtrip(&mut stream, &mut reader, "POST", "/query", body);
            assert_eq!(status, 200);
            assert_eq!(
                canonical(&response),
                canonical(expected),
                "recovered answer diverged for {body}"
            );
        }

        // Ingest continues: the next epoch lands on the recovered lineage.
        let cutoff = recovered
            .store()
            .start_time_at_percentile(10)
            .expect("store is non-empty");
        let update = recovered
            .retire_before(cutoff)
            .expect("post-restart retire");
        assert_eq!(update.epoch, epoch_before + 1);
        engine.apply_update(update).expect("update applies");
        let (status, health) = roundtrip(&mut stream, &mut reader, "GET", "/healthz", "");
        assert_eq!(status, 200);
        let health = pathcost::server::json::parse(health.as_bytes()).expect("healthz JSON");
        assert_eq!(
            health.get("epoch").and_then(Json::as_u64),
            Some(epoch_before + 1)
        );

        handle.shutdown();
        serving.join().expect("server thread");
    });

    let _ = std::fs::remove_dir_all(&state_dir);
    println!(
        "\n✓ restart leg: {} /query answers identical after warm recovery; ingest continued to epoch {}",
        bodies.len(),
        epoch_before + 1
    );
}
