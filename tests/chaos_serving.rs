//! Chaos harness: a live HTTP server under deliberately hostile conditions —
//! slowloris readers and writers, mid-request and mid-response disconnects,
//! injected worker panics (`PATHCOST_CHAOS_PANIC_EDGE`), injected persistence
//! IO faults (`pathcost_persist::faults`) and a tight-deadline flood — all
//! while well-behaved clients keep querying.
//!
//! Invariants asserted (see `ROBUSTNESS.md`):
//!
//! * every byte stream the server sends is a well-formed HTTP/1.1 response,
//! * the server keeps answering valid requests throughout every fault phase,
//! * expired-deadline work is shed *before* evaluation and answered 504,
//! * an injected worker panic poisons only its own request (500), never the
//!   batch, its dispatch lane or the process,
//! * persistence IO faults degrade to serving-only mode (`/healthz` → 503
//!   with a reason) without losing any published epoch, and full health
//!   returns within one epoch of the faults clearing,
//! * graceful shutdown joins every connection thread (a hung thread deadlocks
//!   the scope and times the test out).
//!
//! Everything here is process-global (env-var failpoint, persist failpoint),
//! so this file holds exactly one `#[test]`. `CHAOS_QUICK=1` runs a reduced
//! schedule (the CI smoke step).

use pathcost::core::{HybridConfig, HybridGraph};
use pathcost::live::RetentionConfig;
use pathcost::live::{LiveIngestor, PersistenceConfig, PersistenceError, PersistentIngestor};
use pathcost::obs::expo::series_value;
use pathcost::persist::{clear_io_errors, inject_io_errors, RecoveryOutcome};
use pathcost::server::{Json, Server, ServerConfig};
use pathcost::service::{QueryEngine, ServiceConfig};
use pathcost::traj::{DatasetPreset, MatchedTrajectory, TrajectoryStore};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// An edge id far outside any tiny network: requests naming it trip the
/// engine's chaos failpoint and panic inside a worker.
const CHAOS_EDGE: u64 = 4_000_000_000;

fn quick() -> bool {
    std::env::var("CHAOS_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// A valid `/query` body discovered from the store.
fn valid_query(store: &TrajectoryStore) -> String {
    let (path, _) = store.frequent_paths(2, 10, None)[0].clone();
    let departure = store.occurrences_on(&path)[0].entry_time;
    let edges: Vec<String> = path.edges().iter().map(|e| e.0.to_string()).collect();
    format!(
        r#"{{"type":"estimate","path":[{}],"departure_s":{}}}"#,
        edges.join(","),
        departure.0
    )
}

/// One-shot exchange returning the raw response text. Panics on connect
/// failure (the server must keep accepting); read errors return what
/// arrived so far (an abusive exchange may legitimately end in a reset).
fn exchange(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("server stopped accepting");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw).expect("request write");
    stream.shutdown(std::net::Shutdown::Write).ok();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

/// Asserts the response is well-formed HTTP and returns (status, body).
fn check_response(response: &str) -> (u16, String) {
    assert!(
        response.starts_with("HTTP/1.1 "),
        "protocol violation: {response:?}"
    );
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line: {response:?}"));
    let (headers, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("response without header terminator: {response:?}"));
    let content_length: usize = headers
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or_else(|| panic!("response without content-length: {response:?}"));
    assert_eq!(
        body.len(),
        content_length,
        "framing violation: {response:?}"
    );
    (status, body.to_string())
}

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "POST {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    check_response(&exchange(addr, raw.as_bytes()))
}

fn post_with_deadline(addr: SocketAddr, body: &str, deadline_ms: u64) -> (u16, String) {
    let raw = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\nx-deadline-ms: {deadline_ms}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    check_response(&exchange(addr, raw.as_bytes()))
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let raw = format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    check_response(&exchange(addr, raw.as_bytes()))
}

/// `/metrics` must stay scrapeable — and strictly valid exposition —
/// through every fault phase; returns the page for content assertions.
fn scrape_metrics(addr: SocketAddr) -> String {
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200, "metrics scrape failed under chaos: {body}");
    pathcost::obs::expo::validate(&body)
        .unwrap_or_else(|e| panic!("invalid exposition under chaos: {e}\n{body}"));
    body
}

/// One counter off a fresh (validated) scrape.
fn metric(addr: SocketAddr, series: &str) -> f64 {
    let page = scrape_metrics(addr);
    series_value(&page, series).unwrap_or_else(|| panic!("{series} missing under chaos:\n{page}"))
}

/// One misbehaving-client repertoire iteration against the server. Every
/// response actually read back must be well-formed; most abuse ends in a
/// clean close with no response at all, which is also legal.
fn abuse_round(addr: SocketAddr, good_body: &str, round: usize) {
    match round % 4 {
        // Slowloris reader: start a request line, stall past the read
        // timeout. The server answers 408 (or closes) and frees the thread.
        0 => {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(b"GET /sta").unwrap();
            std::thread::sleep(Duration::from_millis(80));
            let mut response = String::new();
            let _ = stream.read_to_string(&mut response);
            if !response.is_empty() {
                let (status, _) = check_response(&response);
                assert_eq!(status, 408, "{response:?}");
            }
        }
        // Mid-request disconnect: vanish with a half-written body.
        1 => {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let _ = stream.write_all(b"POST /query HTTP/1.1\r\nContent-Length: 400\r\n\r\n{\"ty");
            drop(stream);
        }
        // Mid-response disconnect / slow writer: send a complete request,
        // never read the response, vanish. The server's write hits a dead
        // or stalled socket and must give up within the write timeout.
        2 => {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let _ = write!(
                stream,
                "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{good_body}",
                good_body.len()
            );
            drop(stream);
        }
        // Unread response held open: like above but the socket stays open,
        // pinning the connection thread for at most the write timeout.
        _ => {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let _ = write!(
                stream,
                "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{good_body}",
                good_body.len()
            );
            std::thread::sleep(Duration::from_millis(50));
            drop(stream);
        }
    }
}

#[test]
fn chaos_serving_survives_hostile_clients_panics_and_io_faults() {
    // Arm the worker-panic failpoint for the whole test; the edge id is far
    // outside the tiny network, so only deliberately poisoned requests trip.
    std::env::set_var("PATHCOST_CHAOS_PANIC_EDGE", CHAOS_EDGE.to_string());

    let (abuse_threads, abuse_rounds, flood) = if quick() { (3, 4, 8) } else { (6, 16, 32) };

    let (net, store) = DatasetPreset::tiny(29).materialise().unwrap();
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    let graph = HybridGraph::build(&net, &store, cfg.clone()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let good_body = valid_query(&store);

    // A persistent ingestor whose status feeds the server's /healthz: the
    // IO-fault leg drives it from full health to serving-only degraded mode
    // and back while the server keeps answering.
    let dir = std::env::temp_dir().join(format!("pathcost-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let half = store.len() / 2;
    let base = TrajectoryStore::new(store.matched()[..half].to_vec());
    let rest: Vec<MatchedTrajectory> = store.matched()[half..].to_vec();
    let mut ingestor = LiveIngestor::new(&net, base, cfg.clone())
        .unwrap()
        .with_persistence(
            &dir,
            PersistenceConfig {
                io_retries: 1,
                io_backoff: Duration::ZERO,
                ..PersistenceConfig::default()
            },
        )
        .unwrap();
    let status = ingestor.status();

    let config = ServerConfig {
        read_timeout: Duration::from_millis(50),
        write_timeout: Duration::from_millis(250),
        persistence: Some(status.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle();

    let final_epoch = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&engine));
        let chaos = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Phase 1 — misbehaving clients interleaved with valid traffic.
            std::thread::scope(|inner| {
                for t in 0..abuse_threads {
                    let good_body = &good_body;
                    inner.spawn(move || {
                        for round in 0..abuse_rounds {
                            abuse_round(addr, good_body, round + t);
                        }
                    });
                }
                // Valid traffic concurrent with the abuse: every answer must
                // be a well-formed 200 with a distribution payload.
                for _ in 0..abuse_rounds {
                    let (code, body) = post(addr, "/query", &good_body);
                    assert_eq!(code, 200, "valid client starved under abuse: {body}");
                    let parsed = pathcost::server::json::parse(body.as_bytes()).unwrap();
                    assert_eq!(
                        parsed.get("type").and_then(Json::as_str),
                        Some("distribution")
                    );
                }
            });

            // Phase 2 — injected worker panics. A poisoned request answers
            // 500; its batch-mates and every later request are unharmed.
            let poison = format!(r#"{{"type":"estimate","path":[{CHAOS_EDGE}],"departure_s":0}}"#);
            for _ in 0..3 {
                let (code, body) = post(addr, "/query", &poison);
                assert_eq!(code, 500, "injected panic must answer 500: {body}");
                let (code, _) = post(addr, "/query", &good_body);
                assert_eq!(code, 200, "server must survive a worker panic");
            }
            let batch = format!(r#"{{"requests":[{good_body},{poison},{good_body}]}}"#);
            let (code, body) = post(addr, "/query/batch", &batch);
            assert_eq!(code, 200, "{body}");
            let results = pathcost::server::json::parse(body.as_bytes())
                .unwrap()
                .get("results")
                .and_then(Json::as_array)
                .map(<[Json]>::to_vec)
                .unwrap();
            assert_eq!(results.len(), 3);
            assert!(results[0].get("distribution").is_some(), "{body}");
            assert!(results[1].get("error").is_some(), "{body}");
            assert!(results[2].get("distribution").is_some(), "{body}");
            // The exposition stays valid after abuse and contained panics,
            // and agrees with the engine's own registry on the panic count.
            let panicked = metric(addr, "pathcost_panicked_queries_total");
            assert!(panicked >= 4.0, "panics must be visible on /metrics");
            assert_eq!(
                Some(panicked),
                engine.registry().value("pathcost_panicked_queries_total")
            );

            // Phase 3 — tight-deadline flood: already-expired deadlines are
            // shed before evaluation and answered 504.
            let shed_before = metric(addr, "pathcost_admission_shed_total");
            for _ in 0..flood {
                let (code, _) = post_with_deadline(addr, &good_body, 0);
                assert_eq!(code, 504, "expired deadline must answer 504");
            }
            let shed_after = metric(addr, "pathcost_admission_shed_total");
            assert!(shed_after >= shed_before + flood as f64);
            let (code, _) = post_with_deadline(addr, &good_body, 30_000);
            assert_eq!(code, 200);

            // Phase 4 — persistence IO-fault ladder against the live server.
            let (code, body) = get(addr, "/healthz");
            assert_eq!(code, 200, "{body}");
            ingestor.ingest(rest).expect("healthy ingest");
            let healthy_epoch = ingestor.epoch();

            inject_io_errors(1_000);
            ingestor
                .ingest(Vec::new())
                .expect("publish must survive IO faults (serving-only degradation)");
            let suspended_epoch = ingestor.epoch();
            assert_eq!(suspended_epoch, healthy_epoch + 1);
            assert!(status.suspended());
            let (code, body) = get(addr, "/healthz");
            assert_eq!(
                code, 503,
                "suspended persistence must fail /healthz: {body}"
            );
            let health = pathcost::server::json::parse(body.as_bytes()).unwrap();
            assert_eq!(health.get("degraded").and_then(Json::as_bool), Some(true));
            assert!(
                health
                    .get("reason")
                    .and_then(Json::as_str)
                    .is_some_and(|r| r.contains("persistence")),
                "{body}"
            );
            // Queries still answer while persistence is down, and /metrics
            // stays scrapeable, reporting the suspension.
            assert_eq!(post(addr, "/query", &good_body).0, 200);
            let page = scrape_metrics(addr);
            assert!(
                page.contains("pathcost_persist_suspended 1"),
                "suspension must be visible on /metrics"
            );
            assert!(page.contains("pathcost_persist_suspensions_total"));
            // Mutations are refused rather than silently dropped.
            assert!(matches!(
                ingestor.ingest(Vec::new()),
                Err(PersistenceError::Suspended)
            ));

            clear_io_errors();
            ingestor
                .ingest(Vec::new())
                .expect("resume after faults clear");
            assert!(!status.suspended());
            let (code, body) = get(addr, "/healthz");
            assert_eq!(
                code, 200,
                "health must return within one epoch of faults clearing: {body}"
            );

            // Phase 5 — the same server is still fully healthy.
            let (code, body) = post(addr, "/query", &good_body);
            assert_eq!(code, 200, "{body}");
            ingestor.epoch()
        }));
        // Graceful shutdown must join every connection thread even after all
        // that abuse; a hung thread deadlocks this scope and fails the test
        // via the harness timeout.
        handle.shutdown();
        serving.join().expect("server thread");
        match chaos {
            Ok(epoch) => epoch,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    });

    // No published epoch was lost across the whole episode: recovery from
    // disk is warm and lands exactly on the final epoch.
    drop(ingestor);
    let (recovered, report) = PersistentIngestor::recover(
        &net,
        &dir,
        cfg,
        RetentionConfig::default(),
        PersistenceConfig::default(),
        || panic!("warm recovery must not need the bootstrap store"),
    )
    .unwrap();
    assert_eq!(report.outcome, RecoveryOutcome::Warm);
    assert_eq!(recovered.epoch(), final_epoch);
    std::fs::remove_dir_all(&dir).unwrap();
}
