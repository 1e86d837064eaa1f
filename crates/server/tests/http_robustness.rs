//! HTTP-layer robustness over real sockets: malformed request lines,
//! truncated bodies, oversized payloads and mid-request disconnects must map
//! to 4xx responses or clean closes — and must never take down the worker
//! pool: after every abuse case the same server instance keeps answering.

mod common;

use common::{get, post, send_raw, serve_with};
use pathcost_core::{HybridConfig, HybridGraph};
use pathcost_obs::expo::series_value;
use pathcost_server::{Json, Limits, ServerConfig};
use pathcost_service::{QueryEngine, ServiceConfig};
use pathcost_traj::DatasetPreset;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn test_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(50),
        limits: Limits {
            max_body: 16 * 1024,
            ..Limits::default()
        },
        ..ServerConfig::default()
    }
}

/// A valid `/query` body for the fixture, discovered from its store.
fn valid_query(store: &pathcost_traj::TrajectoryStore) -> String {
    let (path, _) = store.frequent_paths(2, 10, None)[0].clone();
    let departure = store.occurrences_on(&path)[0].entry_time;
    let edges: Vec<String> = path.edges().iter().map(|e| e.0.to_string()).collect();
    format!(
        r#"{{"type":"estimate","path":[{}],"departure_s":{}}}"#,
        edges.join(","),
        departure.0
    )
}

#[test]
fn hostile_inputs_get_4xx_and_the_server_keeps_serving() {
    let (net, store) = DatasetPreset::tiny(7).materialise().unwrap();
    let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let good_body = valid_query(&store);

    serve_with(&engine, test_config(), |addr| {
        // Malformed request lines.
        assert_eq!(send_raw(addr, b"BROKEN\r\n\r\n").0, 400);
        assert_eq!(send_raw(addr, b"GET /x SPDY/9\r\n\r\n").0, 400);
        assert_eq!(send_raw(addr, b"GET noslash HTTP/1.1\r\n\r\n").0, 400);

        // Malformed headers and framing.
        assert_eq!(
            send_raw(addr, b"GET /healthz HTTP/1.1\r\nbad header\r\n\r\n").0,
            400
        );
        assert_eq!(
            send_raw(addr, b"POST /query HTTP/1.1\r\nContent-Length: moo\r\n\r\n").0,
            400
        );
        assert_eq!(
            send_raw(
                addr,
                b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
            .0,
            501
        );

        // Oversized request line and payload.
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(20_000));
        assert_eq!(send_raw(addr, long.as_bytes()).0, 414);
        let huge = b"POST /query HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert_eq!(send_raw(addr, huge).0, 413);

        // Truncated body: declared 50 bytes, delivered 3, then half-close.
        let (status, _) = send_raw(
            addr,
            b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\nabc",
        );
        assert_eq!(status, 408);

        // Mid-request disconnect with no bytes to read back at all.
        drop(TcpStream::connect(addr).unwrap());
        let mut partial = TcpStream::connect(addr).unwrap();
        partial.write_all(b"POST /que").unwrap();
        drop(partial);

        // Bad JSON and bad request shapes on a healthy connection.
        assert_eq!(post(addr, "/query", "not json").0, 400);
        assert_eq!(post(addr, "/query", r#"{"type":"bogus"}"#).0, 400);
        assert_eq!(
            post(
                addr,
                "/query",
                r#"{"type":"estimate","path":[],"departure_s":0}"#
            )
            .0,
            400
        );
        assert_eq!(post(addr, "/query/batch", r#"{"requests":[]}"#).0, 400);

        // Unknown endpoint / wrong method.
        for unknown in ["/nope", "/stats"] {
            assert_eq!(get(addr, unknown).0, 404, "{unknown}");
        }
        assert_eq!(get(addr, "/query").0, 405);
        assert_eq!(post(addr, "/healthz", "{}").0, 405);

        // After all of that, the same server still answers real queries.
        let (status, body) = post(addr, "/query", &good_body);
        assert_eq!(status, 200, "server must survive hostile inputs: {body}");
        let parsed = pathcost_server::json::parse(body.as_bytes()).unwrap();
        assert_eq!(
            parsed.get("type").and_then(Json::as_str),
            Some("distribution")
        );
        assert!(!parsed
            .get("distribution")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
    });
}

#[test]
fn healthz_and_metrics_report_epoch_and_latency() {
    let (net, store) = DatasetPreset::tiny(11).materialise().unwrap();
    let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let good_body = valid_query(&store);

    serve_with(&engine, test_config(), |addr| {
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        let health = pathcost_server::json::parse(body.as_bytes()).unwrap();
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(health.get("epoch").and_then(Json::as_u64), Some(0));

        assert_eq!(post(addr, "/query", &good_body).0, 200);

        // One observation in each latency histogram — how long a
        // sub-microsecond release-mode query took is the clock's business.
        let (status, page) = get(addr, "/metrics");
        assert_eq!(status, 200);
        for (series, want) in [
            (r#"pathcost_queries_total{kind="estimate"}"#, 1.0),
            ("pathcost_request_e2e_seconds_count", 1.0),
            ("pathcost_query_seconds_count", 1.0),
        ] {
            assert_eq!(series_value(&page, series), Some(want), "{series}");
        }
    });
}

#[test]
fn oversized_batch_is_rejected_by_the_admission_bound() {
    let (net, store) = DatasetPreset::tiny(13).materialise().unwrap();
    let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let one = valid_query(&store);

    let mut config = test_config();
    config.admission.capacity = 4;
    serve_with(&engine, config, |addr| {
        // 5 requests into a capacity-4 queue: all-or-nothing 503.
        let batch = format!(
            r#"{{"requests":[{}]}}"#,
            std::iter::repeat_n(one.as_str(), 5)
                .collect::<Vec<_>>()
                .join(",")
        );
        let (status, body) = post(addr, "/query/batch", &batch);
        assert_eq!(status, 503, "{body}");

        // A fitting batch still succeeds afterwards (nothing leaked into the
        // queue from the rejected submission).
        let batch = format!(
            r#"{{"requests":[{}]}}"#,
            std::iter::repeat_n(one.as_str(), 4)
                .collect::<Vec<_>>()
                .join(",")
        );
        let (status, body) = post(addr, "/query/batch", &batch);
        assert_eq!(status, 200, "{body}");
        let parsed = pathcost_server::json::parse(body.as_bytes()).unwrap();
        assert_eq!(
            parsed
                .get("results")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            4
        );
    });
}

/// Writes `raw`, half-closes, and returns the whole response text (status
/// line + headers + body) so tests can assert on response *headers*.
fn send_raw_full(addr: std::net::SocketAddr, raw: &[u8]) -> String {
    use std::io::Read;
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn slowloris_drip_times_out_with_408_and_the_server_keeps_serving() {
    let (net, store) = DatasetPreset::tiny(17).materialise().unwrap();
    let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let good_body = valid_query(&store);

    serve_with(&engine, test_config(), |addr| {
        // A client that starts a request line and then stalls: the 50ms read
        // timeout fires mid-request, which must be answered 408 and closed —
        // not held open indefinitely and not treated as an idle keep-alive.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /he").unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let mut response = String::new();
        use std::io::Read;
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 408 "),
            "stalled request must get 408, got: {response:?}"
        );

        // Same for a body that drips one byte and stalls.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /query HTTP/1.1\r\nContent-Length: 40\r\n\r\n{")
            .unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 408 "), "{response:?}");

        // The worker pool is unharmed: a healthy request still succeeds.
        assert_eq!(post(addr, "/query", &good_body).0, 200);
    });
}

#[test]
fn unread_responses_and_mid_response_disconnects_do_not_wedge_the_server() {
    let (net, store) = DatasetPreset::tiny(19).materialise().unwrap();
    let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let good_body = valid_query(&store);

    let config = ServerConfig {
        // Tight write timeout: a peer that stops reading can pin a thread in
        // write_all for at most this long.
        write_timeout: Duration::from_millis(100),
        ..test_config()
    };
    serve_with(&engine, config, |addr| {
        // Slow writer: submits a query and never reads the response, keeping
        // the connection open well past the write timeout.
        let mut lazy = TcpStream::connect(addr).unwrap();
        write!(
            lazy,
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{good_body}",
            good_body.len()
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(300));

        // Mid-response disconnect: the peer vanishes right after sending a
        // complete request; the server's response write hits a dead socket.
        let mut rude = TcpStream::connect(addr).unwrap();
        write!(
            rude,
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{good_body}",
            good_body.len()
        )
        .unwrap();
        drop(rude);

        // Neither client wedged the server: fresh connections are answered,
        // and serve_with's graceful shutdown (after this closure) must still
        // join every connection thread — `lazy` is still attached here.
        let (status, body) = post(addr, "/query", &good_body);
        assert_eq!(status, 200, "{body}");
        drop(lazy);
    });
}

#[test]
fn expired_deadlines_get_504_and_overload_answers_carry_retry_after() {
    let (net, store) = DatasetPreset::tiny(23).materialise().unwrap();
    let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let good_body = valid_query(&store);

    let mut config = test_config();
    config.admission.capacity = 2;
    serve_with(&engine, config, |addr| {
        // An already-expired client deadline: the queue sheds the request
        // before evaluation and the server answers 504.
        let raw = format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nx-deadline-ms: 0\r\nContent-Length: {}\r\n\r\n{good_body}",
            good_body.len()
        );
        let (status, _) = send_raw(addr, raw.as_bytes());
        assert_eq!(status, 504);

        // A generous deadline still succeeds.
        let raw = format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nx-deadline-ms: 30000\r\nContent-Length: {}\r\n\r\n{good_body}",
            good_body.len()
        );
        assert_eq!(send_raw(addr, raw.as_bytes()).0, 200);

        // An unparseable deadline is the client's fault.
        let raw =
            "POST /query HTTP/1.1\r\nHost: t\r\nx-deadline-ms: soon\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(send_raw(addr, raw.as_bytes()).0, 400);

        // The shed shows up in the metrics.
        let (status, page) = get(addr, "/metrics");
        assert_eq!(status, 200);
        for series in [
            "pathcost_admission_shed_total",
            "pathcost_deadline_exceeded_total",
            r#"pathcost_query_outcome_seconds_count{outcome="shed"}"#,
        ] {
            let value = series_value(&page, series);
            assert!(value.is_some_and(|v| v >= 1.0), "{series} = {value:?}");
        }

        // Overload (batch over the capacity-2 queue bound) is 503 *with*
        // Retry-After, so well-behaved clients back off.
        let batch = format!(
            r#"{{"requests":[{}]}}"#,
            std::iter::repeat_n(good_body.as_str(), 3)
                .collect::<Vec<_>>()
                .join(",")
        );
        let raw = format!(
            "POST /query/batch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{batch}",
            batch.len()
        );
        let response = send_raw_full(addr, raw.as_bytes());
        assert!(response.starts_with("HTTP/1.1 503 "), "{response:?}");
        assert!(
            response.contains("retry-after: 1\r\n"),
            "503 must carry Retry-After: {response:?}"
        );
    });
}

#[test]
fn healthz_reports_persistence_and_admin_snapshot_flags_a_request() {
    let (net, store) = DatasetPreset::tiny(13).materialise().unwrap();
    let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let status = Arc::new(pathcost_persist::PersistenceStatus::new());
    status.record_recovery(pathcost_persist::RecoveryOutcome::Warm, 7, 3, 1);
    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64;
    status.record_snapshot(9, now_ms);
    status.record_journal(4, 2048);
    engine.resume_epoch(9);

    let config = ServerConfig {
        persistence: Some(status.clone()),
        ..test_config()
    };
    serve_with(&engine, config, |addr| {
        let (code, body) = get(addr, "/healthz");
        assert_eq!(code, 200);
        let health = pathcost_server::json::parse(body.as_bytes()).unwrap();
        // The engine was resumed at the recovered epoch, not restarted at 0.
        assert_eq!(health.get("epoch").and_then(Json::as_u64), Some(9));
        let p = health.get("persistence").expect("persistence object");
        assert_eq!(p.get("recovery").and_then(Json::as_str), Some("warm"));
        assert_eq!(
            p.get("recovered_snapshot_epoch").and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(p.get("replayed_records").and_then(Json::as_u64), Some(3));
        assert_eq!(
            p.get("corrupt_generations_skipped").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(p.get("snapshot_epoch").and_then(Json::as_u64), Some(9));
        assert_eq!(p.get("journal_records").and_then(Json::as_u64), Some(4));
        assert_eq!(p.get("journal_bytes").and_then(Json::as_u64), Some(2048));
        let age = p
            .get("snapshot_age_s")
            .and_then(Json::as_f64)
            .expect("a fresh snapshot has a numeric age");
        assert!((0.0..60.0).contains(&age), "age {age} out of range");

        // The admin endpoint flags a request for the ingest thread.
        assert!(!status.take_snapshot_request());
        let (code, body) = post(addr, "/admin/snapshot", "");
        assert_eq!(code, 202, "body: {body}");
        let ack = pathcost_server::json::parse(body.as_bytes()).unwrap();
        assert_eq!(
            ack.get("status").and_then(Json::as_str),
            Some("snapshot-requested")
        );
        assert!(status.take_snapshot_request(), "flag must be set");

        // Wrong method on a known path is 405, not 404.
        assert_eq!(get(addr, "/admin/snapshot").0, 405);
    });

    // Without persistence configured: no healthz object, 503 on admin.
    serve_with(&engine, test_config(), |addr| {
        let (_, body) = get(addr, "/healthz");
        let health = pathcost_server::json::parse(body.as_bytes()).unwrap();
        assert!(health.get("persistence").is_none());
        assert_eq!(post(addr, "/admin/snapshot", "").0, 503);
    });
}
