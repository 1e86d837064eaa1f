//! End-to-end observability tests against a live HTTP server: the
//! `/metrics` Prometheus exposition (validated with the crate's own strict
//! parser, covering every layer), trace-id propagation (`x-trace-id` echoed,
//! spans retrievable at `/debug/traces`, spans sum bounded by the measured
//! total), the slow-query event log, and the `/healthz` build/uptime/worker
//! fields.
//!
//! See `OBSERVABILITY.md` for the metric inventory and the span model.

use pathcost::core::{HybridConfig, HybridGraph};
use pathcost::obs::expo::{series_value, validate};
use pathcost::obs::log::logger;
use pathcost::persist::PersistenceStatus;
use pathcost::server::{Json, Server, ServerConfig};
use pathcost::service::{QueryEngine, ServiceConfig};
use pathcost::traj::{DatasetPreset, TrajectoryStore};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Builds a small engine plus a known-valid `/query` body. The network is
/// leaked so the engine is `'static` (a few KB per test process, once).
fn fixture(seed: u64) -> (QueryEngine<'static>, String) {
    let (net, store) = DatasetPreset::tiny(seed).materialise().unwrap();
    let net = Box::leak(Box::new(net));
    let graph = HybridGraph::build(
        net,
        &store,
        HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        },
    )
    .unwrap();
    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
    let body = valid_query(&store);
    (engine, body)
}

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

/// Boots a server on an ephemeral port, runs `body` against it, then shuts
/// the server down cleanly.
fn with_server<T>(
    config: ServerConfig,
    engine: &QueryEngine,
    body: impl FnOnce(SocketAddr) -> T,
) -> T {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(engine));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(addr)));
        handle.shutdown();
        serving.join().expect("server thread");
        match result {
            Ok(value) => value,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// One-shot exchange returning (status, headers, body).
fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw).expect("request write");
    stream.shutdown(std::net::Shutdown::Write).ok();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(
        response.starts_with("HTTP/1.1 "),
        "protocol violation: {response:?}"
    );
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let (headers, body) = response.split_once("\r\n\r\n").expect("header terminator");
    (status, headers.to_string(), body.to_string())
}

fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
    let raw = format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    exchange(addr, raw.as_bytes())
}

fn post(
    addr: SocketAddr,
    target: &str,
    body: &str,
    trace_id: Option<&str>,
) -> (u16, String, String) {
    let trace_header = trace_id
        .map(|id| format!("x-trace-id: {id}\r\n"))
        .unwrap_or_default();
    let raw = format!(
        "POST {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n{trace_header}Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, raw.as_bytes())
}

/// The echoed `x-trace-id` response header, if any.
fn trace_id_header(headers: &str) -> Option<String> {
    headers.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("x-trace-id")
            .then(|| value.trim().to_string())
    })
}

/// The value of the exposition series with exactly this name-plus-labels.
fn series(page: &str, name: &str) -> f64 {
    series_value(page, name)
        .unwrap_or_else(|| panic!("series {name:?} missing from exposition:\n{page}"))
}

#[test]
fn metrics_exposition_validates_and_covers_every_layer() {
    let (engine, good_body) = fixture(41);
    // A bare PersistenceStatus is enough to exercise the persistence
    // families — the server only ever reads the shared telemetry handle.
    let status = Arc::new(PersistenceStatus::new());
    status.record_fsync(Duration::from_micros(120));
    let config = ServerConfig {
        persistence: Some(status),
        ..ServerConfig::default()
    };
    with_server(config, &engine, |addr| {
        let (code, _, _) = post(addr, "/query", &good_body, None);
        assert_eq!(code, 200);

        let (code, headers, page) = get(addr, "/metrics");
        assert_eq!(code, 200, "{page}");
        assert!(
            headers
                .to_ascii_lowercase()
                .contains("content-type: text/plain"),
            "exposition must be text/plain: {headers}"
        );
        validate(&page).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{page}"));

        // Every layer shows up on one page.
        for family in [
            "pathcost_build_info",            // build metadata
            "pathcost_http_requests_total",   // server
            "pathcost_request_stage_seconds", // server (trace-fed)
            "pathcost_admission_queue_depth", // admission
            "pathcost_admission_queue_wait_seconds",
            "pathcost_queries_total", // engine
            "pathcost_query_seconds",
            "pathcost_cache_hits_total",     // cache
            "pathcost_ingest_updates_total", // live ingest
            "pathcost_persist_suspended",    // persistence
            "pathcost_persist_fsync_seconds",
        ] {
            assert!(
                page.contains(&format!("# TYPE {family} ")),
                "family {family} missing:\n{page}"
            );
        }
        assert!(
            series(&page, "pathcost_persist_fsync_seconds_count") >= 1.0,
            "recorded fsync must show up"
        );

        // Counters advance between scrapes, and the engine's typed view
        // agrees with /metrics on the shared single-source-of-truth counters.
        let served = series(&page, "pathcost_http_requests_total{class=\"2xx\"}");
        let (code, _, _) = post(addr, "/query", &good_body, None);
        assert_eq!(code, 200);
        let (_, _, page2) = get(addr, "/metrics");
        validate(&page2).unwrap();
        let served2 = series(&page2, "pathcost_http_requests_total{class=\"2xx\"}");
        assert!(
            served2 >= served + 2.0, // the extra /query plus the first scrape
            "2xx counter must advance: {served} -> {served2}"
        );

        // The served page and the engine's own registry are one set of
        // instruments: an in-process read gives the page's number.
        let (_, _, page3) = get(addr, "/metrics");
        for name in [
            "pathcost_queries_total{kind=\"estimate\"}",
            "pathcost_estimations_total",
            "pathcost_batches_total",
        ] {
            let from_metrics = series(&page3, name);
            assert_eq!(
                engine.registry().value(name),
                Some(from_metrics),
                "{name} in process vs {from_metrics} on /metrics"
            );
        }
    });
}

#[test]
fn trace_ids_propagate_and_spans_are_retrievable() {
    let (engine, good_body) = fixture(43);
    with_server(ServerConfig::default(), &engine, |addr| {
        // The client's id is echoed verbatim.
        let (code, headers, _) = post(addr, "/query", &good_body, Some("obs-test-trace-1"));
        assert_eq!(code, 200);
        assert_eq!(
            trace_id_header(&headers).as_deref(),
            Some("obs-test-trace-1"),
            "inbound x-trace-id must be echoed: {headers}"
        );

        // Without a client id the server mints a 16-hex one.
        let (code, headers, _) = post(addr, "/query", &good_body, None);
        assert_eq!(code, 200);
        let minted = trace_id_header(&headers).expect("minted trace id echoed");
        assert_eq!(minted.len(), 16, "minted id format: {minted}");
        assert!(minted.chars().all(|c| c.is_ascii_hexdigit()), "{minted}");

        // A hostile id (header-injection attempt) is replaced, not echoed.
        let (code, headers, _) = post(addr, "/query", &good_body, Some("evil\tid"));
        assert_eq!(code, 200);
        let replaced = trace_id_header(&headers).expect("replacement id echoed");
        assert_ne!(replaced, "evil\tid");

        // The finished trace is retrievable with its span breakdown, and
        // the disjoint stages sum to no more than the measured total.
        let (code, _, body) = get(addr, "/debug/traces");
        assert_eq!(code, 200, "{body}");
        let parsed = pathcost::server::json::parse(body.as_bytes()).unwrap();
        let traces = parsed
            .get("traces")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .expect("traces array");
        let ours = traces
            .iter()
            .find(|t| t.get("id").and_then(Json::as_str) == Some("obs-test-trace-1"))
            .unwrap_or_else(|| panic!("trace obs-test-trace-1 not in ring: {body}"));
        assert_eq!(ours.get("status").and_then(Json::as_u64), Some(200));
        let total = ours
            .get("total_us")
            .and_then(Json::as_u64)
            .expect("total_us");
        let spans = ours.get("spans_us").expect("spans_us object");
        let span = |stage: &str| spans.get(stage).and_then(Json::as_u64).unwrap_or(0);
        // The estimate's work, cache fill included, lands in `eval`; no
        // stage is booked for a batch phase of its own.
        assert!(
            span("eval") > 0,
            "the estimate's span must be recorded: {body}"
        );
        assert!(spans.get("warm").is_none(), "no warm span: {body}");
        assert!(span("write") > 0, "write span must be recorded: {body}");
        let span_sum: u64 = ["parse", "queue", "dispatch", "eval", "serialize", "write"]
            .iter()
            .map(|s| span(s))
            .sum();
        assert!(span_sum > 0);
        // Stages are disjoint slices of the request; allow only clock
        // granularity (one µs per recorded stage) of slack.
        assert!(
            span_sum <= total + 6,
            "span sum {span_sum}µs exceeds total {total}µs: {body}"
        );
    });
}

/// A `Write` sink appending into a shared buffer (captures the event log).
#[derive(Clone)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn slow_queries_hit_the_event_log_and_the_counter() {
    let (engine, good_body) = fixture(47);
    let config = ServerConfig {
        // Everything is a slow query at threshold zero.
        slow_query_threshold: Some(Duration::ZERO),
        ..ServerConfig::default()
    };
    // Capture the process-global event log. Other tests' events may land in
    // the buffer too; the assertions only require ours to be present.
    let buffer = Arc::new(Mutex::new(Vec::new()));
    logger().set_writer(Some(Box::new(Capture(buffer.clone()))));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        with_server(config, &engine, |addr| {
            let (code, _, _) = post(addr, "/query", &good_body, Some("slow-trace-9"));
            assert_eq!(code, 200);
            let (_, _, page) = get(addr, "/metrics");
            assert!(series(&page, "pathcost_slow_queries_total") >= 1.0);
        });
    }));
    logger().set_writer(None);
    if let Err(panic) = outcome {
        std::panic::resume_unwind(panic);
    }

    let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
    let line = text
        .lines()
        .find(|l| l.contains("\"event\":\"slow_query\"") && l.contains("slow-trace-9"))
        .unwrap_or_else(|| panic!("no slow_query event for slow-trace-9 in log:\n{text}"));
    assert!(line.contains("\"component\":\"server\""), "{line}");
    assert!(line.contains("\"level\":\"warn\""), "{line}");
    assert!(line.contains("\"target\":\"/query\""), "{line}");
    assert!(line.contains("\"status\":200"), "{line}");
    assert!(line.contains("\"total_us\":"), "{line}");
    // The span breakdown: the estimate's work is in `eval`, and no `warm`
    // stage exists.
    assert!(line.contains("\"eval\":"), "{line}");
    assert!(!line.contains("\"warm\":"), "{line}");
}

#[test]
fn healthz_reports_version_and_uptime() {
    let (engine, _) = fixture(53);
    // `workers: Some(0)` still runs one admission lane, and says so.
    let zero = QueryEngine::new(
        engine.graph(),
        ServiceConfig {
            workers: Some(0),
            ..ServiceConfig::default()
        },
    );
    for (engine, lanes) in [(&engine, engine.worker_count()), (&zero, 1)] {
        with_server(ServerConfig::default(), engine, |addr| {
            let (code, _, body) = get(addr, "/healthz");
            assert_eq!(code, 200, "{body}");
            let health = pathcost::server::json::parse(body.as_bytes()).unwrap();
            assert_eq!(
                health.get("version").and_then(Json::as_str),
                Some(env!("CARGO_PKG_VERSION")),
                "{body}"
            );
            assert!(
                health
                    .get("uptime_s")
                    .and_then(|v| v.as_f64())
                    .is_some_and(|u| u >= 0.0),
                "{body}"
            );
            assert_eq!(
                health.get("workers").and_then(Json::as_u64),
                Some(lanes as u64),
                "{body}"
            );
        });
    }
}
