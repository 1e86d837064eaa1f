//! The blocking TCP accept loop, connection handling and graceful shutdown.
//!
//! One OS thread per live connection (scoped, so connections may borrow the
//! engine), a shared [`AdmissionQueue`] batching requests across
//! connections, and [`QueryEngine::worker_count`] dispatch lanes draining
//! that queue through [`QueryEngine::execute_batch`], so a lane that is free
//! answers the next request while another computes a cold estimate.
//!
//! `POST /query` and `POST /query/batch` share one parse-and-admit path: a
//! `/query` is an envelope of one request. When every request of an
//! envelope is answered by the engine's distribution cache or route map,
//! the connection thread that parsed it answers them all
//! ([`AdmissionQueue::admit`]) whenever the queue would have admitted the
//! envelope — open, not degraded, room for all of it, its deadline not
//! passed — and never reaches a lane. A `/query` outcome's JSON is written
//! straight into the response body, with no tree built. One miss queues
//! the whole envelope; an envelope the queue would refuse or shed is
//! refused or shed whole, answered inline or not. The listener runs
//! non-blocking so the accept loop can poll the shutdown flag; connections
//! poll it between keep-alive requests via a short socket read timeout.
//!
//! Graceful shutdown ([`ShutdownHandle::shutdown`]):
//!
//! 1. the accept loop stops taking connections,
//! 2. the admission queue closes — new submissions fail with 503, but every
//!    already-admitted request is still executed and answered,
//! 3. idle keep-alive connections close on their next timeout tick, and
//! 4. [`Server::run`] joins every connection and every dispatch lane before
//!    returning, so when it returns no request is in flight.

use crate::http::{self, HttpError, Limits};
use crate::json;
use crate::metrics::{self, ServerObs};
use crate::wire;
use crate::ServerError;
use pathcost_obs::log as obslog;
use pathcost_obs::{next_trace_id, ActiveTrace, FinishedTrace, Level, Stage};
use pathcost_persist::PersistenceStatus;
use pathcost_service::{AdmissionConfig, AdmissionQueue, QueryEngine, RequestContext};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:8080"` (`:0` picks a free port).
    pub addr: String,
    /// Maximum concurrently served connections; excess connections receive
    /// an immediate 503 and are closed.
    pub max_connections: usize,
    /// Admission queue tuning (capacity bound, batch size, degradation
    /// watermarks; the linger window is opt-in and off by default).
    pub admission: AdmissionConfig,
    /// Socket read timeout. Doubles as the shutdown poll interval for idle
    /// keep-alive connections, so shutdown latency is bounded by it.
    pub read_timeout: Duration,
    /// Socket write timeout: a client that stops reading its response can
    /// pin a connection thread in `write_all` for at most this long before
    /// the connection is closed.
    pub write_timeout: Duration,
    /// HTTP parsing limits (request line / header / body sizes).
    pub limits: Limits,
    /// Shared persistence telemetry (`PersistentIngestor::status()` in
    /// `pathcost-live`). When set, `GET /healthz` reports snapshot age,
    /// journal length and the last recovery outcome, and `POST
    /// /admin/snapshot` flags a snapshot request for the ingest thread.
    pub persistence: Option<Arc<PersistenceStatus>>,
    /// Requests slower than this end-to-end are counted in
    /// `pathcost_slow_queries_total` and logged as a `slow_query` event with
    /// their per-stage span breakdown. `None` disables slow-query logging.
    pub slow_query_threshold: Option<Duration>,
    /// How many finished request traces `GET /debug/traces` retains.
    pub trace_ring_capacity: usize,
    /// Overrides the structured event log's level for the process when set
    /// (otherwise the `PATHCOST_LOG` environment variable / `info` applies).
    pub log_level: Option<Level>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 256,
            admission: AdmissionConfig::default(),
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(2),
            limits: Limits::default(),
            persistence: None,
            slow_query_threshold: Some(Duration::from_millis(500)),
            trace_ring_capacity: 128,
            log_level: None,
        }
    }
}

/// Signals a running [`Server`] to stop accepting and drain. Cheap to clone
/// and safe to trigger from any thread (e.g. a ctrl-c handler or a test).
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Requests shutdown; returns immediately. [`Server::run`] returns once
    /// in-flight work has drained.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::Release);
    }
}

/// A bound (but not yet serving) HTTP front-end.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the configured address. The listener is non-blocking so the
    /// accept loop in [`run`](Self::run) can poll for shutdown.
    pub fn bind(config: ServerConfig) -> Result<Self, ServerError> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually bound address (useful with port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, ServerError> {
        Ok(self.listener.local_addr()?)
    }

    /// A handle that stops the server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
        }
    }

    /// Serves until [`ShutdownHandle::shutdown`] is called, then drains
    /// in-flight requests and returns. Blocks the calling thread.
    pub fn run(self, engine: &QueryEngine<'_>) {
        if let Some(level) = self.config.log_level {
            obslog::logger().set_level(level);
        }
        let addr = self
            .listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_default();
        obslog::info(
            "server",
            "started",
            &[
                ("addr", addr.as_str().into()),
                ("max_connections", self.config.max_connections.into()),
            ],
        );
        let queue = AdmissionQueue::new(self.config.admission);
        let obs = ServerObs::new(&self.config);
        let active = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let lanes: Vec<_> = (0..engine.worker_count())
                .map(|_| scope.spawn(|| queue.dispatch(engine)))
                .collect();
            while !self.shutdown.load(Ordering::Acquire) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        if active.load(Ordering::Acquire) >= self.config.max_connections {
                            obs.connections_rejected.inc();
                            obslog::warn(
                                "server",
                                "connection_rejected",
                                &[("max_connections", self.config.max_connections.into())],
                            );
                            reject_over_capacity(stream);
                            continue;
                        }
                        active.fetch_add(1, Ordering::AcqRel);
                        obs.connections.add(1.0);
                        let conn = Connection {
                            engine,
                            queue: &queue,
                            config: &self.config,
                            shutdown: &self.shutdown,
                            obs: &obs,
                        };
                        let active = &active;
                        let connections = &obs.connections;
                        scope.spawn(move || {
                            conn.serve(stream);
                            active.fetch_sub(1, Ordering::AcqRel);
                            connections.sub(1.0);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            // Stop admitting; the lanes drain what was admitted and exit.
            // Connection threads observe the flag on their next read timeout
            // and close; the scope joins them all.
            obslog::info("server", "shutdown_draining", &[]);
            queue.close();
            for lane in lanes {
                let _ = lane.join();
            }
        });
        obslog::info("server", "stopped", &[]);
    }
}

/// The `persistence` object of `GET /healthz`: last-recovery outcome (warm
/// restarts and cold boots are distinguishable), snapshot epoch/age and
/// journal length.
fn encode_persistence(status: &PersistenceStatus) -> json::Json {
    let snapshot_age_s = match status.snapshot_unix_ms() {
        0 => json::Json::Null,
        taken_ms => {
            let now_ms = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            json::Json::Number(now_ms.saturating_sub(taken_ms) as f64 / 1000.0)
        }
    };
    json::Json::object(vec![
        (
            "recovery",
            json::Json::String(status.recovery_outcome().as_str().to_string()),
        ),
        (
            "recovered_snapshot_epoch",
            json::Json::Number(status.recovered_snapshot_epoch() as f64),
        ),
        (
            "replayed_records",
            json::Json::Number(status.replayed_records() as f64),
        ),
        (
            "corrupt_generations_skipped",
            json::Json::Number(status.corrupt_generations_skipped() as f64),
        ),
        (
            "snapshot_epoch",
            json::Json::Number(status.snapshot_epoch() as f64),
        ),
        ("snapshot_age_s", snapshot_age_s),
        (
            "snapshots_written",
            json::Json::Number(status.snapshots_written() as f64),
        ),
        (
            "journal_records",
            json::Json::Number(status.journal_records() as f64),
        ),
        (
            "journal_bytes",
            json::Json::Number(status.journal_bytes() as f64),
        ),
        ("suspended", json::Json::Bool(status.suspended())),
        (
            "suspensions",
            json::Json::Number(status.suspensions() as f64),
        ),
        ("io_retries", json::Json::Number(status.io_retries() as f64)),
    ])
}

/// Emits the `slow_query` event: total latency plus every recorded span, so
/// the log line alone answers "where did the time go".
fn log_slow_query(finished: &FinishedTrace) {
    let mut fields: Vec<(&str, obslog::Value)> = vec![
        ("trace_id", finished.id.as_str().into()),
        ("target", finished.target.as_str().into()),
        ("status", u64::from(finished.status).into()),
        ("total_us", finished.total_micros.into()),
    ];
    for stage in Stage::ALL {
        let micros = finished.stage(stage);
        if micros > 0 {
            fields.push((stage.name(), micros.into()));
        }
    }
    obslog::warn("server", "slow_query", &fields);
}

/// The `GET /debug/traces` payload: recently finished traces, newest first,
/// each with its per-stage span breakdown in microseconds.
fn encode_traces(traces: &[FinishedTrace]) -> json::Json {
    let items = traces
        .iter()
        .map(|t| {
            let spans = Stage::ALL
                .iter()
                .filter(|stage| t.stage(**stage) > 0)
                .map(|stage| (stage.name(), json::Json::Number(t.stage(*stage) as f64)))
                .collect();
            json::Json::object(vec![
                ("id", json::Json::String(t.id.clone())),
                ("target", json::Json::String(t.target.clone())),
                ("status", json::Json::Number(f64::from(t.status))),
                (
                    "started_unix_ms",
                    json::Json::Number(t.started_unix_ms as f64),
                ),
                ("total_us", json::Json::Number(t.total_micros as f64)),
                ("spans_us", json::Json::object(spans)),
            ])
        })
        .collect();
    json::Json::object(vec![("traces", json::Json::Array(items))])
}

/// Best-effort 503 for a connection over the concurrency cap.
fn reject_over_capacity(mut stream: TcpStream) {
    let body = wire::encode_error("connection limit reached").to_string();
    let _ = http::write_response_full(
        &mut stream,
        503,
        "Service Unavailable",
        "application/json",
        &body,
        false,
        &[("retry-after", "1".to_string())],
    );
}

/// A submitted request's completion ticket paired with the regime it asked
/// for (echoed into the encoded response).
type SubmittedQuery = (pathcost_service::Ticket, pathcost_service::RegimeId);

/// Per-connection state (all borrowed from the serving scope).
struct Connection<'a, 'n> {
    engine: &'a QueryEngine<'n>,
    queue: &'a AdmissionQueue,
    config: &'a ServerConfig,
    shutdown: &'a AtomicBool,
    obs: &'a ServerObs,
}

impl Connection<'_, '_> {
    /// Serves keep-alive requests until close, error or shutdown.
    fn serve(&self, stream: TcpStream) {
        if stream
            .set_read_timeout(Some(self.config.read_timeout))
            .is_err()
            || stream
                .set_write_timeout(Some(self.config.write_timeout))
                .is_err()
        {
            return;
        }
        // Responses are written whole; Nagle only adds latency here.
        let _ = stream.set_nodelay(true);
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let mut reader = BufReader::new(stream);
        loop {
            match http::read_request(&mut reader, &mut writer, &self.config.limits) {
                Ok(request) => {
                    // One trace per request: the inbound x-trace-id if the
                    // client sent a sane one, a minted id otherwise. The
                    // parse span runs from the first byte on the wire (idle
                    // keep-alive waiting excluded) to here — headers and
                    // body are read, decoding is attributed downstream.
                    let id = request.trace_id.clone().unwrap_or_else(next_trace_id);
                    let trace = Arc::new(ActiveTrace::start(id, request.target.clone()));
                    if let Some(received) = request.received {
                        trace.record(Stage::Parse, received.elapsed());
                    }
                    let outcome = self.respond(&mut writer, &request, &trace);
                    self.finish_trace(&trace, outcome.unwrap_or(0));
                    if outcome.is_err()
                        || !request.keep_alive
                        || self.shutdown.load(Ordering::Acquire)
                    {
                        return;
                    }
                }
                Err(HttpError::Idle) => {
                    // Nothing arrived within the read timeout: poll shutdown
                    // and keep waiting.
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                }
                Err(error) => {
                    // A mid-request disconnect/timeout or a parse error:
                    // answer when a status applies, then close.
                    if let Some((status, reason)) = error.status() {
                        let message = match &error {
                            HttpError::BadRequest(msg) => msg,
                            _ => reason,
                        };
                        let body = wire::encode_error(message).to_string();
                        let _ = http::write_response_full(
                            &mut writer,
                            status,
                            reason,
                            "application/json",
                            &body,
                            false,
                            &[],
                        );
                        // The request may not have been consumed in full
                        // (e.g. an over-limit request line). Half-close and
                        // drain briefly so the close sends FIN, not RST —
                        // a reset would discard the response the peer is
                        // still reading.
                        let _ = writer.shutdown(std::net::Shutdown::Write);
                        let mut sink = [0u8; 4096];
                        for _ in 0..256 {
                            match std::io::Read::read(&mut reader, &mut sink) {
                                Ok(n) if n > 0 => {}
                                _ => break,
                            }
                        }
                    }
                    return;
                }
            }
        }
    }

    /// Files a finished trace: status-class counters and per-stage
    /// histograms, the `/debug/traces` ring, and — over the threshold — the
    /// slow-query counter and a `slow_query` event with the span breakdown.
    fn finish_trace(&self, trace: &ActiveTrace, status: u16) {
        let finished = trace.finish(status);
        self.obs.observe_request(&finished);
        if let Some(threshold) = self.config.slow_query_threshold {
            let total = Duration::from_micros(finished.total_micros);
            if total >= threshold {
                self.obs.slow_queries.inc();
                log_slow_query(&finished);
            }
        }
        self.obs.traces.push(finished);
    }

    /// Routes one parsed request; `Ok` carries the status written,
    /// `Err(())` closes the connection.
    fn respond(
        &self,
        writer: &mut TcpStream,
        request: &http::Request,
        trace: &Arc<ActiveTrace>,
    ) -> Result<u16, ()> {
        let keep_alive = request.keep_alive;
        // Every response echoes the trace id; overload answers (503/429)
        // carry Retry-After so well-behaved clients back off instead of
        // hammering the queue. The write span wraps the socket write, and a
        // write timeout (client stopped reading) is counted.
        let write = |writer: &mut TcpStream, status: u16, reason: &str, body: String| {
            self.write_traced(
                writer,
                status,
                reason,
                "application/json",
                body,
                keep_alive,
                trace,
            )
        };
        match (request.method.as_str(), request.target.as_str()) {
            ("GET", "/healthz") => {
                let suspended = self
                    .config
                    .persistence
                    .as_deref()
                    .is_some_and(PersistenceStatus::suspended);
                let load_degraded = self.queue.degraded();
                let healthy = !suspended && !load_degraded;
                let mut reasons: Vec<&str> = Vec::new();
                if load_degraded {
                    reasons.push("load watermark breached (queue depth / e2e p99)");
                }
                if suspended {
                    reasons.push("persistence suspended after repeated IO failures");
                }
                let mut fields = vec![
                    (
                        "status",
                        json::Json::String(if healthy { "ok" } else { "degraded" }.to_string()),
                    ),
                    ("epoch", json::Json::Number(self.engine.epoch() as f64)),
                    ("degraded", json::Json::Bool(!healthy)),
                    (
                        "version",
                        json::Json::String(env!("CARGO_PKG_VERSION").to_string()),
                    ),
                    (
                        "uptime_s",
                        json::Json::Number(self.obs.started.elapsed().as_secs_f64()),
                    ),
                    (
                        "workers",
                        json::Json::Number(self.engine.worker_count() as f64),
                    ),
                ];
                if !reasons.is_empty() {
                    fields.push(("reason", json::Json::String(reasons.join("; "))));
                }
                if let Some(status) = &self.config.persistence {
                    fields.push(("persistence", encode_persistence(status)));
                }
                let body = json::Json::object(fields).to_string();
                if healthy {
                    write(writer, 200, "OK", body)
                } else {
                    write(writer, 503, "Service Unavailable", body)
                }
            }
            ("POST", "/admin/snapshot") => match &self.config.persistence {
                Some(status) => {
                    // The flag is honoured by the ingest-owning thread after
                    // its next published epoch — accepted, not yet done.
                    status.request_snapshot();
                    let body = json::Json::object(vec![
                        (
                            "status",
                            json::Json::String("snapshot-requested".to_string()),
                        ),
                        (
                            "snapshot_epoch",
                            json::Json::Number(status.snapshot_epoch() as f64),
                        ),
                    ]);
                    write(writer, 202, "Accepted", body.to_string())
                }
                None => {
                    let body = wire::encode_error("persistence not configured").to_string();
                    write(writer, 503, "Service Unavailable", body)
                }
            },
            ("GET", "/metrics") => {
                let page = metrics::render(
                    self.obs,
                    self.queue,
                    self.engine,
                    self.config.persistence.as_deref(),
                );
                self.write_traced(
                    writer,
                    200,
                    "OK",
                    "text/plain; version=0.0.4",
                    page,
                    keep_alive,
                    trace,
                )
            }
            ("GET", "/debug/traces") => {
                let body = encode_traces(&self.obs.traces.recent());
                write(writer, 200, "OK", body.to_string())
            }
            ("POST", target @ ("/query" | "/query/batch")) => {
                let batch = target == "/query/batch";
                let mut admitted = match self.parse_and_admit(request, trace, batch) {
                    Ok(admitted) => admitted,
                    Err((status, reason, body)) => return write(writer, status, reason, body),
                };
                if !batch {
                    // A `/query` is an envelope of one, answered bare.
                    let (ticket, regime) = admitted.swap_remove(0);
                    return match ticket.wait() {
                        Ok(outcome) => {
                            let started = Instant::now();
                            let body = wire::outcome_body(&outcome, regime);
                            trace.record(Stage::Serialize, started.elapsed());
                            write(writer, 200, "OK", body)
                        }
                        Err(error) => {
                            let (status, reason) = wire::error_status(&error);
                            let body = wire::encode_error(&error.to_string()).to_string();
                            write(writer, status, reason, body)
                        }
                    };
                }
                let results: Vec<json::Json> = admitted
                    .into_iter()
                    .map(|(ticket, regime)| match ticket.wait() {
                        Ok(outcome) => wire::encode_outcome_for(&outcome, regime),
                        Err(error) => wire::encode_error(&error.to_string()),
                    })
                    .collect();
                let started = Instant::now();
                let body =
                    json::Json::object(vec![("results", json::Json::Array(results))]).to_string();
                trace.record(Stage::Serialize, started.elapsed());
                write(writer, 200, "OK", body)
            }
            (
                _,
                "/query" | "/query/batch" | "/healthz" | "/admin/snapshot" | "/metrics"
                | "/debug/traces",
            ) => {
                let body = wire::encode_error("method not allowed").to_string();
                write(writer, 405, "Method Not Allowed", body)
            }
            _ => {
                let body = wire::encode_error("no such endpoint").to_string();
                write(writer, 404, "Not Found", body)
            }
        }
    }

    /// Writes one response with the trace id echoed, Retry-After on
    /// overload statuses, the write span recorded, and write timeouts
    /// counted. Returns the status written; `Err(())` closes the connection.
    #[allow(clippy::too_many_arguments)]
    fn write_traced(
        &self,
        writer: &mut TcpStream,
        status: u16,
        reason: &str,
        content_type: &str,
        body: String,
        keep_alive: bool,
        trace: &Arc<ActiveTrace>,
    ) -> Result<u16, ()> {
        let mut extra: Vec<(&str, String)> = vec![("x-trace-id", trace.id().to_string())];
        if status == 503 || status == 429 {
            extra.push(("retry-after", "1".to_string()));
        }
        let started = Instant::now();
        let result = http::write_response_full(
            writer,
            status,
            reason,
            content_type,
            &body,
            keep_alive,
            &extra,
        );
        trace.record(Stage::Write, started.elapsed());
        match result {
            Ok(()) => Ok(status),
            Err(e) => {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    self.obs.write_timeouts.inc();
                    obslog::warn(
                        "server",
                        "write_timeout",
                        &[
                            ("trace_id", trace.id().into()),
                            ("status", u64::from(status).into()),
                        ],
                    );
                }
                Err(())
            }
        }
    }

    /// Parses the body of a `/query` (one request) or a `/query/batch`
    /// (`batch`: a non-empty list) and admits its requests as one envelope
    /// under the request's deadline ([`AdmissionQueue::admit`], which
    /// answers an envelope of hits on this thread), returning each ticket
    /// with its request's regime (echoed into the response). The error is
    /// a ready-to-send `(status, reason, body)` triple.
    fn parse_and_admit(
        &self,
        request: &http::Request,
        trace: &Arc<ActiveTrace>,
        batch: bool,
    ) -> Result<Vec<SubmittedQuery>, (u16, &'static str, String)> {
        let bad = |message: &str| (400, "Bad Request", wire::encode_error(message).to_string());
        let value = json::parse(&request.body).map_err(|e| bad(&e.to_string()))?;
        let requests = if batch {
            wire::decode_batch(&value)
        } else {
            wire::decode_request(&value).map(|request| vec![request])
        }
        .map_err(|e| bad(&e))?;
        if requests.is_empty() {
            return Err(bad("\"requests\" must be non-empty"));
        }
        let regimes: Vec<pathcost_service::RegimeId> =
            requests.iter().map(|r| r.regime()).collect();
        // The client's `x-deadline-ms` header when present, else unbounded.
        let deadline = request.deadline_ms.map(Duration::from_millis);
        let context = RequestContext::with_deadline(deadline).with_trace(Arc::clone(trace));
        self.queue
            .admit(self.engine, requests, context)
            .map(|tickets| tickets.into_iter().zip(regimes).collect())
            .map_err(|e| self.submit_error(e))
    }

    /// Maps an admission failure to its wire response, counting degraded
    /// early rejections (`pathcost_admission_rejected_degraded_total`, answered 429 +
    /// `Retry-After`).
    fn submit_error(&self, e: pathcost_service::ServiceError) -> (u16, &'static str, String) {
        if matches!(e, pathcost_service::ServiceError::Degraded) {
            self.engine.record_rejected_degraded();
        }
        let (status, reason) = wire::error_status(&e);
        (
            status,
            reason,
            wire::encode_error(&e.to_string()).to_string(),
        )
    }
}
