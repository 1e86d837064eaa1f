//! The server's own telemetry and the `GET /metrics` page.
//!
//! Every layer owns a [`Registry`] holding the instruments it registered at
//! construction: the engine (queries, cache, regimes, ingest), the admission
//! queue (depth, degradation, queue-wait and end-to-end latency), the
//! optional [`PersistenceStatus`], and [`ServerObs`] here (status classes,
//! connections, write timeouts, slow queries, per-stage latency from
//! finished traces, build info, uptime). [`render`] is those registries, in
//! that fixed order, on one page — the server's only numeric export.

use crate::server::ServerConfig;
use pathcost_obs::{
    exponential_buckets, Counter, ExpositionWriter, FinishedTrace, Gauge, Histogram, Registry,
    Stage, TraceRing, STAGE_COUNT,
};
use pathcost_persist::PersistenceStatus;
use pathcost_service::{AdmissionQueue, QueryEngine};
use std::time::Instant;

/// Status classes tracked by `pathcost_http_requests_total`.
const CLASSES: [&str; 5] = ["2xx", "3xx", "4xx", "5xx", "aborted"];

/// The server's own instruments plus the finished-trace ring — one per
/// [`Server::run`](crate::Server::run), shared by every connection thread.
pub(crate) struct ServerObs {
    registry: Registry,
    /// Process-start instant: `/healthz` uptime and `pathcost_uptime_seconds`.
    pub started: Instant,
    /// `pathcost_uptime_seconds`, set from `started` just before a render.
    uptime: Gauge,
    /// Recently finished request traces, newest first (`GET /debug/traces`).
    pub traces: TraceRing,
    /// `pathcost_http_requests_total{class=...}`, indexed like [`CLASSES`].
    requests: [Counter; 5],
    /// `pathcost_open_connections` (accepted and not yet closed).
    pub connections: Gauge,
    /// Connections refused over [`ServerConfig::max_connections`].
    pub connections_rejected: Counter,
    /// Responses whose socket write timed out (client stopped reading).
    pub write_timeouts: Counter,
    /// Requests over the slow-query threshold (also logged as events).
    pub slow_queries: Counter,
    /// `pathcost_request_stage_seconds{stage=...}`, indexed by `Stage::ALL`.
    stages: [Histogram; STAGE_COUNT],
}

impl ServerObs {
    pub fn new(config: &ServerConfig) -> Self {
        let registry = Registry::new();
        registry
            .gauge(
                "pathcost_build_info",
                "Build metadata; the value is always 1.",
                &[("version", env!("CARGO_PKG_VERSION"))],
            )
            .set(1.0);
        let uptime = registry.gauge(
            "pathcost_uptime_seconds",
            "Seconds since the server started.",
            &[],
        );
        let requests = CLASSES.map(|class| {
            registry.counter(
                "pathcost_http_requests_total",
                "HTTP responses by status class (aborted = write failed).",
                &[("class", class)],
            )
        });
        let connections = registry.gauge(
            "pathcost_open_connections",
            "Connections accepted and not yet closed.",
            &[],
        );
        let connections_rejected = registry.counter(
            "pathcost_connections_rejected_total",
            "Connections answered 503 over the max_connections cap.",
            &[],
        );
        let write_timeouts = registry.counter(
            "pathcost_write_timeouts_total",
            "Response writes abandoned on the socket write timeout.",
            &[],
        );
        let slow_queries = registry.counter(
            "pathcost_slow_queries_total",
            "Requests over the slow-query threshold (see the event log).",
            &[],
        );
        let stage_bounds = exponential_buckets(1e-6, 4.0, 12);
        let stages = Stage::ALL.map(|stage| {
            registry.histogram(
                "pathcost_request_stage_seconds",
                "Per-stage request latency from finished traces.",
                &[("stage", stage.name())],
                &stage_bounds,
            )
        });
        ServerObs {
            registry,
            started: Instant::now(),
            uptime,
            traces: TraceRing::new(config.trace_ring_capacity),
            requests,
            connections,
            connections_rejected,
            write_timeouts,
            slow_queries,
            stages,
        }
    }

    /// Files a finished trace into the status-class counters and the
    /// per-stage histograms (stages the request never entered are skipped,
    /// so a `/healthz` hit does not drag the eval histogram toward zero).
    pub fn observe_request(&self, trace: &FinishedTrace) {
        let class = match trace.status / 100 {
            2 => 0,
            3 => 1,
            4 => 2,
            5 => 3,
            _ => 4, // status 0: the response write failed mid-flight
        };
        self.requests[class].inc();
        for (stage, hist) in Stage::ALL.iter().zip(&self.stages) {
            let micros = trace.stage(*stage);
            if micros > 0 {
                hist.observe(micros as f64 / 1e6);
            }
        }
    }
}

/// Renders the full exposition page: the server's registry, then the
/// admission queue's, the engine's and (when configured) persistence's. The
/// output passes [`pathcost_obs::expo::validate`].
pub(crate) fn render(
    obs: &ServerObs,
    queue: &AdmissionQueue,
    engine: &QueryEngine<'_>,
    persistence: Option<&PersistenceStatus>,
) -> String {
    obs.uptime.set(obs.started.elapsed().as_secs_f64());
    let mut w = ExpositionWriter::new();
    obs.registry.render_into(&mut w);
    queue.registry().render_into(&mut w);
    engine.registry().render_into(&mut w);
    if let Some(status) = persistence {
        status.registry().render_into(&mut w);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_obs::expo::validate;
    use pathcost_obs::ActiveTrace;
    use std::time::Duration;

    #[test]
    fn finished_traces_feed_class_counters_and_stage_histograms() {
        let obs = ServerObs::new(&ServerConfig::default());
        let trace = ActiveTrace::start("t1".to_string(), "/query".to_string());
        trace.record(Stage::Eval, Duration::from_micros(250));
        trace.record(Stage::Write, Duration::from_micros(40));
        obs.observe_request(&trace.finish(200));
        obs.observe_request(&trace.finish(0)); // aborted write

        let mut w = ExpositionWriter::new();
        obs.registry.render_into(&mut w);
        let page = w.finish();
        validate(&page).expect("server registry renders a valid page");
        assert!(page.contains("pathcost_build_info{version="));
        assert!(page.contains("pathcost_http_requests_total{class=\"2xx\"} 1"));
        assert!(page.contains("pathcost_http_requests_total{class=\"aborted\"} 1"));
        assert!(page.contains("pathcost_request_stage_seconds_count{stage=\"eval\"} 2"));
        // Stages the request never entered are skipped, not filed as zero.
        assert!(page.contains("pathcost_request_stage_seconds_count{stage=\"queue\"} 0"));
    }
}
