//! # pathcost-server
//!
//! A blocking HTTP/1.1 front-end over [`pathcost-service`](pathcost_service):
//! plain `std::net` sockets, a hand-rolled request parser ([`http`]) and a
//! hand-rolled JSON layer ([`json`]) — the workspace's vendored
//! `serde`/`serde_derive` are deliberate no-op shims (offline build, see
//! `vendor/README.md`), so this crate carries its own wire format
//! ([`wire`]). No async runtime: requests are CPU-bound estimator work, so
//! the concurrency model is one scoped thread per connection feeding a
//! shared [`AdmissionQueue`](pathcost_service::AdmissionQueue) whose
//! dispatcher batches requests *across connections* into
//! [`QueryEngine::execute_batch`](pathcost_service::QueryEngine::execute_batch)
//! — concurrent clients share the engine's worker pool and distribution
//! cache exactly like one caller submitting a batch.
//!
//! ## Endpoints
//!
//! | Endpoint | Method | Payload |
//! |---|---|---|
//! | `/query` | POST | one request object (see [`wire`]) |
//! | `/query/batch` | POST | `{"requests": [...]}` |
//! | `/stats` | GET | engine + latency counters (JSON) |
//! | `/metrics` | GET | Prometheus text exposition, every layer |
//! | `/debug/traces` | GET | recent request traces with per-stage spans |
//! | `/healthz` | GET | `{"status":"ok","epoch":N,"version":...,"uptime_s":...}` |
//!
//! Every response echoes an `x-trace-id` header — the client's own id if it
//! sent a sane one, a minted id otherwise — correlating responses with
//! `/debug/traces` entries and slow-query log events. The metric inventory,
//! span model and event-log schema live in `OBSERVABILITY.md` at the
//! repository root.
//!
//! Backpressure is load-shedding: a full admission queue or a connection
//! over [`ServerConfig::max_connections`] answers `503` immediately rather
//! than queueing unbounded work, and every overload answer carries
//! `Retry-After`. Clients can bound their wait with an `x-deadline-ms`
//! header — expired requests are shed before evaluation and answered `504`
//! — and `/healthz` answers `503` while the service is degraded (load
//! watermark breached, or persistence suspended). The full request
//! lifecycle failure model — deadlines, cancellation, degraded modes,
//! hostile-client handling — is documented in `ROBUSTNESS.md` at the
//! repository root and exercised by `tests/chaos_serving.rs`.
//!
//! ## Serving quickstart
//!
//! ```no_run
//! use pathcost_core::{HybridConfig, HybridGraph};
//! use pathcost_server::{Server, ServerConfig};
//! use pathcost_service::{QueryEngine, ServiceConfig};
//! use pathcost_traj::DatasetPreset;
//! use std::sync::Arc;
//!
//! let (net, store) = DatasetPreset::tiny(7).materialise().unwrap();
//! let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
//! let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
//!
//! let server = Server::bind(ServerConfig {
//!     addr: "127.0.0.1:8080".to_string(),
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//! let shutdown = server.shutdown_handle(); // call shutdown() from ctrl-c etc.
//! server.run(&engine); // blocks until shutdown, then drains in flight
//! # let _ = shutdown;
//! ```
//!
//! Then, from a shell:
//!
//! ```text
//! curl -s localhost:8080/healthz
//! curl -s localhost:8080/query -d '{"type":"prob","path":[0,1],"departure_s":28800,"budget_s":600}'
//! curl -s localhost:8080/query -d '{"type":"route","source":0,"destination":9,"departure_s":28800,"budget_s":900}'
//! curl -s localhost:8080/stats
//! ```
//!
//! `examples/serve_http.rs` boots this end to end on a 10×10 grid fixture
//! and drives it with concurrent socket clients.

pub mod error;
pub mod http;
pub mod json;
mod metrics;
pub mod server;
pub mod wire;

pub use error::ServerError;
pub use http::Limits;
pub use json::Json;
pub use server::{Server, ServerConfig, ShutdownHandle};
