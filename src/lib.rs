//! # pathcost
//!
//! Facade crate re-exporting the whole hybrid-graph path cost distribution
//! estimation system (Dai, Yang, Guo, Jensen, Hu — *Path Cost Distribution
//! Estimation Using Trajectory Data*, PVLDB 10(3), 2016).
//!
//! The individual crates are:
//!
//! * [`roadnet`] — road-network graph, path algebra, synthetic generators,
//! * [`traj`] — GPS trajectories, traffic simulation, map matching, storage,
//! * [`hist`] — histograms (1-D, N-D), V-Optimal, Auto bucket selection,
//!   KL divergence, entropy, convolution,
//! * [`core`] — the hybrid graph itself: path weight function, coarsest
//!   decomposition, joint and marginal cost-distribution estimation, baselines,
//! * [`routing`] — deterministic and stochastic routing on top of the
//!   estimators,
//! * [`service`] — the concurrent query-serving layer: a typed request/
//!   response interface over a shared hybrid graph (published as swappable
//!   epoch snapshots), a sharded LRU distribution cache keyed by
//!   `(path, departure interval)` with targeted invalidation, a batch
//!   executor that deduplicates shared estimation work across a persistent
//!   worker pool, and per-query/service-level metrics,
//! * [`live`] — online trajectory ingestion: delta-indexed store appends,
//!   dirty-key tracking, selective re-derivation of exactly the changed
//!   weight-function variables, and versioned epoch publishing feeding the
//!   service layer's targeted cache invalidation,
//! * [`persist`] — crash-safe persistence: a versioned, checksummed
//!   snapshot format for the trajectory store and weight function (atomic
//!   temp-file + fsync + rename publication, two retained generations),
//!   an append-only ingest journal with torn-tail truncation, and the
//!   recovery machinery that loads the latest valid snapshot and replays
//!   post-snapshot journal records bit-identically,
//! * [`server`] — a blocking HTTP/1.1 network front-end over plain
//!   `std::net` sockets (hand-rolled request parsing and JSON wire format;
//!   the vendored serde is a no-op shim), batching concurrent connections
//!   through a bounded admission queue into the service layer's persistent
//!   worker pool, with load-shedding backpressure and graceful shutdown,
//! * [`obs`] — the dependency-free observability substrate: a metrics
//!   registry with Prometheus text exposition (served at `GET /metrics`),
//!   per-request traces with per-stage spans (`GET /debug/traces`), and a
//!   leveled structured event log — see `OBSERVABILITY.md`.
//!
//! See `examples/quickstart.rs` for an end-to-end walk-through of the
//! estimator stack, `examples/serve_queries.rs` for serving a mixed query
//! workload, `examples/serve_http.rs` for the network front-end under
//! concurrent socket load, and `examples/live_updates.rs` for ingesting new
//! trajectories while serving.

pub use pathcost_core as core;
pub use pathcost_hist as hist;
pub use pathcost_live as live;
pub use pathcost_obs as obs;
pub use pathcost_persist as persist;
pub use pathcost_roadnet as roadnet;
pub use pathcost_routing as routing;
pub use pathcost_server as server;
pub use pathcost_service as service;
pub use pathcost_traj as traj;
