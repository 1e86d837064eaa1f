//! # pathcost-service
//!
//! A concurrent, cache-backed query-serving layer over the hybrid graph of
//! Dai et al. (*Path Cost Distribution Estimation Using Trajectory Data*,
//! PVLDB 10(3), 2016). The estimator crates answer one question at a time;
//! this crate turns them into a service that answers **many heterogeneous
//! questions under concurrent traffic** from a single immutable
//! [`HybridGraph`](pathcost_core::HybridGraph) shared behind an `Arc`.
//!
//! ## What it provides
//!
//! * **A typed query interface** — [`QueryRequest`] /
//!   [`QueryResponse`]: full distributions (`EstimateDistribution`),
//!   arrival-probability point queries (`ProbWithinBudget`), candidate
//!   ranking (`RankPaths`) and stochastic routing (`Route`), all answered by
//!   one [`QueryEngine`].
//! * **A sharded LRU distribution cache** — the paper's §3 time-interval
//!   discretisation means an estimate is a pure function of
//!   `(path, departure interval)`; the engine caches exactly that pair
//!   (keyed by [`Path::fingerprint`](pathcost_roadnet::Path::fingerprint)
//!   mixed with the
//!   [`IntervalId`](pathcost_core::IntervalId)), so repeated queries cost an
//!   O(1) lookup instead of a decomposition.
//! * **A batch executor** — [`QueryEngine::execute_batch`] answers a
//!   batch in one pass, its requests fanned out over the engine's
//!   persistent worker pool ([`pathcost_core::exec::WorkerPool`]; no async
//!   runtime: the work is CPU-bound). Every fill — point query, ranking
//!   candidate or route candidate — goes through the engine's one
//!   cache-backed estimation path, so every cached distribution is the
//!   paper's coarsest-decomposition (OD) estimate and batch responses are
//!   bit-identical to sequential execution.
//! * **A routing adapter** — `Route` requests hand the
//!   [`BestFirstRouter`](pathcost_routing::BestFirstRouter) a
//!   [`CostEstimator`](pathcost_core::CostEstimator) that reads through the
//!   cache (its `estimate_arc` hands out the cached `Arc` itself), so
//!   searches reuse candidate-path distributions across route queries
//!   without copying them.
//! * **Live updates** — [`QueryEngine::apply_update`] consumes a
//!   [`WeightUpdate`](pathcost_core::WeightUpdate) (produced by the
//!   `pathcost-live` ingestor), publishes the new weight-function epoch
//!   swap-on-publish (in-flight queries keep their snapshot) and evicts
//!   exactly the cache entries whose recorded estimation reads an updated
//!   variable invalidates — see the [`update`] module for the invalidation
//!   rule and the correctness contract.
//! * **A deadline-aware request lifecycle** — a [`RequestContext`]
//!   (deadline + cancellation token) travels with each admitted request:
//!   expired work is shed in the admission queue before it reaches a worker,
//!   evaluation polls the token cooperatively, and a load-watermark policy
//!   degrades gracefully under pressure (capped route budgets) instead of
//!   queueing toward timeout. The full failure model is
//!   documented in `ROBUSTNESS.md` at the repository root.
//! * **Observability** — every response carries per-query [`QueryStats`]
//!   (cache hits/misses, deepest decomposition, latency) and the engine
//!   aggregates a [`ServiceStats`] snapshot (per-kind query counts, cache
//!   hit rate, mean decomposition depth, batch sizes, route search
//!   telemetry, ingest publish latency). A [`RequestContext`] can carry a
//!   `pathcost-obs` trace: the admission queue and the evaluation loop then
//!   file per-stage spans (queue wait, dispatch, eval) that the HTTP
//!   front-end exposes at `GET /debug/traces` — see
//!   `OBSERVABILITY.md` at the repository root for the span model and the
//!   full metric inventory.
//!
//! ## Semantics
//!
//! Estimates are **interval-canonical**: a query departing anywhere inside
//! an α-interval is answered with the distribution estimated at the
//! interval's start (day 0). Within the engine this is exact — the same
//! `(path, interval)` always yields the bit-identical histogram, whether it
//! came from the cache, a batch, or a routing search. Relative to running
//! `OdEstimator` at the precise departure second it is a deliberate
//! approximation: candidate selection's shift-and-enlarge windows (§4.1)
//! start at the exact departure time, so a mid-interval departure could
//! select slightly different variables than the interval anchor does. The
//! serving layer trades that sub-interval sensitivity for one cache entry
//! per `(path, interval)`; callers that need finer granularity should
//! shrink α in [`HybridConfig`](pathcost_core::HybridConfig).
//!
//! ## Example
//!
//! ```no_run
//! use pathcost_core::{HybridConfig, HybridGraph};
//! use pathcost_service::{QueryEngine, QueryRequest, ServiceConfig};
//! use pathcost_traj::DatasetPreset;
//! use std::sync::Arc;
//!
//! let (net, store) = DatasetPreset::tiny(7).materialise().unwrap();
//! let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
//! let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());
//!
//! let (path, _) = store.frequent_paths(4, 30, None)[0].clone();
//! let departure = store.occurrences_on(&path)[0].entry_time;
//! let outcome = engine
//!     .execute(&QueryRequest::ProbWithinBudget {
//!         path,
//!         departure,
//!         budget_s: 600.0,
//!         regime: pathcost_core::RegimeId::ALL_TRAFFIC,
//!     })
//!     .unwrap();
//! println!(
//!     "P(≤ 10 min) = {:?}, cache hits {}",
//!     outcome.response.probability(),
//!     outcome.stats.cache_hits
//! );
//! println!("{:#?}", engine.stats());
//! ```
//!
//! See `examples/serve_queries.rs` for a mixed workload over all four query
//! kinds and `benchmark/` for the end-to-end throughput measurements.

pub mod admission;
pub mod batch;
pub mod cache;
pub mod deadline;
pub mod engine;
pub mod error;
pub mod request;
pub mod stats;
pub mod update;

pub use admission::{AdmissionConfig, AdmissionQueue, Ticket};
pub use cache::{CachedDistribution, DistributionCache};
pub use deadline::RequestContext;
pub use engine::{QueryEngine, ServiceConfig};
pub use error::ServiceError;
pub use pathcost_core::RegimeId;
pub use request::{QueryOutcome, QueryRequest, QueryResponse, QueryStats, RankedPath};
pub use stats::{QueryKind, RegimeTally, ServiceStats, FALLBACK_DEPTH_BUCKETS};
pub use update::UpdateReport;
