//! # pathcost-obs
//!
//! Dependency-free observability substrate for the pathcost serving stack:
//!
//! * [`metrics`] — lock-free typed instruments ([`Counter`], [`Gauge`],
//!   [`Histogram`] with exact sum, max and conservative quantiles) and a
//!   [`Registry`] that hands out label-addressed handles, renders
//!   everything it owns and reads one series back by name
//!   ([`Registry::value`]),
//! * [`expo`] — a hand-rolled Prometheus text-exposition writer
//!   ([`ExpositionWriter`]) plus a strict [`validate`](expo::validate)
//!   conformance checker and a [`series_value`](expo::series_value) lookup
//!   — the one way tests, examples and the chaos harness read a number,
//!   off a scraped page or, through [`Registry::value`], in process,
//! * [`trace`] — per-request trace ids, per-stage spans ([`Stage`],
//!   [`ActiveTrace`]) accumulated across threads, finished-trace snapshots
//!   and a fixed-size [`TraceRing`] backing `GET /debug/traces`,
//! * [`log`] — a minimal leveled structured event log (JSON lines to
//!   stderr, `PATHCOST_LOG`-configurable, swappable sink for tests) that
//!   replaces ad-hoc `eprintln!` across the serving crates.
//!
//! The crate deliberately has **no dependencies** (matching the repo's
//! no-external-deps stance) and no knowledge of the domain crates: every
//! serving layer (engine, cache, admission queue, persistence, HTTP server)
//! registers its instruments in a [`Registry`] it owns, and `GET /metrics`
//! renders those registries — the handles are the only place a number
//! lives, and `/metrics` is the only place the server exports one.
//!
//! See `OBSERVABILITY.md` at the repository root for the full metric
//! inventory, the trace/span model, the log schema, and a scrape example.

pub mod expo;
pub mod log;
pub mod metrics;
pub mod trace;

pub use expo::{ExpositionWriter, MetricKind};
pub use log::{Level, Logger, Value};
pub use metrics::{exponential_buckets, Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use trace::{next_trace_id, ActiveTrace, FinishedTrace, Stage, TraceRing, STAGE_COUNT};
