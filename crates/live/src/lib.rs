//! # pathcost-live
//!
//! Online trajectory ingestion for the hybrid graph of Dai et al. (*Path
//! Cost Distribution Estimation Using Trajectory Data*, PVLDB 10(3), 2016).
//!
//! The paper instantiates the path weight function `W_P` once, from a static
//! trajectory set. A serving system lives under continuously arriving
//! traffic: new trips are matched, new observations land on paths whose
//! distributions were already learned, and occasionally a path crosses the β
//! threshold for the first time. Rebuilding `W_P` (and cold-starting the
//! serving cache) on every batch throws away almost everything already
//! known — the sparse-data regime the hybrid graph exists for is exactly the
//! regime where each new observation should be *folded in*, not paid for
//! with a full re-instantiation.
//!
//! This crate is the ingestion side of that data flow:
//!
//! 1. **Delta-indexed append** — batches of
//!    [`MatchedTrajectory`](pathcost_traj::MatchedTrajectory) are appended to
//!    the [`TrajectoryStore`](pathcost_traj::TrajectoryStore) through its
//!    incremental index maintenance, not a rebuild.
//! 2. **Dirty-key computation**
//!    ([`dirty_keys_by_regime`](pathcost_core::dirty_keys_by_regime)) — the appended
//!    windows name exactly the weight-function variables whose qualified
//!    occurrence sets changed; everything else is provably untouched.
//! 3. **Selective re-derivation**
//!    ([`PathWeightFunction::rederive_regimes`](pathcost_core::PathWeightFunction::rederive_regimes))
//!    — only the dirty variables are re-fitted, bit-identically to a full
//!    re-instantiation over the merged store.
//! 4. **Versioned epoch publishing** ([`LiveIngestor`]) — each ingest yields
//!    a stamped [`WeightUpdate`](pathcost_core::WeightUpdate) behind
//!    swap-on-publish `Arc`s, so in-flight readers keep a consistent
//!    snapshot.
//!
//! ## Retention model
//!
//! Evidence ages out as well as accumulates: travel-cost distributions
//! drift, and a long-running serving process that only ever appends lets
//! stale trajectories pollute every future estimate. Retention is therefore
//! a first-class epoch, the exact mirror of ingestion:
//!
//! * [`LiveIngestor::retire_before`] TTL-expires every trajectory that
//!   entered its first edge strictly before a cutoff. Installing a
//!   [`RetentionConfig`] (`max_age` seconds behind the event-time
//!   watermark) makes every `ingest` epoch apply that expiry
//!   automatically, appending and retiring in one consistent epoch.
//!   [`LiveIngestor::retire_ids`] removes explicitly named trajectories
//!   (e.g. revoked or corrupt matches). Every retirement — TTL, explicit
//!   cutoff or ids — names its rows with one predicate and removes them
//!   through the in-place
//!   [`TrajectoryStore::retire_ids`](pathcost_traj::TrajectoryStore::retire_ids),
//!   which shrinks the edge index without a rebuild.
//! * The *removed* trajectories' windows are the dirty keys — the same
//!   enumeration as an append, because a trajectory only ever contributes
//!   occurrences to its own windows, whether arriving or leaving.
//! * [`rederive_regimes`](pathcost_core::PathWeightFunction::rederive_regimes)
//!   handles the **downward** count transitions retirement causes: a dirty key that
//!   still clears β is re-fitted from the surviving rows; a key whose
//!   support drops below β is *deleted* from the weight function and
//!   reported in [`WeightUpdate::removed`](pathcost_core::WeightUpdate::removed),
//!   so the serving side can flush its readers and sweep containing paths
//!   (deletion changes candidate selection exactly like addition).
//! * Trajectory identity is the id: `ingest` drops trajectories whose id is
//!   already stored (first delivery wins), so retire-then-append
//!   interleavings and re-delivered batches stay deterministic.
//!
//! Every retirement epoch is bit-identical to a full `instantiate` over the
//! truncated store — the same oracle as ingestion, property-tested across
//! TTL cut points and retire/append interleavings.
//!
//! Ingest, TTL expiry and retire-by-id are one write operation — a
//! `pathcost_persist::journal::JournalOp`, the record the journal stores —
//! and [`LiveIngestor`] applies every one through a single path: dedup and
//! append, one retirement predicate, re-derive, publish. A failed
//! re-derivation rolls that path back as a whole (a copy of the store is
//! taken only when the write retires something; an append is undone by
//! retiring its suffix), so the store and the published epoch always agree.
//!
//! The serving side consumes the update through
//! `pathcost_service::QueryEngine::apply_update`, which publishes the epoch
//! and surgically evicts only the dependent cache entries (see that crate's
//! `update` module). End-to-end equivalence with "full rebuild + cache
//! flush" is property-tested in `tests/live_equivalence.rs`; a traced
//! `ingest_churn` run of the benchmark (`benchmark/`) times the update path
//! (`live.ingest_ms`) and counts its evictions (`service.evicted_per_update`).
//!
//! ## Crash safety
//!
//! The [`persist`] module makes the whole pipeline durable:
//! [`LiveIngestor::with_persistence`] upgrades an ingestor to a
//! [`PersistentIngestor`] that journals every published epoch (via
//! `pathcost-persist`'s append-only journal) from one write method and
//! periodically snapshots the full store + weight function.
//! [`PersistentIngestor::recover`] resumes after a crash bit-identically,
//! replaying each journalled operation through the same write path. It
//! decides on one four-case rule: a valid snapshot (older generations
//! bridge a corrupt newest one) restores; else a journal that starts at
//! epoch 1 replays onto the bootstrap store; else any on-disk state is
//! discarded; an empty directory boots cold — never a panic on corrupt
//! state.
//!
//! ```no_run
//! use pathcost_core::HybridConfig;
//! use pathcost_live::LiveIngestor;
//! use pathcost_traj::{DatasetPreset, TrajectoryStore};
//!
//! let (net, store) = DatasetPreset::tiny(7).materialise().unwrap();
//! // Serve from the first 80%, then ingest the rest as "live" traffic.
//! let base = store.subset(0.8);
//! let fresh = store.matched()[base.len()..].to_vec();
//! let mut ingestor = LiveIngestor::new(&net, base, HybridConfig::default()).unwrap();
//! let update = ingestor.ingest(fresh).unwrap();
//! println!(
//!     "epoch {}: {} variables updated, {} added (of {} dirty keys)",
//!     update.epoch,
//!     update.updated.len(),
//!     update.added.len(),
//!     update.dirty_keys
//! );
//! ```

pub mod ingest;
pub mod persist;

pub use ingest::{LiveIngestor, RetentionConfig};
pub use persist::{PersistenceConfig, PersistenceError, PersistentIngestor, RecoveryReport};
