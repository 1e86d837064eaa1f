//! Shared, lock-free persistence telemetry.
//!
//! A single [`PersistenceStatus`] is created by the persistence layer and
//! cloned (via `Arc`) into whoever needs to observe it — typically the HTTP
//! server's `/healthz` and `/metrics` handlers — or poke it — the
//! `/admin/snapshot` endpoint sets a request flag that the ingest-owning
//! thread polls. Every number is an instrument registered, with its
//! `pathcost_persist_*` family name, in the [`Registry`] the status owns;
//! the accessor methods read those same handles, so readers never contend
//! with the ingest path and `/healthz` cannot disagree with `/metrics`.

use pathcost_obs::{exponential_buckets, Counter, Gauge, Histogram, HistogramSnapshot, Registry};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

/// How the last process start obtained its state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// No persistence configured, or status not yet recorded.
    Unknown,
    /// No usable on-disk state: built from scratch (bootstrap).
    Cold,
    /// Restored from a snapshot (plus zero or more replayed journal records).
    Warm,
    /// On-disk state existed but was unusable (config mismatch, corrupt
    /// beyond repair, rotated-away journal); rebuilt from scratch.
    Discarded,
}

impl RecoveryOutcome {
    /// Stable string for health endpoints and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryOutcome::Unknown => "unknown",
            RecoveryOutcome::Cold => "cold",
            RecoveryOutcome::Warm => "warm",
            RecoveryOutcome::Discarded => "discarded",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => RecoveryOutcome::Cold,
            2 => RecoveryOutcome::Warm,
            3 => RecoveryOutcome::Discarded,
            _ => RecoveryOutcome::Unknown,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            RecoveryOutcome::Unknown => 0,
            RecoveryOutcome::Cold => 1,
            RecoveryOutcome::Warm => 2,
            RecoveryOutcome::Discarded => 3,
        }
    }
}

/// Live persistence telemetry, shared between the ingest path and observers.
///
/// Everything is relaxed: each field is an independent gauge or counter read
/// for monitoring, and no reader derives invariants across fields.
#[derive(Debug)]
pub struct PersistenceStatus {
    registry: Registry,
    recovery_outcome: AtomicU8,
    /// Wall-clock milliseconds of the most recent published snapshot.
    snapshot_unix_ms: AtomicU64,
    /// Set by `/admin/snapshot`, cleared by the ingest thread when honoured.
    snapshot_requested: AtomicBool,
    /// Whether persistence is suspended (IO-fault ladder exhausted): the
    /// process keeps serving but new ingests are not durable until resumed.
    /// Mirrored into `suspended_gauge` on every change.
    suspended: AtomicBool,
    snapshots_written: Counter,
    snapshot_fallbacks: Counter,
    suspensions: Counter,
    io_retries: Counter,
    replayed_records: Counter,
    corrupt_generations_skipped: Counter,
    recovered_snapshot_epoch: Gauge,
    snapshot_epoch: Gauge,
    journal_records: Gauge,
    journal_bytes: Gauge,
    suspended_gauge: Gauge,
    fsync_seconds: Histogram,
    snapshot_seconds: Histogram,
}

impl Default for PersistenceStatus {
    /// Registers every persistence family; the field order below is the
    /// order the families appear on the page.
    fn default() -> Self {
        let registry = Registry::new();
        let counter = |name: &str, help: &str| registry.counter(name, help, &[]);
        let gauge = |name: &str, help: &str| registry.gauge(name, help, &[]);
        Self {
            recovery_outcome: AtomicU8::new(0),
            snapshot_unix_ms: AtomicU64::new(0),
            snapshot_requested: AtomicBool::new(false),
            suspended: AtomicBool::new(false),
            snapshots_written: counter(
                "pathcost_persist_snapshots_total",
                "Snapshots published by this process.",
            ),
            snapshot_fallbacks: counter(
                "pathcost_persist_snapshot_fallbacks_total",
                "Snapshot attempts that fell back down the IO-fault ladder.",
            ),
            suspensions: counter(
                "pathcost_persist_suspensions_total",
                "Times persistence entered the suspended state.",
            ),
            io_retries: counter(
                "pathcost_persist_io_retries_total",
                "Transient IO errors retried by the ingest path.",
            ),
            replayed_records: counter(
                "pathcost_persist_replayed_records_total",
                "Journal records replayed during the last recovery.",
            ),
            corrupt_generations_skipped: counter(
                "pathcost_persist_corrupt_generations_total",
                "Snapshot generations skipped as corrupt during recovery.",
            ),
            recovered_snapshot_epoch: gauge(
                "pathcost_persist_recovered_snapshot_epoch",
                "Epoch of the snapshot this process recovered from (0 = none).",
            ),
            snapshot_epoch: gauge(
                "pathcost_persist_snapshot_epoch",
                "Epoch of the most recent published snapshot (0 = none).",
            ),
            journal_records: gauge(
                "pathcost_persist_journal_records",
                "Valid records currently in the journal.",
            ),
            journal_bytes: gauge(
                "pathcost_persist_journal_bytes",
                "Current journal size in bytes.",
            ),
            suspended_gauge: gauge(
                "pathcost_persist_suspended",
                "1 while persistence is suspended (serving-only mode).",
            ),
            fsync_seconds: registry.histogram(
                "pathcost_persist_fsync_seconds",
                "Journal fsync latency.",
                &[],
                &exponential_buckets(16e-6, 4.0, 10),
            ),
            snapshot_seconds: registry.histogram(
                "pathcost_persist_snapshot_seconds",
                "End-to-end snapshot publish duration.",
                &[],
                &exponential_buckets(256e-6, 4.0, 8),
            ),
            registry,
        }
    }
}

impl PersistenceStatus {
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry holding every `pathcost_persist_*` family — render it
    /// for `/metrics`.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records how this process start obtained its state. Called once per
    /// process: the replay and corrupt-generation counts are counters.
    pub fn record_recovery(
        &self,
        outcome: RecoveryOutcome,
        snapshot_epoch: u64,
        replayed: u64,
        corrupt_skipped: u64,
    ) {
        self.recovery_outcome
            .store(outcome.as_u8(), Ordering::Relaxed);
        self.recovered_snapshot_epoch.set(snapshot_epoch as f64);
        self.replayed_records.add(replayed);
        self.corrupt_generations_skipped.add(corrupt_skipped);
    }

    pub fn record_snapshot(&self, epoch: u64, unix_ms: u64) {
        self.snapshot_epoch.set(epoch as f64);
        self.snapshot_unix_ms.store(unix_ms, Ordering::Relaxed);
        self.snapshots_written.inc();
    }

    pub fn record_journal(&self, records: u64, bytes: u64) {
        self.journal_records.set(records as f64);
        self.journal_bytes.set(bytes as f64);
    }

    /// Flags that an operator asked for a snapshot; the ingest-owning thread
    /// observes this via [`take_snapshot_request`](Self::take_snapshot_request).
    pub fn request_snapshot(&self) {
        self.snapshot_requested.store(true, Ordering::Relaxed);
    }

    /// Consumes a pending snapshot request, if any.
    pub fn take_snapshot_request(&self) -> bool {
        self.snapshot_requested.swap(false, Ordering::Relaxed)
    }

    /// Marks persistence as suspended (entered serving-only degraded mode).
    /// Counts a suspension only on the false → true transition.
    pub fn set_suspended(&self, suspended: bool) {
        let was = self.suspended.swap(suspended, Ordering::Relaxed);
        self.suspended_gauge.set(f64::from(u8::from(suspended)));
        if suspended && !was {
            self.suspensions.inc();
        }
    }

    /// Whether persistence is currently suspended. `/healthz` reports 503
    /// with a reason while this is set.
    pub fn suspended(&self) -> bool {
        self.suspended.load(Ordering::Relaxed)
    }

    /// Times persistence entered the suspended state over process lifetime.
    pub fn suspensions(&self) -> u64 {
        self.suspensions.get()
    }

    /// Counts one transient IO error that the ingest path retried.
    pub fn record_io_retry(&self) {
        self.io_retries.inc();
    }

    /// Transient IO errors retried by the ingest path.
    pub fn io_retries(&self) -> u64 {
        self.io_retries.get()
    }

    /// Counts one snapshot attempt that fell back down the IO-fault ladder.
    pub fn record_snapshot_fallback(&self) {
        self.snapshot_fallbacks.inc();
    }

    /// Snapshot attempts that could not be published and fell back.
    pub fn snapshot_fallbacks(&self) -> u64 {
        self.snapshot_fallbacks.get()
    }

    /// Records the duration of one journal fsync (or fsync-equivalent flush).
    pub fn record_fsync(&self, took: Duration) {
        self.fsync_seconds.observe_duration(took);
    }

    /// Distribution of journal fsync latencies.
    pub fn fsync_latency(&self) -> HistogramSnapshot {
        self.fsync_seconds.snapshot()
    }

    /// Records the end-to-end duration of one snapshot publish.
    pub fn record_snapshot_duration(&self, took: Duration) {
        self.snapshot_seconds.observe_duration(took);
    }

    pub fn recovery_outcome(&self) -> RecoveryOutcome {
        RecoveryOutcome::from_u8(self.recovery_outcome.load(Ordering::Relaxed))
    }

    pub fn recovered_snapshot_epoch(&self) -> u64 {
        self.recovered_snapshot_epoch.get() as u64
    }

    pub fn replayed_records(&self) -> u64 {
        self.replayed_records.get()
    }

    pub fn corrupt_generations_skipped(&self) -> u64 {
        self.corrupt_generations_skipped.get()
    }

    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot_epoch.get() as u64
    }

    pub fn snapshot_unix_ms(&self) -> u64 {
        self.snapshot_unix_ms.load(Ordering::Relaxed)
    }

    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written.get()
    }

    pub fn journal_records(&self) -> u64 {
        self.journal_records.get() as u64
    }

    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes.get() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_request_is_consumed_once() {
        let s = PersistenceStatus::new();
        assert!(!s.take_snapshot_request());
        s.request_snapshot();
        assert!(s.take_snapshot_request());
        assert!(!s.take_snapshot_request());
    }

    #[test]
    fn recovery_outcome_round_trips() {
        assert_eq!(
            PersistenceStatus::new().recovery_outcome(),
            RecoveryOutcome::Unknown
        );
        for outcome in [
            RecoveryOutcome::Cold,
            RecoveryOutcome::Warm,
            RecoveryOutcome::Discarded,
        ] {
            let s = PersistenceStatus::new();
            s.record_recovery(outcome, 7, 3, 1);
            assert_eq!(s.recovery_outcome(), outcome);
            assert_eq!(s.recovered_snapshot_epoch(), 7);
            assert_eq!(s.replayed_records(), 3);
            assert_eq!(s.corrupt_generations_skipped(), 1);
        }
        assert_eq!(RecoveryOutcome::Warm.as_str(), "warm");
    }

    #[test]
    fn suspension_counts_only_transitions() {
        let s = PersistenceStatus::new();
        assert!(!s.suspended());
        s.set_suspended(true);
        s.set_suspended(true); // already suspended: no second count
        assert!(s.suspended());
        assert_eq!(s.suspensions(), 1);
        s.set_suspended(false);
        assert!(!s.suspended());
        s.set_suspended(true);
        assert_eq!(s.suspensions(), 2);
        s.record_io_retry();
        s.record_io_retry();
        assert_eq!(s.io_retries(), 2);
    }

    #[test]
    fn counters_accumulate() {
        let s = PersistenceStatus::new();
        s.record_snapshot(4, 1_000);
        s.record_snapshot(9, 2_000);
        assert_eq!(s.snapshots_written(), 2);
        assert_eq!(s.snapshot_epoch(), 9);
        assert_eq!(s.snapshot_unix_ms(), 2_000);
        s.record_journal(12, 3_456);
        assert_eq!(s.journal_records(), 12);
        assert_eq!(s.journal_bytes(), 3_456);
    }

    #[test]
    fn durability_histograms_accumulate() {
        let s = PersistenceStatus::new();
        s.record_fsync(Duration::from_micros(120));
        s.record_fsync(Duration::from_millis(3));
        s.record_snapshot_duration(Duration::from_millis(8));
        s.record_snapshot_fallback();
        assert_eq!(s.fsync_latency().count(), 2);
        assert_eq!(s.snapshot_seconds.snapshot().count(), 1);
        assert_eq!(s.snapshot_fallbacks(), 1);
        assert!(s.fsync_latency().sum > 0.003);
    }
}
