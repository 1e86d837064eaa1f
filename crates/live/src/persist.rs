//! Crash-safe persistence for the live ingestor.
//!
//! [`PersistentIngestor`] wraps a [`LiveIngestor`] and makes every published
//! epoch durable: each `ingest`/`retire_*` call is one [`JournalOp`], applied
//! and then journalled by one method (after the in-memory publish succeeds),
//! and replayed by the same [`LiveIngestor`] path. Snapshots of the full
//! store + weight function are taken on demand
//! ([`PersistentIngestor::snapshot_now`]), on a configured cadence, or when
//! an operator flags a request through the shared [`PersistenceStatus`].
//!
//! # Lineages and recovery
//!
//! A *lineage* is one unbroken epoch sequence in a state directory: a base
//! snapshot (epoch 0 at attach time) plus journalled epochs 1, 2, … and the
//! periodic snapshots that supersede them. [`LiveIngestor::with_persistence`]
//! **starts a fresh lineage**, discarding whatever the directory held;
//! [`PersistentIngestor::recover`] **resumes** one: it loads the newest valid
//! snapshot (skipping corrupt generations), replays the journal records after
//! it, and continues the epoch sequence exactly where the crashed process
//! stopped. Because every replayed operation is deterministic and every `f64`
//! persisted bit-exactly, the recovered ingestor is bit-identical to one that
//! never crashed — the oracle `tests/crash_recovery.rs` enforces.
//!
//! Recovery never panics on bad state. It decides on one rule, in order:
//!
//! 1. a valid snapshot — the newest generation whose CRCs pass; a corrupt
//!    newest one falls back to the previous (the journal is only rotated
//!    down to the oldest retained generation, precisely so this bridge
//!    always exists) — restores, and the journal records after it replay
//!    (**warm**); a restore error, such as a network/config/retention
//!    fingerprint mismatch that makes the lineage meaningless, discards the
//!    lineage;
//! 2. with no valid snapshot, a journal that starts at epoch 1 replays whole
//!    onto the bootstrap store (**warm**);
//! 3. any other on-disk state is discarded, and a fresh lineage starts
//!    (**discarded**);
//! 4. nothing on disk is a fresh start (**cold**).

use crate::ingest::{LiveIngestor, RetentionConfig};
use pathcost_core::{exec, CoreError, HybridConfig, PathWeightFunction, WeightUpdate};
use pathcost_obs::log as obslog;
use pathcost_persist::codec;
use pathcost_persist::format::Cursor;
use pathcost_persist::journal::{Journal, JournalOp, JournalRecord};
use pathcost_persist::snapshot::{self, list_generations, SnapshotReader, SnapshotWriter};
use pathcost_persist::{PersistError, PersistenceStatus, RecoveryOutcome};
use pathcost_roadnet::RoadNetwork;
use pathcost_traj::{MatchedTrajectory, Timestamp, TrajectoryStore};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The journal's file name inside a state directory.
pub const JOURNAL_FILE: &str = "journal.pcj";

/// Tuning for the persistence layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistenceConfig {
    /// Automatically snapshot after this many published epochs.
    pub snapshot_every_epochs: Option<u64>,
    /// Transient journal IO errors are retried this many times (with
    /// [`io_backoff`](Self::io_backoff) between attempts) before the
    /// IO-fault ladder escalates to a snapshot attempt and then to
    /// suspending persistence.
    pub io_retries: u32,
    /// Base backoff between IO retries; attempt `k` sleeps `k × io_backoff`.
    pub io_backoff: Duration,
}

impl Default for PersistenceConfig {
    fn default() -> Self {
        PersistenceConfig {
            snapshot_every_epochs: None,
            io_retries: 3,
            io_backoff: Duration::from_millis(10),
        }
    }
}

/// An error from the persistence layer: either the underlying ingest/derive
/// machinery or the storage stack.
#[derive(Debug)]
pub enum PersistenceError {
    /// Weight derivation / configuration error.
    Core(CoreError),
    /// Snapshot/journal storage error.
    Persist(PersistError),
    /// Persistence is suspended (the IO-fault ladder exhausted every rung)
    /// and a resume attempt also failed: the ingest was **rejected before
    /// touching in-memory state**, so serving continues from the last
    /// published epoch. Clears automatically once a later operation's
    /// resume snapshot succeeds.
    Suspended,
}

impl std::fmt::Display for PersistenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistenceError::Core(e) => write!(f, "ingest error: {e}"),
            PersistenceError::Persist(e) => write!(f, "persistence error: {e}"),
            PersistenceError::Suspended => write!(
                f,
                "persistence suspended after repeated IO failures; ingest rejected \
                 (serving continues from the last published epoch)"
            ),
        }
    }
}

impl std::error::Error for PersistenceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistenceError::Core(e) => Some(e),
            PersistenceError::Persist(e) => Some(e),
            PersistenceError::Suspended => None,
        }
    }
}

impl From<CoreError> for PersistenceError {
    fn from(e: CoreError) -> Self {
        PersistenceError::Core(e)
    }
}

impl From<PersistError> for PersistenceError {
    fn from(e: PersistError) -> Self {
        PersistenceError::Persist(e)
    }
}

/// What [`PersistentIngestor::recover`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// How state was obtained (see [`RecoveryOutcome`]).
    pub outcome: RecoveryOutcome,
    /// Epoch of the snapshot recovery started from (0 = none / journal-only).
    pub snapshot_epoch: u64,
    /// Journal records replayed on top of that snapshot.
    pub replayed_records: u64,
    /// Snapshot generations skipped as corrupt.
    pub corrupt_generations_skipped: u64,
    /// Bytes truncated off a torn journal tail.
    pub journal_truncated_bytes: u64,
    /// Reading and validating the newest loadable snapshot and the journal.
    pub load: Duration,
    /// Building the ingestor replay starts from: decoding the snapshot's
    /// store and tables and re-deriving the views, or, on any boot but a
    /// warm one, instantiating the bootstrap store.
    pub restore: Duration,
    /// Applying the replayed journal records; zero when none replay.
    pub replay: Duration,
}

impl<'n> LiveIngestor<'n> {
    /// Attaches crash-safe persistence, **starting a fresh lineage** in
    /// `dir`: any previous snapshots and journal there are discarded, the
    /// current state is published as the base snapshot, and every subsequent
    /// epoch is journalled. To *resume* existing state after a restart, use
    /// [`PersistentIngestor::recover`] instead.
    pub fn with_persistence(
        self,
        dir: impl Into<PathBuf>,
        config: PersistenceConfig,
    ) -> Result<PersistentIngestor<'n>, PersistenceError> {
        let dir = dir.into();
        let writer = SnapshotWriter::new(&dir)?;
        let (journal, _, _) = Journal::open(dir.join(JOURNAL_FILE))?;
        let status = Arc::new(PersistenceStatus::new());
        status.record_recovery(RecoveryOutcome::Cold, 0, 0, 0);
        let mut this = PersistentIngestor::attach(self, writer, journal, dir, config, status);
        this.start_lineage()?;
        Ok(this)
    }
}

/// A [`LiveIngestor`] whose every published epoch survives a crash.
///
/// Derefs (immutably) to the inner ingestor, so all read accessors —
/// `weights()`, `epoch()`, `store()`, … — are available directly. The
/// mutating operations are wrapped here so each publish is journalled.
pub struct PersistentIngestor<'n> {
    inner: LiveIngestor<'n>,
    writer: SnapshotWriter,
    journal: Journal,
    dir: PathBuf,
    config: PersistenceConfig,
    status: Arc<PersistenceStatus>,
    epochs_since_snapshot: u64,
}

impl<'n> std::ops::Deref for PersistentIngestor<'n> {
    type Target = LiveIngestor<'n>;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl<'n> PersistentIngestor<'n> {
    /// Resumes the lineage persisted in `dir`, or boots from scratch when
    /// nothing usable is there. `bootstrap` supplies the base store for a
    /// from-scratch boot; for the journal-only recovery path (no valid
    /// snapshot generation) it must deterministically reproduce the store the
    /// lineage originally started from.
    ///
    /// `net`, `config` and `retention` must match what the lineage was built
    /// under — a fingerprint mismatch discards the on-disk state (you cannot
    /// replay epochs derived over another network or under different rules)
    /// and boots fresh.
    pub fn recover(
        net: &'n RoadNetwork,
        dir: impl Into<PathBuf>,
        config: HybridConfig,
        retention: RetentionConfig,
        pconfig: PersistenceConfig,
        bootstrap: impl FnOnce() -> TrajectoryStore,
    ) -> Result<(Self, RecoveryReport), PersistenceError> {
        let dir = dir.into();
        let writer = SnapshotWriter::new(&dir)?;
        let started = Instant::now();
        let (snapshot, skipped) = SnapshotReader::load_latest(&dir)?;
        let (journal, records, jreport) = Journal::open(dir.join(JOURNAL_FILE))?;
        let load = started.elapsed();
        let started = Instant::now();
        if jreport.truncated_bytes > 0 {
            obslog::warn(
                "persist",
                "journal_tail_truncated",
                &[
                    ("bytes", jreport.truncated_bytes.into()),
                    ("dir", dir.display().to_string().into()),
                ],
            );
        }
        let discard = |error: String| {
            obslog::warn(
                "persist",
                "lineage_discarded",
                &[
                    ("dir", dir.display().to_string().into()),
                    ("error", error.into()),
                ],
            );
            (RecoveryOutcome::Discarded, None)
        };
        let (outcome, restored) = match snapshot {
            // A snapshot that decoded (CRCs passed) but does not match this
            // process's config/format makes the whole lineage unusable, not
            // just this generation.
            Some(snap) => match restore_from_snapshot(net, &snap, &config, retention) {
                Ok(inner) => (RecoveryOutcome::Warm, Some(inner)),
                Err(e) => discard(e.to_string()),
            },
            // From nothing, only a journal that was never rotated bridges.
            None if records.first().is_some_and(|r| r.epoch == 1) => {
                obslog::warn(
                    "persist",
                    "full_journal_replay",
                    &[
                        ("dir", dir.display().to_string().into()),
                        ("corrupt_generations", (skipped as u64).into()),
                    ],
                );
                (RecoveryOutcome::Warm, None)
            }
            None if skipped > 0 || !records.is_empty() => {
                discard("no valid snapshot and the journal does not start at epoch 1".into())
            }
            None => {
                obslog::info(
                    "persist",
                    "cold_boot",
                    &[("dir", dir.display().to_string().into())],
                );
                (RecoveryOutcome::Cold, None)
            }
        };
        let mut inner = match restored {
            Some(inner) => inner,
            None => LiveIngestor::new(net, bootstrap(), config)?.with_retention(retention)?,
        };

        let mut report = RecoveryReport {
            outcome,
            snapshot_epoch: inner.epoch(),
            replayed_records: 0,
            corrupt_generations_skipped: skipped as u64,
            journal_truncated_bytes: jreport.truncated_bytes,
            load,
            restore: started.elapsed(),
            replay: Duration::ZERO,
        };
        let resumed = outcome == RecoveryOutcome::Warm;
        if resumed {
            // Replay the records this lineage published after the recovered
            // state, in epoch order with no gaps. A gap means the tail
            // belongs to a different rotation horizon — stop at the last
            // contiguous record, exactly like a torn tail.
            for record in records {
                if record.epoch <= inner.epoch() {
                    continue;
                }
                if record.epoch != inner.epoch() + 1 {
                    obslog::warn(
                        "persist",
                        "journal_gap",
                        &[
                            ("record_epoch", record.epoch.into()),
                            ("have_epoch", inner.epoch().into()),
                        ],
                    );
                    break;
                }
                let started = Instant::now();
                inner.apply(record.op)?;
                report.replay += started.elapsed();
                report.replayed_records += 1;
            }
            obslog::info(
                "persist",
                "recovered",
                &[
                    ("dir", dir.display().to_string().into()),
                    ("snapshot_epoch", report.snapshot_epoch.into()),
                    ("replayed_records", report.replayed_records.into()),
                    ("load_ms", millis(report.load).into()),
                    ("restore_ms", millis(report.restore).into()),
                    ("replay_ms", millis(report.replay).into()),
                ],
            );
        }

        let status = Arc::new(PersistenceStatus::new());
        status.record_recovery(
            report.outcome,
            report.snapshot_epoch,
            report.replayed_records,
            report.corrupt_generations_skipped,
        );
        status.record_journal(journal.records(), journal.bytes());
        let mut this = Self::attach(inner, writer, journal, dir, pconfig, status);
        if !resumed {
            this.start_lineage()?;
        }
        Ok((this, report))
    }

    /// Wraps `inner` over an open state directory; `status` already carries
    /// what the boot found.
    fn attach(
        inner: LiveIngestor<'n>,
        writer: SnapshotWriter,
        journal: Journal,
        dir: PathBuf,
        config: PersistenceConfig,
        status: Arc<PersistenceStatus>,
    ) -> Self {
        PersistentIngestor {
            inner,
            writer,
            journal,
            dir,
            config,
            status,
            epochs_since_snapshot: 0,
        }
    }

    /// Starts a fresh lineage at the current state: removes every published
    /// snapshot and stray temp file, empties the journal (atomic rewrite) and
    /// publishes the base snapshot.
    fn start_lineage(&mut self) -> Result<(), PersistenceError> {
        for entry in fs::read_dir(&self.dir).map_err(PersistError::from)? {
            let entry = entry.map_err(PersistError::from)?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("snapshot-") && (name.ends_with(".snap") || name.ends_with(".tmp"))
            {
                let _ = fs::remove_file(entry.path());
            }
        }
        self.journal.rotate(u64::MAX)?;
        self.snapshot_now()?;
        Ok(())
    }

    /// Ingests a batch (see [`LiveIngestor::ingest`]) and journals the
    /// published epoch durably before returning. The journal holds the rows
    /// as they land in the store — tagged by the installed classifier, if
    /// any — because replay attaches no classifier.
    ///
    /// Transient journal IO errors climb the **IO-fault ladder**: bounded
    /// retry with backoff, then a snapshot attempt (a different IO path that
    /// also makes the epoch durable), then — only if both fail —
    /// *serving-only degraded mode*: persistence is suspended, the already
    /// published epoch is kept in memory, and `Ok` is still returned.
    /// Subsequent calls while suspended first try to resume (one snapshot
    /// attempt); if that also fails they are rejected with
    /// [`PersistenceError::Suspended`] **before** touching in-memory state.
    pub fn ingest(
        &mut self,
        batch: Vec<MatchedTrajectory>,
    ) -> Result<WeightUpdate, PersistenceError> {
        self.apply(JournalOp::Ingest(batch))
    }

    /// TTL-retires (see [`LiveIngestor::retire_before`]) and journals the
    /// published epoch. Follows the same IO-fault ladder as
    /// [`ingest`](Self::ingest).
    pub fn retire_before(&mut self, cutoff: Timestamp) -> Result<WeightUpdate, PersistenceError> {
        self.apply(JournalOp::RetireBefore(cutoff))
    }

    /// Retires by id (see [`LiveIngestor::retire_ids`]) and journals the
    /// published epoch. Follows the same IO-fault ladder as
    /// [`ingest`](Self::ingest).
    pub fn retire_ids(&mut self, ids: &[u64]) -> Result<WeightUpdate, PersistenceError> {
        self.apply(JournalOp::RetireIds(ids.to_vec()))
    }

    /// The one journalled write: resume gate, classify an ingest, apply,
    /// journal what was applied.
    fn apply(&mut self, mut op: JournalOp) -> Result<WeightUpdate, PersistenceError> {
        if self.status.suspended() {
            // One resume attempt per write. A successful snapshot makes *all*
            // in-memory state durable (including any epoch whose journal
            // append failed at suspension time), rotates the journal, and
            // lifts the suspension.
            self.snapshot_now()
                .map_err(|_| PersistenceError::Suspended)?;
            self.status.set_suspended(false);
            obslog::info(
                "persist",
                "resumed",
                &[("snapshot_epoch", self.inner.epoch().into())],
            );
        }
        if let JournalOp::Ingest(batch) = &mut op {
            self.inner.classify(batch);
        }
        let journalled = op.clone();
        let update = self.inner.apply(op)?;
        self.journal_epoch(update.epoch, journalled)?;
        Ok(update)
    }

    /// Appends with bounded retry on transient IO errors (attempt `k` backs
    /// off `k × io_backoff`). Non-IO errors are never retried. Successful
    /// appends feed the fsync-latency histogram on [`PersistenceStatus`].
    fn append_with_retry(&mut self, record: &JournalRecord) -> Result<(), PersistError> {
        let mut attempt: u32 = 0;
        loop {
            let started = Instant::now();
            match self.journal.append(record) {
                Err(PersistError::Io(e)) if attempt < self.config.io_retries => {
                    attempt += 1;
                    self.status.record_io_retry();
                    obslog::warn(
                        "persist",
                        "journal_append_retry",
                        &[
                            ("attempt", u64::from(attempt).into()),
                            ("max_attempts", u64::from(self.config.io_retries).into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                    std::thread::sleep(self.config.io_backoff * attempt);
                }
                other => {
                    if other.is_ok() {
                        self.status.record_fsync(started.elapsed());
                    }
                    return other;
                }
            }
        }
    }

    fn journal_epoch(&mut self, epoch: u64, op: JournalOp) -> Result<(), PersistenceError> {
        let record = JournalRecord { epoch, op };
        match self.append_with_retry(&record) {
            Ok(()) => {}
            Err(PersistError::Io(e)) => {
                // Retries exhausted. Second rung: a snapshot uses a separate
                // IO path and makes this epoch durable without the journal.
                self.status.record_snapshot_fallback();
                obslog::error(
                    "persist",
                    "journal_failed_snapshot_fallback",
                    &[("epoch", epoch.into()), ("error", e.to_string().into())],
                );
                match self.snapshot_now() {
                    Ok(_) => return Ok(()),
                    Err(fallback) => {
                        // Last rung: serving-only degraded mode. The epoch
                        // stays published in memory; durability resumes when
                        // a later call's resume snapshot succeeds.
                        obslog::error(
                            "persist",
                            "suspended",
                            &[
                                ("epoch", epoch.into()),
                                ("error", fallback.to_string().into()),
                            ],
                        );
                        self.status.set_suspended(true);
                        return Ok(());
                    }
                }
            }
            Err(other) => return Err(other.into()),
        }
        self.epochs_since_snapshot += 1;
        self.status
            .record_journal(self.journal.records(), self.journal.bytes());
        if self.snapshot_due() {
            if let Err(e) = self.snapshot_now() {
                // The epoch itself is journalled, so durability is intact;
                // the snapshot will be retried at the next published epoch.
                obslog::warn(
                    "persist",
                    "due_snapshot_failed",
                    &[("error", e.to_string().into())],
                );
            }
        }
        Ok(())
    }

    fn snapshot_due(&self) -> bool {
        self.status.take_snapshot_request()
            || self
                .config
                .snapshot_every_epochs
                .is_some_and(|n| self.epochs_since_snapshot >= n)
    }

    /// Publishes a snapshot of the current epoch now, prunes old generations,
    /// and rotates the journal down to the records the oldest retained
    /// generation still needs. Returns the snapshot size in bytes.
    ///
    /// The store is compacted first, so the snapshot (and the recovered
    /// process) reflects live rows only — retirement-freed capacity is not
    /// carried across restarts.
    pub fn snapshot_now(&mut self) -> Result<u64, PersistenceError> {
        let started = Instant::now();
        self.inner.compact_store();
        let epoch = self.inner.epoch();
        let weights = self.inner.weights();
        let config_section = codec::encode_config(
            self.inner.network(),
            self.inner.config(),
            self.inner.retention().max_age,
        );
        let mut store_section = Vec::new();
        codec::put_trajectories(&mut store_section, self.inner.store().matched());
        // Every table, all-traffic included; the speed-limit fallbacks are
        // rebuilt from the network and the config at restore.
        let tables: Vec<_> = weights
            .tables()
            .iter()
            .map(|(regime, variables)| (*regime, variables.as_slice()))
            .collect();
        let mut weights_section = Vec::new();
        codec::put_regime_tables(&mut weights_section, &tables);
        let sections = [
            (snapshot::section::CONFIG, config_section),
            (snapshot::section::STORE, store_section),
            (snapshot::section::WEIGHTS, weights_section),
        ];
        let bytes = self.writer.publish(epoch, &sections)?;
        let mut gens = list_generations(&self.dir)?;
        gens.sort_unstable();
        let keep_after = gens.first().copied().unwrap_or(epoch);
        self.journal.rotate(keep_after)?;
        self.epochs_since_snapshot = 0;
        self.status.record_snapshot(epoch, unix_ms());
        self.status.record_snapshot_duration(started.elapsed());
        self.status
            .record_journal(self.journal.records(), self.journal.bytes());
        obslog::info(
            "persist",
            "snapshot_published",
            &[("epoch", epoch.into()), ("bytes", bytes.into())],
        );
        Ok(bytes)
    }

    /// The shared telemetry handle — clone it into health endpoints; its
    /// `request_snapshot` flag is honoured after the next published epoch.
    pub fn status(&self) -> Arc<PersistenceStatus> {
        self.status.clone()
    }

    /// The state directory this ingestor persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Detaches persistence, returning the inner ingestor. On-disk state is
    /// left as is.
    pub fn into_inner(self) -> LiveIngestor<'n> {
        self.inner
    }
}

/// Rebuilds a [`LiveIngestor`] from a decoded snapshot, verifying the
/// network and config fingerprint first.
///
/// The store and the tables decode independently, so they run as two tasks
/// on the one executor: one decodes `STOR` and indexes the store, the other
/// decodes `WGTS`. A damaged snapshot still reports the first error a serial
/// decode would meet: `STOR` missing, `STOR` malformed, `WGTS` missing,
/// `WGTS` malformed.
fn restore_from_snapshot<'n>(
    net: &'n RoadNetwork,
    snap: &pathcost_persist::Snapshot,
    config: &HybridConfig,
    retention: RetentionConfig,
) -> Result<LiveIngestor<'n>, PersistenceError> {
    let section = |tag, missing| snap.section(tag).ok_or(PersistError::Incompatible(missing));
    let stored_fingerprint = section(snapshot::section::CONFIG, "snapshot has no CONFIG section")?;
    if stored_fingerprint != codec::encode_config(net, config, retention.max_age) {
        return Err(PersistError::Incompatible(
            "snapshot was taken over a different network or config/retention; refusing to mix lineages",
        )
        .into());
    }
    let decode_store = || {
        let bytes = section(snapshot::section::STORE, "snapshot has no STORE section")?;
        let mut c = Cursor::new(bytes, "snapshot store section");
        let rows = codec::read_trajectories(&mut c)?;
        c.finish()?;
        Ok::<_, PersistError>(TrajectoryStore::new(rows))
    };
    let decode_tables = || {
        let bytes = section(
            snapshot::section::WEIGHTS,
            "snapshot has no WEIGHTS section",
        )?;
        let mut c = Cursor::new(bytes, "snapshot weights section");
        let tables = codec::read_regime_tables(&mut c)?;
        c.finish()?;
        Ok::<_, PersistError>(tables)
    };
    // A task's section is chosen by the thread that runs it, not by its
    // index: the submitting thread takes the store whenever it runs a task,
    // so the rows, which live as long as the ingestor, are allocated where a
    // serial restore allocates them. With the store decoded on a worker,
    // `cold_scan`'s `rss_peak_mb` read 7.5 MB higher.
    const STORE: u8 = 1;
    const TABLES: u8 = 2;
    let caller = std::thread::current().id();
    let claimed = AtomicU8::new(0);
    let (store, tables) = (OnceLock::new(), OnceLock::new());
    exec::global().run(2, |_| {
        let wanted = if std::thread::current().id() == caller {
            STORE
        } else {
            TABLES
        };
        // A task gets the section it wants unless the other task took it.
        let mine = if claimed.fetch_or(wanted, Ordering::Relaxed) & wanted == 0 {
            wanted
        } else {
            STORE ^ TABLES ^ wanted
        };
        if mine == STORE {
            _ = store.set(decode_store());
        } else {
            _ = tables.set(decode_tables());
        }
    });
    let (Some(store), Some(tables)) = (store.into_inner(), tables.into_inner()) else {
        unreachable!("the executor runs every task of a job");
    };
    let (store, tables) = (store?, tables?);
    let weights = PathWeightFunction::from_parts(net, config, tables, &store)?;
    let mut inner = LiveIngestor::from_instantiated(net, store, weights, config.clone())?
        .with_retention(retention)?;
    inner.set_epoch(snap.epoch);
    Ok(inner)
}

/// A duration in milliseconds to the microsecond, for the event log.
fn millis(d: Duration) -> f64 {
    d.as_micros() as f64 / 1e3
}

/// Wall-clock milliseconds since the Unix epoch (0 if the clock is broken).
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_hist::Histogram1D;
    use pathcost_traj::DatasetPreset;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pathcost-live-persist-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fixture() -> (RoadNetwork, TrajectoryStore, HybridConfig) {
        let (net, store) = DatasetPreset::tiny(53).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        (net, store, cfg)
    }

    #[test]
    fn warm_recovery_resumes_bit_identically_and_continues() {
        let (net, store, cfg) = fixture();
        let dir = temp_dir("warm");
        let split = store.len() / 2;
        let base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let rest: Vec<MatchedTrajectory> = store.matched()[split..].to_vec();
        let mid = rest.len() / 2;

        let mut p = LiveIngestor::new(&net, base, cfg.clone())
            .unwrap()
            .with_persistence(&dir, PersistenceConfig::default())
            .unwrap();
        p.ingest(rest[..mid].to_vec()).unwrap();
        p.snapshot_now().unwrap();
        // This epoch lives only in the journal — replay must restore it.
        p.ingest(rest[mid..].to_vec()).unwrap();
        let want_epoch = p.epoch();
        let want_vars = p.weights().variables().to_vec();
        let want_stats = p.weights().stats();
        let want_matched = p.store().matched().to_vec();
        drop(p);

        let (mut r, report) = PersistentIngestor::recover(
            &net,
            &dir,
            cfg,
            RetentionConfig::default(),
            PersistenceConfig::default(),
            || panic!("warm recovery must not need the bootstrap store"),
        )
        .unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::Warm);
        assert_eq!(report.replayed_records, 1);
        assert_eq!(report.corrupt_generations_skipped, 0);
        assert_eq!(r.epoch(), want_epoch);
        assert_eq!(r.weights().variables(), &want_vars[..]);
        assert_eq!(r.weights().stats(), want_stats);
        assert_eq!(r.store().matched(), &want_matched[..]);
        assert_eq!(r.status().recovery_outcome(), RecoveryOutcome::Warm);

        // The lineage continues: next publish is want_epoch + 1 and is
        // itself journalled + recoverable.
        let update = r.ingest(Vec::new()).unwrap();
        assert_eq!(update.epoch, want_epoch + 1);
        drop(r);
        let (mut r, report) = PersistentIngestor::recover(
            &net,
            &dir,
            fixture().2,
            RetentionConfig::default(),
            PersistenceConfig::default(),
            || panic!("still warm"),
        )
        .unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::Warm);
        assert_eq!(r.epoch(), want_epoch + 1);

        // A snapshot at the final epoch (graceful shutdown): recovery is
        // pure decode, nothing to replay — and every boot path lands on the
        // state a cold rebuild over the raw rows instantiates.
        r.snapshot_now().unwrap();
        drop(r);
        let (r, report) = PersistentIngestor::recover(
            &net,
            &dir,
            fixture().2,
            RetentionConfig::default(),
            PersistenceConfig::default(),
            || panic!("still warm"),
        )
        .unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::Warm);
        assert_eq!(report.replayed_records, 0);
        assert_eq!(r.epoch(), want_epoch + 1);
        let rebuilt = PathWeightFunction::instantiate(&net, &store, &fixture().2).unwrap();
        assert_eq!(r.weights().variables(), rebuilt.variables());
        assert_eq!(r.weights().stats(), rebuilt.stats());
        // The image stores no unit marginal: a decoded unit variable derives
        // the one it carries, bit for bit what the fitted one carries.
        let bits = |h: &Histogram1D| -> Vec<u64> {
            let bounds = h.buckets().iter().flat_map(|b| [b.lo, b.hi]);
            bounds
                .chain(h.probs().iter().copied())
                .chain(h.cumulative_probs().iter().copied())
                .map(f64::to_bits)
                .collect()
        };
        let mut units = 0;
        for (decoded, fitted) in r.weights().variables().iter().zip(rebuilt.variables()) {
            assert_eq!(decoded.unit_marginal().is_some(), decoded.is_unit());
            if let Some(carried) = decoded.unit_marginal() {
                assert_eq!(
                    bits(carried),
                    bits(&decoded.histogram.marginal_1d(0).unwrap())
                );
                assert_eq!(bits(carried), bits(fitted.unit_marginal().unwrap()));
                units += 1;
            }
        }
        assert!(units > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A `Write` sink appending into a shared buffer (captures the event log).
    struct Capture(Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_warm_recovery_reports_where_its_time_went() {
        let (net, store, cfg) = fixture();
        let dir = temp_dir("timed");
        let split = store.len() / 2;
        let base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let mut p = LiveIngestor::new(&net, base, cfg.clone())
            .unwrap()
            .with_persistence(&dir, PersistenceConfig::default())
            .unwrap();
        p.ingest(store.matched()[split..].to_vec()).unwrap();
        drop(p);
        let recover = || {
            PersistentIngestor::recover(
                &net,
                &dir,
                cfg.clone(),
                RetentionConfig::default(),
                PersistenceConfig::default(),
                || panic!("warm recovery must not need the bootstrap store"),
            )
            .unwrap()
        };

        // Capture the process-wide event log; other tests' events may land
        // in it too, so ours is found by its directory.
        let buffer = Arc::new(std::sync::Mutex::new(Vec::new()));
        obslog::logger().set_writer(Some(Box::new(Capture(buffer.clone()))));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(recover));
        obslog::logger().set_writer(None);
        let (mut r, report) = outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        assert_eq!(report.outcome, RecoveryOutcome::Warm);
        assert_eq!(report.replayed_records, 1);
        for (stage, took) in [
            ("load", report.load),
            ("restore", report.restore),
            ("replay", report.replay),
        ] {
            assert!(took > Duration::ZERO, "{stage} took no time: {report:?}");
        }
        let log = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let dir_field = format!("\"dir\":\"{}\"", dir.display());
        let events: Vec<&str> = log
            .lines()
            .filter(|l| l.contains("\"event\":\"recovered\"") && l.contains(&dir_field))
            .collect();
        assert_eq!(events.len(), 1, "one recovered event in:\n{log}");
        for field in [
            "\"level\":\"info\"",
            "\"component\":\"persist\"",
            "\"replayed_records\":1",
            "\"load_ms\":",
            "\"restore_ms\":",
            "\"replay_ms\":",
        ] {
            assert!(events[0].contains(field), "{field} missing: {}", events[0]);
        }

        // Nothing left to replay after a snapshot at the final epoch.
        r.snapshot_now().unwrap();
        drop(r);
        let (_, report) = recover();
        assert_eq!(report.outcome, RecoveryOutcome::Warm);
        assert_eq!(report.replayed_records, 0);
        assert_eq!(report.replay, Duration::ZERO);
        assert!(report.load > Duration::ZERO && report.restore > Duration::ZERO);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The two section decodes run side by side, yet a damaged snapshot
    /// reports what a serial decode would meet first: `STOR` missing, `STOR`
    /// malformed, `WGTS` missing, `WGTS` malformed.
    #[test]
    fn a_damaged_snapshot_reports_the_first_error_in_section_order() {
        let (net, store, cfg) = fixture();
        let weights = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        let mut good_store = Vec::new();
        codec::put_trajectories(&mut good_store, store.matched());
        let tables: Vec<_> = weights
            .tables()
            .iter()
            .map(|(regime, variables)| (*regime, variables.as_slice()))
            .collect();
        let mut good_weights = Vec::new();
        codec::put_regime_tables(&mut good_weights, &tables);
        let bad = vec![0xFF; 3];
        let dir = temp_dir("order");
        let restore = |store: Option<&Vec<u8>>, weights: Option<&Vec<u8>>| {
            let config = codec::encode_config(&net, &cfg, RetentionConfig::default().max_age);
            let mut sections = vec![(snapshot::section::CONFIG, config)];
            sections.extend(store.map(|s| (snapshot::section::STORE, s.clone())));
            sections.extend(weights.map(|w| (snapshot::section::WEIGHTS, w.clone())));
            SnapshotWriter::new(&dir)
                .unwrap()
                .publish(1, &sections)
                .unwrap();
            let snap = SnapshotReader::load_latest(&dir).unwrap().0.unwrap();
            match restore_from_snapshot(&net, &snap, &cfg, RetentionConfig::default()) {
                Ok(inner) => format!("epoch {}", inner.epoch()),
                Err(e) => e.to_string(),
            }
        };
        let cases = [
            (None, Some(&bad), "no STORE section"),
            (None, None, "no STORE section"),
            (Some(&bad), None, "corrupt snapshot store section"),
            (Some(&bad), Some(&bad), "corrupt snapshot store section"),
            (Some(&good_store), None, "no WEIGHTS section"),
            (
                Some(&good_store),
                Some(&bad),
                "corrupt snapshot weights section",
            ),
            (Some(&good_store), Some(&good_weights), "epoch 1"),
        ];
        for (store, weights, want) in cases {
            let got = restore(store, weights);
            assert!(
                got.contains(want),
                "STOR {:?}, WGTS {:?}: {got}",
                store.map(Vec::len),
                weights.map(Vec::len)
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_write_journals_nothing_and_recovers_the_prior_epoch() {
        let (net, store, cfg) = fixture();
        let dir = temp_dir("rollback");
        let split = store.len() * 3 / 4;
        let base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let mut p = LiveIngestor::new(&net, base, cfg.clone())
            .unwrap()
            .with_persistence(&dir, PersistenceConfig::default())
            .unwrap();
        p.ingest(store.matched()[split..].to_vec()).unwrap();
        let status = p.status();
        let records = status.journal_records();
        let rows = p.store().matched().to_vec();
        let want_vars = p.weights().variables().to_vec();
        let bad = crate::ingest::tests::poisoned(p.store(), p.weights().partition());
        assert!(matches!(
            p.ingest(vec![bad]),
            Err(PersistenceError::Core(_))
        ));
        assert_eq!(status.journal_records(), records);
        assert_eq!(p.store().matched(), &rows[..]);
        assert_eq!(p.epoch(), 1);
        drop(p);

        let (r, report) = PersistentIngestor::recover(
            &net,
            &dir,
            cfg,
            RetentionConfig::default(),
            PersistenceConfig::default(),
            || panic!("warm recovery must not need the bootstrap store"),
        )
        .unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::Warm);
        assert_eq!(report.replayed_records, 1);
        assert_eq!(r.epoch(), 1);
        assert_eq!(r.weights().variables(), &want_vars[..]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_boots_cold_and_establishes_a_lineage() {
        let (net, store, cfg) = fixture();
        let dir = temp_dir("cold");
        let (p, report) = PersistentIngestor::recover(
            &net,
            &dir,
            cfg,
            RetentionConfig::default(),
            PersistenceConfig::default(),
            move || store,
        )
        .unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::Cold);
        assert_eq!(report.replayed_records, 0);
        assert_eq!(p.epoch(), 0);
        // The cold boot published a base generation.
        assert_eq!(list_generations(&dir).unwrap(), vec![0]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_mismatch_discards_the_lineage() {
        let (net, store, cfg) = fixture();
        let dir = temp_dir("mismatch");
        let p = LiveIngestor::new(&net, store.clone(), cfg.clone())
            .unwrap()
            .with_persistence(&dir, PersistenceConfig::default())
            .unwrap();
        drop(p);
        let recut = HybridConfig {
            beta: cfg.beta + 1,
            ..cfg
        };
        let (p, report) = PersistentIngestor::recover(
            &net,
            &dir,
            recut,
            RetentionConfig::default(),
            PersistenceConfig::default(),
            move || store,
        )
        .unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::Discarded);
        assert_eq!(p.epoch(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_snapshot_triggers_on_epoch_cadence_and_admin_request() {
        let (net, store, cfg) = fixture();
        let dir = temp_dir("auto");
        let base = TrajectoryStore::new(store.matched()[..store.len() / 2].to_vec());
        let mut p = LiveIngestor::new(&net, base, cfg)
            .unwrap()
            .with_persistence(
                &dir,
                PersistenceConfig {
                    snapshot_every_epochs: Some(2),
                    ..PersistenceConfig::default()
                },
            )
            .unwrap();
        let status = p.status();
        assert_eq!(status.snapshots_written(), 1); // the base generation
        p.ingest(Vec::new()).unwrap();
        assert_eq!(status.snapshots_written(), 1);
        p.ingest(Vec::new()).unwrap();
        assert_eq!(status.snapshots_written(), 2, "cadence of 2 must fire");
        // An operator request fires after the next published epoch.
        status.request_snapshot();
        p.retire_ids(&[u64::MAX]).unwrap();
        assert_eq!(status.snapshots_written(), 3);
        assert_eq!(status.snapshot_epoch(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }
}
