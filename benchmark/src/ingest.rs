//! The write path: journalled ingest → publish, snapshot, crash, recovery.
//!
//! The held-out trips of the fixture are fed through
//! `PersistentIngestor::ingest` → `QueryEngine::apply_update` in fixed-size
//! batches, fsync on. On `ingest_churn` a batch falls due every
//! [`CHURN_PACE`] while the readers run; elsewhere the same batches are
//! published back to back on a quiet server, so every workload reports the
//! ingest metrics — with and without read load.
//!
//! Batches are small (10 rows, one a second, the writer about 20 % busy)
//! rather than large. With one 50-row batch a second the writer held a core
//! for half of every second, read latency had two modes of nearly equal
//! weight, and its median — like every 0.3 s measurement window — landed in
//! one or the other by chance; with two 10-row batches a second the dearest
//! batches (0.4 s) came due faster than the writer published them, and the
//! time from due to visible measured the backlog's luck more than the
//! program. A snapshot is taken with [`JOURNAL_TAIL`] batches still
//! to come, the ingestor is then dropped without another (a crash after the
//! journal's last fsync), and recovery must load the snapshot, replay that
//! tail and answer like the process that never crashed.

use crate::fixture::Fixture;
use crate::harness;
use crate::loadgen::Connection;
use crate::oracle::Expected;
use crate::run::Tally;
use crate::workload::{Item, Plan};
use pathcost_core::PathWeightFunction;
use pathcost_live::{LiveIngestor, PersistenceConfig, PersistentIngestor, RetentionConfig};
use pathcost_persist::{PersistenceStatus, RecoveryOutcome};
use pathcost_service::QueryEngine;
use pathcost_traj::TrajectoryStore;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches published after the snapshot, left for recovery to replay.
pub const JOURNAL_TAIL: usize = 2;
/// How often a batch falls due under churn.
const CHURN_PACE: Duration = Duration::from_secs(1);

/// Batches the churn's writer publishes while `seconds` of reads run.
fn churn_batches(seconds: f64) -> usize {
    ((seconds / CHURN_PACE.as_secs_f64()).floor() as usize).max(JOURNAL_TAIL + 1)
}
/// Times the recovery is repeated for `recover_s`.
const RECOVERIES: usize = 5;

/// State directories live under `benchmark/out/` (git-ignored) and are
/// removed when the run ends.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh state directory for this process.
pub fn state_dir(workload: &str) -> PathBuf {
    let dir = out_dir().join(format!("state-{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the state directory under benchmark/out");
    dir
}

/// What the writer did and saw.
#[derive(Debug, Default)]
pub struct Ingested {
    /// Batch due time → `apply_update` returned (epoch visible), per batch.
    pub publish_ms: Vec<f64>,
    /// `PersistentIngestor::ingest` per batch (classify, dirty keys,
    /// re-derive, journal append + fsync).
    pub ingest_ms: Vec<f64>,
    /// `QueryEngine::apply_update` per batch.
    pub apply_ms: Vec<f64>,
    pub dirty_keys: Vec<f64>,
    pub changed_vars: Vec<f64>,
    pub evicted: Vec<f64>,
    /// Time the writer spent working (not waiting for a batch to fall due).
    pub busy_s: f64,
    pub rows: usize,
    pub snapshot_ms: f64,
    pub snapshot_bytes: u64,
    pub journal_bytes: u64,
    pub fsync_p50_ms: f64,
    pub final_epoch: u64,
}

/// What recovering the lineage took.
pub struct Recovered {
    /// Recovery start → first correct answer, median of the repetitions.
    pub recover_s: f64,
    pub replayed_records: u64,
}

/// Publishes `batches` batches of the fixture's live trips into `engine`,
/// one every `pace` (back to back when `None`), then drops the ingestor.
/// `between` is called before each batch (the run reads the machine's speed
/// there).
pub fn publish(
    fixture: &Fixture,
    engine: &QueryEngine<'_>,
    dir: &Path,
    pace: Option<Duration>,
    batches: usize,
    between: &mut dyn FnMut(),
) -> Ingested {
    let rows = fixture.preset.ingest_rows;
    let batches = batches.min(fixture.live_rows.len() / rows);
    assert!(batches > JOURNAL_TAIL, "fixture holds too few live trips");
    let weights: PathWeightFunction = engine.graph().weights().clone();
    let mut ingestor = LiveIngestor::from_instantiated(
        &fixture.net,
        fixture.base_store(),
        weights,
        fixture.preset.hybrid_config(),
    )
    .expect("the served weights match the fixture's config")
    .with_persistence(dir, PersistenceConfig::default())
    .expect("the state directory is writable");
    let status: Arc<PersistenceStatus> = ingestor.status();

    let mut seen = Ingested::default();
    let started = Instant::now();
    for (b, batch) in fixture.live_rows.chunks(rows).take(batches).enumerate() {
        between();
        let due = pace.map_or_else(|| started.elapsed(), |pace| pace * b as u32);
        if let Some(wait) = due.checked_sub(started.elapsed()) {
            std::thread::sleep(wait);
        }
        let began = started.elapsed();
        let update = ingestor.ingest(batch.to_vec()).expect("ingest succeeds");
        let ingested = started.elapsed();
        seen.dirty_keys.push(update.dirty_keys as f64);
        seen.changed_vars.push(update.changed() as f64);
        let report = engine.apply_update(update).expect("the epoch applies");
        let visible = started.elapsed();
        seen.evicted.push(report.evicted_total() as f64);
        seen.ingest_ms.push((ingested - began).as_secs_f64() * 1e3);
        seen.apply_ms.push((visible - ingested).as_secs_f64() * 1e3);
        seen.publish_ms.push((visible - due).as_secs_f64() * 1e3);
        seen.busy_s += (visible - began).as_secs_f64();
        seen.rows += batch.len();
        if b + 1 + JOURNAL_TAIL == batches {
            let began = Instant::now();
            ingestor.snapshot_now().expect("snapshot succeeds");
            seen.snapshot_ms = began.elapsed().as_secs_f64() * 1e3;
            seen.snapshot_bytes = newest_snapshot_bytes(dir);
        }
    }
    seen.journal_bytes = status.journal_bytes();
    seen.fsync_p50_ms = histogram_p50(&status.fsync_latency()) * 1e3;
    seen.final_epoch = ingestor.epoch();
    // Dropped without a final snapshot: a crash after the last fsync.
    drop(ingestor);
    seen
}

/// Runs `readers` while a writer thread publishes the churn's batches into
/// `engine`; returns what both saw.
pub fn alongside<T>(
    fixture: &Fixture,
    engine: &QueryEngine<'_>,
    dir: &Path,
    seconds: f64,
    readers: impl FnOnce() -> T,
) -> (T, Ingested) {
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            publish(
                fixture,
                engine,
                dir,
                Some(CHURN_PACE),
                churn_batches(seconds),
                &mut || {},
            )
        });
        let read = readers();
        (read, writer.join().expect("writer thread"))
    })
}

/// Size of the largest file in the state directory: a snapshot generation
/// (the journal of a run is a small fraction of one).
fn newest_snapshot_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.metadata().ok())
        .map(|meta| meta.len())
        .max()
        .unwrap_or(0)
}

/// Median of a cumulative-bucket histogram: the upper bound of the bucket
/// the middle observation fell into (seconds).
fn histogram_p50(snapshot: &pathcost_obs::HistogramSnapshot) -> f64 {
    let half = snapshot.count().div_ceil(2);
    snapshot
        .cumulative
        .iter()
        .position(|&c| c >= half && c > 0)
        .and_then(|i| snapshot.bounds.get(i).copied())
        .unwrap_or(0.0)
}

/// Recovers the lineage `publish` left in `dir` and compares the answers of
/// the served engine (over the socket) to the plan's first `queries` point
/// queries against it — and, when `rebuild` is set, against a from-scratch
/// instantiation over the final store. `between` is called around each timed
/// recovery (the run reads the machine's speed there).
#[allow(clippy::too_many_arguments)]
pub fn verify_lineage(
    addr: SocketAddr,
    fixture: &Fixture,
    served: &QueryEngine<'_>,
    plan: &Plan,
    ingested: &Ingested,
    dir: &Path,
    rebuild: bool,
    queries: usize,
    tally: &mut Tally,
    between: &mut dyn FnMut(),
) -> Recovered {
    let asked: Vec<&Item> = plan
        .items
        .iter()
        .filter(|item| item.is_point_query())
        .take(queries)
        .collect();
    let first = asked.first().expect("every plan holds point queries");
    let never_crashed = Expected::from_encoded(&harness::reference_answer(served, first));

    // Recovery is repeatable (it only reads the state directory), so it is
    // timed RECOVERIES times and the median reported; the last one is kept.
    let mut recover_s = Vec::with_capacity(RECOVERIES);
    let mut first_ok = true;
    let mut last = None;
    between();
    for _ in 0..RECOVERIES {
        let began = Instant::now();
        let (recovered, report) = PersistentIngestor::recover(
            &fixture.net,
            dir,
            fixture.preset.hybrid_config(),
            RetentionConfig::default(),
            PersistenceConfig::default(),
            || fixture.base_store(),
        )
        .expect("recovery succeeds");
        let lineage = fixture.engine(recovered.weights());
        lineage.resume_epoch(recovered.epoch());
        first_ok &= never_crashed.matches(harness::reference_answer(&lineage, first).as_bytes());
        recover_s.push(began.elapsed().as_secs_f64());
        between();
        last = Some((lineage, recovered.epoch(), report));
    }
    let (lineage, epoch, report) = last.expect("RECOVERIES > 0");
    eprintln!(
        "  recovery: {} from snapshot epoch {} + {} journal records, {:.3?} s",
        report.outcome.as_str(),
        report.snapshot_epoch,
        report.replayed_records,
        recover_s
    );
    if report.outcome != RecoveryOutcome::Warm
        || epoch != ingested.final_epoch
        || report.replayed_records != JOURNAL_TAIL as u64
    {
        tally.problem(format!(
            "recovery did not resume the lineage: {:?}, epoch {epoch} (expected {}), {} records replayed",
            report.outcome, ingested.final_epoch, report.replayed_records
        ));
    }

    let rebuilt = rebuild.then(|| {
        let mut rows = fixture.base_rows.clone();
        rows.extend_from_slice(&fixture.live_rows[..ingested.rows]);
        let weights = PathWeightFunction::instantiate(
            &fixture.net,
            &TrajectoryStore::new(rows),
            &fixture.preset.hybrid_config(),
        )
        .expect("the final store instantiates");
        fixture.engine(weights)
    });

    // Fill the independent engines on all workers before asking one by one.
    let requests: Vec<_> = asked.iter().map(|item| item.request.clone()).collect();
    harness::warm(&lineage, &requests);
    if let Some(rebuilt) = &rebuilt {
        harness::warm(rebuilt, &requests);
    }
    let mut conn = Connection::open(addr).expect("connect to the served engine");
    let mut failed = usize::from(!first_ok);
    for &item in &asked {
        let answered = conn
            .roundtrip("POST", "/query", &item.json)
            .is_ok_and(|status| status == 200);
        let agrees = |engine: &QueryEngine<'_>| {
            Expected::from_encoded(&harness::reference_answer(engine, item)).matches(conn.body())
        };
        if !(answered && agrees(&lineage) && rebuilt.as_ref().is_none_or(agrees)) {
            failed += 1;
        }
    }
    tally.add(
        if rebuild {
            "post-ingest oracle (recovered lineage + rebuild)"
        } else {
            "post-ingest oracle (recovered lineage)"
        },
        asked.len() + 1,
        failed,
    );
    Recovered {
        recover_s: crate::stats::median(&recover_s),
        replayed_records: report.replayed_records,
    }
}
