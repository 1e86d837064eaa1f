//! The crash-safety oracle: a process that crashes at an arbitrary point and
//! recovers from disk must be **bit-identical** to one that never crashed.
//!
//! The harness builds a deterministic randomized schedule of ingest /
//! retire-by-ttl / retire-by-id operations, runs it once on a plain
//! [`LiveIngestor`] recording the full state (weight-function variables,
//! stats, fallback units, store rows) at *every* epoch, then re-runs it on a
//! [`PersistentIngestor`] with snapshots sprinkled at random epochs and
//! "crashes" (drops) it at every chosen crash point. Recovery must restore
//! exactly the reference state at the recovered epoch, and continuing the
//! remaining schedule must land bit-identically on the reference final state.
//!
//! Fault injection on top: after a crash the state directory is damaged —
//! bytes flipped at arbitrary offsets, snapshot or journal tails truncated at
//! arbitrary offsets (a torn write), whole generations deleted, both
//! generations corrupted at once. Recovery must never panic, must skip
//! corrupt generations, must truncate torn journal tails back to the last
//! valid record, and must land on the reference state for whatever epoch the
//! surviving bytes support.
//!
//! Set `CRASH_RECOVERY_QUICK=1` to run a reduced schedule (the CI smoke
//! step).

use pathcost::core::{HybridConfig, PathWeightFunction};
use pathcost::live::{LiveIngestor, PersistenceConfig, PersistentIngestor, RetentionConfig};
use pathcost::persist::crc::crc32;
use pathcost::persist::journal::JOURNAL_MAGIC;
use pathcost::persist::snapshot::{list_generations, SNAPSHOT_MAGIC};
use pathcost::persist::RecoveryOutcome;
use pathcost::roadnet::{GeneratorConfig, RoadNetwork};
use pathcost::traj::{
    tag_batch, DatasetPreset, MatchedTrajectory, PeakOffPeak, RegimeId, RegimeSchema, Timestamp,
    TrajectoryStore,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Deterministic RNG (SplitMix64) — the schedule must be reproducible.
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }
}

// ---------------------------------------------------------------------------
// Schedule and reference run
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Op {
    Ingest(Vec<MatchedTrajectory>),
    RetireBefore(Timestamp),
    RetireIds(Vec<u64>),
}

/// Everything that defines the observable state at one epoch.
#[derive(Clone)]
struct RefState {
    weights: Arc<PathWeightFunction>,
    matched: Vec<MatchedTrajectory>,
}

struct Fixture {
    net: RoadNetwork,
    base: TrajectoryStore,
    cfg: HybridConfig,
    ops: Vec<Op>,
    /// `states[e]` is the reference state after epoch `e` (index 0 = base).
    states: Vec<RefState>,
}

fn quick() -> bool {
    std::env::var("CRASH_RECOVERY_QUICK").is_ok_and(|v| v == "1")
}

/// Builds the op schedule *while* running the reference ingestor (retire
/// cutoffs and victim ids depend on the live store), recording per-epoch
/// states.
fn build_fixture(seed: u64, n_ops: usize) -> Fixture {
    let (net, store) = DatasetPreset::tiny(seed).materialise().unwrap();
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    let split = store.len() * 2 / 5;
    let base = TrajectoryStore::new(store.matched()[..split].to_vec());
    let mut stream: Vec<MatchedTrajectory> = store.matched()[split..].to_vec();

    let mut rng = Rng::new(seed.wrapping_mul(0x1234_5678_9ABC_DEF1));
    let mut reference = LiveIngestor::new(&net, base.clone(), cfg.clone()).unwrap();
    let mut ops = Vec::with_capacity(n_ops);
    let mut states = vec![RefState {
        weights: reference.weights(),
        matched: reference.store().matched().to_vec(),
    }];
    for _ in 0..n_ops {
        let live = reference.store().matched().to_vec();
        let roll = rng.below(10);
        let op = if roll < 7 || live.len() < 4 {
            // Ingest 1–4 fresh trajectories; sometimes re-deliver an already
            // stored one to exercise dedup across the journal replay.
            let take = (1 + rng.below(4)).min(stream.len());
            let mut batch: Vec<MatchedTrajectory> = stream.drain(..take).collect();
            if !live.is_empty() && rng.chance(1, 3) {
                batch.push(live[rng.below(live.len())].clone());
            }
            Op::Ingest(batch)
        } else if roll < 9 {
            let victims: Vec<u64> = (0..1 + rng.below(2))
                .map(|_| live[rng.below(live.len())].id)
                .collect();
            Op::RetireIds(victims)
        } else {
            // Retire the oldest ~15% of what is currently stored.
            let cutoff = reference.store().start_time_at_percentile(15).unwrap();
            Op::RetireBefore(cutoff)
        };
        apply_live(&mut reference, &op);
        ops.push(op);
        states.push(RefState {
            weights: reference.weights(),
            matched: reference.store().matched().to_vec(),
        });
    }
    Fixture {
        net,
        base,
        cfg,
        ops,
        states,
    }
}

fn apply_live(ingestor: &mut LiveIngestor<'_>, op: &Op) {
    match op {
        Op::Ingest(batch) => ingestor.ingest(batch.clone()).unwrap(),
        Op::RetireBefore(cutoff) => ingestor.retire_before(*cutoff).unwrap(),
        Op::RetireIds(ids) => ingestor.retire_ids(ids).unwrap(),
    };
}

fn apply_persistent(ingestor: &mut PersistentIngestor<'_>, op: &Op) {
    match op {
        Op::Ingest(batch) => ingestor.ingest(batch.clone()).unwrap(),
        Op::RetireBefore(cutoff) => ingestor.retire_before(*cutoff).unwrap(),
        Op::RetireIds(ids) => ingestor.retire_ids(ids).unwrap(),
    };
}

/// Bit-exact comparison against the reference state at `epoch`.
fn assert_state(tag: &str, recovered: &PersistentIngestor<'_>, fixture: &Fixture, epoch: u64) {
    let expect = &fixture.states[epoch as usize];
    assert_eq!(recovered.epoch(), epoch, "{tag}: epoch");
    assert_eq!(
        recovered.store().matched(),
        &expect.matched[..],
        "{tag}: store rows at epoch {epoch}"
    );
    let weights = recovered.weights();
    assert_eq!(
        weights.variables(),
        expect.weights.variables(),
        "{tag}: variables at epoch {epoch}"
    );
    assert_eq!(
        weights.stats(),
        expect.weights.stats(),
        "{tag}: stats at epoch {epoch}"
    );
    assert_eq!(
        weights.fallback_units(),
        expect.weights.fallback_units(),
        "{tag}: fallback units at epoch {epoch}"
    );
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pathcost-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs the persisted schedule up to `crash_after` epochs, snapshotting at
/// `snapshot_at` (epoch numbers), then "crashes" by dropping the ingestor.
fn run_until_crash(fixture: &Fixture, dir: &Path, crash_after: usize, snapshot_at: &[u64]) {
    let mut p = LiveIngestor::new(&fixture.net, fixture.base.clone(), fixture.cfg.clone())
        .unwrap()
        .with_persistence(dir, PersistenceConfig::default())
        .unwrap();
    for op in &fixture.ops[..crash_after] {
        apply_persistent(&mut p, op);
        if snapshot_at.contains(&p.epoch()) {
            p.snapshot_now().unwrap();
        }
    }
    // Dropping without a final snapshot IS the crash: recovery has only the
    // last published snapshot plus the journal.
}

fn recover<'n>(
    fixture: &'n Fixture,
    dir: &Path,
) -> (PersistentIngestor<'n>, pathcost::live::RecoveryReport) {
    let base = fixture.base.clone();
    PersistentIngestor::recover(
        &fixture.net,
        dir,
        fixture.cfg.clone(),
        RetentionConfig::default(),
        PersistenceConfig::default(),
        move || base,
    )
    .expect("recovery must degrade gracefully, never fail or panic")
}

// ---------------------------------------------------------------------------
// Oracle: clean crashes at every point
// ---------------------------------------------------------------------------

#[test]
fn every_crash_point_recovers_bit_identically_and_continues() {
    let n_ops = if quick() { 6 } else { 12 };
    let seeds: &[u64] = if quick() { &[29] } else { &[29, 53] };
    for &seed in seeds {
        let fixture = build_fixture(seed, n_ops);
        let mut rng = Rng::new(seed ^ 0xDEAD_BEEF);
        for crash_after in 1..=n_ops {
            // A random subset of epochs get snapshots (always ≥ the base
            // snapshot at epoch 0 written by with_persistence).
            let snapshot_at: Vec<u64> = (1..=crash_after as u64)
                .filter(|_| rng.chance(1, 3))
                .collect();
            let dir = temp_dir(&format!("clean-{seed}-{crash_after}"));
            run_until_crash(&fixture, &dir, crash_after, &snapshot_at);

            let (mut recovered, report) = recover(&fixture, &dir);
            assert_eq!(
                report.outcome,
                RecoveryOutcome::Warm,
                "crash at {crash_after}"
            );
            assert_state("clean crash", &recovered, &fixture, crash_after as u64);

            // The recovered process finishes the schedule bit-identically.
            for op in &fixture.ops[crash_after..] {
                apply_persistent(&mut recovered, op);
            }
            assert_state(
                "continued after recovery",
                &recovered,
                &fixture,
                n_ops as u64,
            );
            drop(recovered);
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// The newest `.snap` file in `dir`.
fn latest_snapshot(dir: &Path) -> PathBuf {
    let mut gens = list_generations(dir).unwrap();
    gens.sort_unstable();
    let newest = *gens.last().expect("at least one generation");
    dir.join(format!("snapshot-{newest:016x}.snap"))
}

fn oldest_snapshot(dir: &Path) -> PathBuf {
    let mut gens = list_generations(dir).unwrap();
    gens.sort_unstable();
    let oldest = *gens.first().expect("at least one generation");
    dir.join(format!("snapshot-{oldest:016x}.snap"))
}

fn flip_byte(path: &Path, offset_fraction: f64) {
    let mut bytes = fs::read(path).unwrap();
    let i = ((bytes.len() - 1) as f64 * offset_fraction) as usize;
    bytes[i] ^= 0x40;
    fs::write(path, bytes).unwrap();
}

fn truncate(path: &Path, keep_fraction: f64) {
    let bytes = fs::read(path).unwrap();
    let keep = (bytes.len() as f64 * keep_fraction) as usize;
    fs::write(path, &bytes[..keep]).unwrap();
}

#[test]
fn corruption_degrades_gracefully_never_panics() {
    let n_ops = if quick() { 6 } else { 10 };
    let fixture = build_fixture(41, n_ops);
    let crash_after = n_ops;
    // Two mid-run snapshots → two retained generations plus a journal tail.
    let snap_a = (n_ops / 3) as u64;
    let snap_b = (2 * n_ops / 3) as u64;
    let pristine = temp_dir("pristine");
    run_until_crash(&fixture, &pristine, crash_after, &[snap_a, snap_b]);
    assert_eq!(list_generations(&pristine).unwrap().len(), 2);

    let clone_dir = |tag: &str| -> PathBuf {
        let dir = temp_dir(tag);
        fs::create_dir_all(&dir).unwrap();
        for entry in fs::read_dir(&pristine).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
        dir
    };

    // 1. Latest snapshot corrupted (byte flips at several offsets): the
    //    previous generation + journal replay still reach the final epoch.
    for (i, frac) in [0.01, 0.4, 0.99].iter().enumerate() {
        let dir = clone_dir(&format!("flip-snap-{i}"));
        flip_byte(&latest_snapshot(&dir), *frac);
        let (recovered, report) = recover(&fixture, &dir);
        assert_eq!(report.outcome, RecoveryOutcome::Warm);
        assert_eq!(report.corrupt_generations_skipped, 1);
        assert_eq!(report.snapshot_epoch, snap_a);
        assert_state(
            "flipped latest snapshot",
            &recovered,
            &fixture,
            crash_after as u64,
        );
        drop(recovered);
        fs::remove_dir_all(&dir).unwrap();
    }

    // 2. Latest snapshot torn (truncated at arbitrary offsets): same story.
    for (i, frac) in [0.0, 0.3, 0.9].iter().enumerate() {
        let dir = clone_dir(&format!("torn-snap-{i}"));
        truncate(&latest_snapshot(&dir), *frac);
        let (recovered, report) = recover(&fixture, &dir);
        assert_eq!(report.outcome, RecoveryOutcome::Warm);
        assert_state(
            "torn latest snapshot",
            &recovered,
            &fixture,
            crash_after as u64,
        );
        drop(recovered);
        fs::remove_dir_all(&dir).unwrap();
    }

    // 3. Latest snapshot deleted outright.
    {
        let dir = clone_dir("deleted-snap");
        fs::remove_file(latest_snapshot(&dir)).unwrap();
        let (recovered, report) = recover(&fixture, &dir);
        assert_eq!(report.outcome, RecoveryOutcome::Warm);
        assert_eq!(report.snapshot_epoch, snap_a);
        assert_state(
            "deleted latest snapshot",
            &recovered,
            &fixture,
            crash_after as u64,
        );
        drop(recovered);
        fs::remove_dir_all(&dir).unwrap();
    }

    // 4. Older generation corrupted, newest intact: zero impact.
    {
        let dir = clone_dir("flip-old-snap");
        flip_byte(&oldest_snapshot(&dir), 0.5);
        let (recovered, report) = recover(&fixture, &dir);
        assert_eq!(report.outcome, RecoveryOutcome::Warm);
        assert_eq!(report.snapshot_epoch, snap_b);
        assert_state(
            "flipped older snapshot",
            &recovered,
            &fixture,
            crash_after as u64,
        );
        drop(recovered);
        fs::remove_dir_all(&dir).unwrap();
    }

    // 5. Torn journal tail (truncated at many offsets): recovery lands on
    //    the last epoch the surviving records support — always a reference
    //    state, never an error.
    {
        let journal = pristine.join("journal.pcj");
        let full = fs::read(&journal).unwrap();
        let cuts = if quick() { 7 } else { 23 };
        for i in 0..cuts {
            let dir = clone_dir(&format!("torn-journal-{i}"));
            let keep =
                JOURNAL_MAGIC.len() + (full.len() - JOURNAL_MAGIC.len()) * (i + 1) / (cuts + 1);
            fs::write(dir.join("journal.pcj"), &full[..keep]).unwrap();
            let (recovered, report) = recover(&fixture, &dir);
            assert_eq!(report.outcome, RecoveryOutcome::Warm);
            let epoch = recovered.epoch();
            assert!(
                (report.snapshot_epoch..=crash_after as u64).contains(&epoch),
                "cut {i}: recovered epoch {epoch} out of range"
            );
            assert_state(
                &format!("torn journal cut {i}"),
                &recovered,
                &fixture,
                epoch,
            );
            drop(recovered);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    // 6. Byte flips inside the journal: the valid prefix replays, the rest
    //    is dropped — still a reference state.
    for (i, frac) in [0.1, 0.5, 0.95].iter().enumerate() {
        let dir = clone_dir(&format!("flip-journal-{i}"));
        flip_byte(&dir.join("journal.pcj"), *frac);
        let (recovered, report) = recover(&fixture, &dir);
        assert_eq!(report.outcome, RecoveryOutcome::Warm);
        let epoch = recovered.epoch();
        assert_state(&format!("flipped journal {i}"), &recovered, &fixture, epoch);
        drop(recovered);
        fs::remove_dir_all(&dir).unwrap();
    }

    // 7. Every retained generation corrupt AND the journal rotated past
    //    epoch 1: nothing usable — recovery discards and cold-boots from the
    //    bootstrap store without panicking.
    {
        let dir = clone_dir("all-corrupt");
        flip_byte(&latest_snapshot(&dir), 0.5);
        flip_byte(&oldest_snapshot(&dir), 0.5);
        let (recovered, report) = recover(&fixture, &dir);
        assert_eq!(report.outcome, RecoveryOutcome::Discarded);
        assert_state("all generations corrupt", &recovered, &fixture, 0);
        // The discarded lineage was replaced by a fresh, working one.
        assert_eq!(list_generations(&dir).unwrap(), vec![0]);
        drop(recovered);
        fs::remove_dir_all(&dir).unwrap();
    }

    fs::remove_dir_all(&pristine).unwrap();
}

// ---------------------------------------------------------------------------
// Journal-only recovery (no snapshot survives but the journal is complete)
// ---------------------------------------------------------------------------

#[test]
fn journal_only_recovery_replays_the_full_history() {
    let n_ops = if quick() { 4 } else { 8 };
    let fixture = build_fixture(67, n_ops);
    let dir = temp_dir("journal-only");
    // No mid-run snapshots: the only generation is the epoch-0 base written
    // at attach time, so the journal reaches back to epoch 1.
    run_until_crash(&fixture, &dir, n_ops, &[]);
    flip_byte(&latest_snapshot(&dir), 0.5);
    let (recovered, report) = recover(&fixture, &dir);
    assert_eq!(report.outcome, RecoveryOutcome::Warm);
    assert_eq!(report.snapshot_epoch, 0, "no snapshot was usable");
    assert_eq!(report.replayed_records, n_ops as u64);
    assert_state("journal-only", &recovered, &fixture, n_ops as u64);
    drop(recovered);
    fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// TTL retention across a crash
// ---------------------------------------------------------------------------

#[test]
fn recovery_with_ttl_retention_is_deterministic() {
    let (net, store) = DatasetPreset::tiny(97).materialise().unwrap();
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    let split = store.len() / 2;
    let base = TrajectoryStore::new(store.matched()[..split].to_vec());
    let rest: Vec<MatchedTrajectory> = store.matched()[split..].to_vec();
    let mid = rest.len() / 2;
    let watermark = store.start_time_at_percentile(100).unwrap();
    let keep_from = store.start_time_at_percentile(25).unwrap();
    let retention = RetentionConfig {
        max_age: Some(watermark.seconds() - keep_from.seconds()),
    };

    // Reference: never crashes.
    let mut reference = LiveIngestor::new(&net, base.clone(), cfg.clone())
        .unwrap()
        .with_retention(retention)
        .unwrap();
    reference.ingest(rest[..mid].to_vec()).unwrap();
    reference.ingest(rest[mid..].to_vec()).unwrap();

    // Persisted: crash between the two batches.
    let dir = temp_dir("ttl");
    let mut p = LiveIngestor::new(&net, base.clone(), cfg.clone())
        .unwrap()
        .with_retention(retention)
        .unwrap()
        .with_persistence(&dir, PersistenceConfig::default())
        .unwrap();
    p.ingest(rest[..mid].to_vec()).unwrap();
    drop(p);

    let (mut recovered, report) = PersistentIngestor::recover(
        &net,
        &dir,
        cfg,
        retention,
        PersistenceConfig::default(),
        move || base,
    )
    .unwrap();
    assert_eq!(report.outcome, RecoveryOutcome::Warm);
    recovered.ingest(rest[mid..].to_vec()).unwrap();

    assert_eq!(recovered.epoch(), reference.epoch());
    assert_eq!(recovered.store().matched(), reference.store().matched());
    assert_eq!(
        recovered.weights().variables(),
        reference.weights().variables()
    );
    assert_eq!(recovered.weights().stats(), reference.weights().stats());
    assert_eq!(
        recovered.weights().fallback_units(),
        reference.weights().fallback_units()
    );
    drop(recovered);
    fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Regime-tagged lineages: snapshotted and journalled tags
// ---------------------------------------------------------------------------

/// The regime schema used by the tagged lineage tests: peak and off-peak
/// traffic both group under all-traffic (see REGIMES.md).
fn regime_schema() -> RegimeSchema {
    RegimeSchema::flat()
        .with_group(RegimeId(1), RegimeId::ALL_TRAFFIC)
        .with_group(RegimeId(2), RegimeId::ALL_TRAFFIC)
}

/// A regime-tagged lineage must recover **bit-identically** — every table,
/// the schema and the per-row tags (snapshotted and journalled) included —
/// to the same final state as a process that never crashed.
#[test]
fn regime_tagged_lineage_recovers_bit_identically() {
    check_tagged_lineage("regime-v2", false);
}

/// The same lineage with the tags assigned by the ingestor's installed
/// classifier instead of the producer: the journal must hold the rows as
/// they landed in the store, because `recover` attaches no classifier and
/// replays journalled tags verbatim.
#[test]
fn classifier_tagged_lineage_recovers_bit_identically() {
    check_tagged_lineage("regime-classified", true);
}

/// `classify_at_ingest`: the ingested batches arrive untagged and both the
/// reference and the persisted ingestor tag them through `with_classifier`;
/// otherwise the producer tagged them up front. The base store is
/// producer-tagged either way.
fn check_tagged_lineage(dir_tag: &str, classify_at_ingest: bool) {
    let (net, store) = DatasetPreset::tiny(401).materialise().unwrap();
    let classifier = PeakOffPeak {
        peak: RegimeId(1),
        off_peak: RegimeId(2),
        ..PeakOffPeak::default()
    };
    let mut matched = store.matched().to_vec();
    let cfg = HybridConfig {
        beta: 4,
        regimes: regime_schema(),
        ..HybridConfig::default()
    };
    let split = matched.len() * 2 / 5;
    if classify_at_ingest {
        tag_batch(&mut matched[..split], &classifier);
    } else {
        tag_batch(&mut matched, &classifier);
    }
    let base = TrajectoryStore::new(matched[..split].to_vec());
    let rest: Vec<MatchedTrajectory> = matched[split..].to_vec();
    let mid = rest.len() / 2;
    let ingestor = |base: TrajectoryStore| {
        let ingestor = LiveIngestor::new(&net, base, cfg.clone()).unwrap();
        if classify_at_ingest {
            ingestor.with_classifier(Arc::new(classifier.clone()))
        } else {
            ingestor
        }
    };

    // Reference: same two tagged batches, never crashes.
    let mut reference = ingestor(base.clone());
    reference.ingest(rest[..mid].to_vec()).unwrap();
    reference.ingest(rest[mid..].to_vec()).unwrap();
    assert!(
        reference.weights().tables().len() > 1,
        "fixture must clear β in at least one regime-own table"
    );

    let dir = temp_dir(dir_tag);
    {
        let mut p = ingestor(base.clone())
            .with_persistence(&dir, PersistenceConfig::default())
            .unwrap();
        p.ingest(rest[..mid].to_vec()).unwrap();
        p.snapshot_now().unwrap();
        // Epoch 2 lives only in the journal: its tags ride the ingest
        // record and must survive replay verbatim (recovery attaches no
        // classifier).
        p.ingest(rest[mid..].to_vec()).unwrap();
        // Crash.
    }

    let base_for_recover = base;
    let (recovered, report) = PersistentIngestor::recover(
        &net,
        &dir,
        cfg,
        RetentionConfig::default(),
        PersistenceConfig::default(),
        move || base_for_recover,
    )
    .unwrap();
    assert_eq!(report.outcome, RecoveryOutcome::Warm);
    assert_eq!(report.snapshot_epoch, 1);
    assert_eq!(report.replayed_records, 1);
    assert_eq!(recovered.epoch(), reference.epoch());
    // Store rows compare tags too: MatchedTrajectory equality covers the
    // regime field.
    assert_eq!(recovered.store().matched(), reference.store().matched());
    assert_eq!(
        recovered.weights().variables(),
        reference.weights().variables()
    );
    assert_eq!(recovered.weights().tables(), reference.weights().tables());
    assert_eq!(
        recovered.weights().regime_schema(),
        reference.weights().regime_schema()
    );
    assert_eq!(recovered.weights().stats(), reference.weights().stats());
    drop(recovered);
    fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Lineages recovery must refuse: another network, another format version
// ---------------------------------------------------------------------------

/// A lineage persisted over one road network and recovered over another is
/// discarded: the fingerprint covers the network, so its rows and
/// variables, which name the other network's edges, are never restored.
#[test]
fn a_lineage_over_another_network_is_discarded() {
    let (net, store) = DatasetPreset::tiny(7).materialise().unwrap();
    let grid = DatasetPreset {
        network: GeneratorConfig {
            rows: 4,
            cols: 4,
            ..GeneratorConfig::tiny(7)
        },
        ..DatasetPreset::tiny(7)
    };
    let (other_net, other_store) = grid.materialise().unwrap();
    assert_ne!(net.edge_count(), other_net.edge_count());
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    let split = store.len() / 2;
    let dir = temp_dir("other-network");
    {
        let mut p = LiveIngestor::new(
            &net,
            TrajectoryStore::new(store.matched()[..split].to_vec()),
            cfg.clone(),
        )
        .unwrap()
        .with_persistence(&dir, PersistenceConfig::default())
        .unwrap();
        p.ingest(store.matched()[split..].to_vec()).unwrap();
        p.snapshot_now().unwrap();
    }

    let bootstrap = other_store.clone();
    let (recovered, report) = PersistentIngestor::recover(
        &other_net,
        &dir,
        cfg.clone(),
        RetentionConfig::default(),
        PersistenceConfig::default(),
        move || bootstrap,
    )
    .expect("recovery must degrade gracefully, never fail or panic");
    assert_eq!(report.outcome, RecoveryOutcome::Discarded);
    assert_eq!(report.corrupt_generations_skipped, 0);
    assert_eq!(recovered.epoch(), 0);
    assert_eq!(recovered.store().matched(), other_store.matched());
    let rebuilt = PathWeightFunction::instantiate(&other_net, &other_store, &cfg).unwrap();
    assert_eq!(recovered.weights().tables(), rebuilt.tables());
    assert_eq!(recovered.weights().stats(), rebuilt.stats());
    drop(recovered);
    fs::remove_dir_all(&dir).unwrap();
}

/// A state directory in the previous format version — a snapshot under
/// version byte 3 (header CRC valid) and a journal under the version-2
/// magic, whose rows still carried speeds — is not read: its generation counts as corrupt, its journal is
/// re-created empty, and recovery boots from the bootstrap store.
#[test]
fn a_previous_format_version_is_discarded() {
    let n_ops = 3;
    let fixture = build_fixture(31, n_ops);
    let dir = temp_dir("previous-version");
    // No mid-run snapshot: the epoch-0 base is the only generation.
    run_until_crash(&fixture, &dir, n_ops, &[]);
    let snapshot = latest_snapshot(&dir);
    let mut image = fs::read(&snapshot).unwrap();
    assert_eq!(image[..8], SNAPSHOT_MAGIC);
    image[7] = 3;
    let header_crc = crc32(&image[..20]);
    image[20..24].copy_from_slice(&header_crc.to_le_bytes());
    fs::write(&snapshot, image).unwrap();
    let journal = dir.join("journal.pcj");
    let mut bytes = fs::read(&journal).unwrap();
    assert_eq!(bytes[..8], JOURNAL_MAGIC);
    bytes[..8].copy_from_slice(b"PCJRNL\x00\x02");
    fs::write(&journal, bytes).unwrap();

    let (recovered, report) = recover(&fixture, &dir);
    assert_eq!(report.outcome, RecoveryOutcome::Discarded);
    assert_eq!(report.corrupt_generations_skipped, 1);
    assert_eq!(report.replayed_records, 0);
    assert_state("previous version", &recovered, &fixture, 0);
    drop(recovered);
    // The fresh lineage is written in the current format.
    assert_eq!(
        fs::read(latest_snapshot(&dir)).unwrap()[..8],
        SNAPSHOT_MAGIC
    );
    assert_eq!(fs::read(&journal).unwrap(), JOURNAL_MAGIC);
    fs::remove_dir_all(&dir).unwrap();
}
