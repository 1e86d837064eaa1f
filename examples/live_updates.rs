//! Ingest/retire churn while serving: live trajectory updates against a
//! serving engine.
//!
//! Builds the hybrid graph from 85% of a simulated dataset and serves a warm
//! query workload from one thread while the main thread ingests the
//! remaining trajectories in three batches through `pathcost-live`, then
//! TTL-retires the oldest slice of the store as a fourth epoch. Each update
//! publishes a new weight-function epoch into the engine
//! (`QueryEngine::apply_update`), which surgically evicts only the cache
//! entries that depended on the changed variables — including readers of
//! variables the retirement *deleted* (support dropped below β) — the
//! serving thread never stops, never observes a torn epoch, and keeps its
//! untouched warm entries.
//!
//! Unlike the other (fully seeded) examples, the *counters* printed here —
//! evictions per epoch, queries served — depend on how the serving thread
//! interleaves with the four updates, so they vary run to run. The
//! assertions only use scheduling-independent facts: four epochs applied,
//! at least the pre-thread warm set's readers of re-derived variables
//! evicted, trajectories retired, zero query errors. Answer *correctness*
//! across epochs, raced fills included, is pinned elsewhere
//! (`tests/live_equivalence.rs`).
//!
//! After the churn, a **restart leg** exercises crash-safe persistence: the
//! ingestor journals every epoch to a state directory, the engine and
//! ingestor are dropped (simulating a process exit), and
//! `PersistentIngestor::recover` replays the journal onto the base snapshot.
//! The recovered lineage must answer the whole warm workload identically to
//! the pre-restart engine and keep accepting updates.
//!
//! Run with: `cargo run --release --example live_updates`

use pathcost::core::{HybridConfig, HybridGraph, PathWeightFunction};
use pathcost::live::{LiveIngestor, PersistenceConfig, PersistentIngestor, RetentionConfig};
use pathcost::persist::RecoveryOutcome;
use pathcost::service::{QueryEngine, QueryOutcome, QueryRequest, QueryResponse, ServiceConfig};
use pathcost::traj::{DatasetPreset, MatchedTrajectory, Timestamp, TrajectoryStore};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let preset = DatasetPreset::tiny(2026);
    println!("materialising preset '{}' …", preset.name);
    let (net, full) = preset.materialise().expect("preset materialises");
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    let split = full.len() * 85 / 100;
    let base = TrajectoryStore::new(full.matched()[..split].to_vec());
    let fresh: Vec<MatchedTrajectory> = full.matched()[split..].to_vec();
    println!(
        "serving from {} trajectories; {} arriving live",
        base.len(),
        fresh.len()
    );

    let weights = PathWeightFunction::instantiate(&net, &base, &cfg).expect("instantiates");
    let engine = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, weights.clone(), cfg.clone())),
        ServiceConfig::default(),
    );
    // Journal every epoch to a state directory so the restart leg below can
    // recover the lineage after a simulated crash.
    let state_dir =
        std::env::temp_dir().join(format!("pathcost-live-updates-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let mut ingestor = LiveIngestor::from_instantiated(&net, base, weights, cfg.clone())
        .expect("config matches")
        .with_persistence(&state_dir, PersistenceConfig::default())
        .expect("state dir is writable");

    // The serving workload: every instantiated variable's own anchor (these
    // entries consume the variables the ingest will touch) plus a dead-hour
    // probe per path (fallback-backed survivors).
    let mut requests: Vec<QueryRequest> = Vec::new();
    for var in engine.graph().weights().variables().iter().take(24) {
        requests.push(QueryRequest::EstimateDistribution {
            path: var.path.clone(),
            departure: engine.canonical_departure(var.interval),
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        });
        requests.push(QueryRequest::EstimateDistribution {
            path: var.path.clone(),
            departure: Timestamp::from_day_hms(0, 3, 30, 0),
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        });
    }
    for request in &requests {
        engine.execute(request).expect("warm-up query succeeds");
    }
    println!("cache warmed: {} entries", engine.cache().len());

    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        // Serving thread: loops the warm workload until ingestion finishes.
        let serving = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                for request in &requests {
                    engine.execute(request).expect("serving query succeeds");
                    served.fetch_add(1, Ordering::Relaxed);
                }
            }
        });

        // Main thread: ingest the fresh trajectories in three batches.
        let chunk = fresh.len().div_ceil(3).max(1);
        for batch in fresh.chunks(chunk) {
            let ingest_start = Instant::now();
            let update = ingestor.ingest(batch.to_vec()).expect("ingest succeeds");
            let changed = update.changed();
            let dirty = update.dirty_keys;
            let report = engine.apply_update(update).expect("update applies");
            println!(
                "epoch {}: +{} trajectories, {} dirty keys → {} updated / {} added variables; \
                 evicted {}/{} cache entries ({} tracked, {} swept) in {:.2?}",
                report.epoch,
                batch.len(),
                dirty,
                report.variables_updated,
                report.variables_added,
                report.evicted_total(),
                report.cache_entries_before,
                report.evicted_tracked,
                report.evicted_swept,
                ingest_start.elapsed(),
            );
            assert!(changed >= report.variables_updated + report.variables_added);
        }

        // Fourth epoch, still under live traffic: the oldest ~35% of the
        // store hits its TTL. Variables losing their β support are deleted;
        // their readers are flushed, and so are the entries whose candidate
        // arrays could have selected them.
        let cutoff = ingestor
            .store()
            .start_time_at_percentile(35)
            .expect("store is non-empty");
        let retire_start = Instant::now();
        let update = ingestor.retire_before(cutoff).expect("retire succeeds");
        let retired = update.trajectories_retired;
        let report = engine.apply_update(update).expect("update applies");
        println!(
            "epoch {}: -{} trajectories (TTL) → {} updated / {} removed variables; \
             evicted {}/{} cache entries ({} tracked, {} swept) in {:.2?}",
            report.epoch,
            retired,
            report.variables_updated,
            report.variables_removed,
            report.evicted_total(),
            report.cache_entries_before,
            report.evicted_tracked,
            report.evicted_swept,
            retire_start.elapsed(),
        );
        assert!(retired > 0, "the TTL cut must retire trajectories");

        stop.store(true, Ordering::Relaxed);
        serving.join().expect("serving thread joins");
    });

    let stats = engine.stats();
    let (tracked, swept) = (
        metric(
            &engine,
            r#"pathcost_cache_invalidation_evictions_total{mode="tracked"}"#,
        ),
        metric(
            &engine,
            r#"pathcost_cache_invalidation_evictions_total{mode="swept"}"#,
        ),
    );
    println!(
        "\nserved {} queries in {:.2?} while ingesting (epoch now {})",
        served.load(Ordering::Relaxed),
        start.elapsed(),
        engine.epoch()
    );
    println!(
        "  cache: hit rate {:.1}%, {} LRU evictions, {} entries live",
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64 * 100.0,
        stats.cache_evictions,
        engine.cache().len()
    );
    println!(
        "  ingest: {} updates, {} trajectories in, {} retired, {} variables updated, {} added, {} removed",
        metric(&engine, "pathcost_ingest_updates_total"),
        metric(&engine, "pathcost_ingest_trajectories_total"),
        metric(&engine, "pathcost_ingest_trajectories_retired_total"),
        metric(&engine, r#"pathcost_ingest_variables_total{op="updated"}"#),
        metric(&engine, r#"pathcost_ingest_variables_total{op="added"}"#),
        metric(&engine, r#"pathcost_ingest_variables_total{op="removed"}"#)
    );
    println!(
        "  invalidation: {tracked} tracked evictions, {swept} footprint-swept ({} total)",
        tracked + swept
    );

    assert_eq!(
        metric(&engine, "pathcost_ingest_updates_total"),
        4,
        "three ingest batches plus one retirement were applied"
    );
    assert!(
        metric(&engine, "pathcost_ingest_trajectories_retired_total") > 0,
        "the TTL epoch retired data"
    );
    assert!(
        tracked + swept > 0,
        "updates touching served variables must evict their entries"
    );
    assert!(
        tracked > 0,
        "the served entries read variables the ingest re-derived"
    );
    assert_eq!(
        metric(&engine, "pathcost_query_errors_total"),
        0,
        "no query may fail across epochs"
    );
    println!(
        "\n✓ served continuously across {} live epochs (ingest + TTL retirement) with targeted invalidation",
        engine.epoch()
    );

    // ---- Restart leg: crash, recover, assert identical answers ------------
    // Capture the full warm workload's answers and the lineage position,
    // then drop the engine and ingestor as a process exit would.
    let reference: Vec<QueryOutcome> = requests
        .iter()
        .map(|request| engine.execute(request).expect("reference query succeeds"))
        .collect();
    let (epoch_before, rows_before) = (ingestor.epoch(), ingestor.store().len());
    drop(engine);
    drop(ingestor);

    let restart = Instant::now();
    let (recovered, report) = PersistentIngestor::recover(
        &net,
        &state_dir,
        cfg,
        RetentionConfig::default(),
        PersistenceConfig::default(),
        // Journal-only fallback: deterministically rebuild the base store.
        || TrajectoryStore::new(full.matched()[..split].to_vec()),
    )
    .expect("recovery succeeds");
    println!(
        "\nrestarted in {:.2?}: {} recovery from snapshot epoch {} + {} journal records",
        restart.elapsed(),
        report.outcome.as_str(),
        report.snapshot_epoch,
        report.replayed_records
    );
    assert_eq!(report.outcome, RecoveryOutcome::Warm, "state dir was live");
    assert_eq!(recovered.epoch(), epoch_before, "lineage resumes in place");
    assert_eq!(recovered.store().len(), rows_before, "store rows survive");

    // A fresh engine over the recovered weights must answer the whole warm
    // workload identically to the pre-restart engine.
    let engine = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(
            &net,
            recovered.weights().as_ref().clone(),
            recovered.config().clone(),
        )),
        ServiceConfig::default(),
    );
    engine.resume_epoch(recovered.epoch());
    for (request, expected) in requests.iter().zip(&reference) {
        let outcome = engine.execute(request).expect("recovered query succeeds");
        match (&outcome.response, &expected.response) {
            (QueryResponse::Distribution(a), QueryResponse::Distribution(b)) => {
                assert_eq!(a, b, "recovered answer diverged for {request:?}")
            }
            _ => panic!("unexpected response shape"),
        }
    }

    // The recovered lineage keeps accepting updates: a deeper TTL cut
    // publishes the next epoch and applies to the serving engine.
    let mut recovered = recovered;
    let cutoff = recovered
        .store()
        .start_time_at_percentile(20)
        .expect("store is non-empty");
    let update = recovered
        .retire_before(cutoff)
        .expect("post-restart retire");
    assert_eq!(update.epoch, epoch_before + 1);
    let report = engine.apply_update(update).expect("update applies");
    assert_eq!(engine.epoch(), epoch_before + 1);
    println!(
        "post-restart epoch {}: retirement applied ({} evicted)",
        report.epoch,
        report.evicted_total()
    );

    let _ = std::fs::remove_dir_all(&state_dir);
    println!(
        "\n✓ restart leg: {} warm workload answers identical after recovery; ingest continued to epoch {}",
        requests.len(),
        engine.epoch()
    );
}

/// One engine series as `GET /metrics` renders it, read by family name.
fn metric(engine: &QueryEngine<'_>, series: &str) -> u64 {
    engine
        .registry()
        .value(series)
        .unwrap_or_else(|| panic!("{series} is registered at construction")) as u64
}
