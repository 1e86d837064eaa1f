//! Live-ingest performance: update latency and eviction precision of the
//! `pathcost-live` → `QueryEngine::apply_update` data flow against the
//! full-rebuild / full-flush baseline (the PR 4 acceptance workload).
//!
//! Two criterion groups measure **update latency**:
//! `rederive_targeted` is the selective re-instantiation of exactly the
//! dirty variable keys; `rebuild_full` re-instantiates the whole weight
//! function over the merged store (what a serving process had to do before
//! this subsystem existed).
//!
//! A one-shot recovery section then measures what the cache strategy costs
//! the *serving* side after an update lands: two identically warmed engines
//! receive the same update — one through targeted invalidation, one through
//! a full flush — and re-serve the warm workload. Eviction counts (precision)
//! and first-pass latencies are printed; targeted invalidation is asserted
//! to evict a strict subset of the cache (the latency ratio is printed, not
//! asserted — wall-clock floors do not belong in CI).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathcost_bench::experiment::{experiment_config, Dataset, Scale};
use pathcost_core::{
    dirty_keys_by_regime, DayPartition, HybridConfig, HybridGraph, PathWeightFunction,
    RegimeVariableKey, WeightUpdate,
};
use pathcost_live::LiveIngestor;
use pathcost_roadnet::RoadNetwork;
use pathcost_service::{QueryEngine, QueryRequest, ServiceConfig};
use pathcost_traj::{DatasetPreset, MatchedTrajectory, Timestamp, TrajectoryStore};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Workload {
    net: RoadNetwork,
    cfg: HybridConfig,
    base: TrajectoryStore,
    batch: Vec<MatchedTrajectory>,
    merged: TrajectoryStore,
    base_weights: PathWeightFunction,
    dirty: BTreeSet<RegimeVariableKey>,
    /// The merged store after its oldest ~2% aged out (the TTL retirement
    /// workload), the weight function instantiated over `merged` (the
    /// pre-retirement epoch), and the removed windows' dirty keys.
    truncated: TrajectoryStore,
    merged_weights: PathWeightFunction,
    dirty_retire: BTreeSet<RegimeVariableKey>,
}

fn workload() -> Workload {
    let mut preset = DatasetPreset::aalborg_like(13);
    preset.network.rows = 10;
    preset.network.cols = 10;
    preset.simulation.trips = 2_000;
    let dataset = Dataset::build(&preset);
    let cfg = experiment_config(Scale::Quick);
    // 99% serves; the final 1% arrives as one live batch — the steady-state
    // shape of continuous ingestion, where each batch is small relative to
    // everything already learned.
    let split = dataset.store.len() * 99 / 100;
    let base = TrajectoryStore::new(dataset.store.matched()[..split].to_vec());
    let batch: Vec<MatchedTrajectory> = dataset.store.matched()[split..].to_vec();
    let mut merged = base.clone();
    merged.append(batch.clone());
    let base_weights =
        PathWeightFunction::instantiate(&dataset.net, &base, &cfg).expect("instantiates");
    let partition = DayPartition::new(cfg.alpha_minutes).expect("valid α");
    let dirty = dirty_keys_by_regime(&batch, &partition, cfg.max_rank, &cfg.regimes);
    // Retirement mirror of the ingest shape: the oldest ~2% of the merged
    // store hits its TTL as one retirement epoch.
    let cutoff = merged
        .start_time_at_percentile(2)
        .expect("merged store is non-empty");
    let mut truncated = merged.clone();
    let removed = truncated.retire_before(cutoff);
    assert!(!removed.is_empty(), "the TTL cut must retire something");
    let merged_weights =
        PathWeightFunction::instantiate(&dataset.net, &merged, &cfg).expect("instantiates");
    let dirty_retire = dirty_keys_by_regime(&removed, &partition, cfg.max_rank, &cfg.regimes);
    Workload {
        net: dataset.net,
        cfg,
        base,
        batch,
        merged,
        base_weights,
        dirty,
        truncated,
        merged_weights,
        dirty_retire,
    }
}

/// The warm serving workload: every instantiated variable's own anchor (its
/// estimate consumes the variable) plus a dead-hour probe (survivor entries).
fn probe_requests(engine: &QueryEngine<'_>, limit: usize) -> Vec<QueryRequest> {
    let graph = engine.graph();
    let mut requests = Vec::new();
    for var in graph.weights().variables().iter().take(limit) {
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
    requests
}

fn serve_all(engine: &QueryEngine<'_>, requests: &[QueryRequest]) -> Duration {
    let start = Instant::now();
    for request in requests {
        engine.execute(request).expect("query succeeds");
    }
    start.elapsed()
}

/// One recovery rep: warm an engine, land the update with the given cache
/// strategy, and time the first post-update pass over the warm workload.
/// Returns (evicted entries, cache size before, first-pass latency).
fn recovery_rep(w: &Workload, update: WeightUpdate, flush: bool) -> (u64, usize, Duration) {
    let engine = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(
            &w.net,
            w.base_weights.clone(),
            w.cfg.clone(),
        )),
        ServiceConfig::default(),
    );
    let requests = probe_requests(&engine, 48);
    serve_all(&engine, &requests); // warm
    let warmed = engine.cache().len();
    let (evicted, before) = if flush {
        let report = engine.apply_update(update).expect("update applies");
        let flushed = engine.cache().clear();
        (
            report.evicted_total() + flushed,
            report.cache_entries_before,
        )
    } else {
        let report = engine.apply_update(update).expect("update applies");
        (report.evicted_total(), report.cache_entries_before)
    };
    assert_eq!(before, warmed);
    (evicted, warmed, serve_all(&engine, &requests))
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn bench_live_ingest(c: &mut Criterion) {
    let w = workload();
    println!(
        "live_ingest workload: {} base + {} ingested trajectories, {} dirty keys, {} base variables",
        w.base.len(),
        w.batch.len(),
        w.dirty.len(),
        w.base_weights.stats().total_variables()
    );

    let mut group = c.benchmark_group("live_ingest");
    group.bench_with_input(BenchmarkId::new("rederive_targeted", "1pct"), &w, |b, w| {
        b.iter(|| {
            w.base_weights
                .rederive_regimes(&w.net, &w.merged, &w.cfg, &w.dirty)
                .expect("rederive succeeds")
        })
    });
    group.bench_with_input(BenchmarkId::new("rebuild_full", "merged"), &w, |b, w| {
        b.iter(|| PathWeightFunction::instantiate(&w.net, &w.merged, &w.cfg).expect("instantiates"))
    });

    // The offline step on its smallest fixture (the weight tests' golden
    // `tiny(21)`, β = 10): count → collect → fit through the fan-out, end to
    // end, so the bench smoke runs the fit kernel under instantiation too.
    let (tiny_net, tiny_store) = DatasetPreset::tiny(21)
        .materialise()
        .expect("the tiny preset materialises");
    let tiny_cfg = HybridConfig::default().with_beta(10);
    group.bench_function(BenchmarkId::new("instantiate", "tiny"), |b| {
        b.iter(|| {
            PathWeightFunction::instantiate(&tiny_net, &tiny_store, &tiny_cfg)
                .expect("instantiates")
        })
    });

    // Retirement (PR 5): re-deriving only the retired windows' keys — with
    // downward transitions deleting below-β variables — against rebuilding
    // the whole weight function over the truncated store.
    let retire_update = w
        .merged_weights
        .rederive_regimes(&w.net, &w.truncated, &w.cfg, &w.dirty_retire)
        .expect("rederive succeeds");
    let truncated_full =
        PathWeightFunction::instantiate(&w.net, &w.truncated, &w.cfg).expect("instantiates");
    assert_eq!(
        retire_update.weights.variables(),
        truncated_full.variables(),
        "retirement rederive must be bit-identical to the truncated rebuild"
    );
    assert_eq!(retire_update.weights.stats(), truncated_full.stats());
    println!(
        "retirement: {} trajectories aged out, {} dirty keys → {} updated / {} added / {} removed variables",
        w.merged.len() - w.truncated.len(),
        w.dirty_retire.len(),
        retire_update.updated.len(),
        retire_update.added.len(),
        retire_update.removed.len()
    );
    group.bench_with_input(BenchmarkId::new("retire_targeted", "2pct"), &w, |b, w| {
        b.iter(|| {
            w.merged_weights
                .rederive_regimes(&w.net, &w.truncated, &w.cfg, &w.dirty_retire)
                .expect("rederive succeeds")
        })
    });
    group.bench_with_input(
        BenchmarkId::new("rebuild_truncated", "post-ttl"),
        &w,
        |b, w| {
            b.iter(|| {
                PathWeightFunction::instantiate(&w.net, &w.truncated, &w.cfg).expect("instantiates")
            })
        },
    );
    group.finish();

    // Recovery: eviction precision and post-update warm-query latency,
    // targeted invalidation vs full flush, median of 5 reps each.
    let reps = 5;
    let mut ingestor = LiveIngestor::from_instantiated(
        &w.net,
        w.base.clone(),
        w.base_weights.clone(),
        w.cfg.clone(),
    )
    .expect("ingestor builds");
    let update = ingestor.ingest(w.batch.clone()).expect("ingest succeeds");
    println!(
        "ingest: {} variables updated, {} added ({} dirty keys examined)",
        update.updated.len(),
        update.added.len(),
        update.dirty_keys
    );

    let mut targeted_times = Vec::new();
    let mut flushed_times = Vec::new();
    let (mut targeted_evicted, mut cache_size) = (0, 0);
    for _ in 0..reps {
        let (evicted, warmed, latency) = recovery_rep(&w, update.clone(), false);
        targeted_evicted = evicted;
        cache_size = warmed;
        targeted_times.push(latency);
        let (flush_evicted, _, flush_latency) = recovery_rep(&w, update.clone(), true);
        assert_eq!(flush_evicted as usize, warmed, "a flush drops everything");
        flushed_times.push(flush_latency);
    }
    let targeted = median(targeted_times);
    let flushed = median(flushed_times);
    println!(
        "eviction precision: targeted {targeted_evicted}/{cache_size} entries vs full flush {cache_size}/{cache_size}"
    );
    println!(
        "post-update warm-pass latency: targeted {targeted:.2?} vs full flush {flushed:.2?} ({:.2}x)",
        flushed.as_secs_f64() / targeted.as_secs_f64().max(1e-12)
    );
    assert!(
        (targeted_evicted as usize) < cache_size,
        "targeted invalidation must evict a strict subset ({targeted_evicted}/{cache_size})"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_live_ingest
}
criterion_main!(benches);
