//! The live-update subsystem's correctness oracle: after **any** ingest or
//! retirement, an engine kept current through targeted invalidation
//! (`QueryEngine::apply_update`) must serve answers **bit-identical** to an
//! engine rebuilt from scratch over the current (merged or truncated)
//! trajectory store with a cold cache.
//!
//! Property-tested over dataset seeds, base/ingest split points, batch
//! counts, TTL cut points and retire-then-append interleavings. Every round
//! warms the live engine (so invalidation has real entries to evict —
//! including entries estimated before the update), applies the update, and
//! compares distributions for: the pre-update warm set, the post-update
//! variable set (covering newly added variables), and dead-hour
//! fallback-backed queries (covering survivors). Retirement rounds
//! additionally cover variables *deleted* because their support dropped
//! below β.
//!
//! Further tests cover what the oracle's sequential rounds cannot: fills
//! racing updates under LRU churn (no pre-update entry is retained), a
//! golden of the per-update eviction counts by mode, and entries the swept
//! rule's footprints spare though their path contains a changed key (each
//! answers like a rebuild).

use pathcost::core::{HybridConfig, HybridGraph, PathWeightFunction};
use pathcost::live::LiveIngestor;
use pathcost::service::{QueryEngine, QueryRequest, ServiceConfig};
use pathcost::traj::{
    tag_batch, MatchedTrajectory, PeakOffPeak, RegimeClassifier, RegimeId, RegimeSchema, Timestamp,
    TrajectoryStore,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Queries that pin down the weight function: each variable's own
/// `(path, interval)` anchor (its estimate consumes the variable) plus a
/// dead-hour departure per path (fallback-backed, should usually survive).
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
            departure: Timestamp::from_day_hms(0, 3, 0, 0),
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        });
    }
    requests
}

fn assert_equivalent(
    live: &QueryEngine<'_>,
    oracle: &QueryEngine<'_>,
    requests: &[QueryRequest],
    context: &str,
) {
    for request in requests {
        let a = live.execute(request).expect("live engine answers");
        let b = oracle.execute(request).expect("oracle engine answers");
        let (a, b) = (
            a.response.distribution().expect("distribution response"),
            b.response.distribution().expect("distribution response"),
        );
        assert_eq!(
            a, b,
            "{context}: targeted invalidation diverged from full rebuild for {request:?}"
        );
    }
}

fn check_update_equivalence(seed: u64, split_pct: usize, batches: usize) {
    let (net, full) = pathcost::traj::DatasetPreset::tiny(seed)
        .materialise()
        .unwrap();
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    let split = full.len() * split_pct / 100;
    let base = TrajectoryStore::new(full.matched()[..split].to_vec());
    let rest: Vec<MatchedTrajectory> = full.matched()[split..].to_vec();

    let weights = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
    let live = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, weights.clone(), cfg.clone())),
        ServiceConfig::default(),
    );
    let mut ingestor = LiveIngestor::from_instantiated(&net, base, weights, cfg.clone()).unwrap();

    let chunk = rest.len().div_ceil(batches).max(1);
    for batch in rest.chunks(chunk) {
        // Warm with the *current* epoch's probes, so the update must evict
        // stale entries (and only those) to stay correct.
        let warm = probe_requests(&live, 10);
        for request in &warm {
            live.execute(request).unwrap();
        }

        let update = ingestor.ingest(batch.to_vec()).unwrap();
        live.apply_update(update).unwrap();

        // Oracle: full rebuild over the merged store, cold cache.
        let oracle_weights = PathWeightFunction::instantiate(&net, ingestor.store(), &cfg).unwrap();
        let oracle = QueryEngine::new(
            Arc::new(HybridGraph::from_parts(&net, oracle_weights, cfg.clone())),
            ServiceConfig::default(),
        );

        let context = format!("seed {seed}, split {split_pct}%, epoch {}", live.epoch());
        assert_equivalent(&live, &oracle, &warm, &context);
        // Probes of the *new* epoch cover newly added variables too.
        assert_equivalent(&live, &oracle, &probe_requests(&oracle, 10), &context);
    }
    assert_eq!(live.epoch(), ingestor.epoch());
}

/// The TTL cut point that retires roughly `pct`% of the current store.
fn ttl_cutoff(store: &TrajectoryStore, pct: usize) -> Timestamp {
    store
        .start_time_at_percentile(pct)
        .expect("store is non-empty")
}

/// The retention oracle: a warm engine taken through retire and append
/// epochs (in either order, controlled by `retire_first`) answers
/// bit-identically to a full rebuild over the truncated/merged store with a
/// flushed (cold) cache after every epoch. Returns the total number of
/// variables the retirement deleted, so callers can assert the downward
/// transition was actually exercised.
fn check_retention_equivalence(seed: u64, ttl_pct: usize, retire_first: bool) -> usize {
    let (net, full) = pathcost::traj::DatasetPreset::tiny(seed)
        .materialise()
        .unwrap();
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    let split = full.len() * 80 / 100;
    let base = TrajectoryStore::new(full.matched()[..split].to_vec());
    let rest: Vec<MatchedTrajectory> = full.matched()[split..].to_vec();

    let weights = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
    let live = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, weights.clone(), cfg.clone())),
        ServiceConfig::default(),
    );
    let mut ingestor = LiveIngestor::from_instantiated(&net, base, weights, cfg.clone()).unwrap();

    let mut removed_total = 0;
    for step in 0..2 {
        // Warm with the *current* epoch's probes, so the update must evict
        // stale entries (and only those) to stay correct.
        let warm = probe_requests(&live, 10);
        for request in &warm {
            live.execute(request).unwrap();
        }

        let retire_now = (step == 0) == retire_first;
        let update = if retire_now {
            let cutoff = ttl_cutoff(ingestor.store(), ttl_pct);
            let update = ingestor.retire_before(cutoff).unwrap();
            assert!(update.trajectories_retired > 0, "cut point retires data");
            removed_total += update.removed.len();
            update
        } else {
            ingestor.ingest(rest.clone()).unwrap()
        };
        live.apply_update(update).unwrap();

        // Oracle: full rebuild over the current store, cold cache.
        let oracle_weights = PathWeightFunction::instantiate(&net, ingestor.store(), &cfg).unwrap();
        let oracle = QueryEngine::new(
            Arc::new(HybridGraph::from_parts(&net, oracle_weights, cfg.clone())),
            ServiceConfig::default(),
        );

        let context = format!(
            "seed {seed}, ttl {ttl_pct}%, retire_first {retire_first}, epoch {}",
            live.epoch()
        );
        assert_equivalent(&live, &oracle, &warm, &context);
        // Probes of the *new* epoch cover added variables — and, after a
        // retirement, paths whose variable was deleted and must now be
        // estimated from shorter sub-paths or fallbacks.
        assert_equivalent(&live, &oracle, &probe_requests(&oracle, 10), &context);
    }
    assert_eq!(live.epoch(), ingestor.epoch());
    removed_total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn targeted_invalidation_serves_rebuild_identical_answers(
        seed in 400u64..432,
        split_pct in 60usize..95,
        batches in 1usize..4,
    ) {
        check_update_equivalence(seed, split_pct, batches);
    }

    #[test]
    fn retirement_serves_truncated_rebuild_identical_answers(
        seed in 400u64..432,
        ttl_pct in 20usize..70,
        retire_first in 0usize..2,
    ) {
        check_retention_equivalence(seed, ttl_pct, retire_first == 1);
    }
}

/// A deterministic instance of the property, so the oracle is exercised even
/// when the proptest shim's sampling changes.
#[test]
fn targeted_invalidation_equivalence_fixed_case() {
    check_update_equivalence(407, 80, 2);
}

/// Deterministic retention instances covering both interleavings; the heavy
/// cut must actually delete below-β variables, or the downward-transition
/// path silently stops being exercised.
#[test]
fn retirement_equivalence_fixed_cases() {
    let removed = check_retention_equivalence(407, 60, true);
    assert!(
        removed > 0,
        "a 60% TTL cut on the tiny preset must drop variables below β"
    );
    check_retention_equivalence(411, 35, false);
}

/// The `(path, departure)` a probe asks about.
fn probe_parts(request: &QueryRequest) -> (&pathcost::roadnet::Path, Timestamp) {
    match request {
        QueryRequest::EstimateDistribution {
            path, departure, ..
        } => (path, *departure),
        other => unreachable!("probes are distribution queries, got {other:?}"),
    }
}

/// The histogram's bucket bounds and probabilities as raw bits.
fn bits(histogram: &pathcost::hist::Histogram1D) -> Vec<[u64; 3]> {
    histogram
        .buckets()
        .iter()
        .zip(histogram.probs())
        .map(|(b, &p)| [b.lo, b.hi, p].map(f64::to_bits))
        .collect()
}

/// Raced fills: reader threads cycle a wide probe set through a 12-entry
/// cache (steady LRU churn, so a fill is in flight at every instant) while
/// the main thread publishes ingest and TTL-retire epochs. A fill that
/// estimated against a pre-update snapshot may hand its caller that answer,
/// but the cache may not *retain* it. Checked twice: after every update the
/// readers are held at a gate (their in-flight fills land first) and each
/// entry the race left cached must be bit-equal to a cold engine built from
/// the current store; and once the readers have joined, so must every probe
/// the live engine answers.
#[test]
fn raced_fills_never_retain_a_pre_update_entry() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (net, full) = pathcost::traj::DatasetPreset::tiny(509)
        .with_trip_factor(3.0)
        .materialise()
        .unwrap();
    let cfg = HybridConfig {
        beta: 6,
        ..HybridConfig::default()
    };
    let split = full.len() * 80 / 100;
    let base = TrajectoryStore::new(full.matched()[..split].to_vec());
    let rest: Vec<MatchedTrajectory> = full.matched()[split..].to_vec();

    let weights = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
    let live = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, weights.clone(), cfg.clone())),
        ServiceConfig {
            cache_shards: 2,
            shard_capacity: 6,
            ..ServiceConfig::default()
        },
    );
    let mut ingestor = LiveIngestor::from_instantiated(&net, base, weights, cfg.clone()).unwrap();
    let probes = probe_requests(&live, 16);
    let cold_rebuild = |store: &TrajectoryStore| {
        let weights = PathWeightFunction::instantiate(&net, store, &cfg).unwrap();
        QueryEngine::new(
            Arc::new(HybridGraph::from_parts(&net, weights, cfg.clone())),
            ServiceConfig::default(),
        )
    };

    let stop = AtomicBool::new(false);
    // Readers hold the gate shared for the length of one query; the main
    // thread takes it exclusively to look at a quiescent cache.
    let gate = std::sync::RwLock::new(());
    let mut retired = 0;
    std::thread::scope(|scope| {
        for reader in 0..2 {
            let (live, probes, stop, gate) = (&live, &probes, &stop, &gate);
            scope.spawn(move || {
                // The readers walk the probe set from opposite ends, so they
                // also race each other's fills of the same keys.
                let mut order: Vec<&QueryRequest> = probes.iter().collect();
                if reader == 1 {
                    order.reverse();
                }
                for request in order.iter().cycle() {
                    let _serving = gate.read().unwrap();
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    live.execute(request).expect("serving query succeeds");
                }
            });
        }
        let chunk = rest.len().div_ceil(4).max(1);
        let mut batches = rest.chunks(chunk);
        for round in 0..8 {
            let update = if round % 2 == 0 {
                let batch = batches.next().expect("four ingest rounds");
                ingestor.ingest(batch.to_vec()).unwrap()
            } else {
                ingestor
                    .retire_before(ttl_cutoff(ingestor.store(), 4))
                    .unwrap()
            };
            retired += update.trajectories_retired;
            live.apply_update(update).unwrap();

            let _quiescent = gate.write().unwrap();
            let oracle = cold_rebuild(ingestor.store());
            for request in &probes {
                let (path, departure) = probe_parts(request);
                let interval = live.interval_of(departure);
                if let Some(cached) = live.cache().get(path, interval, RegimeId::ALL_TRAFFIC) {
                    assert_eq!(
                        bits(&cached.histogram),
                        bits(&estimate(&oracle, request)),
                        "epoch {}: the cache retained a pre-update entry for {request:?}",
                        live.epoch()
                    );
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(live.epoch(), 8);
    assert!(retired > 0, "the churn must both append and retire");
    assert!(
        live.stats().cache_evictions > 0,
        "the readers must have churned the LRU"
    );

    let oracle = cold_rebuild(ingestor.store());
    for request in probes.iter().chain(&probe_requests(&oracle, 16)) {
        assert_eq!(
            bits(&estimate(&live, request)),
            bits(&estimate(&oracle, request)),
            "a pre-update entry outlived the updates: {request:?}"
        );
    }
}

/// Per-update `(evicted_tracked, evicted_swept, cache_entries_after)` of a
/// single-threaded lineage: three ingest epochs alternating with three
/// TTL-retire epochs, the engine re-warmed with the current epoch's probes
/// (at each of `regimes`) before every update.
fn invalidation_trace(
    net: &pathcost::roadnet::RoadNetwork,
    full: &TrajectoryStore,
    cfg: &HybridConfig,
    service: ServiceConfig,
    regimes: &[RegimeId],
) -> Vec<(u64, u64, usize)> {
    let split = full.len() * 88 / 100;
    let base = TrajectoryStore::new(full.matched()[..split].to_vec());
    let rest: Vec<MatchedTrajectory> = full.matched()[split..].to_vec();
    let weights = PathWeightFunction::instantiate(net, &base, cfg).unwrap();
    let live = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(net, weights.clone(), cfg.clone())),
        service,
    );
    let mut ingestor = LiveIngestor::from_instantiated(net, base, weights, cfg.clone()).unwrap();
    let chunk = rest.len().div_ceil(3).max(1);
    let mut batches = rest.chunks(chunk);
    let mut trace = Vec::new();
    for round in 0..6 {
        // Whole trips ride along with the variable probes: long paths that
        // contain many variables, so the footprint rule has work to do.
        let trips = full
            .matched()
            .iter()
            .step_by(17)
            .map(|m| QueryRequest::EstimateDistribution {
                path: m.path.clone(),
                departure: m.entry_times[0],
                regime: RegimeId::ALL_TRAFFIC,
            });
        for request in probe_requests(&live, 40).into_iter().chain(trips) {
            let (path, departure) = probe_parts(&request);
            for &regime in regimes {
                live.execute(&QueryRequest::EstimateDistribution {
                    path: path.clone(),
                    departure,
                    regime,
                })
                .unwrap();
            }
        }
        let update = if round % 2 == 0 {
            let batch = batches.next().expect("three ingest rounds");
            ingestor.ingest(batch.to_vec()).unwrap()
        } else {
            ingestor
                .retire_before(ttl_cutoff(ingestor.store(), 4))
                .unwrap()
        };
        let report = live.apply_update(update).unwrap();
        trace.push((
            report.evicted_tracked,
            report.evicted_swept,
            report.cache_entries_after,
        ));
    }
    trace
}

/// Invalidation golden: which entries an update evicts, and under which
/// mode it counts them — over an untagged lineage with a roomy cache, the
/// same lineage under steady LRU pressure, and a regime-tagged lineage
/// queried at every regime of its schema. The swept counts are the
/// footprint rule's: an entry whose path merely contains an added or
/// removed key, at an interval its footprints do not admit, stays.
#[test]
fn invalidation_counts_match_the_golden_sequence() {
    let (net, full) = pathcost::traj::DatasetPreset::tiny(509)
        .with_trip_factor(3.0)
        .materialise()
        .unwrap();
    let cfg = HybridConfig {
        beta: 6,
        ..HybridConfig::default()
    };
    let global = [RegimeId::ALL_TRAFFIC];
    assert_eq!(
        invalidation_trace(&net, &full, &cfg, ServiceConfig::default(), &global),
        GOLDEN_ROOMY,
    );
    let tight = ServiceConfig {
        cache_shards: 4,
        shard_capacity: 8,
        ..ServiceConfig::default()
    };
    assert_eq!(
        invalidation_trace(&net, &full, &cfg, tight, &global),
        GOLDEN_TIGHT,
    );
    let (net, tagged, cfg) = tagged_fixture(401, 4);
    let every_regime = [RegimeId::ALL_TRAFFIC, RegimeId(1), RegimeId(2), RegimeId(3)];
    assert_eq!(
        invalidation_trace(&net, &tagged, &cfg, ServiceConfig::default(), &every_regime),
        GOLDEN_REGIMES,
    );
}

const GOLDEN_ROOMY: [(u64, u64, usize); 6] = [
    (22, 3, 54),
    (22, 0, 57),
    (35, 0, 44),
    (19, 0, 63),
    (27, 0, 54),
    (28, 0, 53),
];
/// 4 shards × 8 entries: 385 LRU evictions interleave with the updates.
const GOLDEN_TIGHT: [(u64, u64, usize); 6] = [
    (7, 1, 24),
    (6, 0, 26),
    (13, 0, 19),
    (8, 0, 24),
    (8, 0, 24),
    (11, 0, 21),
];
const GOLDEN_REGIMES: [(u64, u64, usize); 6] = [
    (56, 0, 216),
    (76, 0, 196),
    (68, 4, 200),
    (64, 0, 212),
    (148, 0, 124),
    (12, 0, 288),
];

/// The footprint rule against the oracle: over the golden's roomy lineage
/// (ingest and TTL-retire epochs, whole trips warmed beside the variable
/// probes), some entries whose path contains an added or removed key — each
/// of which a rule matching the key at any interval would have evicted —
/// survive because no occurrence's footprint admits the key's interval, and
/// every one of them answers bit-identically to a cold rebuild, as the cache
/// holds it and as the engine serves it.
#[test]
fn entries_spared_by_their_footprints_answer_like_a_rebuild() {
    let (net, full) = pathcost::traj::DatasetPreset::tiny(509)
        .with_trip_factor(3.0)
        .materialise()
        .unwrap();
    let cfg = HybridConfig {
        beta: 6,
        ..HybridConfig::default()
    };
    let split = full.len() * 88 / 100;
    let base = TrajectoryStore::new(full.matched()[..split].to_vec());
    let rest: Vec<MatchedTrajectory> = full.matched()[split..].to_vec();
    let weights = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
    let live = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, weights.clone(), cfg.clone())),
        ServiceConfig::default(),
    );
    let mut ingestor = LiveIngestor::from_instantiated(&net, base, weights, cfg.clone()).unwrap();
    let mut batches = rest.chunks(rest.len().div_ceil(3).max(1));
    let mut spared_total = 0;
    for round in 0..4 {
        let trips = full
            .matched()
            .iter()
            .step_by(17)
            .map(|m| QueryRequest::EstimateDistribution {
                path: m.path.clone(),
                departure: m.entry_times[0],
                regime: RegimeId::ALL_TRAFFIC,
            });
        let warm: Vec<QueryRequest> = probe_requests(&live, 40).into_iter().chain(trips).collect();
        for request in &warm {
            live.execute(request).unwrap();
        }
        let update = if round % 2 == 0 {
            ingestor.ingest(batches.next().unwrap().to_vec()).unwrap()
        } else {
            ingestor
                .retire_before(ttl_cutoff(ingestor.store(), 4))
                .unwrap()
        };
        let containing: Vec<&QueryRequest> = warm
            .iter()
            .filter(|request| {
                let (path, _) = probe_parts(request);
                update
                    .added
                    .iter()
                    .chain(&update.removed)
                    .any(|(key, _, _)| key.is_subpath_of(path))
            })
            .collect();
        live.apply_update(update).unwrap();

        let oracle_weights = PathWeightFunction::instantiate(&net, ingestor.store(), &cfg).unwrap();
        let oracle = QueryEngine::new(
            Arc::new(HybridGraph::from_parts(&net, oracle_weights, cfg.clone())),
            ServiceConfig::default(),
        );
        for request in containing {
            let (path, departure) = probe_parts(request);
            let interval = live.interval_of(departure);
            let Some(cached) = live.cache().get(path, interval, RegimeId::ALL_TRAFFIC) else {
                continue;
            };
            spared_total += 1;
            let rebuilt = bits(&estimate(&oracle, request));
            assert_eq!(
                bits(&cached.histogram),
                rebuilt,
                "round {round}: {request:?}"
            );
            assert_eq!(bits(&estimate(&live, request)), rebuilt, "round {round}");
        }
        assert_equivalent(&live, &oracle, &warm, &format!("round {round}"));
    }
    assert!(
        spared_total > 0,
        "some entry containing an added or removed key must survive its update"
    );
}

// ---------------------------------------------------------------------------
// Regime-keyed weight variables: fallback-ladder oracle, global bit-identity
// and strict-subset invalidation (see REGIMES.md).
// ---------------------------------------------------------------------------

/// The regime schema used by the regime tests: two top-level regimes (peak =
/// 1, off-peak = 2) plus a declared-but-dataless sub-regime 3 grouped under
/// peak, giving a depth-2 fallback ladder `3 → 1 → 0`.
fn regime_schema() -> RegimeSchema {
    RegimeSchema::flat()
        .with_group(RegimeId(1), RegimeId::ALL_TRAFFIC)
        .with_group(RegimeId(2), RegimeId::ALL_TRAFFIC)
        .with_group(RegimeId(3), RegimeId(1))
}

/// A tagged fixture: the tiny preset's trajectories classified peak/off-peak
/// under [`regime_schema`], plus the same store untagged for bit-identity
/// comparisons.
fn tagged_fixture(
    seed: u64,
    beta: usize,
) -> (
    pathcost::roadnet::RoadNetwork,
    TrajectoryStore,
    HybridConfig,
) {
    let (net, store) = pathcost::traj::DatasetPreset::tiny(seed)
        .materialise()
        .unwrap();
    let mut matched = store.matched().to_vec();
    tag_batch(
        &mut matched,
        &PeakOffPeak {
            peak: RegimeId(1),
            off_peak: RegimeId(2),
            ..PeakOffPeak::default()
        },
    );
    let cfg = HybridConfig {
        beta,
        regimes: regime_schema(),
        ..HybridConfig::default()
    };
    (net, TrajectoryStore::new(matched), cfg)
}

fn estimate(engine: &QueryEngine<'_>, request: &QueryRequest) -> pathcost::hist::Histogram1D {
    engine
        .execute(request)
        .expect("engine answers")
        .response
        .distribution()
        .expect("distribution response")
        .clone()
}

/// The hierarchical-fallback oracle: a regime with no own data answers
/// bit-identically to its fallback ancestor. Sub-regime 3 has no tagged
/// trajectories, so every query at regime 3 must resolve through peak's
/// (regime 1's) table — identical histograms, deeper reported fallback. An
/// *undeclared* regime falls all the way to the global function.
#[test]
fn sparse_regime_answers_are_bit_identical_to_their_fallback_ancestor() {
    let (net, store, cfg) = tagged_fixture(407, 10);
    let weights = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
    assert!(
        weights.tables().contains_key(&RegimeId(1)),
        "the peak regime must clear β somewhere for the oracle to be non-trivial"
    );
    let engine = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, weights, cfg)),
        ServiceConfig::default(),
    );
    let graph = engine.graph();
    let mut fallback_depth_seen = 0usize;
    for var in graph.weights().variables().iter().take(12) {
        let at = |regime: RegimeId| QueryRequest::EstimateDistribution {
            path: var.path.clone(),
            departure: engine.canonical_departure(var.interval),
            regime,
        };
        // Dataless sub-regime ≡ its group, bit-identical.
        assert_eq!(
            estimate(&engine, &at(RegimeId(3))),
            estimate(&engine, &at(RegimeId(1))),
            "regime 3 (no data) must resolve through regime 1's table"
        );
        // Undeclared regime ≡ global, bit-identical.
        assert_eq!(
            estimate(&engine, &at(RegimeId(9))),
            estimate(&engine, &at(RegimeId::ALL_TRAFFIC)),
            "an unknown regime must fall back to the global function"
        );
        let outcome = engine.execute(&at(RegimeId(3))).unwrap();
        fallback_depth_seen = fallback_depth_seen.max(outcome.stats.max_fallback_depth);
    }
    assert!(
        fallback_depth_seen > 0,
        "regime-3 estimates must report a non-zero fallback depth"
    );
}

/// The default-regime acceptance gate: with every request at
/// [`RegimeId::ALL_TRAFFIC`], a regime-tagged store answers bit-identically
/// to the untagged store — tagging adds per-regime tables *besides* the
/// global one, it never perturbs it. Cache keys are likewise unchanged
/// (`mix_regime` is the identity at regime 0), pinned here through identical
/// hit/miss accounting on a replayed probe set.
#[test]
fn global_regime_queries_are_bit_identical_to_an_untagged_store() {
    let (net, tagged_store, cfg) = tagged_fixture(411, 10);
    let untagged = TrajectoryStore::new(
        tagged_store
            .matched()
            .iter()
            .map(|m| m.clone().with_regime(RegimeId::ALL_TRAFFIC))
            .collect(),
    );
    let plain_cfg = HybridConfig {
        regimes: RegimeSchema::flat(),
        ..cfg.clone()
    };
    let tagged_weights = PathWeightFunction::instantiate(&net, &tagged_store, &cfg).unwrap();
    let plain_weights = PathWeightFunction::instantiate(&net, &untagged, &plain_cfg).unwrap();
    assert_eq!(
        tagged_weights.variables(),
        plain_weights.variables(),
        "the global variable table must be independent of regime tags"
    );
    let tagged_engine = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, tagged_weights, cfg)),
        ServiceConfig::default(),
    );
    let plain_engine = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, plain_weights, plain_cfg)),
        ServiceConfig::default(),
    );
    let probes = probe_requests(&plain_engine, 12);
    for _pass in 0..2 {
        for request in &probes {
            let a = tagged_engine.execute(request).unwrap();
            let b = plain_engine.execute(request).unwrap();
            assert_eq!(
                a.response.distribution(),
                b.response.distribution(),
                "global-regime answers must be bit-identical to the untagged store"
            );
        }
    }
    let (a, b) = (tagged_engine.stats(), plain_engine.stats());
    assert_eq!(a.cache_hits, b.cache_hits, "identical cache keying");
    assert_eq!(a.cache_misses, b.cache_misses, "identical cache keying");
    assert_eq!(tagged_engine.cache().len(), plain_engine.cache().len());
}

/// Tags everything with one fixed regime — the ingest side of the
/// strict-subset invalidation test.
struct Always(RegimeId);
impl RegimeClassifier for Always {
    fn classify(&self, _m: &MatchedTrajectory) -> RegimeId {
        self.0
    }
}

/// Regime-tagged ingest invalidates a strict subset: peak-tagged arrivals
/// touch the peak and global tables only, so off-peak readers whose
/// variables resolved from off-peak's *own* table keep their cache entries,
/// while global readers of the updated keys are evicted. Equivalence against
/// a full rebuild at every regime guards the survivors' correctness.
#[test]
fn regime_tagged_ingest_invalidates_a_strict_subset_of_readers() {
    // β = 4: the tiny preset's off-peak traffic is sparse, and the test
    // needs off-peak *own-table* unit variables to warm readers against.
    let (net, full, cfg) = tagged_fixture(401, 4);
    let split = full.len() * 70 / 100;
    let base = TrajectoryStore::new(full.matched()[..split].to_vec());
    let rest: Vec<MatchedTrajectory> = full.matched()[split..].to_vec();

    let weights = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
    let off_peak_units: Vec<_> = weights
        .tables()
        .get(&RegimeId(2))
        .expect("off-peak data must clear β somewhere")
        .iter()
        .filter(|v| v.path.edges().len() == 1)
        .map(|v| (v.path.clone(), v.interval))
        .collect();
    assert!(
        !off_peak_units.is_empty(),
        "need unit variables in the off-peak own table"
    );
    let live = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, weights.clone(), cfg.clone())),
        ServiceConfig::default(),
    );
    let mut ingestor = LiveIngestor::from_instantiated(&net, base, weights, cfg.clone())
        .unwrap()
        .with_classifier(Arc::new(Always(RegimeId(1))));

    // Warm each candidate key at the off-peak regime and globally.
    for (path, interval) in &off_peak_units {
        for regime in [RegimeId(2), RegimeId::ALL_TRAFFIC] {
            live.execute(&QueryRequest::EstimateDistribution {
                path: path.clone(),
                departure: live.canonical_departure(*interval),
                regime,
            })
            .unwrap();
        }
    }

    let update = ingestor.ingest(rest).unwrap();
    assert!(
        update.changed() > 0,
        "the peak-tagged batch must change variables"
    );
    assert!(
        update
            .updated
            .iter()
            .chain(&update.added)
            .chain(&update.removed)
            .all(|(_, _, regime)| *regime != RegimeId(2)),
        "peak-tagged arrivals must never touch the off-peak table"
    );
    // Keys safe to assert survival on: global update only, and no key added
    // or removed inside their path at any interval (a superset of what the
    // footprint rule sweeps).
    let swept = |path: &pathcost::roadnet::Path| {
        update
            .added
            .iter()
            .chain(&update.removed)
            .any(|(p, _, _)| p.is_subpath_of(path))
    };
    let survivors: Vec<_> = off_peak_units
        .iter()
        .filter(|(path, interval)| {
            !swept(path)
                && update
                    .updated
                    .iter()
                    .any(|(p, iv, r)| p == path && iv == interval && r.is_global())
        })
        .cloned()
        .collect();
    live.apply_update(update).unwrap();

    assert!(
        !survivors.is_empty(),
        "at least one warmed off-peak unit must see a global-table update"
    );
    for (path, interval) in &survivors {
        assert!(
            live.cache().get(path, *interval, RegimeId(2)).is_some(),
            "the off-peak reader resolved from its own table and must survive"
        );
        assert!(
            live.cache()
                .get(path, *interval, RegimeId::ALL_TRAFFIC)
                .is_none(),
            "the global reader of an updated key must be evicted"
        );
    }

    // Survivors must still be *correct*: every regime's answers equal a full
    // rebuild over the merged tagged store with a cold cache.
    let oracle_weights = PathWeightFunction::instantiate(&net, ingestor.store(), &cfg).unwrap();
    let oracle = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, oracle_weights, cfg)),
        ServiceConfig::default(),
    );
    for (path, interval) in &off_peak_units {
        for regime in [RegimeId::ALL_TRAFFIC, RegimeId(1), RegimeId(2), RegimeId(3)] {
            let request = QueryRequest::EstimateDistribution {
                path: path.clone(),
                departure: live.canonical_departure(*interval),
                regime,
            };
            assert_eq!(
                estimate(&live, &request),
                estimate(&oracle, &request),
                "post-update answers at regime {} must match a full rebuild",
                regime.0
            );
        }
    }
}

/// A regime's first table changes which view answers it: before the ingest
/// an undeclared regime 7 is answered by the root, one rung down its ladder
/// `7 → 0`; after a batch tagged 7 it has a view of its own, and an answer
/// that read no trajectory variable — a dead-hour probe, built from speed
/// limits alone — reports depth 0. The cached answers must follow, on the
/// hit as on a rebuild's miss.
#[test]
fn a_regime_whose_first_table_appears_reports_its_own_view_depth() {
    let (net, full, cfg) = tagged_fixture(401, 4);
    let split = full.len() * 70 / 100;
    let base = TrajectoryStore::new(full.matched()[..split].to_vec());
    let rest: Vec<MatchedTrajectory> = full.matched()[split..].to_vec();
    let weights = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
    let live = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, weights.clone(), cfg.clone())),
        ServiceConfig::default(),
    );
    let mut ingestor = LiveIngestor::from_instantiated(&net, base, weights, cfg.clone())
        .unwrap()
        .with_classifier(Arc::new(Always(RegimeId(7))));
    let probes: Vec<QueryRequest> = full
        .matched()
        .iter()
        .step_by(5)
        .map(|m| QueryRequest::EstimateDistribution {
            path: m.path.clone(),
            departure: Timestamp::from_day_hms(0, 3, 0, 0),
            regime: RegimeId(7),
        })
        .collect();
    for request in &probes {
        let stats = live.execute(request).unwrap().stats;
        assert_eq!(stats.max_fallback_depth, 1, "the root answers regime 7");
    }
    let update = ingestor.ingest(rest).unwrap();
    assert!(
        update
            .added
            .iter()
            .any(|(_, _, table)| *table == RegimeId(7)),
        "the batch must give regime 7 a table"
    );
    live.apply_update(update).unwrap();

    let oracle_weights = PathWeightFunction::instantiate(&net, ingestor.store(), &cfg).unwrap();
    let oracle = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, oracle_weights, cfg)),
        ServiceConfig::default(),
    );
    for request in &probes {
        let (a, b) = (
            live.execute(request).unwrap(),
            oracle.execute(request).unwrap(),
        );
        assert_eq!(a.response.distribution(), b.response.distribution());
        assert_eq!(
            b.stats.max_fallback_depth, 0,
            "regime 7 has a view of its own"
        );
        assert_eq!(a.stats.max_fallback_depth, 0, "{request:?}");
    }
}

// ---------------------------------------------------------------------------
// Regime golden: every view and every reported fallback depth, pinned.
// ---------------------------------------------------------------------------

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What a query under `regime` resolves against: each variable of the view
/// the regime reads with the table it came from and that table's position
/// on the regime's fallback ladder.
fn view_rows(
    weights: &PathWeightFunction,
    regime: RegimeId,
) -> Vec<(&pathcost::core::InstantiatedVariable, RegimeId, usize)> {
    let view = weights.view(regime);
    let ladder = weights.regime_schema().ladder(regime);
    let rows = view.variables().iter().enumerate().map(|(i, v)| {
        let source = view.source(i);
        let depth = ladder.iter().position(|rung| *rung == source);
        (&**v, source, depth.expect("a source is on the ladder"))
    });
    rows.collect()
}

/// The regimes the golden asks under: the root, the two observed regimes,
/// the declared-but-dataless sub-regime and an undeclared one.
const GOLDEN_REGIME_SET: [RegimeId; 5] = [
    RegimeId::ALL_TRAFFIC,
    RegimeId(1),
    RegimeId(2),
    RegimeId(3),
    RegimeId(9),
];

/// One stage of the regime golden: `(views digest, answers digest,
/// accounting digest, lookups by reported fallback depth 0 / 1 / 2)`. The
/// views digest covers every view row (key, histogram bits, source table,
/// ladder depth). Every probe is asked at every regime twice — as the update
/// left the cache, then as a certain hit; the answers digest covers each
/// answer's bits and `max_fallback_depth`, the accounting digest its
/// hit/miss tallies. They are kept apart so that a change to which entries
/// an update evicts shows in the accounting alone.
fn regime_stage(live: &QueryEngine<'_>) -> (u64, u64, u64, [u64; 3]) {
    let graph = live.graph();
    let weights = graph.weights();
    let mut views = Fnv::new();
    for regime in GOLDEN_REGIME_SET {
        let rows = view_rows(weights, regime);
        views.eat(u64::from(regime.0));
        views.eat(rows.len() as u64);
        for (v, source, depth) in rows {
            views.eat(v.path.cardinality() as u64);
            v.path
                .edges()
                .iter()
                .for_each(|e| views.eat(u64::from(e.0)));
            views.eat(u64::from(v.interval.0));
            for axis in v.histogram.axes() {
                views.eat(axis.len() as u64);
                for b in axis {
                    views.eat(b.lo.to_bits());
                    views.eat(b.hi.to_bits());
                }
            }
            views.eat(v.histogram.cell_count() as u64);
            for (key, p) in v.histogram.cells() {
                key.iter().for_each(|&i| views.eat(u64::from(i)));
                views.eat(p.to_bits());
            }
            views.eat(u64::from(source.0));
            views.eat(depth as u64);
        }
    }

    let mut answers = Fnv::new();
    let mut accounting = Fnv::new();
    let mut by_depth = [0u64; 3];
    for request in probe_requests(live, usize::MAX) {
        let (path, departure) = probe_parts(&request);
        for regime in GOLDEN_REGIME_SET {
            let request = QueryRequest::EstimateDistribution {
                path: path.clone(),
                departure,
                regime,
            };
            for _ask in 0..2 {
                let outcome = live.execute(&request).expect("engine answers");
                let histogram = outcome.response.distribution().expect("distribution");
                for [lo, hi, p] in bits(histogram) {
                    answers.eat(lo);
                    answers.eat(hi);
                    answers.eat(p);
                }
                answers.eat(outcome.stats.max_fallback_depth as u64);
                accounting.eat(outcome.stats.cache_hits);
                accounting.eat(outcome.stats.cache_misses);
                by_depth[outcome.stats.max_fallback_depth] += 1;
            }
        }
    }
    (views.0, answers.0, accounting.0, by_depth)
}

/// Regime golden, captured before the all-traffic table became rung 0 of
/// one table map: every view's rows and every probe's answer and reported
/// fallback depth — on the miss and on the following hit — at instantiation,
/// after one tagged ingest and after one TTL retire. Together with
/// [`invalidation_counts_match_the_golden_sequence`] (which pins reads
/// through eviction counts) this is the proof that a depth derived from the
/// source table's ladder position equals the depth the views used to store.
/// Which entries an update evicts shows in the accounting digest alone: a
/// narrower invalidation rule moves it, never the answers digest.
#[test]
fn regime_views_and_fallback_depths_match_the_golden() {
    let (net, full, cfg) = tagged_fixture(401, 4);
    let split = full.len() * 70 / 100;
    let base = TrajectoryStore::new(full.matched()[..split].to_vec());
    let rest: Vec<MatchedTrajectory> = full.matched()[split..].to_vec();
    let weights = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
    let live = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, weights.clone(), cfg.clone())),
        ServiceConfig::default(),
    );
    let mut ingestor = LiveIngestor::from_instantiated(&net, base, weights, cfg).unwrap();

    let mut stages = vec![regime_stage(&live)];
    let update = ingestor.ingest(rest).unwrap();
    assert!(
        update.changed() > 0,
        "the tagged batch must change variables"
    );
    live.apply_update(update).unwrap();
    stages.push(regime_stage(&live));
    let update = ingestor
        .retire_before(ttl_cutoff(ingestor.store(), 30))
        .unwrap();
    assert!(
        !update.removed.is_empty(),
        "the TTL cut must delete variables"
    );
    live.apply_update(update).unwrap();
    stages.push(regime_stage(&live));
    assert_eq!(stages, GOLDEN_REGIME_STAGES);
}

const GOLDEN_REGIME_STAGES: [(u64, u64, u64, [u64; 3]); 3] = [
    (
        0x1a18_29be_77eb_61c4,
        0xbd0a_4c2a_e24b_c655,
        0xcbea_e3db_1138_1a05,
        [4146, 2748, 86],
    ),
    (
        0x38e1_9b67_2a83_ac04,
        0xdba1_4bf2_aeaa_4bdd,
        0x1952_a170_7018_6c45,
        [5288, 3536, 156],
    ),
    (
        0x15a3_4375_f878_bfc1,
        0xc2c6_01b6_c579_8859,
        0xb69f_faa4_6f44_4685,
        [3310, 2206, 4],
    ),
];

/// An answer that reads no trajectory variable — a dead-hour probe, built
/// from speed limits alone — reports the ladder position of the view that
/// answered it: 0 under a regime with a view of its own (even one whose own
/// table is empty, like the dataless sub-regime 3 layered over its group's),
/// the last rung under a regime the root answers for. Regime 4 is declared,
/// dataless and grouped under an equally dataless regime 5, so nothing above
/// the all-traffic table is on its ladder `4 → 5 → 0`. (The one value that
/// differs from PR 22's parent, which reported 0 for regime 4 because it
/// materialised a copy of the root for every declared regime.)
#[test]
fn a_zero_read_answer_reports_the_depth_of_the_view_that_answered() {
    let (net, store, cfg) = tagged_fixture(401, 4);
    let cfg = HybridConfig {
        regimes: cfg.regimes.with_group(RegimeId(4), RegimeId(5)),
        ..cfg
    };
    let weights = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
    let dead = (0..48u16)
        .map(pathcost::core::IntervalId)
        .find(|i| weights.variables().iter().all(|v| v.interval != *i))
        .expect("the tiny preset leaves some half hour without traffic");
    let path = weights.variables()[0].path.clone();
    let engine = QueryEngine::new(
        Arc::new(HybridGraph::from_parts(&net, weights, cfg)),
        ServiceConfig::default(),
    );
    for (regime, depth) in [(0, 0), (1, 0), (3, 0), (4, 2), (9, 1)] {
        let request = QueryRequest::EstimateDistribution {
            path: path.clone(),
            departure: engine.canonical_departure(dead),
            regime: RegimeId(regime),
        };
        for ask in ["miss", "hit"] {
            let stats = engine.execute(&request).expect("engine answers").stats;
            assert_eq!(stats.max_fallback_depth, depth, "regime {regime}, {ask}");
        }
    }
}
