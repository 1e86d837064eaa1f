//! Request generation for the four workloads.
//!
//! *What* is asked in each phase of a run is part of the committed workload:
//! the pools (which paths, which OD pairs, which are popular) and the draws
//! from them use a fixed seed. *When* it is asked is `--seed`'s: the run
//! seed shuffles the operations of every phase, and nothing else. Query
//! costs on this fixture are heavily skewed (a cold estimate takes 0.14 ms
//! at the median, 25 ms at p99), so two independently drawn 600-operation
//! phases differ by ~10 % in total work; with the operations fixed and only
//! their order seeded, two seeds offer every open-loop phase exactly the
//! same work, and what differs between runs is the program, not the draw.
//! Order still matters to the program: it decides which requests share an
//! admission batch, what the cache saw last, and which operations fall
//! into the closed-loop window. The program under test sees only the
//! generated requests.

use crate::fixture::Fixture;
use crate::rng::{Rng, Zipf};
use pathcost_core::{DayPartition, IntervalId};
use pathcost_roadnet::search::{fastest_path, free_flow_time_s};
use pathcost_roadnet::{Path, VertexId};
use pathcost_service::{QueryRequest, RegimeId};
use pathcost_traj::{MatchedTrajectory, Timestamp};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// The four workloads, by their committed names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmZipf,
    ColdScan,
    RouteBatch,
    IngestChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WarmZipf,
        Workload::ColdScan,
        Workload::RouteBatch,
        Workload::IngestChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmZipf => "warm_zipf",
            Workload::ColdScan => "cold_scan",
            Workload::RouteBatch => "route_batch",
            Workload::IngestChurn => "ingest_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seed of the pools: part of the fixture, not of the run.
const POOL_SEED: u64 = 0xC17A_0040;
/// Zipf exponent of every popularity draw.
const ZIPF_S: f64 = 1.1;
/// Regimes an envelope stream cycles through. The served store is untagged,
/// so regimes 1 and 2 resolve through the fallback ladder.
const REGIMES: u16 = 3;

/// One (sub-path, departure) query target with a budget that makes
/// `prob` answers non-trivial (1.2 × what the source trip actually took).
#[derive(Debug, Clone)]
pub struct Key {
    pub path: Path,
    pub departure: Timestamp,
    pub budget_s: f64,
}

/// One origin–destination pair of `route_batch`.
#[derive(Debug, Clone, Copy)]
pub struct OdPair {
    pub source: VertexId,
    pub destination: VertexId,
    pub departure: Timestamp,
    pub budget_s: f64,
}

/// The fixture-level pools.
pub struct Pools {
    /// `warm_zipf`'s keys, most popular first.
    pub warm: Vec<Key>,
    /// `route_batch`'s popular paths, most popular first.
    pub batch_paths: Vec<Key>,
    /// `route_batch`'s OD pairs, most popular first.
    pub od: Vec<OdPair>,
    /// For each popular path, the popular paths departing in the same
    /// α-interval (itself included). A ranking has one departure for all its
    /// candidates, so it draws them from one such group: every distribution
    /// it reads is then one the warm-up filled.
    pub same_interval: Vec<Vec<usize>>,
}

/// Draws a trajectory sub-path of `edges.0..=edges.1` edges, departing when
/// the source trip entered it. `None` when the drawn trip is too short.
fn draw_key(rng: &mut Rng, rows: &[MatchedTrajectory], edges: (usize, usize)) -> Option<Key> {
    let trip = &rows[rng.below(rows.len())];
    let n = trip.path.cardinality();
    if n < edges.0 {
        return None;
    }
    let len = rng.range(edges.0, edges.1.min(n));
    let start = rng.below(n - len + 1);
    let taken: f64 = trip.travel_times[start..start + len].iter().sum();
    Some(Key {
        path: trip.path.slice(start, len)?,
        departure: trip.entry_times[start],
        budget_s: (taken * 1.2).round().max(1.0),
    })
}

/// The cache identity of a key: the path and the α-interval it departs in.
fn identity(partition: &DayPartition, key: &Key) -> (u64, IntervalId) {
    (
        key.path.fingerprint(),
        partition.interval_of(key.departure.time_of_day()),
    )
}

/// Draws `count` keys with pairwise distinct cache identities.
fn distinct_keys(
    rng: &mut Rng,
    fixture: &Fixture,
    edges: (usize, usize),
    count: usize,
    seen: &mut HashSet<(u64, IntervalId)>,
) -> Vec<Key> {
    let partition = fixture.preset.partition();
    let mut keys = Vec::with_capacity(count);
    let mut attempts = 0usize;
    while keys.len() < count {
        attempts += 1;
        assert!(
            attempts < 200 * count + 10_000,
            "fixture too small for {count} distinct keys"
        );
        if let Some(key) = draw_key(rng, &fixture.base_rows, edges) {
            if seen.insert(identity(&partition, &key)) {
                keys.push(key);
            }
        }
    }
    keys
}

impl Pools {
    pub fn build(fixture: &Fixture) -> Pools {
        let preset = &fixture.preset;
        let mut seen = HashSet::new();
        let warm = distinct_keys(
            &mut Rng::new(POOL_SEED, 1),
            fixture,
            preset.key_edges,
            preset.warm_keys,
            &mut seen,
        );
        let mut seen = HashSet::new();
        let batch_paths = distinct_keys(
            &mut Rng::new(POOL_SEED, 2),
            fixture,
            preset.od_edges,
            preset.batch_paths,
            &mut seen,
        );
        let partition = preset.partition();
        let intervals: Vec<IntervalId> = batch_paths
            .iter()
            .map(|key| identity(&partition, key).1)
            .collect();
        let same_interval = intervals
            .iter()
            .map(|interval| {
                (0..intervals.len())
                    .filter(|&j| intervals[j] == *interval)
                    .collect()
            })
            .collect();
        Pools {
            warm,
            batch_paths,
            od: od_pool(fixture),
            same_interval,
        }
    }
}

/// OD pairs between the simulator's hotspots (recovered as the endpoints of
/// the most travelled origin–destination pairs) whose fastest path has an
/// accepted cardinality; budget 1.3 × free flow.
fn od_pool(fixture: &Fixture) -> Vec<OdPair> {
    let preset = &fixture.preset;
    let net = &fixture.net;
    let mut travelled: HashMap<(u32, u32), usize> = HashMap::new();
    for trip in &fixture.base_rows {
        let from = net.edge(trip.path.first_edge()).expect("trip edges exist");
        let to = net.edge(trip.path.last_edge()).expect("trip edges exist");
        *travelled.entry((from.from.0, to.to.0)).or_default() += 1;
    }
    let mut ranked: Vec<((u32, u32), usize)> = travelled.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut hotspots: Vec<u32> = ranked
        .iter()
        .take(preset.hotspot_pairs)
        .flat_map(|((a, b), _)| [*a, *b])
        .collect();
    hotspots.sort_unstable();
    hotspots.dedup();

    let mut candidates: Vec<(u32, u32)> = hotspots
        .iter()
        .flat_map(|&a| hotspots.iter().map(move |&b| (a, b)))
        .filter(|(a, b)| a != b)
        .collect();
    Rng::new(POOL_SEED, 3).shuffle(&mut candidates);
    let mut pool = Vec::with_capacity(preset.od_pairs);
    for (a, b) in candidates {
        if pool.len() == preset.od_pairs {
            break;
        }
        let Some(path) = fastest_path(net, VertexId(a), VertexId(b)) else {
            continue;
        };
        if !(preset.od_edges.0..=preset.od_edges.1).contains(&path.cardinality()) {
            continue;
        }
        // Departures spread over the day so the pairs do not share one
        // α-interval's cache entries.
        let i = pool.len() as u32;
        pool.push(OdPair {
            source: VertexId(a),
            destination: VertexId(b),
            departure: Timestamp::from_day_hms(0, 7 + i % 12, (i * 7) % 60, 0),
            budget_s: (free_flow_time_s(net, &path) * 1.3).round(),
        });
    }
    assert_eq!(
        pool.len(),
        preset.od_pairs,
        "fixture yields too few routable hotspot pairs"
    );
    pool
}

/// One query as the program will see it: typed (for the reference engine)
/// and encoded (for the wire).
#[derive(Debug, Clone)]
pub struct Item {
    pub request: QueryRequest,
    pub json: String,
}

/// One operation: a `POST /query` of one item or a `POST /query/batch`
/// envelope of several. `items` index into [`Plan::items`].
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub batch: bool,
    pub body: String,
    pub items: Vec<u32>,
}

/// A generated request stream, cut into the segments the run's phases
/// consume (segment sizes are fixed by the committed reference rates, not
/// by how fast the program happens to be).
pub struct Plan {
    pub items: Vec<Item>,
    pub ops: Vec<Op>,
    pub segments: Vec<Range<usize>>,
    /// Requests whose answers the warm-up computes before timing starts.
    pub warm_fill: Vec<QueryRequest>,
}

fn path_json(path: &Path) -> String {
    let ids: Vec<String> = path.edges().iter().map(|e| e.0.to_string()).collect();
    format!("[{}]", ids.join(","))
}

fn regime_json(regime: RegimeId) -> String {
    if regime.is_global() {
        String::new()
    } else {
        format!(",\"regime\":{}", regime.0)
    }
}

fn estimate_item(key: &Key, regime: RegimeId) -> Item {
    Item {
        json: format!(
            "{{\"type\":\"estimate\",\"path\":{},\"departure_s\":{}{}}}",
            path_json(&key.path),
            key.departure.0,
            regime_json(regime)
        ),
        request: QueryRequest::EstimateDistribution {
            path: key.path.clone(),
            departure: key.departure,
            regime,
        },
    }
}

fn prob_item(key: &Key, regime: RegimeId) -> Item {
    Item {
        json: format!(
            "{{\"type\":\"prob\",\"path\":{},\"departure_s\":{},\"budget_s\":{}{}}}",
            path_json(&key.path),
            key.departure.0,
            key.budget_s,
            regime_json(regime)
        ),
        request: QueryRequest::ProbWithinBudget {
            path: key.path.clone(),
            departure: key.departure,
            budget_s: key.budget_s,
            regime,
        },
    }
}

fn rank_item(candidates: &[&Key], regime: RegimeId) -> Item {
    let paths: Vec<String> = candidates.iter().map(|k| path_json(&k.path)).collect();
    Item {
        json: format!(
            "{{\"type\":\"rank\",\"candidates\":[{}],\"departure_s\":{},\"budget_s\":{}{}}}",
            paths.join(","),
            candidates[0].departure.0,
            candidates[0].budget_s,
            regime_json(regime)
        ),
        request: QueryRequest::RankPaths {
            candidates: candidates.iter().map(|k| k.path.clone()).collect(),
            departure: candidates[0].departure,
            budget_s: candidates[0].budget_s,
            regime,
        },
    }
}

fn route_item(od: &OdPair, regime: RegimeId) -> Item {
    Item {
        json: format!(
            "{{\"type\":\"route\",\"source\":{},\"destination\":{},\"departure_s\":{},\"budget_s\":{},\"k\":2{}}}",
            od.source.0,
            od.destination.0,
            od.departure.0,
            od.budget_s,
            regime_json(regime)
        ),
        request: QueryRequest::Route {
            source: od.source,
            destination: od.destination,
            departure: od.departure,
            budget_s: od.budget_s,
            k: 2,
            regime,
        },
    }
}

impl Item {
    /// Whether this asks for one path's distribution or a probability read
    /// off it. Only such answers can be compared between two independent
    /// evaluations: rankings and routes order candidates by probability, and
    /// the estimator's last-bit noise (see `oracle`) reorders candidates
    /// that tie.
    pub fn is_point_query(&self) -> bool {
        matches!(
            self.request,
            QueryRequest::EstimateDistribution { .. } | QueryRequest::ProbWithinBudget { .. }
        )
    }
}

/// Interns items by their encoding, so a repeated query shares one
/// reference answer.
#[derive(Default)]
struct ItemTable {
    items: Vec<Item>,
    index: HashMap<String, u32>,
}

impl ItemTable {
    fn intern(&mut self, item: Item) -> u32 {
        if let Some(&id) = self.index.get(&item.json) {
            return id;
        }
        let id = self.items.len() as u32;
        self.index.insert(item.json.clone(), id);
        self.items.push(item);
        id
    }

    fn single(&mut self, item: Item) -> Op {
        let body = item.json.clone();
        Op {
            batch: false,
            body,
            items: vec![self.intern(item)],
        }
    }
}

impl Plan {
    /// Generates the stream of `workload`; `segment_ops[i]` is the number of
    /// operations phase `i` may consume. `seed` orders each phase.
    pub fn generate(
        workload: Workload,
        fixture: &Fixture,
        pools: &Pools,
        seed: u64,
        segment_ops: &[usize],
    ) -> Plan {
        let total: usize = segment_ops.iter().sum();
        let mut table = ItemTable::default();
        let (mut ops, warm_fill) = match workload {
            // The churn's readers replay the warm stream.
            Workload::WarmZipf | Workload::IngestChurn => warm_ops(pools, total, &mut table),
            Workload::ColdScan => cold_ops(fixture, total, &mut table),
            Workload::RouteBatch => batch_ops(pools, total, &mut table),
        };
        let mut segments = Vec::with_capacity(segment_ops.len());
        let mut at = 0;
        for (phase, &n) in segment_ops.iter().enumerate() {
            Rng::new(seed, phase as u64).shuffle(&mut ops[at..at + n]);
            segments.push(at..at + n);
            at += n;
        }
        Plan {
            items: table.items,
            ops,
            segments,
            warm_fill,
        }
    }
}

/// 50 % estimate / 50 % prob, Zipf over the warm pool; every key pre-filled.
fn warm_ops(pools: &Pools, total: usize, table: &mut ItemTable) -> (Vec<Op>, Vec<QueryRequest>) {
    let zipf = Zipf::new(pools.warm.len(), ZIPF_S);
    let mut keys = Rng::new(POOL_SEED, 11);
    let mut kinds = Rng::new(POOL_SEED, 12);
    let ops = (0..total)
        .map(|_| {
            let key = &pools.warm[zipf.sample(&mut keys)];
            let item = if kinds.next_u64() & 1 == 0 {
                estimate_item(key, RegimeId::ALL_TRAFFIC)
            } else {
                prob_item(key, RegimeId::ALL_TRAFFIC)
            };
            table.single(item)
        })
        .collect();
    let warm_fill = pools
        .warm
        .iter()
        .map(|key| estimate_item(key, RegimeId::ALL_TRAFFIC).request)
        .collect();
    (ops, warm_fill)
}

/// Same request shape, no key asked twice: a walk without replacement over
/// the (sub-path, interval) pairs of the base trips, so no answer can come
/// from the cache. The warm-up fills the cache with one-edge entries instead
/// of leaving it empty, so every measured miss also evicts.
fn cold_ops(
    fixture: &Fixture,
    total: usize,
    table: &mut ItemTable,
) -> (Vec<Op>, Vec<QueryRequest>) {
    let mut kinds = Rng::new(POOL_SEED, 22);
    let mut seen = HashSet::new();
    let keys = distinct_keys(
        &mut Rng::new(POOL_SEED, 21),
        fixture,
        fixture.preset.key_edges,
        total,
        &mut seen,
    );
    let ops = keys
        .iter()
        .map(|key| {
            let item = if kinds.next_u64() & 1 == 0 {
                estimate_item(key, RegimeId::ALL_TRAFFIC)
            } else {
                prob_item(key, RegimeId::ALL_TRAFFIC)
            };
            table.single(item)
        })
        .collect();
    (ops, cache_filler(fixture))
}

/// One-edge estimate requests, 1.5 × the default cache's capacity of them
/// spread over all α-intervals: cheap to answer, and enough that every
/// shard is full before measurement starts.
fn cache_filler(fixture: &Fixture) -> Vec<QueryRequest> {
    const DEFAULT_CACHE_ENTRIES: usize = 8_192;
    let partition = fixture.preset.partition();
    let intervals: Vec<IntervalId> = partition.all().collect();
    let mut edges: Vec<usize> = (0..fixture.net.edge_count()).collect();
    Rng::new(POOL_SEED, 4).shuffle(&mut edges);
    let wanted = (DEFAULT_CACHE_ENTRIES * 3 / 2).min(edges.len() * intervals.len());
    (0..wanted)
        .map(|i| {
            let edge = fixture.net.edges()[edges[i % edges.len()]].id;
            let interval = intervals[(i / edges.len()) % intervals.len()];
            QueryRequest::EstimateDistribution {
                path: Path::unit(edge),
                departure: Timestamp(partition.range(interval).start + 1.0),
                regime: RegimeId::ALL_TRAFFIC,
            }
        })
        .collect()
}

/// Envelopes of 16: two routes, two rankings over four candidates, eight
/// estimate/prob draws and four in-envelope repeats of them; the regime
/// cycles per envelope as generated (the shuffle then mixes them).
/// Everything pre-filled by one pass.
fn batch_ops(pools: &Pools, total: usize, table: &mut ItemTable) -> (Vec<Op>, Vec<QueryRequest>) {
    let od_zipf = Zipf::new(pools.od.len(), ZIPF_S);
    let path_zipf = Zipf::new(pools.batch_paths.len(), ZIPF_S);
    let mut rng = Rng::new(POOL_SEED, 31);
    let mut ops = Vec::with_capacity(total);
    for envelope in 0..total {
        let regime = RegimeId((envelope % usize::from(REGIMES)) as u16);
        let mut items: Vec<Item> = Vec::with_capacity(16);
        for _ in 0..2 {
            items.push(route_item(&pools.od[od_zipf.sample(&mut rng)], regime));
        }
        for _ in 0..2 {
            // A popular path that has three contemporaries, then those.
            let group = loop {
                let group = &pools.same_interval[path_zipf.sample(&mut rng)];
                if group.len() >= 4 {
                    break group;
                }
            };
            let mut candidates: Vec<usize> = Vec::with_capacity(4);
            while candidates.len() < 4 {
                let c = group[rng.below(group.len())];
                if !candidates.contains(&c) {
                    candidates.push(c);
                }
            }
            let keys: Vec<&Key> = candidates.iter().map(|&c| &pools.batch_paths[c]).collect();
            items.push(rank_item(&keys, regime));
        }
        let first_point = items.len();
        for _ in 0..8 {
            let key = &pools.batch_paths[path_zipf.sample(&mut rng)];
            items.push(if rng.next_u64() & 1 == 0 {
                estimate_item(key, regime)
            } else {
                prob_item(key, regime)
            });
        }
        for _ in 0..4 {
            let repeat = items[first_point + rng.below(8)].clone();
            items.push(repeat);
        }
        let encoded: Vec<&str> = items.iter().map(|i| i.json.as_str()).collect();
        let body = format!("{{\"requests\":[{}]}}", encoded.join(","));
        ops.push(Op {
            batch: true,
            body,
            items: items.into_iter().map(|item| table.intern(item)).collect(),
        });
    }
    // One pass over every route and every popular path, under each regime.
    let mut warm_fill = Vec::new();
    for regime in (0..REGIMES).map(RegimeId) {
        warm_fill.extend(pools.od.iter().map(|od| route_item(od, regime).request));
        warm_fill.extend(
            pools
                .batch_paths
                .iter()
                .map(|key| estimate_item(key, regime).request),
        );
    }
    (ops, warm_fill)
}

/// Evenly spaced intended send offsets (ns from phase start) of an
/// open-loop phase: operation `k` of the phase is due at `k / rate`.
pub fn schedule_ns(ops: usize, rate_per_s: f64) -> Vec<u64> {
    (0..ops)
        .map(|k| (k as f64 / rate_per_s * 1e9) as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::SMOKE;

    fn bodies(plan: &Plan) -> Vec<&str> {
        plan.ops.iter().map(|op| op.body.as_str()).collect()
    }

    #[test]
    fn the_seed_is_the_only_source_of_randomness() {
        let fixture = Fixture::build(SMOKE);
        let pools = Pools::build(&fixture);
        let segments = [40, 25, 25];
        for workload in Workload::ALL {
            let a = Plan::generate(workload, &fixture, &pools, 11, &segments);
            let b = Plan::generate(workload, &fixture, &pools, 11, &segments);
            let c = Plan::generate(workload, &fixture, &pools, 12, &segments);
            assert_eq!(bodies(&a), bodies(&b), "{}: same seed", workload.name());
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.segments, b.segments);
            assert_ne!(bodies(&a), bodies(&c), "{}: seeds differ", workload.name());
            assert_eq!(a.ops.len(), 90);
            assert_eq!(a.segments[2], 65..90);
            // What each phase asks is committed; the seed only orders it.
            for segment in &a.segments {
                let mut x: Vec<&str> = a.ops[segment.clone()]
                    .iter()
                    .map(|op| op.body.as_str())
                    .collect();
                let mut y: Vec<&str> = c.ops[segment.clone()]
                    .iter()
                    .map(|op| op.body.as_str())
                    .collect();
                x.sort_unstable();
                y.sort_unstable();
                assert_eq!(x, y, "{}: same operations per phase", workload.name());
            }
        }
        // Schedules depend on the committed rate only.
        assert_eq!(
            schedule_ns(4, 1_000.0),
            vec![0, 1_000_000, 2_000_000, 3_000_000]
        );
        assert_eq!(schedule_ns(25, 333.0), schedule_ns(25, 333.0));

        // A second fixture build yields the same pools: nothing but the
        // preset feeds them.
        let again = Pools::build(&Fixture::build(SMOKE));
        assert_eq!(pools.warm.len(), again.warm.len());
        for (x, y) in pools.warm.iter().zip(&again.warm) {
            assert_eq!(x.path, y.path);
            assert_eq!(x.departure, y.departure);
        }
    }

    #[test]
    fn cold_keys_never_repeat_and_warm_keys_do() {
        let fixture = Fixture::build(SMOKE);
        let pools = Pools::build(&fixture);
        let partition = fixture.preset.partition();
        let cold = Plan::generate(Workload::ColdScan, &fixture, &pools, 5, &[300]);
        let mut seen = HashSet::new();
        for item in &cold.items {
            let (path, departure) = match &item.request {
                QueryRequest::EstimateDistribution {
                    path, departure, ..
                }
                | QueryRequest::ProbWithinBudget {
                    path, departure, ..
                } => (path, departure),
                other => panic!("unexpected request {other:?}"),
            };
            let interval = partition.interval_of(departure.time_of_day());
            assert!(seen.insert((path.clone(), interval)), "cold key repeated");
        }
        let warm = Plan::generate(Workload::WarmZipf, &fixture, &pools, 5, &[300]);
        assert!(warm.items.len() < 300, "Zipf draws must repeat keys");
        assert_eq!(warm.warm_fill.len(), SMOKE.warm_keys);
    }

    #[test]
    fn envelopes_hold_sixteen_queries_with_repeats_and_cycling_regimes() {
        let fixture = Fixture::build(SMOKE);
        let pools = Pools::build(&fixture);
        let plan = Plan::generate(Workload::RouteBatch, &fixture, &pools, 9, &[6]);
        let mut regimes = [0usize; 3];
        for op in &plan.ops {
            assert!(op.batch);
            assert_eq!(op.items.len(), 16);
            let distinct: HashSet<u32> = op.items.iter().copied().collect();
            assert!(distinct.len() < 16, "in-envelope duplicates expected");
            let regime = plan.items[op.items[0] as usize].request.regime();
            assert!(op
                .items
                .iter()
                .all(|&id| plan.items[id as usize].request.regime() == regime));
            regimes[usize::from(regime.0)] += 1;
            let routes = op
                .items
                .iter()
                .filter(|&&id| {
                    matches!(plan.items[id as usize].request, QueryRequest::Route { .. })
                })
                .count();
            assert_eq!(routes, 2);
        }
        assert_eq!(regimes, [2, 2, 2], "regimes 0..=2 in equal shares");
    }
}
