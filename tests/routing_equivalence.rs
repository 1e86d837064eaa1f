//! The router against the exhaustive oracle.
//!
//! `support/exhaustive.rs` enumerates every simple path of at most
//! `max_path_edges` edges, estimates each with `OdEstimator` (the estimator
//! the router evaluates its candidates with, bit-reproducible) and ranks
//! them by the router's candidate ordering. With the expansion and candidate
//! caps set high, the router can only answer worse than the oracle where a
//! prune dropped the oracle's best path. It does so on a known share of the
//! grid below, which a ratchet pins, and on none of the legacy cases.

use pathcost::core::{HybridConfig, HybridGraph, OdEstimator};
use pathcost::roadnet::search::{fastest_path, free_flow_time_s};
use pathcost::roadnet::{RoadNetwork, VertexId};
use pathcost::routing::{BestFirstRouter, RouterConfig};
use pathcost::traj::{DatasetPreset, Timestamp, TrajectoryStore};

#[path = "support/exhaustive.rs"]
mod exhaustive;

/// (preset seed, source, destination, budget multiplier over free flow,
/// departure hour).
type Case = (u64, u32, u32, f64, u32);

/// Nearby and cross-grid pairs, tight through generous budgets, morning and
/// evening departures across two differently-seeded datasets.
const CASES: [Case; 6] = [
    (91, 0, 12, 1.3, 8),
    (91, 0, 12, 2.0, 8),
    (91, 0, 18, 1.5, 17),
    (91, 2, 22, 1.8, 17),
    (81, 0, 12, 1.4, 8),
    (81, 3, 16, 2.5, 8),
];

/// A generous budget: it drives many candidates to P = 1.0.
const TIE_CASE: Case = (91, 0, 12, 3.0, 8);

/// High caps + a small path-cardinality bound: exhaustive over a finite space.
fn exhaustive_config() -> RouterConfig {
    RouterConfig {
        max_expansions: 2_000_000,
        max_candidates: 1_000_000,
        max_path_edges: 8,
    }
}

/// The tiny preset of `seed`, which the graph is built over at β = 10.
fn dataset(seed: u64) -> (RoadNetwork, TrajectoryStore) {
    DatasetPreset::tiny(seed).materialise().unwrap()
}

fn graph<'n>(net: &'n RoadNetwork, store: &TrajectoryStore) -> HybridGraph<'n> {
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    HybridGraph::build(net, store, cfg).unwrap()
}

/// The free-flow time of the fastest path from `source` to `destination`.
fn free_flow_s(net: &RoadNetwork, source: VertexId, destination: VertexId) -> f64 {
    let Some(path) = fastest_path(net, source, destination) else {
        panic!("fixture pair {source}->{destination} must be connected");
    };
    free_flow_time_s(net, &path)
}

#[test]
fn tie_breaking_is_deterministic_and_never_worse_than_naive() {
    // On every legacy case the router returns exactly the oracle's best
    // path, with bit-identical P, on two runs. Under the generous budget of
    // `TIE_CASE` many candidates reach P = 1.0, so the lower mean and then
    // the fewer edges decide.
    for case @ (seed, source, destination, budget_mult, hour) in CASES.into_iter().chain([TIE_CASE])
    {
        let label = format!("seed {seed}, {source}->{destination}, budget x{budget_mult}");
        let (net, store) = dataset(seed);
        let graph = graph(&net, &store);
        let od = OdEstimator::new(&graph);
        let config = exhaustive_config();
        let (source, destination) = (VertexId(source), VertexId(destination));
        let budget = free_flow_s(&net, source, destination) * budget_mult;
        let departure = Timestamp::from_day_hms(0, hour, 0, 0);

        let paths = exhaustive::simple_paths(&net, source, destination, config.max_path_edges);
        let candidates = exhaustive::estimate(&od, &paths, departure);
        let (oracle, oracle_p) = exhaustive::best(&candidates, budget).expect("connected pair");
        let router = BestFirstRouter::new(&graph, config).unwrap();
        let route = || {
            router
                .route(&od, source, destination, departure, budget)
                .unwrap()
                .unwrap_or_else(|| panic!("{label}: the router found no route ({case:?})"))
        };
        let (first, second) = (route(), route());
        assert_eq!(
            first.path, second.path,
            "{label}: tie-breaking must be deterministic"
        );
        assert_eq!(first.probability.to_bits(), second.probability.to_bits());
        assert_eq!(
            first.path, oracle.path,
            "{label}: not the oracle's best path"
        );
        assert_eq!(
            first.probability.to_bits(),
            oracle_p.to_bits(),
            "{label}: router P={} vs oracle P={oracle_p}",
            first.probability
        );
    }
}

/// The ratchet's grid: tiny presets, sources, departures on day 0 and budget
/// multipliers over the pair's free-flow time; every vertex other than the
/// source is a destination.
const PRESETS: [u64; 4] = [91, 81, 16, 17];
const SOURCES: [u32; 6] = [0, 2, 6, 12, 18, 24];
const DEPARTURE_HOURS: [u32; 3] = [8, 17, 3];
const BUDGET_MULTIPLIERS: [f64; 7] = [0.9, 1.0, 1.1, 1.2, 1.5, 2.0, 3.0];

/// What the grid counts. A miss is a search where the router's P is below
/// the oracle's; a missing route counts as P = 0.
#[derive(Debug, Default)]
struct Tally {
    searches: usize,
    enumerated_paths: usize,
    misses: usize,
    no_route_misses: usize,
    misses_by_budget: [usize; BUDGET_MULTIPLIERS.len()],
    /// Searches whose oracle-best path reads a rank ≥ 2 variable, and the
    /// misses among them.
    multi_edge_best: usize,
    multi_edge_misses: usize,
    router_above_oracle: usize,
    /// Times the router's P falls from one budget multiplier to the next.
    non_monotone: usize,
}

#[test]
fn router_misses_against_the_exhaustive_oracle_stay_within_the_ratchet() {
    let config = exhaustive_config();
    let mut tally = Tally::default();
    for seed in PRESETS {
        let (net, store) = dataset(seed);
        let graph = graph(&net, &store);
        let od = OdEstimator::new(&graph);
        let router = BestFirstRouter::new(&graph, config.clone()).unwrap();
        for source in SOURCES.map(VertexId) {
            for destination in (0..net.vertex_count() as u32).map(VertexId) {
                if destination == source {
                    continue;
                }
                let paths =
                    exhaustive::simple_paths(&net, source, destination, config.max_path_edges);
                tally.enumerated_paths += paths.len();
                let free_flow = free_flow_s(&net, source, destination);
                for hour in DEPARTURE_HOURS {
                    let departure = Timestamp::from_day_hms(0, hour, 0, 0);
                    let candidates = exhaustive::estimate(&od, &paths, departure);
                    let mut previous = 0.0f64;
                    for (at, mult) in BUDGET_MULTIPLIERS.into_iter().enumerate() {
                        let budget = free_flow * mult;
                        let (oracle, oracle_p) =
                            exhaustive::best(&candidates, budget).expect("connected pair");
                        let route = router
                            .route(&od, source, destination, departure, budget)
                            .unwrap();
                        let router_p = route.as_ref().map_or(0.0, |r| r.probability);
                        tally.searches += 1;
                        tally.multi_edge_best += usize::from(oracle.multi_edge);
                        if router_p < oracle_p {
                            tally.misses += 1;
                            tally.no_route_misses += usize::from(route.is_none());
                            tally.misses_by_budget[at] += 1;
                            tally.multi_edge_misses += usize::from(oracle.multi_edge);
                        }
                        tally.router_above_oracle += usize::from(router_p > oracle_p);
                        tally.non_monotone += usize::from(router_p < previous);
                        previous = router_p;
                    }
                }
            }
        }
    }
    // These counts are the router's known defect, recorded and not hidden:
    // the budget prune adds a free-flow lower bound that a speed-limit
    // fallback unit can undercut, and the incumbent prune compares an OD
    // probability with an independent chain's (ROADMAP.md, the router's
    // open item). They are upper bounds; a change that lowers them re-pins
    // them, in one commit named for it, and nothing else moves them.
    assert!(tally.misses <= 1_366, "{tally:#?}");
    assert!(tally.no_route_misses <= 1_346, "{tally:#?}");
    let ratchet = [1_301, 31, 15, 11, 4, 4, 0];
    for (at, (&misses, bound)) in tally.misses_by_budget.iter().zip(ratchet).enumerate() {
        assert!(
            misses <= bound,
            "x{} budget: {misses} misses > {bound}\n{tally:#?}",
            BUDGET_MULTIPLIERS[at]
        );
    }
    assert!(tally.multi_edge_misses <= 9, "{tally:#?}");
    // Exact: an enumeration that finds fewer paths, or a fixture that stops
    // reaching rank ≥ 2 variables, cannot pass by missing less.
    assert_eq!(tally.searches, 12_096, "{tally:#?}");
    assert_eq!(tally.enumerated_paths, 28_776, "{tally:#?}");
    assert_eq!(tally.multi_edge_best, 264, "{tally:#?}");
    // The oracle's best is an upper bound on what the router can find.
    assert_eq!(tally.router_above_oracle, 0, "{tally:#?}");
    // Fig 18's premise: loosening the budget never lowers the router's P.
    assert_eq!(tally.non_monotone, 0, "{tally:#?}");
}
