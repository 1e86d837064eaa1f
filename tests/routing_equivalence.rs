//! Naive-vs-optimised router equivalence.
//!
//! The arena-based best-first search (`BestFirstRouter`) must agree with the
//! DFS reference (`support/dfs.rs`, test code only) whenever both searches
//! run to exhaustion: the same best within-budget probability, bit for bit,
//! and the same best path, modulo exact-probability ties, where the
//! optimised search's deterministic tie-break (lower expected cost, then
//! fewer edges) may legitimately pick a different — never worse — candidate
//! than the DFS's discovery order does. Both searches evaluate candidates
//! through the same `OdEstimator`, which is bit-reproducible.
//!
//! The search space is bounded through `max_path_edges` (both searches
//! truncate identically there) while the expansion/candidate caps are set
//! high enough that neither search stops early; each case asserts that.

use pathcost::core::{HybridConfig, HybridGraph, OdEstimator};
use pathcost::roadnet::search::{fastest_path, free_flow_time_s};
use pathcost::roadnet::VertexId;
use pathcost::routing::{BestFirstRouter, RouteResult, RouterConfig};
use pathcost::traj::{DatasetPreset, Timestamp};

#[path = "support/dfs.rs"]
mod dfs;
use dfs::DfsRouter;

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

/// The DFS's and the best-first search's answers to one case: the tiny preset
/// of its seed at β = 10, an exhaustive router configuration, and a budget of
/// the multiplier times the pair's free-flow time.
fn answers(
    (seed, source, destination, budget_mult, hour): Case,
) -> (Option<RouteResult>, Option<RouteResult>) {
    let (net, store) = DatasetPreset::tiny(seed).materialise().unwrap();
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    let graph = HybridGraph::build(&net, &store, cfg).unwrap();
    let od = OdEstimator::new(&graph);
    let (source, destination) = (VertexId(source), VertexId(destination));
    let Some(ff_path) = fastest_path(&net, source, destination) else {
        panic!("fixture pair {source}->{destination} must be connected");
    };
    let budget = free_flow_time_s(&net, &ff_path) * budget_mult;
    let departure = Timestamp::from_day_hms(0, hour, 0, 0);
    let naive = DfsRouter::new(&graph, exhaustive_config())
        .route(&od, source, destination, departure, budget)
        .unwrap();
    let optimised = BestFirstRouter::new(&graph, exhaustive_config())
        .unwrap()
        .route(&od, source, destination, departure, budget)
        .unwrap();
    (naive, optimised)
}

#[test]
fn best_first_matches_naive_dfs_on_preset_fixtures() {
    let max_expansions = exhaustive_config().max_expansions;
    for case in CASES {
        let (seed, source, destination, budget_mult, _) = case;
        let label = format!("seed {seed}, {source}->{destination}, budget x{budget_mult}");
        match answers(case) {
            (None, None) => {}
            (Some(n), Some(f)) => {
                // Exhaustion: neither search stopped on a cap. The incumbent
                // bound is heuristic (incremental partial estimates versus
                // OD-evaluated candidates — the PR 3 caveat, see
                // `git show d42db44:PERFORMANCE.md`), so
                // agreement below is an empirical property of these
                // fixtures, not a theorem; a divergence here is a real
                // finding about the pruning rule.
                assert!(n.expansions < max_expansions, "{label}: naive capped");
                assert!(f.expansions <= max_expansions, "{label}: optimised capped");
                assert_eq!(
                    n.probability.to_bits(),
                    f.probability.to_bits(),
                    "{label}: naive P={} vs optimised P={}",
                    n.probability,
                    f.probability
                );
                if n.path != f.path {
                    // An exact-probability tie: the optimised tie-break must
                    // have picked an at-least-as-good candidate.
                    assert!(
                        f.distribution.mean() <= n.distribution.mean(),
                        "{label}: tie broken towards a worse mean ({} vs {})",
                        f.distribution.mean(),
                        n.distribution.mean()
                    );
                } else {
                    assert_eq!(n.path, f.path, "{label}");
                }
            }
            (n, f) => panic!(
                "{label}: feasibility disagreement (naive {:?}, optimised {:?})",
                n.map(|r| r.probability),
                f.map(|r| r.probability)
            ),
        }
    }
}

#[test]
fn tie_breaking_is_deterministic_and_never_worse_than_naive() {
    // Many candidates reach P = 1.0; the best-first search must then prefer
    // the lowest expected cost (then fewest edges) and return the identical
    // result on every run.
    let (naive_best, first) = answers(TIE_CASE);
    let (_, second) = answers(TIE_CASE);
    let naive_best = naive_best.expect("generous budget is feasible");
    let first = first.expect("generous budget is feasible");
    let second = second.expect("generous budget is feasible");

    assert_eq!(
        first.path, second.path,
        "tie-breaking must be deterministic"
    );
    assert_eq!(first.probability, second.probability);
    assert_eq!(
        first.probability.to_bits(),
        naive_best.probability.to_bits()
    );
    // The deterministic tie-break prefers the lower expected cost; the DFS
    // keeps whichever P-maximal candidate it discovered first.
    assert!(
        first.distribution.mean() <= naive_best.distribution.mean(),
        "optimised mean {} must not exceed naive mean {}",
        first.distribution.mean(),
        naive_best.distribution.mean()
    );
    if first.distribution.mean() == naive_best.distribution.mean() {
        assert!(first.path.cardinality() <= naive_best.path.cardinality());
    }
}

/// Digest captured at the parent of PR 25, where the DFS was the library's
/// `pathcost_routing::naive::DfsRouter` on `IncrementalEstimate`: per case
/// the best path's edges, probability and distribution bits, expansions and
/// evaluated candidates.
#[test]
fn dfs_reference_matches_the_pre_pr25_golden_digest() {
    let mut bits: Vec<u64> = Vec::new();
    let mut found = 0;
    for case in CASES.into_iter().chain([TIE_CASE]) {
        let Some(r) = answers(case).0 else {
            bits.push(u64::MAX);
            continue;
        };
        found += 1;
        bits.push(r.path.cardinality() as u64);
        bits.extend(r.path.edges().iter().map(|e| u64::from(e.0)));
        bits.push(r.probability.to_bits());
        for (b, p) in r.distribution.buckets().iter().zip(r.distribution.probs()) {
            bits.extend([b.lo, b.hi, *p].map(f64::to_bits));
        }
        bits.extend([r.expansions as u64, r.evaluated_candidates as u64]);
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in &bits {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!((h, found), (0x67f8_73a6_a7a7_574f, 7));
}
