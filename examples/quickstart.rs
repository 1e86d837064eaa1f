//! Quickstart: simulate a city, map-match its GPS data, instantiate the
//! hybrid graph and estimate the travel-time distribution of a path.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pathcost::core::{CostEstimator, HybridConfig, HybridGraph, OdEstimator};
use pathcost::traj::{DatasetPreset, HmmMapMatcher, MapMatchConfig, TrajectoryStore};

fn main() {
    // 1. A synthetic Aalborg-like road network and GPS dataset.
    let mut preset = DatasetPreset::aalborg_like(7);
    preset.network.rows = 14;
    preset.network.cols = 14;
    preset.simulation.trips = 1_200;
    let net = preset.build_network();
    println!(
        "road network: {} vertices, {} edges",
        net.vertex_count(),
        net.edge_count()
    );
    let output = preset.simulate(&net).expect("simulation succeeds");
    println!("simulated {} GPS trajectories", output.trajectories.len());

    // 2. Map matching (Newson–Krumm style HMM) aligns GPS records with paths.
    let matcher =
        HmmMapMatcher::new(&net, MapMatchConfig::default()).expect("the default config is valid");
    let matched = matcher.match_all(&output.trajectories);
    println!("map-matched {} trajectories", matched.len());
    let store = TrajectoryStore::new(matched);

    // 3. Instantiate the hybrid graph (path weight function W_P).
    let config = HybridConfig {
        beta: 15,
        ..HybridConfig::default()
    };
    let graph = HybridGraph::build(&net, &store, config).expect("instantiation succeeds");
    let stats = graph.stats();
    println!(
        "instantiated {} random variables (by rank: {:?}), coverage {:.0}%, {:.1} MB",
        stats.total_variables(),
        stats.count_by_rank,
        stats.coverage() * 100.0,
        stats.memory_bytes as f64 / (1024.0 * 1024.0)
    );

    // 4. Pick a frequently travelled path and estimate its cost distribution.
    let (path, occurrences) = store
        .frequent_paths(5, 15, None)
        .into_iter()
        .next()
        .unwrap_or_else(|| store.frequent_paths(3, 10, None)[0].clone());
    let departure = store.occurrences_on(&path)[0].entry_time;
    println!(
        "\nquery path {path} ({occurrences} observed traversals), departing {}",
        departure.time_of_day()
    );

    // The legacy baseline LB is OD capped at rank 1: edge-by-edge convolution.
    for (name, estimator) in [
        ("OD", OdEstimator::new(&graph)),
        ("LB", OdEstimator::with_rank_cap(&graph, 1)),
    ] {
        let dist = estimator
            .estimate(&path, departure)
            .expect("estimation succeeds");
        println!(
            "  {:<3} mean {:>6.1}s   p10 {:>6.1}s   p90 {:>6.1}s   P(≤ mean+60s) {:.2}",
            name,
            dist.mean(),
            dist.quantile(0.1),
            dist.quantile(0.9),
            dist.prob_leq(dist.mean() + 60.0)
        );
    }
}
