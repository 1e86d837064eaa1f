//! Stochastic routing (§4.3 / Figure 18): answer "which path has the highest
//! probability of arriving within the budget?" with the arena-based
//! best-first probabilistic path query, comparing the legacy LB estimator
//! with the paper's OD estimator as the distribution oracle inside the
//! search.
//!
//! ```text
//! cargo run --release --example stochastic_routing
//! ```

use pathcost::core::{HybridConfig, HybridGraph, OdEstimator};
use pathcost::roadnet::search::{fastest_path, free_flow_time_s};
use pathcost::roadnet::VertexId;
use pathcost::routing::{BestFirstRouter, RouterConfig};
use pathcost::traj::{DatasetPreset, Timestamp, TrajectoryStore};
use std::time::Instant;

fn main() {
    let mut preset = DatasetPreset::aalborg_like(23);
    preset.network.rows = 12;
    preset.network.cols = 12;
    preset.simulation.trips = 1_200;
    let net = preset.build_network();
    let output = preset.simulate(&net).expect("simulation succeeds");
    let store = TrajectoryStore::from_ground_truth(&output);
    let graph = HybridGraph::build(
        &net,
        &store,
        HybridConfig {
            beta: 15,
            ..HybridConfig::default()
        },
    )
    .expect("instantiation succeeds");

    let router = BestFirstRouter::new(
        &graph,
        RouterConfig {
            max_expansions: 6_000,
            max_candidates: 32,
            max_path_edges: 60,
        },
    )
    .expect("valid router config");

    let source = VertexId(0);
    let destination = VertexId((net.vertex_count() - 1) as u32);
    let departure = Timestamp::from_day_hms(0, 8, 0, 0);
    let free_flow = free_flow_time_s(
        &net,
        &fastest_path(&net, source, destination).expect("reachable"),
    );
    let budget_s = free_flow * 2.0;
    println!(
        "routing {source} -> {destination} departing 08:00, budget {:.1} min (free flow {:.1} min)\n",
        budget_s / 60.0,
        free_flow / 60.0
    );

    // The legacy baseline LB is OD capped at rank 1: edge-by-edge convolution.
    for (name, estimator) in [
        ("LB", OdEstimator::with_rank_cap(&graph, 1)),
        ("OD", OdEstimator::new(&graph)),
    ] {
        let started = Instant::now();
        let result = router
            .route(&estimator, source, destination, departure, budget_s)
            .expect("routing succeeds");
        let elapsed = started.elapsed().as_secs_f64() * 1_000.0;
        match result {
            Some(route) => println!(
                "{:<3}-search: {:>6.1} ms, best path has {} edges, P(on time) = {:.3}, mean {:.1} min ({} candidates, {} expansions, {} incumbent prunes)",
                name,
                elapsed,
                route.path.cardinality(),
                route.probability,
                route.distribution.mean() / 60.0,
                route.evaluated_candidates,
                route.expansions,
                route.incumbent_prunes
            ),
            None => println!("{name:<3}-search: no path satisfies the budget"),
        }
    }
}
