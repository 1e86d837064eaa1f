//! Cross-crate integration tests: simulate → map-match → instantiate the
//! hybrid graph → estimate → route, exercising the public API exactly the way
//! the examples and the experiment harness do.

use pathcost::core::{CostEstimator, GroundTruthEstimator, HybridConfig, HybridGraph, OdEstimator};
use pathcost::hist::divergence::kl_divergence_histograms;
use pathcost::roadnet::search::{fastest_path, free_flow_time_s};
use pathcost::roadnet::VertexId;
use pathcost::routing::{BestFirstRouter, RouterConfig};
use pathcost::traj::{DatasetPreset, HmmMapMatcher, MapMatchConfig, Timestamp, TrajectoryStore};

fn dense_tiny_store() -> (pathcost::roadnet::RoadNetwork, TrajectoryStore) {
    let mut preset = DatasetPreset::tiny(1234);
    preset.simulation.trips = 600;
    let net = preset.build_network();
    let out = preset.simulate(&net).expect("simulation succeeds");
    (net, TrajectoryStore::from_ground_truth(&out))
}

#[test]
fn full_pipeline_with_map_matching() {
    // The full pipeline including HMM map matching instead of ground truth.
    let mut preset = DatasetPreset::tiny(77);
    preset.simulation.trips = 150;
    let net = preset.build_network();
    let out = preset.simulate(&net).expect("simulation succeeds");
    let matcher =
        HmmMapMatcher::new(&net, MapMatchConfig::default()).expect("the default config is valid");
    let matched = matcher.match_all(&out.trajectories);
    assert!(
        matched.len() as f64 >= out.trajectories.len() as f64 * 0.9,
        "map matching should align nearly every trajectory"
    );
    let store = TrajectoryStore::new(matched);
    let graph = HybridGraph::build(
        &net,
        &store,
        HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        },
    )
    .expect("hybrid graph builds from map-matched data");
    assert!(graph.stats().total_variables() > 0);

    let (path, _) = store.frequent_paths(3, 10, None)[0].clone();
    let departure = store.occurrences_on(&path)[0].entry_time;
    let dist = graph
        .estimate(&path, departure)
        .expect("estimation succeeds");
    assert!((dist.probs().iter().sum::<f64>() - 1.0).abs() < 1e-6);
    assert!(dist.mean() > 0.0);
}

#[test]
fn od_estimate_tracks_ground_truth_for_dense_paths() {
    let (net, store) = dense_tiny_store();
    let cfg = HybridConfig {
        beta: 20,
        ..HybridConfig::default()
    };
    let graph = HybridGraph::build(&net, &store, cfg.clone()).expect("hybrid graph builds");
    let gt = GroundTruthEstimator::new(&net, &store, cfg.clone()).expect("gt estimator");
    let od = OdEstimator::new(&graph);

    let mut compared = 0;
    for (path, _) in store.frequent_paths(4, cfg.beta, None).into_iter().take(20) {
        // Ground truth needs ≥ β qualified trajectories in the departure's
        // interval; scan this path's occurrences for a dense departure.
        let Some(departure) = store
            .occurrences_on(&path)
            .into_iter()
            .map(|occ| occ.entry_time)
            .find(|t| gt.qualified_samples(&path, *t).len() >= cfg.beta)
        else {
            continue;
        };
        let Ok(truth) = gt.estimate(&path, departure) else {
            continue;
        };
        let estimate = od
            .estimate(&path, departure)
            .expect("OD estimation succeeds");
        // The estimate must land in the right ballpark: mean within 35% and a
        // bounded divergence from the truth.
        let rel = (estimate.mean() - truth.mean()).abs() / truth.mean();
        assert!(rel < 0.35, "mean off by {rel:.2} on {path}");
        assert!(kl_divergence_histograms(&truth, &estimate).is_finite());
        compared += 1;
    }
    assert!(
        compared >= 3,
        "expected several dense paths, got {compared}"
    );
}

#[test]
fn estimators_expose_distinct_behaviour_on_long_paths() {
    let (net, store) = dense_tiny_store();
    let cfg = HybridConfig {
        beta: 15,
        ..HybridConfig::default()
    };
    let graph = HybridGraph::build(&net, &store, cfg).expect("hybrid graph builds");
    let od = OdEstimator::new(&graph);
    let lb = OdEstimator::with_rank_cap(&graph, 1);

    // Build a long query by extending a frequent path greedily.
    let (seed_path, _) = store.frequent_paths(5, 15, None)[0].clone();
    let departure = store.occurrences_on(&seed_path)[0].entry_time;

    let od_hist = od.estimate(&seed_path, departure).expect("OD estimate");
    let lb_hist = lb.estimate(&seed_path, departure).expect("LB estimate");
    // Both are proper distributions over positive travel times.
    for h in [&od_hist, &lb_hist] {
        assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(h.min() >= 0.0);
        assert!(h.mean() > 0.0);
    }
    // The OD decomposition must be at least as coarse as LB's, reflected in
    // its H_DE (Theorem 3).
    let h_od = od.decomposition_entropy(&seed_path, departure).unwrap();
    let h_lb = lb.decomposition_entropy(&seed_path, departure).unwrap();
    assert!(h_od <= h_lb + 1e-9);
}

#[test]
fn routing_with_od_estimator_returns_reliable_paths() {
    let (net, store) = dense_tiny_store();
    let graph = HybridGraph::build(
        &net,
        &store,
        HybridConfig {
            beta: 15,
            ..HybridConfig::default()
        },
    )
    .expect("hybrid graph builds");
    let router = BestFirstRouter::new(&graph, RouterConfig::default()).expect("router");
    let od = OdEstimator::new(&graph);

    let source = VertexId(0);
    let destination = VertexId((net.vertex_count() - 1) as u32);
    let departure = Timestamp::from_day_hms(0, 8, 0, 0);
    let free_flow = free_flow_time_s(
        &net,
        &fastest_path(&net, source, destination).expect("reachable"),
    );
    let result = router
        .route(&od, source, destination, departure, free_flow * 3.0)
        .expect("routing succeeds")
        .expect("a feasible path exists");
    assert!(result.probability > 0.5);
    let vertices = result.path.vertices(&net).unwrap();
    assert_eq!(vertices.first(), Some(&source));
    assert_eq!(vertices.last(), Some(&destination));
    // The reported distribution is consistent with a direct estimate.
    let direct = od
        .estimate(&result.path, departure)
        .expect("direct estimation succeeds");
    assert!((direct.mean() - result.distribution.mean()).abs() < 1e-9);
}

#[test]
fn weight_function_statistics_are_coherent_across_alpha_and_beta() {
    let (net, store) = dense_tiny_store();
    let strict = HybridGraph::build(
        &net,
        &store,
        HybridConfig {
            beta: 40,
            ..HybridConfig::default()
        },
    )
    .unwrap();
    let lenient = HybridGraph::build(
        &net,
        &store,
        HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        },
    )
    .unwrap();
    assert!(lenient.stats().total_variables() >= strict.stats().total_variables());
    assert!(lenient.stats().memory_bytes >= strict.stats().memory_bytes);
    assert!(lenient.stats().coverage() >= strict.stats().coverage());
}
