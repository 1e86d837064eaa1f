//! Criterion bench for Figure 18: best-first probabilistic path queries
//! driven by the LB, HP and OD estimators, and beside them the serving
//! layer's query — a top-2 search per pair under the OD estimator, on a
//! budget of 1.3 × the pair's free-flow time — so the router's kernel cost
//! regenerates on the figure's fixture.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathcost_bench::experiment::{experiment_config, random_od_pairs, Dataset, Scale};
use pathcost_core::{CostEstimator, HpEstimator, HybridGraph, LbEstimator, OdEstimator};
use pathcost_roadnet::search::{fastest_path, free_flow_time_s};
use pathcost_routing::{BestFirstRouter, RouterConfig};
use pathcost_traj::{DatasetPreset, Timestamp};

fn bench_routing(c: &mut Criterion) {
    let dataset = Dataset::build(&DatasetPreset::tiny(2018));
    let cfg = experiment_config(Scale::Quick);
    let graph = HybridGraph::build(&dataset.net, &dataset.store, cfg).expect("graph builds");
    let config = RouterConfig {
        max_expansions: 2_000,
        max_candidates: 16,
        max_path_edges: 60,
    };
    let router = BestFirstRouter::new(&graph, config).expect("router config");
    let lb = LbEstimator::new(&graph);
    let hp = HpEstimator::new(&graph);
    let od = OdEstimator::new(&graph);
    let estimators: Vec<&dyn CostEstimator> = vec![&lb, &hp, &od];
    let pairs = random_od_pairs(&dataset, 5, 7);
    let departure = Timestamp::from_day_hms(0, 8, 0, 0);

    let mut group = c.benchmark_group("fig18_routing");
    for budget_min in [10.0f64, 20.0] {
        for est in &estimators {
            group.bench_with_input(
                BenchmarkId::new(format!("{}-bestfirst", est.name()), budget_min as u32),
                &pairs,
                |b, pairs| {
                    b.iter(|| {
                        for &(from, to) in pairs {
                            let _ = router.route(*est, from, to, departure, budget_min * 60.0);
                        }
                    })
                },
            );
        }
    }
    let budgeted: Vec<_> = pairs
        .iter()
        .filter_map(|&(from, to)| {
            let fastest = fastest_path(&dataset.net, from, to)?;
            Some((from, to, 1.3 * free_flow_time_s(&dataset.net, &fastest)))
        })
        .collect();
    group.bench_with_input(
        BenchmarkId::new("OD-bestfirst-top2", "1.3xff"),
        &budgeted,
        |b, budgeted| {
            b.iter(|| {
                for &(from, to, budget_s) in budgeted {
                    let _ = router.route_top_k(&od, from, to, departure, budget_s, 2);
                }
            })
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_routing
}
criterion_main!(benches);
