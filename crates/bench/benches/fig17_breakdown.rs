//! Criterion bench for Figure 17: the three phases of an OD estimation call —
//! decomposition identification (OI), joint computation (JC) and marginal
//! derivation (MC) — measured through the public breakdown API, on growing
//! dataset fractions; and the JC chain walk on its own (`joint_chain`) over a
//! fixed corridor fixture, at its two extremes: a run of unit components (a
//! pure convolution) and a chain of rank-6 components overlapping by five
//! edges (every overlap group re-weighted and most of them re-bucketed).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathcost_bench::experiment::{experiment_config, random_query_paths, Dataset, Scale};
use pathcost_core::joint::{cost_entries_with_limit, DEFAULT_STATE_BUCKETS};
use pathcost_core::{
    CandidateArray, CostEstimator, Decomposition, HybridConfig, HybridGraph, OdEstimator,
};
use pathcost_roadnet::{GeneratorConfig, Path, VertexId};
use pathcost_traj::{DatasetPreset, MatchedTrajectory, Timestamp, TrajectoryStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_breakdown(c: &mut Criterion) {
    let dataset = Dataset::build(&DatasetPreset::tiny(2017));
    let cfg = experiment_config(Scale::Quick);

    let mut group = c.benchmark_group("fig17_breakdown");
    for fraction in [50u32, 100] {
        let subset = dataset.fraction(fraction as f64 / 100.0);
        let graph =
            HybridGraph::build(&subset.net, &subset.store, cfg.clone()).expect("graph builds");
        let od = OdEstimator::new(&graph);
        let queries = random_query_paths(&subset, 15, 10, 41);
        if queries.is_empty() {
            continue;
        }
        group.bench_with_input(
            BenchmarkId::new("od_estimate", fraction),
            &queries,
            |b, queries| {
                b.iter(|| {
                    for (path, departure) in queries {
                        let _ = od.estimate_with_breakdown(path, *departure);
                    }
                })
            },
        );
    }
    group.finish();
}

/// The chain walk through its per-thread scratch, on a corridor every trip
/// drives end to end in the same α-interval: all sub-paths up to the rank cap
/// are instantiated, so the coarsest decomposition of the corridor is one
/// rank-6 component per offset.
fn bench_joint_chain(c: &mut Criterion) {
    const EDGES: usize = 30;
    let net = GeneratorConfig {
        rows: 8,
        cols: 8,
        ..GeneratorConfig::tiny(2017)
    }
    .generate();
    // A walk from the first vertex that never revisits one.
    let to = |e| net.edge(e).expect("edge of the network").to;
    let mut visited = vec![VertexId(0)];
    let mut edges = Vec::with_capacity(EDGES);
    while edges.len() < EDGES {
        let at = visited[visited.len() - 1];
        let next = net
            .out_edges(at)
            .iter()
            .copied()
            .find(|&e| !visited.contains(&to(e)));
        let next = next.expect("the grid lets the walk go on");
        visited.push(to(next));
        edges.push(next);
    }
    let corridor = Path::new(&net, edges).expect("the walk is a simple path");
    let mut rng = StdRng::seed_from_u64(17);
    let rows: Vec<MatchedTrajectory> = (0..80u32)
        .map(|day| {
            // Per-edge times of 15–25 s sharing a congestion factor.
            let congestion: f64 = rng.gen_range(0.8..1.4);
            let times: Vec<f64> = (0..EDGES)
                .map(|e| ((15 + e % 11) as f64 * congestion + rng.gen_range(0.0..6.0)).round())
                .collect();
            let mut clock = Timestamp::from_day_hms(day, 8, 2, 0).0;
            let entries = times
                .iter()
                .map(|t| {
                    let entry = Timestamp(clock);
                    clock += t;
                    entry
                })
                .collect();
            let speeds = vec![10.0; EDGES];
            MatchedTrajectory::new(u64::from(day), corridor.clone(), entries, times, speeds)
                .expect("aligned per-edge vectors")
        })
        .collect();
    let store = TrajectoryStore::new(rows);
    let graph = HybridGraph::build(&net, &store, HybridConfig::default()).expect("graph builds");
    let departure = Timestamp::from_day_hms(3, 8, 2, 0);

    let unit_query = Path::new(&net, corridor.edges()[..20].to_vec()).expect("a prefix");
    let array = CandidateArray::build(&graph, &unit_query, departure, None).expect("candidates");
    let unit_run = Decomposition::legacy(&array);
    assert_eq!(unit_run.ranks(), [1; 20]);

    let array = CandidateArray::build(&graph, &corridor, departure, None).expect("candidates");
    let overlapping = Decomposition::coarsest(&array);
    assert_eq!(overlapping.ranks(), [6; 25]);

    let mut group = c.benchmark_group("joint_chain");
    group.bench_function("unit_run/20_edges", |b| {
        b.iter(|| cost_entries_with_limit(&unit_run, DEFAULT_STATE_BUCKETS).unwrap())
    });
    group.bench_function("rank6_overlap/25_components", |b| {
        b.iter(|| cost_entries_with_limit(&overlapping, DEFAULT_STATE_BUCKETS).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_breakdown, bench_joint_chain
}
criterion_main!(benches);
