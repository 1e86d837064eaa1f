//! Serving throughput: the `pathcost-service` batch executor versus naive
//! per-query estimation.
//!
//! The workload repeats a pool of popular paths across a batch of mixed
//! point queries — the access pattern the distribution cache is built for.
//! `naive_per_query` re-runs the full OD estimator for every request the way
//! pre-service callers had to; `service_batch_cold` answers the same batch
//! through a fresh engine (first-touch estimation, shared jobs deduplicated
//! across the worker pool); `service_batch_warm` is the steady-state serving
//! path where every lookup hits the cache.
//!
//! A per-query tail-latency line (p50/p99/max from the engine's fixed-bucket
//! histogram) is printed for the warm engine at each batch size.
//!
//! The `service_batch_warm` / `service_batch_warm_traced` pair measures the
//! observability overhead: the identical warm batch with and without a
//! per-request `ActiveTrace` span context (the instrumented HTTP serving
//! path). `BENCH_9.json` records this pair at batch 256.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathcost_core::{CostEstimator, HybridConfig, HybridGraph, OdEstimator};
use pathcost_obs::ActiveTrace;
use pathcost_service::{QueryEngine, QueryRequest, RequestContext, ServiceConfig};
use pathcost_traj::DatasetPreset;
use std::sync::Arc;
use std::time::Duration;

fn bench_service_throughput(c: &mut Criterion) {
    let (net, store) = DatasetPreset::tiny(2016).materialise().expect("dataset");
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    let graph = Arc::new(HybridGraph::build(&net, &store, cfg).expect("graph builds"));

    // A pool of popular paths, each queried many times per batch.
    let pool: Vec<_> = store
        .frequent_paths(3, 10, None)
        .into_iter()
        .take(8)
        .map(|(path, _)| {
            let departure = store.occurrences_on(&path)[0].entry_time;
            (path, departure)
        })
        .collect();
    assert!(!pool.is_empty(), "bench needs frequent paths");

    let mut group = c.benchmark_group("service_throughput");
    for batch_size in [64usize, 256] {
        let requests: Vec<QueryRequest> = (0..batch_size)
            .map(|i| {
                let (path, departure) = &pool[i % pool.len()];
                if i % 3 == 0 {
                    QueryRequest::ProbWithinBudget {
                        path: path.clone(),
                        departure: *departure,
                        budget_s: 600.0,
                        regime: pathcost_service::RegimeId::ALL_TRAFFIC,
                    }
                } else {
                    QueryRequest::EstimateDistribution {
                        path: path.clone(),
                        departure: *departure,
                        regime: pathcost_service::RegimeId::ALL_TRAFFIC,
                    }
                }
            })
            .collect();

        // Naive: every request pays a full OD estimation.
        let od = OdEstimator::new(&graph);
        group.bench_with_input(
            BenchmarkId::new("naive_per_query", batch_size),
            &requests,
            |b, requests| {
                b.iter(|| {
                    for request in requests {
                        match request {
                            QueryRequest::EstimateDistribution {
                                path, departure, ..
                            }
                            | QueryRequest::ProbWithinBudget {
                                path, departure, ..
                            } => {
                                let _ = od.estimate(path, *departure).expect("estimates");
                            }
                            _ => unreachable!("the workload only has point queries"),
                        }
                    }
                })
            },
        );

        // Cold: a fresh engine (empty cache) per iteration.
        group.bench_with_input(
            BenchmarkId::new("service_batch_cold", batch_size),
            &requests,
            |b, requests| {
                b.iter(|| {
                    let engine = QueryEngine::new(graph.clone(), ServiceConfig::default());
                    engine.execute_batch(requests)
                })
            },
        );

        // Warm: the steady-state serving path.
        let engine = QueryEngine::new(graph.clone(), ServiceConfig::default());
        let _ = engine.execute_batch(&requests);
        group.bench_with_input(
            BenchmarkId::new("service_batch_warm", batch_size),
            &requests,
            |b, requests| b.iter(|| engine.execute_batch(requests)),
        );

        // The same warm batch with full request tracing: one ActiveTrace
        // context per request, exactly what the dispatcher hands the batch
        // executor. The contexts are built outside the timed loop because
        // that is where the server builds them too — trace minting happens
        // on the connection thread during parse, amortized against socket
        // IO, never inside the batch path. What is measured is what the
        // batch path actually pays: per-stage span recording plus the
        // per-context abandonment polling. The pair (service_batch_warm,
        // service_batch_warm_traced) at batch 256 is the observability
        // overhead acceptance row in BENCH_9.json — the instrumented path
        // must stay within 3% of the baseline.
        let contexts: Vec<RequestContext> = (0..requests.len())
            .map(|i| {
                RequestContext::unbounded().with_trace(Arc::new(ActiveTrace::start(
                    format!("bench-{i}"),
                    "/query".to_string(),
                )))
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("service_batch_warm_traced", batch_size),
            &requests,
            |b, requests| b.iter(|| engine.execute_batch_under(requests, &contexts, false)),
        );

        // Per-query tail latency out of the engine's own histogram.
        let latency = engine.stats().latency;
        let secs = Duration::from_secs_f64;
        println!(
            "tail_latency/service_batch_warm/{batch_size}: p50 {:?}  p99 {:?}  max {:?}  ({} queries)",
            secs(latency.p50()),
            secs(latency.p99()),
            secs(latency.max),
            latency.count(),
        );
    }

    // Cross-path reuse: a batch whose candidates overlap on path prefixes
    // (every pool path plus its proper prefixes, plus rankings over all of
    // them), answered cold with and without the prefix-sharing warm phase.
    for batch_size in [64usize, 256] {
        let overlapping: Vec<_> = pool
            .iter()
            .flat_map(|(path, departure)| {
                let mut family = vec![(path.clone(), *departure)];
                for len in 2..path.cardinality() {
                    family.push((path.prefix(len).expect("proper prefix"), *departure));
                }
                family
            })
            .collect();
        let requests: Vec<QueryRequest> = (0..batch_size)
            .map(|i| {
                let (path, departure) = &overlapping[i % overlapping.len()];
                if i % 7 == 0 {
                    QueryRequest::RankPaths {
                        candidates: overlapping.iter().map(|(p, _)| p.clone()).collect(),
                        departure: *departure,
                        budget_s: 600.0,
                        regime: pathcost_service::RegimeId::ALL_TRAFFIC,
                    }
                } else {
                    QueryRequest::EstimateDistribution {
                        path: path.clone(),
                        departure: *departure,
                        regime: pathcost_service::RegimeId::ALL_TRAFFIC,
                    }
                }
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("overlap_batch_cold", batch_size),
            &requests,
            |b, requests| {
                b.iter(|| {
                    let engine = QueryEngine::new(graph.clone(), ServiceConfig::default());
                    engine.execute_batch(requests)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("overlap_batch_cold_shared", batch_size),
            &requests,
            |b, requests| {
                b.iter(|| {
                    let engine = QueryEngine::new(
                        graph.clone(),
                        ServiceConfig {
                            share_prefixes: true,
                            ..ServiceConfig::default()
                        },
                    );
                    engine.execute_batch(requests)
                })
            },
        );
    }
    // Mixed-regime serving: the same warm batch shapes — all four query
    // kinds, rank and route included — answered by an engine over a
    // regime-tagged graph. One stream pins every request to all-traffic
    // (the single-regime baseline), one cycles regimes {0, 1, 2} so every
    // answer resolves through a different fallback view and cache key.
    // BENCH_10.json's acceptance row: the mixed stream must stay within
    // 10% of the baseline — per-regime keys and materialized views add no
    // per-request estimation work once warm.
    {
        use pathcost_core::{RegimeId, RegimeSchema};
        use pathcost_traj::{tag_batch, PeakOffPeak, TrajectoryStore};

        let mut tagged_rows = store.matched().to_vec();
        tag_batch(
            &mut tagged_rows,
            &PeakOffPeak {
                peak: RegimeId(1),
                off_peak: RegimeId(2),
                ..PeakOffPeak::default()
            },
        );
        let tagged_store = TrajectoryStore::new(tagged_rows);
        let regime_cfg = HybridConfig {
            beta: 10,
            regimes: RegimeSchema::flat()
                .with_group(RegimeId(1), RegimeId::ALL_TRAFFIC)
                .with_group(RegimeId(2), RegimeId::ALL_TRAFFIC),
            ..HybridConfig::default()
        };
        let tagged_graph = Arc::new(
            HybridGraph::build(&net, &tagged_store, regime_cfg).expect("tagged graph builds"),
        );

        let batch_size = 256usize;
        let regime_requests = |mixed: bool| -> Vec<QueryRequest> {
            (0..batch_size)
                .map(|i| {
                    let (path, departure) = &pool[i % pool.len()];
                    let regime = if mixed {
                        RegimeId((i % 3) as u16)
                    } else {
                        RegimeId::ALL_TRAFFIC
                    };
                    if i % 32 == 0 {
                        let first = &net.edges()[path.edges()[0].0 as usize];
                        let last = &net.edges()[path.edges().last().unwrap().0 as usize];
                        QueryRequest::Route {
                            source: first.from,
                            destination: last.to,
                            departure: *departure,
                            budget_s: 900.0,
                            k: 2,
                            regime,
                        }
                    } else if i % 16 == 1 {
                        QueryRequest::RankPaths {
                            candidates: pool.iter().take(3).map(|(p, _)| p.clone()).collect(),
                            departure: *departure,
                            budget_s: 600.0,
                            regime,
                        }
                    } else if i % 3 == 0 {
                        QueryRequest::ProbWithinBudget {
                            path: path.clone(),
                            departure: *departure,
                            budget_s: 600.0,
                            regime,
                        }
                    } else {
                        QueryRequest::EstimateDistribution {
                            path: path.clone(),
                            departure: *departure,
                            regime,
                        }
                    }
                })
                .collect()
        };

        for (label, mixed) in [
            ("single_regime_batch_warm", false),
            ("mixed_regime_batch_warm", true),
        ] {
            let requests = regime_requests(mixed);
            let engine = QueryEngine::new(tagged_graph.clone(), ServiceConfig::default());
            let _ = engine.execute_batch(&requests);
            group.bench_with_input(
                BenchmarkId::new(label, batch_size),
                &requests,
                |b, requests| b.iter(|| engine.execute_batch(requests)),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_service_throughput
}
criterion_main!(benches);
