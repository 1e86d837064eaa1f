//! Multi-scenario query serving over a dataset preset.
//!
//! Builds the hybrid graph for the tiny preset, wraps it in the
//! `pathcost-service` engine, and drives a mixed workload through the batch
//! executor: full distribution estimates (with deliberate repetition, the way
//! commuter traffic repeats popular paths), arrival-probability point
//! queries, a candidate ranking, and stochastic routing. Prints per-query
//! outcomes and the engine's service-level metrics (read from its registry
//! by family name, as `GET /metrics` renders them), and checks the acceptance
//! property that repeated paths produce a non-zero cache hit rate.
//!
//! Run with: `cargo run --release --example serve_queries`

use pathcost::core::{HybridConfig, HybridGraph};
use pathcost::roadnet::search::{fastest_path, free_flow_time_s};
use pathcost::roadnet::VertexId;
use pathcost::service::{QueryEngine, QueryRequest, QueryResponse, ServiceConfig};
use pathcost::traj::{DatasetPreset, Timestamp};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let preset = DatasetPreset::tiny(2024);
    println!("materialising preset '{}' …", preset.name);
    let (net, store) = preset.materialise().expect("preset materialises");
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    let build_start = Instant::now();
    let graph = HybridGraph::build(&net, &store, cfg).expect("hybrid graph builds");
    println!(
        "hybrid graph: {} variables over {} edges ({:.2?})",
        graph.stats().total_variables(),
        net.edge_count(),
        build_start.elapsed()
    );

    let engine = QueryEngine::new(Arc::new(graph), ServiceConfig::default());

    // Assemble a mixed workload over the most travelled paths. Each path
    // appears several times — as a distribution estimate, as a budget
    // probability, and inside the ranking — which is exactly the repetition
    // the distribution cache exists for.
    let frequent: Vec<_> = store
        .frequent_paths(3, 10, None)
        .into_iter()
        .take(5)
        .collect();
    assert!(
        !frequent.is_empty(),
        "the preset must contain frequent paths"
    );
    let mut requests = Vec::new();
    for (path, _) in &frequent {
        let departure = store.occurrences_on(path)[0].entry_time;
        let free_flow = free_flow_time_s(&net, path);
        requests.push(QueryRequest::EstimateDistribution {
            path: path.clone(),
            departure,
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        });
        requests.push(QueryRequest::ProbWithinBudget {
            path: path.clone(),
            departure,
            budget_s: free_flow * 1.5,
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        });
    }
    let rank_departure = store.occurrences_on(&frequent[0].0)[0].entry_time;
    requests.push(QueryRequest::RankPaths {
        candidates: frequent.iter().map(|(p, _)| p.clone()).collect(),
        departure: rank_departure,
        budget_s: 1_200.0,
        regime: pathcost_service::RegimeId::ALL_TRAFFIC,
    });
    let source = VertexId(0);
    let destination = VertexId((net.vertex_count() - 1) as u32);
    let route_budget = free_flow_time_s(
        &net,
        &fastest_path(&net, source, destination).expect("grid is connected"),
    ) * 3.0;
    for _ in 0..2 {
        // Identical route queries: a search completed first keeps its answer
        // in the route map for the other; two running at once both search
        // and share the candidate distributions either estimates first.
        requests.push(QueryRequest::Route {
            source,
            destination,
            departure: Timestamp::from_day_hms(0, 8, 15, 0),
            budget_s: route_budget,
            k: 1,
            regime: pathcost_service::RegimeId::ALL_TRAFFIC,
        });
    }
    // Route alternatives: the top-3 incumbents of the same search arena.
    requests.push(QueryRequest::Route {
        source,
        destination,
        departure: Timestamp::from_day_hms(0, 8, 15, 0),
        budget_s: route_budget,
        k: 3,
        regime: pathcost_service::RegimeId::ALL_TRAFFIC,
    });

    println!("\nexecuting a batch of {} mixed queries …", requests.len());
    let batch_start = Instant::now();
    let results = engine.execute_batch(&requests);
    let batch_elapsed = batch_start.elapsed();

    for (request, result) in requests.iter().zip(&results) {
        match result {
            Ok(outcome) => {
                let summary = match &outcome.response {
                    QueryResponse::Distribution(h) => {
                        format!(
                            "distribution: mean {:.1}s, {} buckets",
                            h.mean(),
                            h.bucket_count()
                        )
                    }
                    QueryResponse::Probability(p) => format!("P(arrive within budget) = {p:.3}"),
                    QueryResponse::Ranking(r) => format!(
                        "ranking: best candidate #{} at P={:.3} ({} ranked)",
                        r[0].index,
                        r[0].probability,
                        r.len()
                    ),
                    QueryResponse::Route(Some(route)) => format!(
                        "route: {} edges, P={:.3}, {} candidates evaluated, {} incumbent prunes",
                        route.path.cardinality(),
                        route.probability,
                        route.evaluated_candidates,
                        route.incumbent_prunes
                    ),
                    QueryResponse::Route(None) => "route: infeasible within budget".to_string(),
                    QueryResponse::Routes(routes) => format!(
                        "routes: {} alternatives, best P={:.3} over {} edges",
                        routes.len(),
                        routes.first().map(|r| r.probability).unwrap_or(0.0),
                        routes.first().map(|r| r.path.cardinality()).unwrap_or(0)
                    ),
                };
                println!(
                    "  {:<22} {:>3} hit / {:>3} miss  {:>9.2?}  {summary}",
                    kind_name(request),
                    outcome.stats.cache_hits,
                    outcome.stats.cache_misses,
                    outcome.stats.latency,
                );
            }
            Err(e) => println!("  {:<22} failed: {e}", kind_name(request)),
        }
    }

    let stats = engine.stats();
    let metric = |series: &str| {
        engine
            .registry()
            .value(series)
            .unwrap_or_else(|| panic!("{series} is registered at construction"))
    };
    let queries = |kind: &str| metric(&format!("pathcost_queries_total{{kind=\"{kind}\"}}"));
    println!("\nservice stats after the batch ({batch_elapsed:.2?} total):");
    println!(
        "  queries: {} estimate / {} probability / {} rank / {} route ({} errors)",
        queries("estimate"),
        queries("probability"),
        queries("rank"),
        queries("route"),
        metric("pathcost_query_errors_total")
    );
    println!(
        "  cache: {} hits / {} misses (hit rate {:.1}%), {} entries, {} LRU evictions",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64 * 100.0,
        engine.cache().len(),
        stats.cache_evictions
    );
    println!(
        "  estimations: {} (mean decomposition depth {:.2})",
        stats.estimations,
        metric("pathcost_decomposition_components_total") / stats.estimations.max(1) as f64
    );
    println!(
        "  batch: {} requests in {} batch(es)",
        stats.batch_requests, stats.batches
    );
    println!(
        "  routing: {} candidates evaluated ({} answered by the cache), {} incumbent prunes; \
         {} route requests answered by the route map, {} searched",
        stats.route_candidates_evaluated,
        stats.route_eval_cache_hits,
        stats.route_incumbent_prunes,
        metric("pathcost_route_cache_hits_total"),
        metric("pathcost_route_cache_misses_total")
    );
    println!(
        "  mean latency: {:.2?}",
        std::time::Duration::from_secs_f64(
            metric("pathcost_query_seconds_sum") / metric("pathcost_query_seconds_count").max(1.0)
        )
    );

    assert!(
        stats.cache_hits > 0,
        "repeated paths must produce cache hits: the batch reads entries it filled"
    );
    println!("\n✓ mixed workload served; cache hit rate > 0 on repeated paths");
}

fn kind_name(request: &QueryRequest) -> &'static str {
    match request {
        QueryRequest::EstimateDistribution { .. } => "EstimateDistribution",
        QueryRequest::ProbWithinBudget { .. } => "ProbWithinBudget",
        QueryRequest::RankPaths { .. } => "RankPaths",
        QueryRequest::Route { .. } => "Route",
    }
}
