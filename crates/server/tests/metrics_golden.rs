//! The `/metrics` page keeps its shape: every family, `# TYPE`, label-key set
//! and histogram `le` edge a dashboard could depend on is pinned by a golden
//! list (new families may appear; pinned ones may not change or vanish),
//! a mixed load shows on the page as sent, the counters the acceptance
//! benchmark copies out (`QueryEngine::stats`) are the page's numbers, and
//! the page passes the strict validator with and without persistence
//! attached.

mod common;

use common::{get, post, send_raw, serve_with};
use pathcost_core::{HybridConfig, HybridGraph};
use pathcost_obs::expo::{series_value, validate};
use pathcost_persist::PersistenceStatus;
use pathcost_roadnet::RoadNetwork;
use pathcost_server::ServerConfig;
use pathcost_service::{QueryEngine, ServiceConfig};
use pathcost_traj::{DatasetPreset, TrajectoryStore};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// One line per family: `name TYPE [label keys] le=[edges]`, captured from
/// the scrape described in `page_shape_matches_the_golden` at the commit
/// before the metrics moved into per-layer registries; additions since:
/// the two `pathcost_free_flow_cache_*` families (PR 20).
/// The route map added `pathcost_route_cache_misses_total` beside
/// `pathcost_route_cache_hits_total`, which now counts route-map hits, and
/// `pathcost_route_eval_cache_hits_total`, under which the candidate
/// evaluations' distribution-cache hits moved.
const GOLDEN: &str = "\
pathcost_admission_degraded gauge []\n\
pathcost_admission_queue_depth gauge []\n\
pathcost_admission_queue_wait_seconds histogram [] le=[0.000002,0.000004,0.000008,0.000016,0.000032,0.000064,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432,67.108864,134.217728,268.435456,536.870912,1073.741824,2147.483648,+Inf]\n\
pathcost_admission_rejected_degraded_total counter []\n\
pathcost_admission_shed_total counter []\n\
pathcost_batch_requests_total counter []\n\
pathcost_batches_total counter []\n\
pathcost_build_info gauge [version]\n\
pathcost_cache_evictions_total counter [shard]\n\
pathcost_cache_hits_total counter [shard]\n\
pathcost_cache_insertions_total counter []\n\
pathcost_cache_invalidation_evictions_total counter [mode]\n\
pathcost_cache_misses_total counter [shard]\n\
pathcost_cancelled_total counter []\n\
pathcost_connections_rejected_total counter []\n\
pathcost_deadline_exceeded_total counter []\n\
pathcost_degraded_answers_total counter []\n\
pathcost_epoch gauge []\n\
pathcost_estimations_total counter []\n\
pathcost_free_flow_cache_hits_total counter [map]\n\
pathcost_free_flow_cache_misses_total counter [map]\n\
pathcost_http_requests_total counter [class]\n\
pathcost_ingest_publish_seconds histogram [] le=[0.000002,0.000004,0.000008,0.000016,0.000032,0.000064,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432,67.108864,134.217728,268.435456,536.870912,1073.741824,2147.483648,+Inf]\n\
pathcost_ingest_trajectories_retired_total counter []\n\
pathcost_ingest_trajectories_total counter []\n\
pathcost_ingest_updates_total counter []\n\
pathcost_ingest_variables_total counter [op]\n\
pathcost_open_connections gauge []\n\
pathcost_panicked_queries_total counter []\n\
pathcost_persist_corrupt_generations_total counter []\n\
pathcost_persist_fsync_seconds histogram [] le=[0.000016,0.000064,0.000256,0.001024,0.004096,0.016384,0.065536,0.262144,1.048576,4.194304,+Inf]\n\
pathcost_persist_io_retries_total counter []\n\
pathcost_persist_journal_bytes gauge []\n\
pathcost_persist_journal_records gauge []\n\
pathcost_persist_replayed_records_total counter []\n\
pathcost_persist_snapshot_epoch gauge []\n\
pathcost_persist_snapshot_fallbacks_total counter []\n\
pathcost_persist_snapshot_seconds histogram [] le=[0.000256,0.001024,0.004096,0.016384,0.065536,0.262144,1.048576,4.194304,+Inf]\n\
pathcost_persist_snapshots_total counter []\n\
pathcost_persist_suspended gauge []\n\
pathcost_persist_suspensions_total counter []\n\
pathcost_queries_total counter [kind]\n\
pathcost_query_errors_total counter []\n\
pathcost_query_outcome_seconds histogram [outcome] le=[0.000002,0.000004,0.000008,0.000016,0.000032,0.000064,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432,67.108864,134.217728,268.435456,536.870912,1073.741824,2147.483648,+Inf]\n\
pathcost_query_seconds histogram [] le=[0.000002,0.000004,0.000008,0.000016,0.000032,0.000064,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432,67.108864,134.217728,268.435456,536.870912,1073.741824,2147.483648,+Inf]\n\
pathcost_regime_cache_hits_total counter [regime]\n\
pathcost_regime_cache_misses_total counter [regime]\n\
pathcost_regime_fallback_total counter [depth]\n\
pathcost_request_e2e_seconds histogram [] le=[0.000002,0.000004,0.000008,0.000016,0.000032,0.000064,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432,67.108864,134.217728,268.435456,536.870912,1073.741824,2147.483648,+Inf]\n\
pathcost_request_stage_seconds histogram [stage] le=[0.000001,0.000004,0.000016,0.000064,0.000256,0.001024,0.004096,0.016384,0.065536,0.262144,1.048576,4.194304,+Inf]\n\
pathcost_route_cache_hits_total counter []\n\
pathcost_route_cache_misses_total counter []\n\
pathcost_route_candidates_total counter []\n\
pathcost_route_eval_cache_hits_total counter []\n\
pathcost_route_expansions_total counter []\n\
pathcost_route_prunes_total counter []\n\
pathcost_slow_queries_total counter []\n\
pathcost_uptime_seconds gauge []\n\
pathcost_write_timeouts_total counter []\n\
";

fn fixture(seed: u64) -> (RoadNetwork, TrajectoryStore) {
    DatasetPreset::tiny(seed).materialise().unwrap()
}

fn engine<'n>(net: &'n RoadNetwork, store: &TrajectoryStore) -> QueryEngine<'n> {
    let graph = HybridGraph::build(net, store, HybridConfig::default()).unwrap();
    QueryEngine::new(Arc::new(graph), ServiceConfig::default())
}

fn edges_csv(path: &pathcost_roadnet::Path) -> String {
    let edges: Vec<String> = path.edges().iter().map(|e| e.0.to_string()).collect();
    edges.join(",")
}

/// A valid estimate body over the fixture's most frequent path; `extra` is
/// spliced in as further JSON members (e.g. `,"regime":2`).
fn estimate_body(store: &TrajectoryStore, extra: &str) -> String {
    let (path, _) = store.frequent_paths(2, 10, None)[0].clone();
    let departure = store.occurrences_on(&path)[0].entry_time;
    format!(
        r#"{{"type":"estimate","path":[{}],"departure_s":{}{extra}}}"#,
        edges_csv(&path),
        departure.0
    )
}

/// Splits one sample line into its series name and `(key, value)` labels.
fn parse_sample(line: &str) -> (&str, Vec<(String, String)>) {
    let Some(open) = line.find('{') else {
        return (line.split(' ').next().unwrap(), Vec::new());
    };
    let close = line.rfind('}').expect("closing brace");
    let mut labels = Vec::new();
    let mut rest = &line[open + 1..close];
    while !rest.is_empty() {
        let (key, tail) = rest.split_once("=\"").expect("label key");
        // No label value on this page carries an escaped quote.
        let (value, tail) = tail.split_once('"').expect("label value");
        labels.push((key.to_string(), value.to_string()));
        rest = tail.strip_prefix(',').unwrap_or(tail);
    }
    (&line[..open], labels)
}

/// The page reduced to what a scraper's queries depend on.
fn page_shape(page: &str) -> Vec<String> {
    struct Family {
        kind: String,
        keys: BTreeSet<String>,
        edges: Vec<String>,
    }
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line");
            families.insert(
                name.to_string(),
                Family {
                    kind: kind.to_string(),
                    keys: BTreeSet::new(),
                    edges: Vec::new(),
                },
            );
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, labels) = parse_sample(line);
        let family_name = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| series.strip_suffix(suffix))
            .find(|base| families.get(*base).is_some_and(|f| f.kind == "histogram"))
            .unwrap_or(series);
        let family = families
            .get_mut(family_name)
            .unwrap_or_else(|| panic!("sample {series} precedes its TYPE line"));
        for (key, value) in labels {
            if key == "le" {
                if !family.edges.contains(&value) {
                    family.edges.push(value);
                }
            } else {
                family.keys.insert(key);
            }
        }
    }
    families
        .into_iter()
        .map(|(name, f)| {
            let keys: Vec<String> = f.keys.into_iter().collect();
            let mut line = format!("{name} {} [{}]", f.kind, keys.join(","));
            if !f.edges.is_empty() {
                line.push_str(&format!(" le=[{}]", f.edges.join(",")));
            }
            line
        })
        .collect()
}

#[test]
fn page_shape_matches_the_golden() {
    let (net, store) = fixture(41);
    let engine = engine(&net, &store);
    let config = ServerConfig {
        persistence: Some(Arc::new(PersistenceStatus::new())),
        ..ServerConfig::default()
    };
    serve_with(&engine, config, |addr| {
        assert_eq!(post(addr, "/query", &estimate_body(&store, "")).0, 200);
        let tagged = estimate_body(&store, r#","regime":2"#);
        assert_eq!(post(addr, "/query", &tagged).0, 200);
        let (code, page) = get(addr, "/metrics");
        assert_eq!(code, 200);
        let shape = page_shape(&page);
        let missing: Vec<&str> = GOLDEN
            .lines()
            .filter(|pinned| !shape.iter().any(|line| line == pinned))
            .collect();
        assert!(
            missing.is_empty(),
            "pinned entries changed or vanished:\n{}\n\ncurrent shape:\n{}",
            missing.join("\n"),
            shape.join("\n")
        );
    });
}

/// The sum over every series of a labelled family.
fn family_sum(page: &str, family: &str) -> f64 {
    let prefix = format!("{family}{{");
    page.lines()
        .filter(|l| l.starts_with(&prefix))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum()
}

#[test]
fn a_mixed_load_shows_on_the_page_and_the_benchmark_counters_agree() {
    let (net, store) = fixture(43);
    let engine = engine(&net, &store);
    let paths: Vec<_> = store
        .frequent_paths(2, 10, None)
        .into_iter()
        .map(|(p, _)| p)
        .collect();
    let departure = store.occurrences_on(&paths[0])[0].entry_time.0;
    let estimate = estimate_body(&store, "");
    let source = net.edges()[paths[0].edges()[0].0 as usize].from.0;
    let destination = net.edges()[paths[0].edges().last().unwrap().0 as usize]
        .to
        .0;
    serve_with(&engine, ServerConfig::default(), |addr| {
        // All four kinds, hits and misses, a regime-tagged lookup, a failing
        // query, a batch with a duplicate, and a request shed in the queue.
        assert_eq!(post(addr, "/query", &estimate).0, 200);
        assert_eq!(post(addr, "/query", &estimate).0, 200);
        let tagged = estimate_body(&store, r#","regime":2"#);
        assert_eq!(post(addr, "/query", &tagged).0, 200);
        let prob = format!(
            r#"{{"type":"prob","path":[{}],"departure_s":{departure},"budget_s":600}}"#,
            edges_csv(&paths[1])
        );
        assert_eq!(post(addr, "/query", &prob).0, 200);
        let rank = format!(
            r#"{{"type":"rank","candidates":[[{}],[{}]],"departure_s":{departure},"budget_s":600}}"#,
            edges_csv(&paths[0]),
            edges_csv(&paths[1])
        );
        assert_eq!(post(addr, "/query", &rank).0, 200);
        let route = format!(
            r#"{{"type":"route","source":{source},"destination":{destination},"departure_s":{departure},"budget_s":900}}"#
        );
        assert_eq!(post(addr, "/query", &route).0, 200);
        let unknown_edge = r#"{"type":"estimate","path":[4000000],"departure_s":0}"#;
        assert_ne!(post(addr, "/query", unknown_edge).0, 200);
        let batch = format!(r#"{{"requests":[{estimate},{estimate},{prob}]}}"#);
        assert_eq!(post(addr, "/query/batch", &batch).0, 200);
        let expired = format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nx-deadline-ms: 0\r\nContent-Length: {}\r\n\r\n{estimate}",
            estimate.len()
        );
        assert_eq!(send_raw(addr, expired.as_bytes()).0, 504);

        // Every admitted request is answered, so nothing moves between the
        // scrape and the typed read.
        let (_, page) = get(addr, "/metrics");
        validate(&page).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{page}"));
        let series = |name: &str| {
            series_value(&page, name).unwrap_or_else(|| panic!("series {name:?} missing:\n{page}"))
        };
        // The page counts what this test sent: one route, exactly one shed,
        // the failing query, and a regime-tagged lookup.
        assert_eq!(series(r#"pathcost_queries_total{kind="route"}"#), 1.0);
        assert_eq!(series("pathcost_admission_shed_total"), 1.0);
        assert!(series("pathcost_query_errors_total") >= 1.0);
        assert!(family_sum(&page, "pathcost_regime_fallback_total") >= 1.0);
        assert_eq!(series("pathcost_admission_queue_depth"), 0.0);
        // Every admitted request left the queue evaluated or shed: that is
        // the admission queue's end-to-end and queue-wait counts.
        let admitted = series("pathcost_query_seconds_count")
            + series(r#"pathcost_query_outcome_seconds_count{outcome="shed"}"#);
        for name in [
            "pathcost_request_e2e_seconds_count",
            "pathcost_admission_queue_wait_seconds_count",
        ] {
            assert_eq!(series(name), admitted, "{name}");
        }
        // The counters the acceptance benchmark copies out of the engine
        // are the page's numbers.
        let stats = engine.stats();
        assert_eq!(stats.batch_jobs_deduplicated, 0);
        for (field, value, name) in [
            ("batches", stats.batches, "pathcost_batches_total"),
            (
                "batch_requests",
                stats.batch_requests,
                "pathcost_batch_requests_total",
            ),
            (
                "estimations",
                stats.estimations,
                "pathcost_estimations_total",
            ),
            (
                "route_expansions",
                stats.route_expansions,
                "pathcost_route_expansions_total",
            ),
            (
                "route_candidates_evaluated",
                stats.route_candidates_evaluated,
                "pathcost_route_candidates_total",
            ),
            (
                "route_incumbent_prunes",
                stats.route_incumbent_prunes,
                "pathcost_route_prunes_total",
            ),
            (
                "route_eval_cache_hits",
                stats.route_eval_cache_hits,
                "pathcost_route_eval_cache_hits_total",
            ),
        ] {
            assert_eq!(series(name), value as f64, "{field} vs {name}");
        }
        for (field, value, family) in [
            ("cache_hits", stats.cache_hits, "pathcost_cache_hits_total"),
            (
                "cache_misses",
                stats.cache_misses,
                "pathcost_cache_misses_total",
            ),
            (
                "cache_evictions",
                stats.cache_evictions,
                "pathcost_cache_evictions_total",
            ),
        ] {
            assert_eq!(family_sum(&page, family), value as f64, "{field}");
        }
        // The load really was mixed: the checks above compared non-zero numbers.
        assert!(stats.cache_hits >= 1 && stats.batches >= 1 && stats.route_expansions >= 1);
    });
}

#[test]
fn page_validates_with_and_without_persistence() {
    let (net, store) = fixture(47);
    let engine = engine(&net, &store);
    let body = estimate_body(&store, "");
    serve_with(&engine, ServerConfig::default(), |addr| {
        assert_eq!(post(addr, "/query", &body).0, 200);
        let (_, page) = get(addr, "/metrics");
        validate(&page).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{page}"));
        assert!(!page.contains("pathcost_persist_"), "{page}");
        assert!(
            !page.contains("pathcost_regime_cache_hits_total"),
            "per-regime series appear with the first regime-tagged lookup"
        );
    });
    let status = Arc::new(PersistenceStatus::new());
    status.record_fsync(Duration::from_micros(90));
    status.record_snapshot(5, 1_000);
    status.set_suspended(true);
    let config = ServerConfig {
        persistence: Some(status),
        ..ServerConfig::default()
    };
    serve_with(&engine, config, |addr| {
        let (_, page) = get(addr, "/metrics");
        validate(&page).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{page}"));
        let series = |name| series_value(&page, name);
        assert_eq!(series("pathcost_persist_snapshots_total"), Some(1.0));
        assert_eq!(series("pathcost_persist_snapshot_epoch"), Some(5.0));
        assert_eq!(series("pathcost_persist_suspended"), Some(1.0));
        assert_eq!(series("pathcost_persist_fsync_seconds_count"), Some(1.0));
        let fsync_sum = series("pathcost_persist_fsync_seconds_sum").unwrap();
        assert!((fsync_sum - 90e-6).abs() < 1e-9);
    });
}
