//! The traced run: per-layer metrics.
//!
//! End-to-end numbers never come from here. A traced run (`--trace 1`)
//! spends its socket time on what only sockets show — the server's own
//! stage shares (`/debug/traces`, ring enlarged), counter deltas, the
//! tracing overhead, generator lateness — and then replays a sample of the
//! workload *in process*, layer by layer, through each crate's public
//! functions, one span per call. The program itself is not instrumented;
//! what happens inside a call is that call's self time.

use crate::fixture::Fixture;
use crate::harness::{self, connections};
use crate::ingest::{self, Ingested};
use crate::loadgen::{self, Connection, PhaseOutcome, Verdict};
use crate::reference::{ladder, reference};
use crate::report::{Metrics, RunResult};
use crate::run::{self, cache_hit_ratio, check_hit_ratio, RunArgs, Rung, Tally};
use crate::span::Tracer;
use crate::stats;
use crate::steady::KeepAwake;
use crate::workload::{schedule_ns, Op, Plan, Pools, Workload};
use pathcost_core::{CandidateArray, CandidateSource, OdEstimator};
use pathcost_hist::{convolve, convolve_many, Histogram1D};
use pathcost_server::{http, json, wire, Json, ServerConfig};
use pathcost_service::{AdmissionConfig, AdmissionQueue, QueryEngine, QueryRequest, ServiceStats};
use std::io::BufReader;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Requests replayed in process.
const REPLAY_REQUESTS: usize = 2_000;
/// Of those, how many are also taken through the estimator on its own (each
/// costs a full estimation, cached or not).
const CORE_REQUESTS: usize = 500;
/// Requests sent through an admission queue to time its wait.
const ADMISSION_REQUESTS: usize = 300;
/// Finished traces the traced server retains for `/debug/traces`.
const TRACE_RING: usize = 4_096;

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

fn mean_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::mean(values)
    }
}

/// Accepts every `200`; the traced run measures, the untraced run judges.
fn accept(_: usize, status: u16, _: &[u8]) -> Verdict {
    if status == 200 {
        Verdict::Correct
    } else {
        Verdict::Failed
    }
}

fn closed(addr: SocketAddr, ops: &[Op], tally: &mut Tally) -> f64 {
    let (outcome, rate) = loadgen::closed_loop(addr, connections(), ops, &accept);
    tally.attempted += outcome.attempted() as u64;
    tally.failed += outcome.failed() as u64;
    rate
}

/// Stage shares from `GET /debug/traces`: each pipeline stage's share of the
/// time all stages of the query requests in the ring add up to.
fn stage_shares(addr: SocketAddr, metrics: &mut Metrics) {
    const STAGES: [&str; 7] = [
        "parse",
        "queue",
        "dispatch",
        "warm",
        "eval",
        "serialize",
        "write",
    ];
    let page = harness::get_json(addr, "/debug/traces");
    let mut totals = [0.0; 7];
    for trace in page.get("traces").and_then(Json::as_array).unwrap_or(&[]) {
        let target = trace.get("target").and_then(Json::as_str).unwrap_or("");
        if !target.starts_with("/query") {
            continue;
        }
        for (total, stage) in totals.iter_mut().zip(STAGES) {
            *total += trace
                .get("spans_us")
                .and_then(|s| s.get(stage))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
        }
    }
    let all: f64 = totals.iter().sum();
    for (total, stage) in totals.iter().zip(STAGES) {
        let share = if all > 0.0 { total / all } else { 0.0 };
        metrics.set(&format!("server.stage_share.{stage}"), share);
    }
}

/// Counter-derived metrics of the socket part.
fn counters(before: &ServiceStats, after: &ServiceStats, metrics: &mut Metrics) {
    let batches = (after.batches - before.batches) as f64;
    let requests = (after.batch_requests - before.batch_requests) as f64;
    let deduplicated = (after.batch_jobs_deduplicated - before.batch_jobs_deduplicated) as f64;
    metrics.set("service.batch_mean_size", requests / batches.max(1.0));
    metrics.set(
        "service.batch_dedup_ratio",
        deduplicated / requests.max(1.0),
    );
    metrics.set("service.cache_hit_ratio", cache_hit_ratio(before, after));
    metrics.set(
        "service.cache_evictions",
        (after.cache_evictions - before.cache_evictions) as f64,
    );
}

/// The raw bytes a client would put on the wire for `op`.
fn wire_request(op: &Op) -> Vec<u8> {
    let target = if op.batch { "/query/batch" } else { "/query" };
    format!(
        "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{}",
        op.body.len(),
        op.body
    )
    .into_bytes()
}

/// What the replay collected besides its spans.
#[derive(Default)]
struct Replayed {
    response_bytes: Vec<f64>,
    answers: Vec<Histogram1D>,
    /// `(execute span duration µs, was a miss)` per single-query request.
    executes: Vec<(f64, bool)>,
    failed: usize,
}

/// One operation through the layers a socket request crosses, in process:
/// HTTP read → JSON parse → wire decode → execute → wire encode → HTTP
/// write, each a span under the request's root.
fn replay_op(
    tracer: &mut Tracer,
    engine: &QueryEngine<'_>,
    request_id: u32,
    op: &Op,
    seen: &mut Replayed,
) {
    let raw = wire_request(op);
    let root = tracer.open("request", None, request_id);
    let limits = http::Limits::default();
    let (request, _) = tracer.span("server.http_read", Some(root), request_id, || {
        http::read_request(&mut BufReader::new(&raw[..]), &mut Vec::new(), &limits)
            .expect("a generated request parses")
    });
    let (value, _) = tracer.span("server.json_parse", Some(root), request_id, || {
        json::parse(&request.body).expect("a generated body is JSON")
    });
    let body = if op.batch {
        let (requests, _) = tracer.span("server.wire_decode", Some(root), request_id, || {
            wire::decode_batch(&value).expect("a generated envelope decodes")
        });
        let (results, _) = tracer.span("service.execute_batch", Some(root), request_id, || {
            engine.execute_batch(&requests)
        });
        seen.failed += results.iter().filter(|r| r.is_err()).count();
        seen.answers.extend(
            results
                .iter()
                .flatten()
                .filter_map(|outcome| outcome.response.distribution().cloned()),
        );
        let (body, _) = tracer.span("server.wire_encode", Some(root), request_id, || {
            let encoded = results
                .iter()
                .zip(&requests)
                .map(|(result, request)| match result {
                    Ok(outcome) => wire::encode_outcome_for(outcome, request.regime()),
                    Err(error) => wire::encode_error(&error.to_string()),
                })
                .collect();
            Json::object(vec![("results", Json::Array(encoded))]).to_string()
        });
        body
    } else {
        let (decoded, _) = tracer.span("server.wire_decode", Some(root), request_id, || {
            wire::decode_request(&value).expect("a generated query decodes")
        });
        let (result, execute) = tracer.span("service.execute", Some(root), request_id, || {
            engine.execute(&decoded)
        });
        let Ok(outcome) = result else {
            seen.failed += 1;
            tracer.close(root);
            return;
        };
        let missed = outcome.stats.cache_misses > 0;
        tracer.rename(
            execute,
            if missed {
                "service.execute_miss"
            } else {
                "service.execute_hit"
            },
        );
        seen.executes.push((tracer.duration_us(execute), missed));
        seen.answers
            .extend(outcome.response.distribution().cloned());
        let (body, _) = tracer.span("server.wire_encode", Some(root), request_id, || {
            wire::encode_outcome_for(&outcome, decoded.regime()).to_string()
        });
        body
    };
    tracer.span("server.http_write", Some(root), request_id, || {
        let trace_id = [("x-trace-id", format!("{request_id:016x}"))];
        http::write_response_full(
            &mut Vec::with_capacity(body.len() + 256),
            200,
            "OK",
            "application/json",
            &body,
            true,
            &trace_id,
        )
        .expect("writing to memory cannot fail")
    });
    tracer.close(root);
    seen.response_bytes.push(body.len() as f64);
}

/// The `(path, departure)` of an estimate/prob request.
fn point_query(
    request: &QueryRequest,
) -> Option<(&pathcost_roadnet::Path, pathcost_traj::Timestamp)> {
    match request {
        QueryRequest::EstimateDistribution {
            path, departure, ..
        }
        | QueryRequest::ProbWithinBudget {
            path, departure, ..
        } => Some((path, *departure)),
        QueryRequest::RankPaths { .. } | QueryRequest::Route { .. } => None,
    }
}

/// The estimator and the histogram kernels on their own, over the first
/// point queries of the sample: `OdEstimator::estimate_with_artifacts` with
/// the OI/JC/MC breakdown it reports (the paper's Fig 17 split) as child
/// spans, the candidate array alone, and convolutions of answer-sized and
/// unit-edge histograms.
fn replay_core(
    tracer: &mut Tracer,
    engine: &QueryEngine<'_>,
    plan: &Plan,
    ops: &[Op],
    answers: &[Histogram1D],
    metrics: &mut Metrics,
) -> Vec<f64> {
    let graph = engine.graph();
    let estimator = OdEstimator::new(&graph);
    let partition = engine.partition().clone();
    let mut components = 0usize;
    let mut unit_components = 0usize;
    let mut estimations = 0usize;
    let mut estimate_us = Vec::new();
    let queries = ops
        .iter()
        .flat_map(|op| op.items.iter())
        .filter_map(|&id| point_query(&plan.items[id as usize].request))
        .take(CORE_REQUESTS);
    for (i, (path, departure)) in queries.enumerate() {
        let id = (REPLAY_REQUESTS + i) as u32;
        // The serving layer estimates at the interval's canonical departure.
        let canonical = engine.canonical_departure(partition.interval_of(departure.time_of_day()));
        let (artifacts, span) = tracer.span("core.estimate", None, id, || {
            estimator.estimate_with_artifacts(path, canonical)
        });
        let Ok(artifacts) = artifacts else { continue };
        estimate_us.push(tracer.duration_us(span));
        let at = tracer.start_of(span);
        let at =
            tracer.child_of_known_length("core.oi", span, at, artifacts.breakdown.decomposition_s);
        let at = tracer.child_of_known_length("core.jc", span, at, artifacts.breakdown.joint_s);
        tracer.child_of_known_length("core.mc", span, at, artifacts.breakdown.marginal_s);
        estimations += 1;
        components += artifacts.decomposition.len();
        unit_components += artifacts
            .decomposition
            .components()
            .iter()
            .filter(|c| c.rank() == 1 || c.source == CandidateSource::UnitFallback)
            .count();
        let _ = tracer.span("core.candidate_build", None, id, || {
            CandidateArray::build(&graph, path, canonical, None)
        });
        if i < 200 {
            // A path's unit-edge chain, as the legacy baseline and the
            // router's incremental estimates convolve it.
            let interval = partition.interval_of(canonical.time_of_day());
            let units: Vec<Histogram1D> = path
                .edges()
                .iter()
                .filter_map(|&edge| graph.weights().unit_histogram(edge, interval))
                .collect();
            let _ = tracer.span("histogram.convolve_many", None, id, || {
                convolve_many(&units)
            });
        }
    }
    for (i, pair) in answers.chunks_exact(2).take(200).enumerate() {
        let id = (REPLAY_REQUESTS + CORE_REQUESTS + i) as u32;
        let _ = tracer.span("histogram.convolve", None, id, || {
            convolve(&pair[0], &pair[1])
        });
    }
    metrics.set(
        "core.decomposition_len_mean",
        components as f64 / estimations.max(1) as f64,
    );
    metrics.set(
        "core.unit_fallback_share",
        unit_components as f64 / components.max(1) as f64,
    );
    estimate_us
}

/// Every distinct route of the sample once more through
/// `QueryEngine::execute`, with the engine's route counters read around it.
fn replay_routes(
    tracer: &mut Tracer,
    engine: &QueryEngine<'_>,
    plan: &Plan,
    ops: &[Op],
    metrics: &mut Metrics,
) {
    let mut routes: Vec<u32> = ops
        .iter()
        .flat_map(|op| op.items.iter().copied())
        .filter(|&id| matches!(plan.items[id as usize].request, QueryRequest::Route { .. }))
        .collect();
    routes.sort_unstable();
    routes.dedup();
    if routes.is_empty() {
        return;
    }
    let before = engine.stats();
    let mut total_us = 0.0;
    for &id in &routes {
        let (result, span) = tracer.span("routing.route", None, id, || {
            engine.execute(&plan.items[id as usize].request)
        });
        result.expect("a pre-filled route answers");
        total_us += tracer.duration_us(span);
    }
    let after = engine.stats();
    let n = routes.len() as f64;
    let expansions = (after.route_expansions - before.route_expansions) as f64;
    let candidates = (after.route_candidates_evaluated - before.route_candidates_evaluated) as f64;
    metrics.set(
        "routing.route_ms",
        median_or_zero(&tracer.durations_us("routing.route")) / 1e3,
    );
    metrics.set("routing.expansions_mean", expansions / n);
    metrics.set("routing.candidates_mean", candidates / n);
    metrics.set(
        "routing.incumbent_prunes_mean",
        (after.route_incumbent_prunes - before.route_incumbent_prunes) as f64 / n,
    );
    metrics.set("routing.us_per_expansion", total_us / expansions.max(1.0));
    metrics.set(
        "routing.eval_cache_hit_ratio",
        (after.route_eval_cache_hits - before.route_eval_cache_hits) as f64 / candidates.max(1.0),
    );
}

/// Submit → `Ticket::wait`, minus the execution the outcome reports: what
/// admission (queueing, the linger window, the hand-over between threads)
/// adds to one lone request.
fn admission_wait_us(engine: &QueryEngine<'_>, plan: &Plan, ops: &[Op]) -> f64 {
    let queue = AdmissionQueue::new(AdmissionConfig::default());
    let requests: Vec<&QueryRequest> = ops
        .iter()
        .filter(|op| !op.batch)
        .map(|op| &plan.items[op.items[0] as usize].request)
        .take(ADMISSION_REQUESTS)
        .collect();
    let waits = std::thread::scope(|scope| {
        scope.spawn(|| queue.dispatch(engine));
        let waits: Vec<f64> = requests
            .iter()
            .filter_map(|&request| {
                let began = Instant::now();
                let outcome = queue.submit(request.clone()).ok()?.wait().ok()?;
                Some((began.elapsed().saturating_sub(outcome.stats.latency)).as_secs_f64() * 1e6)
            })
            .collect();
        queue.close();
        waits
    });
    median_or_zero(&waits)
}

fn ingest_metrics(ingested: &Ingested, metrics: &mut Metrics) {
    let rows_per_batch = ingested.rows as f64 / ingested.ingest_ms.len().max(1) as f64;
    metrics.set("live.ingest_ms", median_or_zero(&ingested.ingest_ms));
    metrics.set(
        "live.ms_per_row",
        mean_or_zero(&ingested.ingest_ms) / rows_per_batch.max(1.0),
    );
    metrics.set("live.rows_per_s", ingested.rows as f64 / ingested.busy_s);
    metrics.set("live.dirty_keys_mean", mean_or_zero(&ingested.dirty_keys));
    metrics.set(
        "live.changed_vars_mean",
        mean_or_zero(&ingested.changed_vars),
    );
    if let (Some(first), Some(last)) = (ingested.ingest_ms.first(), ingested.ingest_ms.last()) {
        metrics.set("live.ingest_growth_ratio", last / first);
    }
    metrics.set(
        "service.apply_update_ms",
        median_or_zero(&ingested.apply_ms),
    );
    metrics.set(
        "service.evicted_per_update",
        mean_or_zero(&ingested.evicted),
    );
    metrics.set("persist.fsync_p50_ms", ingested.fsync_p50_ms);
    metrics.set(
        "persist.journal_bytes_per_row",
        ingested.journal_bytes as f64 / ingested.rows.max(1) as f64,
    );
    metrics.set("persist.snapshot_ms", ingested.snapshot_ms);
    metrics.set("persist.snapshot_bytes", ingested.snapshot_bytes as f64);
}

/// Runs `args.workload` traced and reports every per-layer metric.
pub fn run(args: RunArgs) -> RunResult {
    let RunArgs {
        workload,
        seed,
        seconds,
        preset,
    } = args;
    eprintln!(
        "{} on {} — traced, seed {seed}, {seconds} s of socket phases, {} connections",
        workload.name(),
        preset.name,
        connections()
    );
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    // Socket time: four closed-loop slices (tracing ring default, enlarged,
    // default, enlarged) and one open-loop slice at the operating rate.
    let operating = Duration::from_secs_f64(seconds / 3.0);
    let capacity = reference(workload).capacity_qps;
    let rate = ladder(workload)[0] * capacity;
    let closed_ops = (capacity * seconds / 6.0).ceil() as usize;
    let operating_ops = (rate * operating.as_secs_f64()).ceil() as usize;
    // The replay gets a segment of its own, so that on `cold_scan` it asks
    // keys the socket phases have not already cached.
    let replay_ops = if workload == Workload::RouteBatch {
        REPLAY_REQUESTS / 16
    } else {
        REPLAY_REQUESTS
    };
    let segments = [
        closed_ops,
        closed_ops,
        closed_ops,
        closed_ops,
        operating_ops,
        replay_ops,
    ];

    let fixture = Fixture::build(preset);
    let pools = Pools::build(&fixture);
    let plan = Plan::generate(workload, &fixture, &pools, seed, &segments);
    let stack = run::set_up(&fixture, &plan, &mut || {});
    let served = &stack.served;
    metrics.set("roadnet.generate_s", stack.times.generate_s);
    metrics.set("trajectory.simulate_s", stack.times.simulate_s);
    metrics.set("core.instantiate_s", stack.times.instantiate_s);
    metrics.set("core.variables", stack.times.variables as f64);
    metrics.set("service.warmup_s", stack.times.warmup_s);

    let churn = workload == Workload::IngestChurn;
    let state_dir = ingest::state_dir(workload.name());
    let segment = |i: usize| &plan.ops[plan.segments[i].clone()];
    let traced_config = || ServerConfig {
        trace_ring_capacity: TRACE_RING,
        ..harness::server_config()
    };

    let before = served.stats();
    let mut socket = || {
        let _awake = KeepAwake::start();
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        let mut operating_outcome = PhaseOutcome::default();
        for round in 0..2 {
            harness::serve(served, harness::server_config(), |addr| {
                untraced.push(closed(addr, segment(2 * round), &mut tally));
            });
            harness::serve(served, traced_config(), |addr| {
                traced.push(closed(addr, segment(2 * round + 1), &mut tally));
                if round == 1 {
                    let ops = segment(4);
                    operating_outcome = loadgen::open_loop(
                        addr,
                        connections(),
                        ops,
                        &schedule_ns(ops.len(), rate),
                        operating,
                        &accept,
                    );
                    tally.attempted += operating_outcome.attempted() as u64;
                    tally.failed += operating_outcome.failed() as u64;
                    stage_shares(addr, &mut metrics);
                    let began = Instant::now();
                    let mut conn = Connection::open(addr).expect("connect for the scrape");
                    let status = conn
                        .roundtrip("GET", "/metrics", "")
                        .expect("scrape /metrics");
                    assert_eq!(status, 200, "GET /metrics");
                    metrics.set("obs.metrics_scrape_ms", began.elapsed().as_secs_f64() * 1e3);
                    metrics.set("obs.metrics_bytes", conn.body().len() as f64);
                }
            });
        }
        (untraced, traced, operating_outcome)
    };
    let ((untraced, traced, operating_outcome), ingested) = if churn {
        let (observed, ingested) = ingest::alongside(&fixture, served, &state_dir, seconds, socket);
        (observed, Some(ingested))
    } else {
        (socket(), None)
    };
    let after = served.stats();
    counters(&before, &after, &mut metrics);
    check_hit_ratio(workload, cache_hit_ratio(&before, &after), &mut tally);
    let (capacity_untraced, capacity_traced) = (stats::median(&untraced), stats::median(&traced));
    metrics.set(
        "obs.trace_overhead_pct",
        (capacity_untraced - capacity_traced) / capacity_untraced * 100.0,
    );
    eprintln!("  closed loop: {capacity_untraced:.0}/s with the default trace ring, {capacity_traced:.0}/s enlarged");

    // The tail at the operating rate, by the percentile rule: too unsteady
    // on a small sandbox to carry a regression bound, so it is reported
    // here and not among the end-to-end metrics.
    let mut operating_rung = Rung::new(rate);
    operating_rung.absorb(&operating_outcome, reference(workload).slo_ms);
    operating_rung.sort();
    if let Some((_, latency_ms, sendlag_ms)) = operating_rung.tail_ms() {
        metrics.set("loadgen.latency_p99_ms", latency_ms);
        metrics.set("loadgen.sendlag_p99_ms", sendlag_ms);
    }
    let socket_p50_us = if operating_rung.latency_ms.is_empty() {
        0.0
    } else {
        operating_rung.p50_ms() * 1e3
    };

    if let Some(ingested) = &ingested {
        metrics.set(
            "service.hit_ratio_under_churn",
            cache_hit_ratio(&before, &after),
        );
        ingest_metrics(ingested, &mut metrics);
        let recovered = harness::serve(served, harness::server_config(), |addr| {
            ingest::verify_lineage(
                addr,
                &fixture,
                served,
                &plan,
                ingested,
                &state_dir,
                false,
                100,
                &mut tally,
                &mut || {},
            )
        });
        metrics.set(
            "persist.replayed_records",
            recovered.replayed_records as f64,
        );
    }
    let _ = std::fs::remove_dir_all(&state_dir);

    // The in-process replay.
    let mut tracer = Tracer::new();
    let mut seen = Replayed::default();
    let ops = segment(5);
    for (i, op) in ops.iter().enumerate() {
        replay_op(&mut tracer, served, i as u32, op, &mut seen);
    }
    tally.add("in-process replay", ops.len(), seen.failed);
    let p50 = |tracer: &Tracer, name: &str| median_or_zero(&tracer.durations_us(name));
    for (metric, span) in [
        ("server.http_read_us", "server.http_read"),
        ("server.json_parse_us", "server.json_parse"),
        ("server.wire_decode_us", "server.wire_decode"),
        ("server.wire_encode_us", "server.wire_encode"),
        ("server.http_write_us", "server.http_write"),
        ("service.execute_hit_us", "service.execute_hit"),
        ("service.execute_miss_us", "service.execute_miss"),
    ] {
        metrics.set(metric, p50(&tracer, span));
    }
    metrics.set("server.response_bytes", mean_or_zero(&seen.response_bytes));
    metrics.set(
        "histogram.buckets_mean",
        mean_or_zero(
            &seen
                .answers
                .iter()
                .map(|h| h.bucket_count() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let envelopes = tracer.durations_us("service.execute_batch");
    metrics.set(
        "service.batch_us_per_query",
        median_or_zero(&envelopes) / 16.0,
    );
    let in_process_p50 = p50(&tracer, "request");
    metrics.set(
        "server.socket_overhead_us",
        (socket_p50_us - in_process_p50).max(0.0),
    );

    let estimate_us = replay_core(
        &mut tracer,
        &stack.independent,
        &plan,
        ops,
        &seen.answers,
        &mut metrics,
    );
    for (metric, span) in [
        ("core.estimate_us", "core.estimate"),
        ("core.oi_us", "core.oi"),
        ("core.jc_us", "core.jc"),
        ("core.mc_us", "core.mc"),
        ("core.candidate_build_us", "core.candidate_build"),
        ("histogram.convolve_us", "histogram.convolve"),
        ("histogram.convolve_many_us", "histogram.convolve_many"),
    ] {
        metrics.set(metric, p50(&tracer, span));
    }
    // What serving a miss costs beyond the estimation itself — the cache
    // insert, the dependency records, the eviction — as a difference of
    // means over the same requests (medians of two skewed samples do not
    // subtract).
    let misses: Vec<f64> = seen
        .executes
        .iter()
        .take(estimate_us.len())
        .filter(|(_, missed)| *missed)
        .map(|(us, _)| *us)
        .collect();
    if misses.len() == estimate_us.len() && !misses.is_empty() {
        metrics.set(
            "service.cache_overhead_us",
            (mean_or_zero(&misses) - mean_or_zero(&estimate_us)).max(0.0),
        );
    }
    replay_routes(&mut tracer, served, &plan, ops, &mut metrics);
    metrics.set(
        "service.admission_wait_us",
        admission_wait_us(served, &plan, ops),
    );

    let path = ingest::out_dir().join(format!("{}.trace.json", workload.name()));
    std::fs::create_dir_all(ingest::out_dir()).expect("create benchmark/out");
    std::fs::write(&path, tracer.to_json(workload.name()).to_string())
        .expect("write the trace file");
    eprintln!(
        "  {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    for (name, ns) in tracer.self_time_by_name_ns() {
        eprintln!("    self time {name:<28} {:>10.3} ms", ns as f64 / 1e6);
    }

    RunResult {
        workload: workload.name().to_string(),
        seed,
        traced: true,
        correct: tally.failed == 0 && tally.problems.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        problems: tally.problems,
    }
}
