//! JSON wire format: request decoding and response encoding.
//!
//! ## Requests (`POST /query`)
//!
//! ```json
//! {"type": "estimate", "path": [0, 1, 2], "departure_s": 28800}
//! {"type": "prob", "path": [0, 1], "departure_s": 28800, "budget_s": 600}
//! {"type": "rank", "candidates": [[0, 1], [2, 3]], "departure_s": 0, "budget_s": 600}
//! {"type": "route", "source": 0, "destination": 9, "departure_s": 0, "budget_s": 900, "k": 2}
//! ```
//!
//! Every kind accepts an optional `"regime"` (u16, default 0 = all-traffic):
//! the traffic regime the query evaluates under. Non-zero regimes are echoed
//! back in the response's `stats` object together with the fallback depth
//! the answer resolved at; regime 0 requests produce byte-identical
//! responses to the pre-regime wire format.
//!
//! `POST /query/batch` wraps them: `{"requests": [...]}`.
//!
//! ## Responses
//!
//! Success is `{"type": ..., ...payload, "stats": {...}}` mirroring
//! [`QueryResponse`](pathcost_service::QueryResponse); failures are
//! `{"error": "..."}` with the status from
//! [`error_status`]. Distributions are encoded as
//! `[{"lo": s, "hi": s, "p": p}, ...]` bucket triples.

use crate::json::Json;
use pathcost_hist::Histogram1D;
use pathcost_roadnet::{EdgeId, Path, VertexId};
use pathcost_routing::RouteResult;
use pathcost_service::{QueryOutcome, QueryRequest, QueryStats, RegimeId, ServiceError};
use pathcost_traj::Timestamp;
use std::fmt::Write;

/// Decodes one request object into a typed [`QueryRequest`].
pub fn decode_request(value: &Json) -> Result<QueryRequest, String> {
    let kind = value
        .get("type")
        .and_then(Json::as_str)
        .ok_or("missing string field \"type\"")?;
    match kind {
        "estimate" => Ok(QueryRequest::EstimateDistribution {
            path: decode_path(value.get("path"), "path")?,
            departure: decode_departure(value)?,
            regime: decode_regime(value)?,
        }),
        "prob" => Ok(QueryRequest::ProbWithinBudget {
            path: decode_path(value.get("path"), "path")?,
            departure: decode_departure(value)?,
            budget_s: decode_budget(value)?,
            regime: decode_regime(value)?,
        }),
        "rank" => {
            let candidates = value
                .get("candidates")
                .and_then(Json::as_array)
                .ok_or("missing array field \"candidates\"")?;
            if candidates.is_empty() {
                return Err("\"candidates\" must be non-empty".to_string());
            }
            Ok(QueryRequest::RankPaths {
                candidates: candidates
                    .iter()
                    .map(|c| decode_path(Some(c), "candidates"))
                    .collect::<Result<_, _>>()?,
                departure: decode_departure(value)?,
                budget_s: decode_budget(value)?,
                regime: decode_regime(value)?,
            })
        }
        "route" => {
            let k = match value.get("k") {
                None => 1,
                Some(k) => {
                    let k = k.as_u64().ok_or("\"k\" must be a positive integer")?;
                    if k == 0 {
                        return Err("\"k\" must be ≥ 1".to_string());
                    }
                    usize::try_from(k).map_err(|_| "\"k\" out of range".to_string())?
                }
            };
            Ok(QueryRequest::Route {
                source: VertexId(decode_vertex(value, "source")?),
                destination: VertexId(decode_vertex(value, "destination")?),
                departure: decode_departure(value)?,
                budget_s: decode_budget(value)?,
                k,
                regime: decode_regime(value)?,
            })
        }
        other => Err(format!(
            "unknown request type {other:?} (expected estimate | prob | rank | route)"
        )),
    }
}

/// Decodes the `POST /query/batch` envelope into its request list.
pub fn decode_batch(value: &Json) -> Result<Vec<QueryRequest>, String> {
    let requests = value
        .get("requests")
        .and_then(Json::as_array)
        .ok_or("missing array field \"requests\"")?;
    requests
        .iter()
        .enumerate()
        .map(|(i, r)| decode_request(r).map_err(|e| format!("requests[{i}]: {e}")))
        .collect()
}

fn decode_path(value: Option<&Json>, field: &str) -> Result<Path, String> {
    let edges = value
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing array field {field:?}"))?;
    if edges.is_empty() {
        return Err(format!("{field:?} must contain at least one edge id"));
    }
    let ids = edges
        .iter()
        .map(|e| {
            e.as_u64()
                .and_then(|id| u32::try_from(id).ok())
                .map(EdgeId)
                .ok_or_else(|| format!("{field:?} entries must be u32 edge ids"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Path::from_edges_unchecked(ids))
}

fn decode_departure(value: &Json) -> Result<Timestamp, String> {
    let s = value
        .get("departure_s")
        .and_then(Json::as_f64)
        .ok_or("missing number field \"departure_s\"")?;
    if s < 0.0 {
        return Err("\"departure_s\" must be ≥ 0".to_string());
    }
    Ok(Timestamp(s))
}

fn decode_budget(value: &Json) -> Result<f64, String> {
    let budget = value
        .get("budget_s")
        .and_then(Json::as_f64)
        .ok_or("missing number field \"budget_s\"")?;
    if budget <= 0.0 {
        return Err("\"budget_s\" must be > 0".to_string());
    }
    Ok(budget)
}

fn decode_regime(value: &Json) -> Result<RegimeId, String> {
    match value.get("regime") {
        None => Ok(RegimeId::ALL_TRAFFIC),
        Some(r) => r
            .as_u64()
            .and_then(|id| u16::try_from(id).ok())
            .map(RegimeId)
            .ok_or_else(|| "\"regime\" must be a u16 regime id".to_string()),
    }
}

fn decode_vertex(value: &Json, field: &str) -> Result<u32, String> {
    value
        .get(field)
        .and_then(Json::as_u64)
        .and_then(|id| u32::try_from(id).ok())
        .ok_or_else(|| format!("missing u32 field {field:?}"))
}

/// Encodes a successful outcome (payload + per-query stats), echoing the
/// request's non-global regime in the stats object. The document is
/// written straight to its compact text and returned as a [`Json::Raw`]
/// fragment, which an enclosing tree (the `/query/batch` envelope) writes
/// verbatim.
pub fn encode_outcome_for(outcome: &QueryOutcome, regime: RegimeId) -> Json {
    Json::Raw(outcome_body(outcome, regime))
}

/// Encodes a successful outcome (payload + per-query stats).
pub fn encode_outcome(outcome: &QueryOutcome) -> Json {
    encode_outcome_for(outcome, RegimeId::ALL_TRAFFIC)
}

/// The compact JSON of a successful outcome, written into one `String`:
/// the bytes a [`Json`] tree of the same document writes — keys in the same
/// order, numbers formatted as `{n}`, a non-finite number as `null` —
/// without building the tree.
pub(crate) fn outcome_body(outcome: &QueryOutcome, regime: RegimeId) -> String {
    use pathcost_service::QueryResponse;
    let mut out = match &outcome.response {
        QueryResponse::Distribution(hist) => {
            // A bucket triple is ~50 bytes of text.
            let mut out = String::with_capacity(64 * hist.bucket_count() + 256);
            out.push_str(r#"{"type":"distribution","distribution":"#);
            push_histogram(&mut out, hist);
            out
        }
        QueryResponse::Probability(p) => {
            let mut out = String::with_capacity(256);
            out.push_str(r#"{"type":"probability","probability":"#);
            push_number(&mut out, *p);
            out
        }
        QueryResponse::Ranking(ranking) => {
            let mut out = String::with_capacity(48 * ranking.len() + 256);
            out.push_str(r#"{"type":"ranking","ranking":["#);
            for (i, ranked) in ranking.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(r#"{"index":"#);
                push_count(&mut out, ranked.index as u128);
                out.push_str(r#","probability":"#);
                push_number(&mut out, ranked.probability);
                out.push('}');
            }
            out.push(']');
            out
        }
        QueryResponse::Route(route) => {
            let mut out = String::with_capacity(512);
            out.push_str(r#"{"type":"route","route":"#);
            match route {
                Some(route) => push_route(&mut out, route),
                None => out.push_str("null"),
            }
            out
        }
        QueryResponse::Routes(routes) => {
            let mut out = String::with_capacity(256 * routes.len() + 256);
            out.push_str(r#"{"type":"routes","routes":["#);
            for (i, route) in routes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_route(&mut out, route);
            }
            out.push(']');
            out
        }
    };
    push_query_stats(&mut out, &outcome.stats, regime);
    out.push('}');
    out
}

/// A JSON number as [`Json::Number`] writes it: `{n}`, `null` when not
/// finite.
fn push_number(out: &mut String, n: f64) {
    if n.is_finite() {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// A count as `Json::Number(n as f64)` writes it. Up to 2⁵³ an `f64` holds
/// the integer exactly and `{n}` prints the same digits, so the integer is
/// formatted directly.
fn push_count(out: &mut String, n: u128) {
    if n <= 1 << 53 {
        let _ = write!(out, "{n}");
    } else {
        push_number(out, n as f64);
    }
}

fn push_histogram(out: &mut String, hist: &Histogram1D) {
    out.push('[');
    for (i, (bucket, &p)) in hist.buckets().iter().zip(hist.probs()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r#"{"lo":"#);
        push_number(out, bucket.lo);
        out.push_str(r#","hi":"#);
        push_number(out, bucket.hi);
        out.push_str(r#","p":"#);
        push_number(out, p);
        out.push('}');
    }
    out.push(']');
}

fn push_route(out: &mut String, route: &RouteResult) {
    out.push_str(r#"{"path":["#);
    for (i, edge) in route.path.edges().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_count(out, u128::from(edge.0));
    }
    out.push_str(r#"],"probability":"#);
    push_number(out, route.probability);
    out.push_str(r#","evaluated_candidates":"#);
    push_count(out, route.evaluated_candidates as u128);
    out.push_str(r#","expansions":"#);
    push_count(out, route.expansions as u128);
    out.push('}');
}

/// The `,"stats":{..}` member closing every outcome, with the regime
/// echoed last when it is not the global one.
fn push_query_stats(out: &mut String, stats: &QueryStats, regime: RegimeId) {
    out.push_str(r#","stats":{"cache_hits":"#);
    push_count(out, u128::from(stats.cache_hits));
    out.push_str(r#","cache_misses":"#);
    push_count(out, u128::from(stats.cache_misses));
    out.push_str(r#","max_decomposition_depth":"#);
    push_count(out, stats.max_decomposition_depth as u128);
    out.push_str(r#","max_fallback_depth":"#);
    push_count(out, stats.max_fallback_depth as u128);
    out.push_str(r#","latency_us":"#);
    push_count(out, stats.latency.as_micros());
    out.push_str(if stats.degraded {
        r#","degraded":true"#
    } else {
        r#","degraded":false"#
    });
    if !regime.is_global() {
        out.push_str(r#","regime":"#);
        push_count(out, u128::from(regime.0));
    }
    out.push('}');
}

/// The HTTP status a [`ServiceError`] maps to.
pub fn error_status(error: &ServiceError) -> (u16, &'static str) {
    match error {
        ServiceError::InvalidRequest(_) | ServiceError::RoadNet(_) => (400, "Bad Request"),
        ServiceError::Overloaded | ServiceError::ShuttingDown | ServiceError::Cancelled => {
            (503, "Service Unavailable")
        }
        // Early admission rejection while degraded: the client should back
        // off (the response carries `Retry-After`).
        ServiceError::Degraded => (429, "Too Many Requests"),
        ServiceError::DeadlineExceeded => (504, "Gateway Timeout"),
        ServiceError::Core(_) | ServiceError::Routing(_) | ServiceError::Internal(_) => {
            (500, "Internal Server Error")
        }
    }
}

/// Encodes an error body: `{"error": "..."}`.
pub fn encode_error(message: &str) -> Json {
    Json::object(vec![("error", Json::String(message.to_string()))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn decodes_every_request_kind() {
        let estimate =
            json::parse(br#"{"type":"estimate","path":[1,2,3],"departure_s":100.5}"#).unwrap();
        match decode_request(&estimate).unwrap() {
            QueryRequest::EstimateDistribution {
                path,
                departure,
                regime,
            } => {
                assert_eq!(path.edges(), &[EdgeId(1), EdgeId(2), EdgeId(3)]);
                assert_eq!(departure.0, 100.5);
                assert_eq!(regime, RegimeId::ALL_TRAFFIC, "regime defaults to global");
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let prob =
            json::parse(br#"{"type":"prob","path":[0],"departure_s":0,"budget_s":600}"#).unwrap();
        assert!(matches!(
            decode_request(&prob).unwrap(),
            QueryRequest::ProbWithinBudget { budget_s, .. } if budget_s == 600.0
        ));

        let rank = json::parse(
            br#"{"type":"rank","candidates":[[0,1],[2]],"departure_s":0,"budget_s":60}"#,
        )
        .unwrap();
        assert!(matches!(
            decode_request(&rank).unwrap(),
            QueryRequest::RankPaths { candidates, .. } if candidates.len() == 2
        ));

        let route = json::parse(
            br#"{"type":"route","source":4,"destination":7,"departure_s":0,"budget_s":900}"#,
        )
        .unwrap();
        assert!(matches!(
            decode_request(&route).unwrap(),
            QueryRequest::Route {
                source: VertexId(4),
                destination: VertexId(7),
                k: 1,
                ..
            }
        ));
    }

    #[test]
    fn decodes_and_echoes_the_regime_field() {
        let prob =
            json::parse(br#"{"type":"prob","path":[0],"departure_s":0,"budget_s":600,"regime":2}"#)
                .unwrap();
        assert_eq!(decode_request(&prob).unwrap().regime(), RegimeId(2));
        let bad = json::parse(
            br#"{"type":"prob","path":[0],"departure_s":0,"budget_s":600,"regime":-1}"#,
        )
        .unwrap();
        assert!(decode_request(&bad).unwrap_err().contains("regime"));

        // The stats echo: non-global regimes are stamped into the response,
        // regime 0 keeps the pre-regime wire format byte-identical.
        let outcome = QueryOutcome {
            response: pathcost_service::QueryResponse::Probability(0.5),
            stats: QueryStats::default(),
        };
        let global = encode_outcome_for(&outcome, RegimeId::ALL_TRAFFIC);
        assert_eq!(global.to_string(), encode_outcome(&outcome).to_string());
        let global = json::parse(global.to_string().as_bytes()).unwrap();
        assert!(global.get("stats").unwrap().get("regime").is_none());
        let tagged = encode_outcome_for(&outcome, RegimeId(2));
        let tagged = json::parse(tagged.to_string().as_bytes()).unwrap();
        assert_eq!(
            tagged.get("stats").unwrap().get("regime").unwrap().as_u64(),
            Some(2)
        );
    }

    /// The tree encoder the streamed one replaced, kept as the reference
    /// its bytes are checked against.
    mod tree {
        use super::*;
        use pathcost_service::QueryResponse;

        pub fn encode_outcome_for(outcome: &QueryOutcome, regime: RegimeId) -> Json {
            let mut encoded = encode_outcome(outcome);
            if !regime.is_global() {
                if let Json::Object(fields) = &mut encoded {
                    if let Some((_, Json::Object(stat_fields))) =
                        fields.iter_mut().find(|(name, _)| name == "stats")
                    {
                        stat_fields.push(("regime".to_string(), Json::Number(f64::from(regime.0))));
                    }
                }
            }
            encoded
        }

        fn encode_outcome(outcome: &QueryOutcome) -> Json {
            let mut fields = match &outcome.response {
                QueryResponse::Distribution(hist) => vec![
                    ("type", Json::String("distribution".to_string())),
                    ("distribution", encode_histogram(hist)),
                ],
                QueryResponse::Probability(p) => vec![
                    ("type", Json::String("probability".to_string())),
                    ("probability", Json::Number(*p)),
                ],
                QueryResponse::Ranking(ranking) => vec![
                    ("type", Json::String("ranking".to_string())),
                    (
                        "ranking",
                        Json::Array(
                            ranking
                                .iter()
                                .map(|r| {
                                    Json::object(vec![
                                        ("index", Json::Number(r.index as f64)),
                                        ("probability", Json::Number(r.probability)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ],
                QueryResponse::Route(route) => vec![
                    ("type", Json::String("route".to_string())),
                    ("route", route.as_ref().map_or(Json::Null, encode_route)),
                ],
                QueryResponse::Routes(routes) => vec![
                    ("type", Json::String("routes".to_string())),
                    (
                        "routes",
                        Json::Array(routes.iter().map(encode_route).collect()),
                    ),
                ],
            };
            fields.push(("stats", encode_query_stats(&outcome.stats)));
            Json::object(fields)
        }

        fn encode_histogram(hist: &Histogram1D) -> Json {
            Json::Array(
                hist.buckets()
                    .iter()
                    .zip(hist.probs())
                    .map(|(bucket, &p)| {
                        Json::object(vec![
                            ("lo", Json::Number(bucket.lo)),
                            ("hi", Json::Number(bucket.hi)),
                            ("p", Json::Number(p)),
                        ])
                    })
                    .collect(),
            )
        }

        fn encode_route(route: &RouteResult) -> Json {
            Json::object(vec![
                (
                    "path",
                    Json::Array(
                        route
                            .path
                            .edges()
                            .iter()
                            .map(|e| Json::Number(e.0 as f64))
                            .collect(),
                    ),
                ),
                ("probability", Json::Number(route.probability)),
                (
                    "evaluated_candidates",
                    Json::Number(route.evaluated_candidates as f64),
                ),
                ("expansions", Json::Number(route.expansions as f64)),
            ])
        }

        fn encode_query_stats(stats: &QueryStats) -> Json {
            Json::object(vec![
                ("cache_hits", Json::Number(stats.cache_hits as f64)),
                ("cache_misses", Json::Number(stats.cache_misses as f64)),
                (
                    "max_decomposition_depth",
                    Json::Number(stats.max_decomposition_depth as f64),
                ),
                (
                    "max_fallback_depth",
                    Json::Number(stats.max_fallback_depth as f64),
                ),
                ("latency_us", Json::Number(stats.latency.as_micros() as f64)),
                ("degraded", Json::Bool(stats.degraded)),
            ])
        }
    }

    #[test]
    fn streamed_encoder_matches_the_tree_encoder_byte_for_byte() {
        use pathcost_hist::Bucket;
        use pathcost_service::{QueryResponse, RankedPath};
        use std::sync::Arc;
        use std::time::Duration;

        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let histogram = |buckets: &[(f64, f64)], probs: &[f64]| {
            let buckets = buckets.iter().map(|&(lo, hi)| Bucket { lo, hi }).collect();
            Arc::new(Histogram1D::from_raw_parts(buckets, probs.to_vec()).unwrap())
        };
        let awkward = histogram(
            &[(0.1, 1.0 / 3.0), (2.0, 1e21), (1e21, 6.022_140_76e23)],
            &[0.1 + 0.2, 1e-7, 0.0],
        );
        let unbounded = histogram(&[(-inf, -0.0), (0.0, inf)], &[0.5, 0.5]);
        let route = |edges: Vec<u32>, probability: f64| RouteResult {
            path: Path::from_edges_unchecked(edges.into_iter().map(EdgeId).collect()),
            probability,
            distribution: Arc::clone(&awkward),
            evaluated_candidates: 17,
            expansions: 9_007_199_254_740_993,
            incumbent_prunes: 3,
        };
        let responses = vec![
            QueryResponse::Distribution(Arc::clone(&awkward)),
            QueryResponse::Distribution(unbounded),
            QueryResponse::Probability(0.75),
            QueryResponse::Probability(nan),
            QueryResponse::Ranking(Vec::new()),
            QueryResponse::Ranking(vec![
                RankedPath {
                    index: 1,
                    probability: 1.0 / 3.0,
                },
                RankedPath {
                    index: 0,
                    probability: -inf,
                },
            ]),
            QueryResponse::Route(None),
            QueryResponse::Route(Some(route(vec![4, 0, u32::MAX], inf))),
            QueryResponse::Routes(Vec::new()),
            QueryResponse::Routes(vec![route(vec![1], 0.5), route(vec![2, 3], nan)]),
        ];
        let stats = [
            QueryStats::default(),
            QueryStats {
                cache_hits: u64::MAX,
                cache_misses: (1 << 53) + 1,
                max_decomposition_depth: 6,
                max_fallback_depth: 2,
                latency: Duration::from_micros(1_234_567),
                degraded: true,
            },
        ];
        let mut batch = (Vec::new(), Vec::new());
        for response in &responses {
            for stats in &stats {
                for regime in [RegimeId::ALL_TRAFFIC, RegimeId(2), RegimeId(u16::MAX)] {
                    let outcome = QueryOutcome {
                        response: response.clone(),
                        stats: *stats,
                    };
                    let (streamed, reference) = (
                        encode_outcome_for(&outcome, regime),
                        tree::encode_outcome_for(&outcome, regime),
                    );
                    assert_eq!(streamed.to_string(), reference.to_string());
                    if regime.is_global() {
                        assert_eq!(encode_outcome(&outcome).to_string(), reference.to_string());
                    }
                    batch.0.push(streamed);
                    batch.1.push(reference);
                }
            }
        }
        // The `/query/batch` envelope writes each fragment verbatim, errors
        // beside outcomes.
        for results in [&mut batch.0, &mut batch.1] {
            results.insert(1, encode_error("deadline exceeded"));
        }
        let envelope =
            |results: Vec<Json>| Json::object(vec![("results", Json::Array(results))]).to_string();
        assert_eq!(envelope(batch.0), envelope(batch.1));
    }

    #[test]
    fn rejects_malformed_requests_with_messages() {
        for (doc, needle) in [
            (&br#"{"path":[1]}"#[..], "type"),
            (br#"{"type":"teleport"}"#, "unknown request type"),
            (br#"{"type":"estimate","path":[],"departure_s":0}"#, "at least one edge"),
            (br#"{"type":"estimate","path":[1.5],"departure_s":0}"#, "u32 edge ids"),
            (br#"{"type":"estimate","path":[1],"departure_s":-4}"#, "≥ 0"),
            (br#"{"type":"prob","path":[1],"departure_s":0,"budget_s":0}"#, "> 0"),
            (br#"{"type":"rank","candidates":[],"departure_s":0,"budget_s":5}"#, "non-empty"),
            (br#"{"type":"route","source":1,"departure_s":0,"budget_s":5}"#, "destination"),
            (
                br#"{"type":"route","source":1,"destination":2,"departure_s":0,"budget_s":5,"k":0}"#,
                "k",
            ),
        ] {
            let value = json::parse(doc).unwrap();
            let err = decode_request(&value).unwrap_err();
            assert!(
                err.contains(needle),
                "error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn batch_envelope_reports_the_failing_index() {
        let value = json::parse(
            br#"{"requests":[{"type":"estimate","path":[1],"departure_s":0},{"type":"bogus"}]}"#,
        )
        .unwrap();
        let err = decode_batch(&value).unwrap_err();
        assert!(err.starts_with("requests[1]:"), "{err}");
    }
}
