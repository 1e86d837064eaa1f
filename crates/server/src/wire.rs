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
/// request's non-global regime in the stats object.
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

/// Encodes a successful outcome (payload + per-query stats).
pub fn encode_outcome(outcome: &QueryOutcome) -> Json {
    use pathcost_service::QueryResponse;
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
        assert!(global.get("stats").unwrap().get("regime").is_none());
        let tagged = encode_outcome_for(&outcome, RegimeId(2));
        assert_eq!(
            tagged.get("stats").unwrap().get("regime").unwrap().as_u64(),
            Some(2)
        );
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
