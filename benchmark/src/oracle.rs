//! The answer comparator.
//!
//! An operation succeeded only if it was answered `200` *and* its payload
//! equals the reference answer. A response carries a `stats` object (cache
//! hits, latency, the regime echo) that legitimately differs between two
//! evaluations of the same query; everything else must match: same
//! members, same array lengths and order, same strings, and numbers equal
//! to within [`TOLERANCE`].
//!
//! The tolerance exists because the program does not reproduce its own
//! answers bit for bit: `pathcost_core::joint::merge_states` walks a
//! `HashMap`, so two evaluations of one query sum their chain states in
//! different orders and differ in the last bits (observed: up to 1e-14
//! relative, on about a third of the 8–40-edge answers of `city40`). Two answers read
//! from the *same* cache entry are bit-identical and take the byte-compare
//! shortcut; the tolerance only decides between independent evaluations.
//! A wrong bucket is off by many orders of magnitude more. Set it to zero
//! once the estimator is made reproducible.

use pathcost_server::{json, Json};

/// The reference answer for one request body.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The encoded reference up to its trailing `stats` member. A response
    /// that starts with these bytes and continues with `stats` matches
    /// without being parsed, which keeps the load generator cheap.
    prefix: Option<String>,
    canonical: Json,
}

const STATS_MEMBER: &str = ",\"stats\":";

/// Largest relative difference between two numbers that still counts as the
/// same answer (see the module documentation).
pub const TOLERANCE: f64 = 1e-9;

/// `value` with every `stats` member removed, at any depth (a batch answer
/// carries one per result).
fn canonical(value: Json) -> Json {
    match value {
        Json::Object(fields) => Json::Object(
            fields
                .into_iter()
                .filter(|(key, _)| key != "stats")
                .map(|(key, v)| (key, canonical(v)))
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.into_iter().map(canonical).collect()),
        other => other,
    }
}

impl Expected {
    /// Builds the reference from the program's own encoding of the
    /// reference outcome.
    pub fn from_encoded(reference: &str) -> Self {
        let parsed = json::parse(reference.as_bytes()).expect("reference answers are valid JSON");
        // Only a single trailing `stats` member allows the prefix shortcut.
        let prefix = match reference.match_indices(STATS_MEMBER).collect::<Vec<_>>()[..] {
            [(at, _)] => Some(reference[..at].to_string()),
            _ => None,
        };
        Expected {
            prefix,
            canonical: canonical(parsed),
        }
    }

    /// Whether `response` (a `200` body) carries the reference payload.
    pub fn matches(&self, response: &[u8]) -> bool {
        if let Some(prefix) = &self.prefix {
            if response.starts_with(prefix.as_bytes())
                && response[prefix.len()..].starts_with(STATS_MEMBER.as_bytes())
                && closes_the_answer(&response[prefix.len() + STATS_MEMBER.len()..])
            {
                return true;
            }
        }
        json::parse(response).is_ok_and(|parsed| self.matches_value(&parsed))
    }

    /// Whether two references carry the same payload.
    pub fn same_payload_as(&self, other: &Expected) -> bool {
        same_payload(&other.canonical, &self.canonical)
    }

    /// As [`Self::matches`], for an already parsed answer (one result of a
    /// batch envelope).
    pub fn matches_value(&self, answer: &Json) -> bool {
        same_payload(answer, &self.canonical)
    }
}

/// Whether `answer`, ignoring its `stats` members, equals `canonical`.
/// Object members may come in any order; array elements may not.
fn same_payload(answer: &Json, canonical: &Json) -> bool {
    match (answer, canonical) {
        (Json::Object(fields), Json::Object(expected)) => {
            fields.iter().filter(|(key, _)| key != "stats").count() == expected.len()
                && expected
                    .iter()
                    .all(|(key, want)| answer.get(key).is_some_and(|have| same_payload(have, want)))
        }
        (Json::Array(items), Json::Array(expected)) => {
            items.len() == expected.len()
                && items.iter().zip(expected).all(|(a, e)| same_payload(a, e))
        }
        (Json::Number(a), Json::Number(e)) => {
            a == e || (a - e).abs() <= TOLERANCE * a.abs().max(e.abs())
        }
        (a, e) => a == e,
    }
}

/// Whether `tail` is one flat object followed by the answer's closing
/// brace — i.e. nothing but `stats` follows the matched prefix. Anything
/// else (a nested member, a further field) goes through the parser.
fn closes_the_answer(tail: &[u8]) -> bool {
    tail.len() >= 3
        && tail[0] == b'{'
        && tail.ends_with(b"}}")
        && !tail[1..tail.len() - 2]
            .iter()
            .any(|&b| b == b'{' || b == b'}')
}

/// Checks the shape of an answer whose exact value has no fixed reference
/// (reads racing an ingest): a distribution must be a proper histogram, a
/// probability must lie in `[0, 1]`.
pub fn well_formed(response: &[u8]) -> bool {
    let Ok(parsed) = json::parse(response) else {
        return false;
    };
    match parsed.get("type").and_then(Json::as_str) {
        Some("distribution") => {
            let Some(buckets) = parsed.get("distribution").and_then(Json::as_array) else {
                return false;
            };
            let mut total = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for bucket in buckets {
                let (Some(lo), Some(hi), Some(p)) = (
                    bucket.get("lo").and_then(Json::as_f64),
                    bucket.get("hi").and_then(Json::as_f64),
                    bucket.get("p").and_then(Json::as_f64),
                ) else {
                    return false;
                };
                if lo < reach || hi <= lo || !(0.0..=1.0).contains(&p) {
                    return false;
                }
                reach = hi;
                total += p;
            }
            !buckets.is_empty() && (total - 1.0).abs() < 1e-6
        }
        Some("probability") => parsed
            .get("probability")
            .and_then(Json::as_f64)
            .is_some_and(|p| (0.0..=1.0).contains(&p)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REFERENCE: &str = r#"{"type":"distribution","distribution":[{"lo":10,"hi":20,"p":0.25},{"lo":20,"hi":30,"p":0.75}],"stats":{"cache_hits":0,"cache_misses":1,"latency_us":812,"degraded":false}}"#;

    #[test]
    fn stats_may_differ_the_payload_may_not() {
        let expected = Expected::from_encoded(REFERENCE);
        assert!(expected.matches(REFERENCE.as_bytes()));
        let warm = REFERENCE
            .replace("\"cache_hits\":0", "\"cache_hits\":1")
            .replace("\"latency_us\":812", "\"latency_us\":3");
        assert!(expected.matches(warm.as_bytes()), "stats are not payload");
        // The regime echo lands inside `stats` too.
        let echoed = REFERENCE.replace("\"degraded\":false", "\"degraded\":false,\"regime\":2");
        assert!(expected.matches(echoed.as_bytes()));
    }

    #[test]
    fn a_flipped_histogram_bucket_is_a_failed_operation() {
        let expected = Expected::from_encoded(REFERENCE);
        let flipped = REFERENCE
            .replace("\"p\":0.25", "\"p\":0.5")
            .replace("\"p\":0.75", "\"p\":0.25")
            .replace("\"p\":0.5", "\"p\":0.75");
        assert!(!expected.matches(flipped.as_bytes()), "two buckets swapped");
        let nudged = REFERENCE.replace("\"p\":0.25", "\"p\":0.250001");
        assert!(
            !expected.matches(nudged.as_bytes()),
            "one part in a million is wrong"
        );
        // The program's own evaluation-order noise is not.
        let reordered_sum = REFERENCE.replace("\"p\":0.25", "\"p\":0.25000000000000006");
        assert!(expected.matches(reordered_sum.as_bytes()));
        let moved = REFERENCE.replace("\"hi\":30", "\"hi\":31");
        assert!(!expected.matches(moved.as_bytes()));
        let dropped = REFERENCE.replace(r#",{"lo":20,"hi":30,"p":0.75}"#, "");
        assert!(!expected.matches(dropped.as_bytes()));
        let extended =
            REFERENCE.replace("\"degraded\":false}}", "\"degraded\":false},\"extra\":1}");
        assert!(
            !expected.matches(extended.as_bytes()),
            "a member after stats is payload"
        );
        assert!(!expected.matches(b"{\"error\":\"overloaded\"}"));
        assert!(!expected.matches(b"not json"));
    }

    #[test]
    fn reordered_members_still_match_through_the_slow_path() {
        let expected = Expected::from_encoded(REFERENCE);
        let reordered = r#"{"stats":{"cache_hits":9},"distribution":[{"p":0.25,"lo":10,"hi":20},{"lo":20,"hi":30,"p":0.75}],"type":"distribution"}"#;
        assert!(expected.matches(reordered.as_bytes()));
    }

    #[test]
    fn batch_answers_compare_result_by_result() {
        let reference = r#"{"results":[{"type":"probability","probability":0.5,"stats":{"latency_us":1}},{"type":"probability","probability":0.25,"stats":{"latency_us":2}}]}"#;
        let expected = Expected::from_encoded(reference);
        assert!(expected.matches(
            reference
                .replace("\"latency_us\":2", "\"latency_us\":7")
                .as_bytes()
        ));
        assert!(!expected.matches(reference.replace("0.25", "0.26").as_bytes()));
        let swapped = r#"{"results":[{"type":"probability","probability":0.25,"stats":{}},{"type":"probability","probability":0.5,"stats":{}}]}"#;
        assert!(!expected.matches(swapped.as_bytes()), "order is payload");
    }

    #[test]
    fn shape_check_rejects_improper_histograms() {
        assert!(well_formed(REFERENCE.as_bytes()));
        assert!(well_formed(
            br#"{"type":"probability","probability":0.3,"stats":{}}"#
        ));
        assert!(!well_formed(
            br#"{"type":"probability","probability":1.3,"stats":{}}"#
        ));
        let leaky = REFERENCE.replace("\"p\":0.75", "\"p\":0.5");
        assert!(!well_formed(leaky.as_bytes()), "mass must sum to one");
        let unordered = REFERENCE.replace("\"lo\":20,\"hi\":30", "\"lo\":15,\"hi\":30");
        assert!(!well_formed(unordered.as_bytes()));
        assert!(!well_formed(br#"{"error":"shutting down"}"#));
    }
}
