//! `compare <A> <B>`: judges result set B against result set A by the
//! bounds committed in `BENCHMARK.json`.
//!
//! A result set is the file `run`/`all` append to with `--out`: one JSON
//! line per run. For every (workload, end-to-end metric) the medians and
//! quartiles of both sets are printed; B *regressed* when its median is
//! worse than A's by more than the metric's bound, and the pair is
//! *unresolved* — neither unchanged nor regressed — when either set's own
//! interquartile spread exceeds that bound.

use crate::stats;
use pathcost_server::{json, Json};
use std::collections::BTreeMap;

/// One end-to-end metric's rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// What the comparison of one (workload, metric) concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Parses the `end_to_end` rules out of `BENCHMARK.json`'s text.
pub fn rules(benchmark_json: &str) -> Result<Vec<Rule>, String> {
    let spec =
        json::parse(benchmark_json.as_bytes()).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    spec.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: metric without {key}"))
            };
            Ok(Rule {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: match text("better")?.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("BENCHMARK.json: metric without bound")?,
            })
        })
        .collect()
}

/// `workload → metric → values` of the end-to-end (untraced) runs of a set.
pub type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Parses a result set; a run that was not correct is an error, not a
/// sample.
pub fn parse_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = json::parse(line.as_bytes()).map_err(|e| format!("line {}: {e}", n + 1))?;
        if run.get("traced").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        if run.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "line {}: a run of {workload} was not correct",
                n + 1
            ));
        }
        let Some(Json::Object(metrics)) = run.get("metrics") else {
            return Err(format!("line {}: no metrics", n + 1));
        };
        let slot = set.entry(workload.to_string()).or_default();
        for (name, value) in metrics {
            let value = value
                .as_f64()
                .ok_or(format!("line {}: {name} is not a number", n + 1))?;
            slot.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

/// Judges `b` against `a` under `rule`.
pub fn judge(rule: &Rule, a: &[f64], b: &[f64]) -> Verdict {
    if stats::spread(a) > rule.bound || stats::spread(b) > rule.bound {
        return Verdict::Unresolved;
    }
    let (before, after) = (stats::median(a), stats::median(b));
    // "Worse by more than the bound": a share of the first set's median.
    let worse = if rule.lower_is_better {
        after - before
    } else {
        before - after
    };
    if worse > rule.bound * before.abs() {
        Verdict::Regressed
    } else if -worse > rule.bound * before.abs() {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

/// Prints the table and returns whether anything regressed.
pub fn compare(rules: &[Rule], a: &ResultSet, b: &ResultSet) -> bool {
    let mut regressed = false;
    println!(
        "{:<13} {:<22} {:>6} {:>6} | {:>11} {:>11} {:>11} | {:>11} {:>11} {:>11} | {:>8}  verdict",
        "workload",
        "metric",
        "unit",
        "bound",
        "A q1",
        "A median",
        "A q3",
        "B q1",
        "B median",
        "B q3",
        "change"
    );
    for (workload, metrics) in a {
        for rule in rules {
            let (Some(x), Some(y)) = (
                metrics.get(&rule.name),
                b.get(workload).and_then(|m| m.get(&rule.name)),
            ) else {
                println!("{workload:<13} {:<22} missing from one set", rule.name);
                continue;
            };
            let (a1, a2, a3) = stats::quartiles(x);
            let (b1, b2, b3) = stats::quartiles(y);
            let verdict = judge(rule, x, y);
            regressed |= verdict == Verdict::Regressed;
            let change = if a2 == 0.0 {
                0.0
            } else {
                (b2 - a2) / a2.abs() * 100.0
            };
            println!(
                "{workload:<13} {:<22} {:>6} {:>6.3} | {a1:>11.4} {a2:>11.4} {a3:>11.4} | {b1:>11.4} {b2:>11.4} {b3:>11.4} | {change:>+7.1}%  {}{}",
                rule.name,
                rule.unit,
                rule.bound,
                verdict.label(),
                if verdict == Verdict::Unresolved {
                    format!(" (spreads {:.3} / {:.3})", stats::spread(x), stats::spread(y))
                } else {
                    String::new()
                }
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end":[
        {"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1},
        {"name":"capacity_qps","unit":"1/s","better":"higher","bound":0.1}]}"#;

    #[test]
    fn bounds_apply_in_the_metric_s_direction() {
        let rules = rules(SPEC).unwrap();
        let (latency, capacity) = (&rules[0], &rules[1]);
        assert!(latency.lower_is_better && !capacity.lower_is_better);
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let faster: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        let nudged: Vec<f64> = steady.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(latency, &steady, &slower), Verdict::Regressed);
        assert_eq!(judge(latency, &steady, &faster), Verdict::Improved);
        assert_eq!(judge(latency, &steady, &nudged), Verdict::Within);
        assert_eq!(judge(capacity, &steady, &slower), Verdict::Improved);
        assert_eq!(judge(capacity, &steady, &faster), Verdict::Regressed);
    }

    #[test]
    fn a_noisy_set_is_unresolved_not_unchanged() {
        let rules = rules(SPEC).unwrap();
        let steady = [1.0, 1.0, 1.0, 1.0, 1.0];
        let noisy = [0.7, 1.0, 1.3, 0.8, 1.2];
        assert_eq!(judge(&rules[0], &steady, &noisy), Verdict::Unresolved);
        assert_eq!(judge(&rules[0], &noisy, &steady), Verdict::Unresolved);
    }

    #[test]
    fn sets_group_end_to_end_runs_by_workload_and_reject_incorrect_ones() {
        let text = concat!(
            r#"{"workload":"warm_zipf","seed":1,"traced":false,"correct":true,"metrics":{"latency_p50_ms":0.7}}"#,
            "\n",
            r#"{"workload":"warm_zipf","seed":2,"traced":false,"correct":true,"metrics":{"latency_p50_ms":0.8}}"#,
            "\n",
            r#"{"workload":"warm_zipf","seed":1,"traced":true,"correct":true,"metrics":{"core.estimate_us":80}}"#,
            "\n"
        );
        let set = parse_set(text).unwrap();
        assert_eq!(set["warm_zipf"]["latency_p50_ms"], vec![0.7, 0.8]);
        assert!(!set["warm_zipf"].contains_key("core.estimate_us"));
        let bad = r#"{"workload":"cold_scan","traced":false,"correct":false,"metrics":{}}"#;
        assert!(parse_set(bad).unwrap_err().contains("not correct"));
    }
}
