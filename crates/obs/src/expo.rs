//! Prometheus text exposition format: a hand-rolled writer, a strict
//! conformance validator and a series lookup.
//!
//! The writer produces `text/plain; version=0.0.4` output: one contiguous
//! block per metric family (`# HELP`, `# TYPE`, then samples), label values
//! escaped per the spec (`\\`, `\"`, `\n`), histogram families expanded to
//! cumulative `_bucket{le=…}` series plus `_sum` and `_count`. The validator
//! is what the format tests, the chaos harness and the CI smoke scrape run
//! against scraped output — it rejects duplicate series, untyped samples,
//! malformed labels and non-cumulative histograms. [`series_value`] is how
//! every test and example reads one number back off a page (in process
//! through [`Registry::value`](crate::Registry::value)).

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

use crate::metrics::HistogramSnapshot;

/// The exposition `# TYPE` of a metric family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
    Untyped,
}

impl MetricKind {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::Untyped => "untyped",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "counter" => Some(MetricKind::Counter),
            "gauge" => Some(MetricKind::Gauge),
            "histogram" => Some(MetricKind::Histogram),
            "untyped" => Some(MetricKind::Untyped),
            _ => None,
        }
    }
}

/// Incremental exposition builder. Call [`family`](Self::family) once per
/// metric family, then emit its samples; [`finish`](Self::finish) returns
/// the body for `GET /metrics`.
#[derive(Default)]
pub struct ExpositionWriter {
    out: String,
}

impl ExpositionWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a family block: `# HELP` and `# TYPE` comment lines.
    pub fn family(&mut self, name: &str, kind: MetricKind, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(self.out, "# TYPE {name} {}", kind.as_str());
    }

    /// Emits one sample line for a counter/gauge/untyped family.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        self.write_labels(labels, None);
        let _ = writeln!(self.out, " {}", format_value(value));
    }

    /// Emits a full histogram: cumulative `_bucket` series (including the
    /// mandatory `+Inf`), `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        for (bound, cumulative) in snap.bounds.iter().zip(&snap.cumulative) {
            self.out.push_str(name);
            self.out.push_str("_bucket");
            self.write_labels(labels, Some(&format_value(*bound)));
            let _ = writeln!(self.out, " {cumulative}");
        }
        self.out.push_str(name);
        self.out.push_str("_bucket");
        self.write_labels(labels, Some("+Inf"));
        let _ = writeln!(self.out, " {}", snap.count());
        self.out.push_str(name);
        self.out.push_str("_sum");
        self.write_labels(labels, None);
        let _ = writeln!(self.out, " {}", format_value(snap.sum));
        self.out.push_str(name);
        self.out.push_str("_count");
        self.write_labels(labels, None);
        let _ = writeln!(self.out, " {}", snap.count());
    }

    fn write_labels(&mut self, labels: &[(&str, &str)], le: Option<&str>) {
        if labels.is_empty() && le.is_none() {
            return;
        }
        self.out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                self.out.push(',');
            }
            first = false;
            let _ = write!(self.out, "{k}=\"{}\"", escape_label_value(v));
        }
        if let Some(le) = le {
            if !first {
                self.out.push(',');
            }
            let _ = write!(self.out, "le=\"{le}\"");
        }
        self.out.push('}');
    }

    pub fn finish(self) -> String {
        self.out
    }
}

/// Escapes a label value per the exposition spec: `\\`, `\"`, `\n`.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a value the way Prometheus expects: integral values without a
/// decimal point, everything else via Rust's shortest-round-trip `f64`
/// formatting (a valid Go float).
pub fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 && v.is_finite() {
        format!("{}", v as i64)
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses `{k="v",…}` starting at the brace; returns the label list and the
/// byte offset one past the closing brace.
fn parse_labels(s: &str) -> Result<(Vec<(String, String)>, usize), String> {
    debug_assert!(s.starts_with('{'));
    let mut labels = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 1;
    loop {
        if i >= s.len() {
            return Err("unterminated label set".into());
        }
        if bytes[i] == b'}' {
            return Ok((labels, i + 1));
        }
        let eq = s[i..]
            .find('=')
            .map(|o| i + o)
            .ok_or_else(|| "label without '='".to_string())?;
        let name = &s[i..eq];
        if !valid_label_name(name) {
            return Err(format!("invalid label name {name:?}"));
        }
        if bytes.get(eq + 1) != Some(&b'"') {
            return Err("label value must be quoted".into());
        }
        let mut value = String::new();
        let mut j = eq + 2;
        loop {
            match bytes.get(j) {
                None => return Err("unterminated label value".into()),
                Some(b'\\') => {
                    match bytes.get(j + 1) {
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err("invalid escape in label value".into()),
                    }
                    j += 2;
                }
                Some(b'"') => {
                    j += 1;
                    break;
                }
                Some(_) => {
                    // Label values are UTF-8; advance one whole character.
                    let ch = s[j..].chars().next().unwrap();
                    value.push(ch);
                    j += ch.len_utf8();
                }
            }
        }
        labels.push((name.to_string(), value));
        match bytes.get(j) {
            Some(b',') => i = j + 1,
            Some(b'}') => return Ok((labels, j + 1)),
            _ => return Err("expected ',' or '}' after label value".into()),
        }
    }
}

struct FamilyState {
    name: String,
    kind: MetricKind,
    has_help: bool,
    /// For histogram families: per label-set (excluding `le`) bucket data,
    /// in the order buckets appear, plus observed `_count`.
    hist: BTreeMap<String, HistogramCheck>,
}

#[derive(Default)]
struct HistogramCheck {
    buckets: Vec<(f64, u64)>,
    saw_inf: bool,
    count: Option<u64>,
}

/// Validates a `/metrics` body against the text exposition format.
///
/// Enforced: contiguous one-block-per-family layout with `# HELP` and
/// `# TYPE` preceding samples, no duplicate families or series, valid
/// metric/label names and escaping, parseable sample values, and for
/// histograms: monotone cumulative buckets, a `+Inf` bucket, and
/// `+Inf == _count` per label set. Returns the first violation found.
pub fn validate(text: &str) -> Result<(), String> {
    let mut seen_families: HashSet<String> = HashSet::new();
    let mut seen_series: HashSet<String> = HashSet::new();
    let mut current: Option<FamilyState> = None;
    let mut pending_help: Option<String> = None;

    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: String| format!("line {}: {msg} ({line:?})", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, _help) = rest
                .split_once(' ')
                .ok_or_else(|| err("malformed HELP line".into()))?;
            if !valid_metric_name(name) {
                return Err(err(format!("invalid metric name {name:?}")));
            }
            if pending_help.is_some() {
                return Err(err("HELP line not followed by TYPE".into()));
            }
            pending_help = Some(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| err("malformed TYPE line".into()))?;
            if !valid_metric_name(name) {
                return Err(err(format!("invalid metric name {name:?}")));
            }
            let kind = MetricKind::parse(kind)
                .ok_or_else(|| err(format!("unknown metric kind {kind:?}")))?;
            if !seen_families.insert(name.to_string()) {
                return Err(err(format!("duplicate family {name:?}")));
            }
            if let Some(prev) = current.take() {
                finish_family(&prev)?;
            }
            let has_help = match pending_help.take() {
                Some(h) if h == name => true,
                Some(h) => {
                    return Err(err(format!("HELP for {h:?} followed by TYPE for {name:?}")));
                }
                None => false,
            };
            current = Some(FamilyState {
                name: name.to_string(),
                kind,
                has_help,
                hist: BTreeMap::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            continue; // arbitrary comment
        }
        if pending_help.is_some() {
            return Err(err("HELP line not followed by TYPE".into()));
        }

        // Sample line: name[{labels}] value
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| err("sample without value".into()))?;
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(err(format!("invalid metric name {name:?}")));
        }
        let (labels, rest) = if line[name_end..].starts_with('{') {
            let (labels, consumed) = parse_labels(&line[name_end..]).map_err(&err)?;
            (labels, &line[name_end + consumed..])
        } else {
            (Vec::new(), &line[name_end..])
        };
        let mut keys: Vec<&str> = labels.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if keys.windows(2).any(|w| w[0] == w[1]) {
            return Err(err("duplicate label name".into()));
        }
        let value_str = rest.trim_start();
        let value = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .split(' ')
                .next()
                .unwrap_or("")
                .parse::<f64>()
                .map_err(|_| err(format!("unparseable value {v:?}")))?,
        };

        let family = current
            .as_mut()
            .ok_or_else(|| err(format!("sample {name:?} before any # TYPE")))?;
        let base_ok = if family.kind == MetricKind::Histogram {
            name == family.name
                || name == format!("{}_bucket", family.name)
                || name == format!("{}_sum", family.name)
                || name == format!("{}_count", family.name)
        } else {
            name == family.name
        };
        if !base_ok {
            return Err(err(format!(
                "sample {name:?} does not belong to family {:?} (missing # TYPE?)",
                family.name
            )));
        }
        if !family.has_help {
            return Err(err(format!("family {:?} has no # HELP", family.name)));
        }

        let mut series_key = String::from(name);
        let mut sorted = labels.clone();
        sorted.sort();
        for (k, v) in &sorted {
            let _ = write!(series_key, "\u{1}{k}\u{2}{v}");
        }
        if !seen_series.insert(series_key) {
            return Err(err(format!("duplicate series for {name:?}")));
        }

        if family.kind == MetricKind::Histogram {
            let mut group_key = String::new();
            for (k, v) in sorted.iter().filter(|(k, _)| k != "le") {
                let _ = write!(group_key, "\u{1}{k}\u{2}{v}");
            }
            let check = family.hist.entry(group_key).or_default();
            if name == format!("{}_bucket", family.name) {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.as_str())
                    .ok_or_else(|| err("_bucket sample without le label".into()))?;
                if le == "+Inf" {
                    check.saw_inf = true;
                }
                let bound = match le {
                    "+Inf" => f64::INFINITY,
                    b => b
                        .parse::<f64>()
                        .ok()
                        .filter(|bound| !bound.is_nan())
                        .ok_or_else(|| err(format!("unparseable le bound {b:?}")))?,
                };
                check.buckets.push((bound, value as u64));
            } else if name == format!("{}_count", family.name) {
                check.count = Some(value as u64);
            }
        }
    }
    if pending_help.is_some() {
        return Err("trailing HELP line not followed by TYPE".into());
    }
    if let Some(family) = current.take() {
        finish_family(&family)?;
    }
    Ok(())
}

/// The value of the sample whose name-plus-labels is exactly `series`, as
/// the page renders it (e.g. `pathcost_queries_total{kind="route"}` or
/// `pathcost_query_seconds_count`); `None` when the page has no such sample.
pub fn series_value(page: &str, series: &str) -> Option<f64> {
    page.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
}

fn finish_family(family: &FamilyState) -> Result<(), String> {
    for check in family.hist.values() {
        if !check.buckets.is_empty() {
            if !check.saw_inf {
                return Err(format!(
                    "histogram {:?} is missing a +Inf bucket",
                    family.name
                ));
            }
            let mut sorted = check.buckets.clone();
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
            if sorted.windows(2).any(|w| w[0].1 > w[1].1) {
                return Err(format!(
                    "histogram {:?} buckets are not cumulative",
                    family.name
                ));
            }
            if let (Some((_, inf)), Some(count)) = (sorted.last(), check.count) {
                if *inf != count {
                    return Err(format!(
                        "histogram {:?}: +Inf bucket {} != _count {}",
                        family.name, inf, count
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    #[test]
    fn writer_escapes_label_values_and_help() {
        let mut w = ExpositionWriter::new();
        w.family("f_total", MetricKind::Counter, "Line\nbreak \\ slash");
        w.sample("f_total", &[("path", "a\"b\\c\nd")], 1.0);
        let text = w.finish();
        assert!(text.contains("# HELP f_total Line\\nbreak \\\\ slash"));
        assert!(text.contains("f_total{path=\"a\\\"b\\\\c\\nd\"} 1"));
        validate(&text).expect("escaped output must validate");
    }

    #[test]
    fn validate_accepts_full_histogram_block() {
        let h = Histogram::new(&[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(2.0);
        let mut w = ExpositionWriter::new();
        w.family("lat_seconds", MetricKind::Histogram, "Latency.");
        w.histogram("lat_seconds", &[("stage", "eval")], &h.snapshot());
        let text = w.finish();
        validate(&text).expect("histogram block must validate");
        assert!(text.contains("lat_seconds_bucket{stage=\"eval\",le=\"0.1\"} 1"));
        assert!(text.contains("lat_seconds_bucket{stage=\"eval\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_seconds_count{stage=\"eval\"} 3"));
    }

    #[test]
    fn validate_rejects_untyped_duplicate_and_malformed() {
        assert!(validate("orphan 1\n").is_err(), "sample before TYPE");
        let dup = "# HELP a A.\n# TYPE a counter\na 1\na 2\n";
        assert!(validate(dup).unwrap_err().contains("duplicate series"));
        let dup_family = "# HELP a A.\n# TYPE a counter\na 1\n# HELP a A.\n# TYPE a counter\n";
        assert!(validate(dup_family)
            .unwrap_err()
            .contains("duplicate family"));
        let bad_label = "# HELP a A.\n# TYPE a counter\na{1x=\"v\"} 1\n";
        assert!(validate(bad_label)
            .unwrap_err()
            .contains("invalid label name"));
        let bad_value = "# HELP a A.\n# TYPE a counter\na x\n";
        assert!(validate(bad_value)
            .unwrap_err()
            .contains("unparseable value"));
        let no_help = "# TYPE a counter\na 1\n";
        assert!(validate(no_help).unwrap_err().contains("no # HELP"));
    }

    #[test]
    fn validate_rejects_non_cumulative_histogram() {
        let text = "# HELP h H.\n# TYPE h histogram\n\
                    h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 3\n\
                    h_sum 1\nh_count 3\n";
        assert!(validate(text).unwrap_err().contains("not cumulative"));
        let missing_inf = "# HELP h H.\n# TYPE h histogram\n\
                           h_bucket{le=\"0.1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate(missing_inf).unwrap_err().contains("+Inf"));
        // "NaN" parses as an f64; it must still be refused as a bound.
        let nan_bound = "# HELP x_seconds X.\n# TYPE x_seconds histogram\n\
                         x_seconds_bucket{le=\"NaN\"} 1\nx_seconds_bucket{le=\"+Inf\"} 1\n\
                         x_seconds_sum 1\nx_seconds_count 1\n";
        assert!(validate(nan_bound)
            .unwrap_err()
            .contains("unparseable le bound"));
    }

    #[test]
    fn series_value_matches_the_exact_name_and_labels() {
        let h = Histogram::new(&[1.0]);
        h.observe(0.25);
        let mut w = ExpositionWriter::new();
        w.family("q_total", MetricKind::Counter, "Queries.");
        w.sample("q_total", &[("kind", "route")], 3.0);
        w.sample("q_total", &[("kind", "rank")], 5.0);
        w.family("q", MetricKind::Histogram, "Latency.");
        w.histogram("q", &[], &h.snapshot());
        let page = w.finish();
        assert_eq!(series_value(&page, r#"q_total{kind="rank"}"#), Some(5.0));
        assert_eq!(series_value(&page, "q_sum"), Some(0.25));
        assert_eq!(series_value(&page, r#"q_bucket{le="+Inf"}"#), Some(1.0));
        // A prefix of a name, or a name without its labels, is no match.
        assert_eq!(series_value(&page, "q_total"), None);
        assert_eq!(series_value(&page, "q_tot"), None);
        assert_eq!(series_value(&page, "q_missing"), None);
    }

    #[test]
    fn format_value_renders_integers_and_infinities() {
        assert_eq!(format_value(4.0), "4");
        assert_eq!(format_value(0.25), "0.25");
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NEG_INFINITY), "-Inf");
    }
}
