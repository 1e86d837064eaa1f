//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each crate's
//! public functions — nothing inside the program is instrumented. Each span
//! carries its name, start, end, the span that caused it and the request it
//! belongs to; they stay in memory until the run ends and are then written
//! to `benchmark/out/<workload>.trace.json`.

use pathcost_server::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `work` inside a span and returns its result with the span's id,
    /// so callers can hang child spans off it.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u32,
        work: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start_ns = self.now_ns();
        let value = work();
        let end_ns = self.now_ns();
        let id = self.push(name, start_ns, end_ns, parent, request);
        (value, id)
    }

    /// Opens a span that encloses further [`Self::span`] calls; close it
    /// with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u32) -> SpanId {
        let now = self.now_ns();
        self.push(name, now, now, parent, request)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a child whose duration the callee measured itself (the
    /// estimator's own OI/JC/MC breakdown), laid out from `start_ns`.
    /// Returns the end of the child so siblings can follow it.
    pub fn child_of_known_length(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        seconds: f64,
    ) -> u64 {
        let end_ns = start_ns + (seconds * 1e9) as u64;
        let request = self.spans[parent as usize].request;
        self.push(name, start_ns, end_ns, Some(parent), request);
        end_ns
    }

    pub fn start_of(&self, id: SpanId) -> u64 {
        self.spans[id as usize].start_ns
    }

    pub fn duration_us(&self, id: SpanId) -> f64 {
        self.spans[id as usize].duration_ns() as f64 / 1e3
    }

    /// Names a span by what the call turned out to be (a cache hit or a
    /// miss is only known once it returns).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u32,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Per-name totals of [`self_times_ns`].
    pub fn self_time_by_name_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            *totals.entry(span.name).or_insert(0) += own;
        }
        totals
    }

    /// The trace file: every span plus the per-name self-time totals.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::object(vec![
                    ("id", Json::Number(id as f64)),
                    ("name", Json::String(s.name.to_string())),
                    ("start_ns", Json::Number(s.start_ns as f64)),
                    ("end_ns", Json::Number(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Number(f64::from(p))),
                    ),
                    ("request", Json::Number(f64::from(s.request))),
                ])
            })
            .collect();
        let self_time = self
            .self_time_by_name_ns()
            .into_iter()
            .map(|(name, ns)| (name, Json::Number(ns as f64)))
            .collect();
        Json::object(vec![
            ("workload", Json::String(workload.to_string())),
            ("self_time_ns", Json::object(self_time)),
            ("spans", Json::Array(spans)),
        ])
    }
}

/// Self time of each span: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = span.start_ns;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - union
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("eval", 30, 90, Some(0)),
            span("estimate", 40, 80, Some(2)),
            // Overlaps `eval` inside the parent: the shared 80..90 counts once.
            span("encode", 80, 95, Some(0)),
            // A grandchild never reduces the grandparent directly.
            span("convolve", 50, 60, Some(3)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - (95 - 10), "request: covered 10..95");
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 60 - 40, "eval minus estimate");
        assert_eq!(own[3], 40 - 10, "estimate minus convolve");
        assert_eq!(own[4], 15);
        assert_eq!(own[5], 10);
        // Self times of a tree add up to the root's duration when children
        // do not overlap; here `encode` overlaps `eval` by 10.
        assert_eq!(own.iter().sum::<u64>(), 100 + 10);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("parent", 10, 20, None),
            span("early", 0, 15, Some(0)),
            span("outside", 30, 40, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn tracer_nests_and_reports_by_name() {
        let mut tracer = Tracer::new();
        let root = tracer.open("request", None, 7);
        let ((), child) = tracer.span("work", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans[child as usize].parent, Some(root));
        assert_eq!(spans[child as usize].request, 7);
        assert!(spans[root as usize].duration_ns() >= spans[child as usize].duration_ns());
        assert!(tracer.durations_us("work")[0] >= 2_000.0);
        let own = tracer.self_time_by_name_ns();
        assert!(own["request"] < spans[root as usize].duration_ns());
        let file = tracer.to_json("unit");
        assert_eq!(file.get("spans").unwrap().as_array().unwrap().len(), 2);
    }
}
