//! Typed metric instruments and a registry that owns them.
//!
//! This is the one place a serving number lives: every layer (engine, cache,
//! admission queue, persistence, HTTP server) registers its instruments in a
//! [`Registry`] it owns at construction, keeps the returned handles, and
//! `GET /metrics` renders those registries. Instruments are cheap `Arc`
//! handles around relaxed atomics, so the hot path is a `fetch_add` with no
//! lock and no name lookup. Histograms use caller-chosen fixed bucket bounds
//! and keep an exact `f64` sum and maximum; [`Histogram::quantile`] and
//! [`HistogramSnapshot`] answer conservative quantiles from them, which is
//! what the admission queue's p99 watermark reads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::expo::{ExpositionWriter, MetricKind};

/// Adds `v` to an `f64` stored as its bit pattern (lock-free CAS loop).
fn add_f64(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(actual) => cur = actual,
        }
    }
}

/// Monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    inner: Arc<AtomicU64>,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.inner.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }
}

/// Instantaneous value (queue depths, open connections, uptime), stored as
/// the bit pattern of an `f64` — the exposition format's gauge is a float.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    inner: Arc<AtomicU64>,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&self, v: f64) {
        self.inner.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn add(&self, n: f64) {
        add_f64(&self.inner, n);
    }

    pub fn sub(&self, n: f64) {
        add_f64(&self.inner, -n);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.inner.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Ascending upper bucket bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; `bounds.len() + 1`
    /// entries, the last being the `+Inf` overflow bucket.
    counts: Vec<AtomicU64>,
    /// Exact sum of observed values, stored as `f64` bits.
    sum_bits: AtomicU64,
    /// Exact largest observed value, stored as `f64` bits (0 before any).
    max_bits: AtomicU64,
}

/// Fixed-bucket histogram with an exact sum and an exact maximum.
///
/// Buckets are Prometheus-inclusive (`v <= le`). Observations are expected
/// to be non-negative (durations, sizes) — the exposition format needs a
/// monotone `_sum`, and the maximum starts at zero. `observe` is lock-free:
/// a binary search over the bounds, one `fetch_add`, one CAS on the sum and
/// a load (rarely a CAS) on the maximum.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Builds a histogram over the given ascending upper bounds. A trailing
    /// `+Inf` bucket is always added implicitly; passing it is an error.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (+Inf is implicit)"
        );
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                counts,
                sum_bits: AtomicU64::new(0f64.to_bits()),
                max_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.inner.bounds.partition_point(|&b| b < v);
        self.inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        add_f64(&self.inner.sum_bits, v);
        let mut cur = self.inner.max_bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.inner.max_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Records a duration in seconds (the Prometheus base unit).
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// [`HistogramSnapshot::quantile`] read straight off the live buckets,
    /// without allocating — for callers on a request path (the admission
    /// queue checks its p99 watermark on every submit).
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = || self.inner.counts.iter().map(|c| c.load(Ordering::Relaxed));
        let total: u64 = counts().sum();
        let cumulative = counts().scan(0u64, |running, c| {
            *running += c;
            Some(*running)
        });
        let max = f64::from_bits(self.inner.max_bits.load(Ordering::Relaxed));
        conservative_quantile(&self.inner.bounds, cumulative, total, max, q)
    }

    /// Forgets every observation — only for a window no registry renders
    /// (an exported histogram's counts must never go down). An `observe`
    /// racing the reset may land on either side of it.
    pub fn reset(&self) {
        for count in &self.inner.counts {
            count.store(0, Ordering::Relaxed);
        }
        self.inner.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.inner.max_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }

    /// Consistent-enough point-in-time copy (relaxed reads; buckets may lag
    /// each other by in-flight observations, which monitoring tolerates).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = Vec::with_capacity(self.inner.counts.len());
        let mut running = 0u64;
        for c in &self.inner.counts {
            running += c.load(Ordering::Relaxed);
            cumulative.push(running);
        }
        HistogramSnapshot {
            bounds: self.inner.bounds.clone(),
            cumulative,
            sum: f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.inner.max_bits.load(Ordering::Relaxed)),
        }
    }
}

/// The one quantile rule: the upper edge of the bucket holding rank
/// `ceil(q * total)`, clamped to the observed maximum — never below the true
/// quantile and at most one bucket width above it. Zero when empty.
fn conservative_quantile(
    bounds: &[f64],
    cumulative: impl Iterator<Item = u64>,
    total: u64,
    max: f64,
    q: f64,
) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let bucket = cumulative.take_while(|&seen| seen < rank).count();
    bounds.get(bucket).map_or(max, |&upper| upper.min(max))
}

/// Point-in-time histogram state, in the cumulative form the exposition
/// format wants (`cumulative[i]` = observations ≤ `bounds[i]`; the final
/// entry is the `+Inf` total). The default value is an empty histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    pub bounds: Vec<f64>,
    pub cumulative: Vec<u64>,
    pub sum: f64,
    /// The exact largest observation (0 before any).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.cumulative.last().copied().unwrap_or(0)
    }

    /// The value at quantile `q` in `[0, 1]`, conservatively: the upper
    /// edge of the bucket containing the rank, clamped to [`Self::max`].
    /// Zero before any observation.
    pub fn quantile(&self, q: f64) -> f64 {
        conservative_quantile(
            &self.bounds,
            self.cumulative.iter().copied(),
            self.count(),
            self.max,
            q,
        )
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Folds another snapshot over the same bounds into this one
    /// (bucket-wise sum, sum of sums, max of maxes).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.bounds, other.bounds, "merging needs equal bounds");
        for (a, b) in self.cumulative.iter_mut().zip(&other.cumulative) {
            *a += b;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Exponentially spaced bucket bounds: `start, start*factor, …` (`count`
/// bounds). The conventional helper for latency histograms.
pub fn exponential_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0 && count > 0);
    let mut bounds = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        bounds.push(b);
        b *= factor;
    }
    bounds
}

#[derive(Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> MetricKind {
        match self {
            Instrument::Counter(_) => MetricKind::Counter,
            Instrument::Gauge(_) => MetricKind::Gauge,
            Instrument::Histogram(_) => MetricKind::Histogram,
        }
    }
}

struct Series {
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// A family always holds at least one series, all of one kind.
struct Family {
    name: String,
    help: String,
    series: Vec<Series>,
}

/// Owns metric families and hands out instrument handles.
///
/// `counter`/`gauge`/`histogram` are get-or-create: the same
/// `(name, labels)` pair always returns a handle to the same underlying
/// instrument, so wiring code can be called idempotently. Registration takes
/// a lock; the returned handles do not. Registering the same family name
/// with a different kind panics — that is a programming error, not an
/// operational condition.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_create(name, help, labels, || Instrument::Counter(Counter::new())) {
            Instrument::Counter(c) => c,
            _ => panic!("metric family {name} already registered with a different kind"),
        }
    }

    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_create(name, help, labels, || Instrument::Gauge(Gauge::new())) {
            Instrument::Gauge(g) => g,
            _ => panic!("metric family {name} already registered with a different kind"),
        }
    }

    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        match self.get_or_create(name, help, labels, || {
            Instrument::Histogram(Histogram::new(bounds))
        }) {
            Instrument::Histogram(h) => h,
            _ => panic!("metric family {name} already registered with a different kind"),
        }
    }

    fn get_or_create(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let owned: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families.lock().expect("metrics registry poisoned");
        let at = families
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    series: Vec::new(),
                });
                families.len() - 1
            });
        let family = &mut families[at];
        // An existing series of another kind is returned as it is; the
        // typed caller panics on the mismatch.
        if let Some(series) = family.series.iter().find(|s| s.labels == owned) {
            return series.instrument.clone();
        }
        let instrument = make();
        assert!(
            family
                .series
                .iter()
                .all(|s| s.instrument.kind() == instrument.kind()),
            "metric family {name} already registered with a different kind"
        );
        family.series.push(Series {
            labels: owned,
            instrument: instrument.clone(),
        });
        instrument
    }

    /// Renders every registered family into the writer, one contiguous
    /// `# HELP`/`# TYPE`/samples block per family, in registration order.
    pub fn render_into(&self, w: &mut ExpositionWriter) {
        let families = self.families.lock().expect("metrics registry poisoned");
        for family in families.iter() {
            w.family(
                &family.name,
                family.series[0].instrument.kind(),
                &family.help,
            );
            for series in &family.series {
                let labels: Vec<(&str, &str)> = series
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                match &series.instrument {
                    Instrument::Counter(c) => w.sample(&family.name, &labels, c.get() as f64),
                    Instrument::Gauge(g) => w.sample(&family.name, &labels, g.get()),
                    Instrument::Histogram(h) => w.histogram(&family.name, &labels, &h.snapshot()),
                }
            }
        }
    }

    /// The value of the series whose name-plus-labels is exactly `series`
    /// as `GET /metrics` renders it (e.g. `pathcost_queries_total{kind="route"}`
    /// or `pathcost_query_seconds_count`): the registry is rendered and read
    /// back with [`expo::series_value`](crate::expo::series_value), so an
    /// in-process reader sees the page's number. `None` when no such series
    /// is registered.
    pub fn value(&self, series: &str) -> Option<f64> {
        let mut page = ExpositionWriter::new();
        self.render_into(&mut page);
        crate::expo::series_value(&page.finish(), series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo;

    #[test]
    fn counter_and_gauge_share_handles_by_identity() {
        let reg = Registry::new();
        let a = reg.counter("requests_total", "Requests.", &[("class", "2xx")]);
        let b = reg.counter("requests_total", "Requests.", &[("class", "2xx")]);
        let other = reg.counter("requests_total", "Requests.", &[("class", "5xx")]);
        a.add(2);
        b.inc();
        other.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(other.get(), 1);

        let g = reg.gauge("depth", "Depth.", &[]);
        g.set(7.0);
        g.add(3.0);
        g.sub(1.0);
        assert_eq!(g.get(), 9.0);
        g.set(0.25);
        assert_eq!(g.get(), 0.25, "gauges are floats");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_sum_exact() {
        let h = Histogram::new(&[0.001, 0.01, 0.1]);
        h.observe(0.0005);
        h.observe(0.005);
        h.observe(0.05);
        h.observe(5.0); // overflow bucket
        h.observe(0.01); // exactly on a bound: le is inclusive
        let s = h.snapshot();
        assert_eq!(s.cumulative, vec![1, 3, 4, 5]);
        assert_eq!(s.count(), 5);
        assert!((s.sum - 5.0655).abs() < 1e-12, "sum = {}", s.sum);
        assert_eq!(s.max, 5.0);
    }

    /// Power-of-two microsecond bounds in seconds — the serving layers'
    /// latency layout.
    fn micros_bounds() -> Vec<f64> {
        (0..31).map(|i| (1u64 << (i + 1)) as f64 / 1e6).collect()
    }

    #[test]
    fn quantiles_resolve_to_the_bucket_upper_edge() {
        let h = Histogram::new(&micros_bounds());
        // 99 fast observations at 9 µs, one slow one at 10 ms.
        for _ in 0..99 {
            h.observe_duration(Duration::from_micros(9));
        }
        h.observe_duration(Duration::from_millis(10));
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        // 9 µs lands in the (8, 16] µs bucket: cumulative[2] is `le = 8 µs`.
        assert_eq!(snap.cumulative[2], 0);
        assert_eq!(snap.cumulative[3], 99);
        assert_eq!(snap.max, 0.01);
        // p50 resolves to the fast bucket's upper edge (16 µs)…
        assert_eq!(snap.p50(), 16e-6);
        // …p99 still sits in the fast bucket (rank 99 of 100)…
        assert_eq!(snap.p99(), 16e-6);
        // …and the top quantile exposes the outlier the mean would bury.
        assert_eq!(snap.quantile(1.0), 0.01);
        // The live read agrees with the snapshot.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), snap.quantile(q));
        }
    }

    #[test]
    fn bucket_edges_are_inclusive_and_quantiles_clamp_to_the_max() {
        let h = Histogram::new(&micros_bounds());
        h.observe_duration(Duration::from_micros(9)); // (8, 16] µs, max 9
        assert_eq!(h.snapshot().p99(), 9e-6, "clamped to the observed max");
        // An observation exactly on an edge files under that edge.
        let h = Histogram::new(&micros_bounds());
        h.observe_duration(Duration::from_micros(8));
        let snap = h.snapshot();
        assert_eq!(snap.cumulative[2], 1, "8 µs <= le 8 µs");
        // Sub-microsecond observations land in the first bucket, and the
        // overflow bucket resolves to the exact maximum.
        let h = Histogram::new(&micros_bounds());
        h.observe_duration(Duration::from_nanos(10));
        h.observe(5_000.0);
        let snap = h.snapshot();
        assert_eq!(snap.cumulative[0], 1);
        assert_eq!(snap.cumulative[30], 1, "last finite bound");
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.quantile(1.0), 5_000.0);
    }

    #[test]
    fn snapshots_merge_bucketwise() {
        let (a, b) = (
            Histogram::new(&micros_bounds()),
            Histogram::new(&micros_bounds()),
        );
        a.observe_duration(Duration::from_micros(5));
        b.observe_duration(Duration::from_micros(5));
        b.observe_duration(Duration::from_millis(1));
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.cumulative[2], 2, "both 5 µs observations <= 8 µs");
        assert_eq!(merged.max, 0.001);
        assert!((merged.sum - 0.00101).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshots_answer_zero() {
        let reset = Histogram::new(&micros_bounds());
        reset.observe(3.0);
        reset.observe(0.000_01);
        reset.reset();
        assert_eq!(reset.quantile(0.99), 0.0);
        for snap in [
            Histogram::new(&micros_bounds()).snapshot(),
            HistogramSnapshot::default(),
            reset.snapshot(),
        ] {
            assert_eq!(snap.count(), 0);
            assert_eq!(snap.p50(), 0.0);
            assert_eq!(snap.p99(), 0.0);
            assert_eq!(snap.max, 0.0);
        }
    }

    #[test]
    fn exponential_buckets_grow_by_factor() {
        let b = exponential_buckets(0.001, 4.0, 4);
        assert_eq!(b, vec![0.001, 0.004, 0.016, 0.064]);
    }

    #[test]
    fn render_produces_valid_exposition() {
        let reg = Registry::new();
        reg.counter(
            "pathcost_requests_total",
            "Total requests.",
            &[("class", "2xx")],
        )
        .add(4);
        reg.gauge("pathcost_open_connections", "Open connections.", &[])
            .set(2.0);
        let h = reg.histogram(
            "pathcost_stage_seconds",
            "Stage latency.",
            &[("stage", "eval")],
            &[0.001, 0.01],
        );
        h.observe(0.002);
        let mut w = ExpositionWriter::new();
        reg.render_into(&mut w);
        let text = w.finish();
        expo::validate(&text).expect("registry output must be conformant");
        assert!(text.contains("pathcost_requests_total{class=\"2xx\"} 4"));
        assert!(text.contains("pathcost_stage_seconds_bucket{stage=\"eval\",le=\"+Inf\"} 1"));
        // `value` reads the same page back, series by exact name and labels.
        for (series, want) in [
            (r#"pathcost_requests_total{class="2xx"}"#, Some(4.0)),
            ("pathcost_open_connections", Some(2.0)),
            (r#"pathcost_stage_seconds_count{stage="eval"}"#, Some(1.0)),
            (r#"pathcost_stage_seconds_sum{stage="eval"}"#, Some(0.002)),
            ("pathcost_requests_total", None),
            (r#"pathcost_requests_total{class="5xx"}"#, None),
        ] {
            assert_eq!(reg.value(series), want, "{series}");
        }
    }
}
