//! Per-request tracing: a trace id, one span per serving stage, and a ring
//! of recently completed traces.
//!
//! A request's [`ActiveTrace`] is created by the HTTP layer (honouring an
//! inbound `x-trace-id` header, minting an id otherwise) and carried through
//! the stack on `RequestContext`. Each layer records the wall time it spent
//! in its stage with [`record`](ActiveTrace::record) — an atomic add, safe
//! from whichever thread (dispatcher, pool worker) happens to execute the
//! stage. When the response is written the server [`finish`](ActiveTrace::finish)es
//! the trace into an immutable [`FinishedTrace`] and pushes it onto the
//! [`TraceRing`] served at `GET /debug/traces`; traces slower than the
//! configured threshold are additionally emitted to the slow-query log.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Number of per-request stages.
pub const STAGE_COUNT: usize = 6;

/// The serving pipeline stages a request passes through.
///
/// `Parse` runs from the request's first byte on the socket to admission
/// submit (header + body read, JSON decode); `Queue` is time spent waiting
/// in the admission queue (for the dispatcher to finish the batch ahead, or
/// an opt-in linger window); `Dispatch` is batch assembly
/// between pickup and execution; `Eval` is the request's own evaluation —
/// estimation of every cache miss it meets and routing included;
/// `Serialize` is response encoding; `Write` is the socket write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    Parse,
    Queue,
    Dispatch,
    Eval,
    Serialize,
    Write,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Parse,
        Stage::Queue,
        Stage::Dispatch,
        Stage::Eval,
        Stage::Serialize,
        Stage::Write,
    ];

    /// Stable lowercase name used in metrics labels and trace JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Queue => "queue",
            Stage::Dispatch => "dispatch",
            Stage::Eval => "eval",
            Stage::Serialize => "serialize",
            Stage::Write => "write",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Queue => 1,
            Stage::Dispatch => 2,
            Stage::Eval => 3,
            Stage::Serialize => 4,
            Stage::Write => 5,
        }
    }
}

/// A live trace accumulating per-stage wall time. Shared via `Arc` between
/// the connection thread and whichever threads execute the request.
#[derive(Debug)]
pub struct ActiveTrace {
    id: String,
    target: String,
    started_unix_ms: u64,
    started: Instant,
    stage_nanos: [AtomicU64; STAGE_COUNT],
}

impl ActiveTrace {
    /// Starts a trace. `id` is the inbound `x-trace-id` if the client sent
    /// one, otherwise a freshly minted id; `target` is the request target
    /// (e.g. `/query`).
    pub fn start(id: String, target: String) -> Self {
        Self {
            id,
            target,
            started_unix_ms: unix_ms(),
            started: Instant::now(),
            stage_nanos: Default::default(),
        }
    }

    pub fn id(&self) -> &str {
        &self.id
    }

    /// Adds wall time to a stage. Stages may be recorded more than once;
    /// contributions sum.
    pub fn record(&self, stage: Stage, elapsed: Duration) {
        self.stage_nanos[stage.index()].fetch_add(
            elapsed.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Seals the trace with the response status, yielding the immutable
    /// record pushed onto the [`TraceRing`].
    pub fn finish(&self, status: u16) -> FinishedTrace {
        let mut stage_micros = [0u64; STAGE_COUNT];
        for (out, nanos) in stage_micros.iter_mut().zip(&self.stage_nanos) {
            *out = nanos.load(Ordering::Relaxed) / 1_000;
        }
        FinishedTrace {
            id: self.id.clone(),
            target: self.target.clone(),
            status,
            started_unix_ms: self.started_unix_ms,
            total_micros: self.started.elapsed().as_micros().min(u64::MAX as u128) as u64,
            stage_micros,
        }
    }
}

/// A completed request trace: total latency plus the per-stage breakdown,
/// in microseconds, indexed by [`Stage::ALL`] order.
#[derive(Clone, Debug)]
pub struct FinishedTrace {
    pub id: String,
    pub target: String,
    pub status: u16,
    pub started_unix_ms: u64,
    pub total_micros: u64,
    pub stage_micros: [u64; STAGE_COUNT],
}

impl FinishedTrace {
    /// Microseconds recorded for one stage.
    pub fn stage(&self, stage: Stage) -> u64 {
        self.stage_micros[stage.index()]
    }

    /// Sum of all recorded stage times — ≤ `total_micros` up to clock
    /// granularity, since the stages are disjoint slices of the request.
    pub fn stages_total_micros(&self) -> u64 {
        self.stage_micros.iter().sum()
    }
}

/// Fixed-capacity ring of recently completed traces, newest first.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    inner: Mutex<VecDeque<FinishedTrace>>,
}

impl TraceRing {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn push(&self, trace: FinishedTrace) {
        let mut ring = self.inner.lock().expect("trace ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_back();
        }
        ring.push_front(trace);
    }

    /// Snapshot of the ring, newest first.
    pub fn recent(&self) -> Vec<FinishedTrace> {
        self.inner
            .lock()
            .expect("trace ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace ring poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Mints a process-unique trace id: 16 lowercase hex chars mixing the wall
/// clock with a process-wide counter (no RNG dependency; uniqueness within
/// a process is what `/debug/traces` correlation needs).
pub fn next_trace_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    // Spread the counter into the high bits so consecutive ids differ widely.
    let mixed = nanos ^ n.rotate_left(48) ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(n | 1);
    format!("{mixed:016x}")
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_and_finish_reports_them() {
        let t = ActiveTrace::start("abc123".into(), "/query".into());
        t.record(Stage::Eval, Duration::from_micros(500));
        t.record(Stage::Eval, Duration::from_micros(250));
        t.record(Stage::Write, Duration::from_micros(40));
        let done = t.finish(200);
        assert_eq!(done.id, "abc123");
        assert_eq!(done.status, 200);
        assert_eq!(done.stage(Stage::Eval), 750);
        assert_eq!(done.stage(Stage::Write), 40);
        assert_eq!(done.stage(Stage::Parse), 0);
        assert_eq!(done.stages_total_micros(), 790);
    }

    #[test]
    fn ring_keeps_newest_up_to_capacity() {
        let ring = TraceRing::new(2);
        for i in 0..3u16 {
            let t = ActiveTrace::start(format!("id{i}"), "/query".into());
            ring.push(t.finish(200 + i));
        }
        let recent = ring.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].id, "id2");
        assert_eq!(recent[1].id, "id1");
        assert_eq!(ring.capacity(), 2);
        assert!(!ring.is_empty());
    }

    #[test]
    fn trace_ids_are_unique_and_hex() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = next_trace_id();
            assert_eq!(id.len(), 16);
            assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
            assert!(seen.insert(id), "trace ids must not repeat");
        }
    }
}
