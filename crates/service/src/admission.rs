//! Bounded admission queue with cross-connection batching.
//!
//! The batch executor ([`QueryEngine::execute_batch`]) fans the requests
//! *of one batch* out over the process-wide worker pool — but a network
//! front-end receives requests one connection at a time, so without help
//! every connection would run a batch of one on one thread. The
//! [`AdmissionQueue`] closes that gap:
//!
//! * Connection handlers hand the requests of one HTTP request — one for
//!   `POST /query`, all of them for `POST /query/batch` — to
//!   [`admit`](AdmissionQueue::admit) as one envelope, and block on the
//!   returned [`Ticket`]s.
//! * An envelope of hits never enters the queue. `admit` runs one refusal
//!   check for the whole envelope — the queue open, not degraded, room for
//!   all of it — and, when it passes and the context has not stopped,
//!   answers every request on the connection thread from the engine's
//!   distribution cache and route map alone: no queue slot, no lane
//!   wake-up, no hand-back, and so no wait behind another connection's cold
//!   estimate or route. The engine does that through the same code a lane
//!   runs, in a mode that reports a miss instead of estimating or
//!   searching. One miss anywhere queues the whole envelope as before, and
//!   the inline attempt counts nothing, so a refusal (closed, degraded,
//!   full) or a shed (expired) stays all-or-nothing per envelope, answered
//!   inline or not. An inline answer is observed in the end-to-end latency
//!   and the degradation window, with a zero queue wait.
//! * Dispatch lanes — threads each running
//!   [`dispatch`](AdmissionQueue::dispatch) — drain the queue into batches of
//!   up to [`AdmissionConfig::max_batch`], run them through the engine's
//!   batch executor, and complete each ticket with its own result. A lane
//!   sets no timer: the moment it is free it takes whatever has queued, so
//!   requests that arrive while the lanes are busy form the next batch —
//!   batches grow with load, and a lone request on an idle queue is
//!   dispatched at once. ([`AdmissionConfig::linger`] can still hold a
//!   non-full batch open for a fixed window; it is off by default.)
//! * The server runs [`QueryEngine::worker_count`] lanes, one per core by
//!   default. Under light load most batches hold one request, and the
//!   executor runs a one-request batch inline on the lane that took it, so a
//!   single lane ran every such request one after another: two connections'
//!   cold estimates never overlapped, and a cache hit waited behind whatever
//!   estimate was running. With a lane per core, a lane that is free takes
//!   the next request while another computes (a cache hit no longer needs a
//!   free lane at all, see above). Lanes wake one at a time: a
//!   submit wakes one idle lane, and a lane that leaves work behind in the
//!   queue wakes the next, so a burst that one batch can absorb does not wake
//!   every lane to find the queue empty (only [`close`](AdmissionQueue::close)
//!   wakes them all).
//! * The queue is **bounded**: once [`AdmissionConfig::capacity`] requests
//!   are waiting, `admit` fails fast with [`ServiceError::Overloaded`]
//!   instead of queueing unbounded work — the HTTP layer maps that to 503 so
//!   backpressure reaches the client instead of the allocator.
//! * Each request carries a [`RequestContext`] (deadline + cancellation
//!   token, one per envelope: an HTTP request has a single client, so a
//!   single deadline). Each lane **sheds expired or abandoned work before
//!   dispatch**: a request whose deadline passed while it queued is answered
//!   [`ServiceError::DeadlineExceeded`] immediately (the HTTP layer maps that
//!   to 504) instead of burning a worker on an answer nobody is waiting for.
//! * Under sustained pressure the queue reports
//!   [`degraded`](AdmissionQueue::degraded) — queue depth or end-to-end p99
//!   above the [`AdmissionConfig`] watermarks, the p99 taken over the
//!   requests completed since the queue was last drained, so the state
//!   clears once the backlog does — and two things happen:
//!   already-admitted batches run in degraded mode (route search budgets
//!   capped) so the backlog drains faster, and **new
//!   submissions are refused at the door** with [`ServiceError::Degraded`]
//!   (the HTTP layer answers 429 + `Retry-After`) so the backlog cannot
//!   grow toward the hard capacity limit while the service is behind. See
//!   `ROBUSTNESS.md` at the repository root for the full failure model.
//!
//! The queue itself owns no thread (the engine borrows the road network, so
//! a detached `'static` lane could not hold it). The server runs
//! `queue.dispatch(&engine)` on one scoped thread per lane; tests can run it
//! inline.
//!
//! End-to-end latency (submit → completion, i.e. queue wait + execution)
//! is recorded into a histogram separate from the engine's
//! per-query execution histogram, so `/metrics` reports both the work
//! latency and the latency a client actually experienced. The queue owns the
//! [`Registry`] its families (`pathcost_admission_*`,
//! `pathcost_request_e2e_seconds`) are registered in.

use crate::deadline::RequestContext;
use crate::engine::{stop_error, QueryEngine};
use crate::error::ServiceError;
use crate::request::{QueryOutcome, QueryRequest};
use crate::stats::latency_bounds;
use pathcost_obs::{log as obslog, Gauge, Histogram, Registry, Stage};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning for an [`AdmissionQueue`].
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Maximum requests waiting for dispatch; beyond this, `admit` and
    /// `submit` return [`ServiceError::Overloaded`].
    pub capacity: usize,
    /// Largest batch handed to [`QueryEngine::execute_batch`] at once.
    pub max_batch: usize,
    /// Opt-in: how long a lane holds a non-full batch open for more
    /// requests to join. The default, zero, sets no timer — a lane
    /// takes whatever has queued the moment it is free, and requests that
    /// arrive while a batch runs form the next one.
    pub linger: Duration,
    /// Queue depth at or above which the queue reports
    /// [`degraded`](AdmissionQueue::degraded) and batches run under the
    /// degradation policy.
    pub degrade_queue_depth: usize,
    /// End-to-end p99 latency, over the requests completed since the queue
    /// was last drained, at or above which the queue reports
    /// [`degraded`](AdmissionQueue::degraded).
    pub degrade_p99: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            capacity: 1024,
            max_batch: 256,
            linger: Duration::ZERO,
            degrade_queue_depth: 768,
            degrade_p99: Duration::from_secs(2),
        }
    }
}

// The slot and state locks guard single stores, takes, pushes and drains
// (and a histogram read): no code that can panic runs under them, so
// neither is ever poisoned.
const SLOT_POISONED: &str = "no panic while a completion slot is locked";
const STATE_POISONED: &str = "no panic while the queue state is locked";

/// One queued request: the payload plus the slot its result lands in.
struct Pending {
    request: QueryRequest,
    context: RequestContext,
    slot: Arc<Slot>,
    submitted: Instant,
}

/// Completion slot shared between a [`Ticket`] and the dispatch lanes.
struct Slot {
    result: Mutex<Option<Result<QueryOutcome, ServiceError>>>,
    done: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Slot {
            result: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn complete(&self, result: Result<QueryOutcome, ServiceError>) {
        *self.result.lock().expect(SLOT_POISONED) = Some(result);
        // A slot has one waiter: the ticket it was issued to.
        self.done.notify_one();
    }
}

/// A claim on one admitted request; [`wait`](Ticket::wait) blocks until the
/// lane that took it completes it, or returns at once for a request
/// [`admit`](AdmissionQueue::admit) answered itself.
pub struct Ticket {
    state: TicketState,
}

enum TicketState {
    /// Answered on the admitting thread.
    Answered(QueryOutcome),
    /// Queued: a lane completes the slot.
    Queued(Arc<Slot>),
}

impl Ticket {
    /// Blocks until the request is answered and returns its result.
    pub fn wait(self) -> Result<QueryOutcome, ServiceError> {
        let slot = match self.state {
            TicketState::Answered(outcome) => return Ok(outcome),
            TicketState::Queued(slot) => slot,
        };
        let mut guard = slot.result.lock().expect(SLOT_POISONED);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = slot.done.wait(guard).expect(SLOT_POISONED);
        }
    }
}

struct QueueState {
    pending: VecDeque<Pending>,
    closed: bool,
}

/// Bounded MPSC-style request queue feeding the batch executor. See the
/// [module docs](self) for the full protocol.
pub struct AdmissionQueue {
    config: AdmissionConfig,
    state: Mutex<QueueState>,
    not_empty: Condvar,
    registry: Registry,
    /// Set from the live state by [`Self::registry`], just before a render.
    depth_gauge: Gauge,
    degraded_gauge: Gauge,
    /// Pure queue wait (submit → batch pickup) — the component of `latency`
    /// the spans disentangle from execution.
    queue_wait: Histogram,
    /// End-to-end latency (submit → completion) of every request.
    latency: Histogram,
    /// The end-to-end latencies the p99 watermark is judged on: those of
    /// the requests completed since a lane last found the queue
    /// drained (not exported — `latency` keeps every request).
    window: Histogram,
    /// Last degradation state a lane observed, for transition logs.
    was_degraded: AtomicBool,
}

impl AdmissionQueue {
    /// Creates an empty queue (capacity and batch size clamped to ≥ 1).
    pub fn new(config: AdmissionConfig) -> Self {
        let config = AdmissionConfig {
            capacity: config.capacity.max(1),
            max_batch: config.max_batch.max(1),
            ..config
        };
        let registry = Registry::new();
        let bounds = latency_bounds();
        AdmissionQueue {
            config,
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            depth_gauge: registry.gauge(
                "pathcost_admission_queue_depth",
                "Requests admitted and not yet dispatched.",
                &[],
            ),
            degraded_gauge: registry.gauge(
                "pathcost_admission_degraded",
                "1 while the load-watermark policy is degrading service.",
                &[],
            ),
            queue_wait: registry.histogram(
                "pathcost_admission_queue_wait_seconds",
                "Time admitted requests waited before dispatch.",
                &[],
                &bounds,
            ),
            latency: registry.histogram(
                "pathcost_request_e2e_seconds",
                "End-to-end request latency (submit to answered ticket).",
                &[],
                &bounds,
            ),
            window: Histogram::new(&bounds),
            registry,
            was_degraded: AtomicBool::new(false),
        }
    }

    /// The registry holding the queue's metric families, with the depth and
    /// degradation gauges brought up to date — render it for `/metrics`.
    pub fn registry(&self) -> &Registry {
        self.depth_gauge.set(self.len() as f64);
        self.degraded_gauge
            .set(f64::from(u8::from(self.degraded())));
        &self.registry
    }

    /// The configuration the queue was built with.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Admits the requests of one HTTP request — a `/query` is an envelope
    /// of one — for `engine`, all or nothing, with one ticket per request.
    /// When the queue would admit the envelope (open, not degraded, room
    /// for all of it) and its context has not stopped, the engine first
    /// tries to answer every request from its cache and route map alone; if
    /// each one hits, the envelope is answered here, on the calling thread,
    /// and takes no queue slot and wakes no lane. Each answer counts in the
    /// end-to-end latency and the degradation window like any other, with a
    /// zero queue wait. Otherwise — one miss, an expired context the lanes
    /// shed — the whole envelope is queued, and that attempt has counted
    /// nothing; a refusal refuses the whole envelope.
    pub fn admit(
        &self,
        engine: &QueryEngine<'_>,
        requests: Vec<QueryRequest>,
        context: RequestContext,
    ) -> Result<Vec<Ticket>, ServiceError> {
        let admitted = Instant::now();
        let state = self.state.lock().expect(STATE_POISONED);
        if let Some(refused) = self.refusal(&state, requests.len()) {
            return Err(refused);
        }
        drop(state);
        if !context.should_stop() {
            if let Some(outcomes) = engine.execute_cached(&requests, &context) {
                let elapsed = admitted.elapsed();
                let answered = |outcome| {
                    self.queue_wait.observe_duration(Duration::ZERO);
                    self.observe_e2e(elapsed);
                    Ticket {
                        state: TicketState::Answered(outcome),
                    }
                };
                return Ok(outcomes.into_iter().map(answered).collect());
            }
        }
        self.submit_many_with_context(requests, context)
    }

    /// Why the queue would refuse `incoming` more requests now, if it would:
    /// closed, degraded, or over capacity, checked in that order.
    fn refusal(&self, state: &QueueState, incoming: usize) -> Option<ServiceError> {
        if state.closed {
            return Some(ServiceError::ShuttingDown);
        }
        // Early rejection under degradation: when the load watermarks are
        // already breached, refuse new work at the door (the HTTP layer
        // answers 429 + `Retry-After`) instead of admitting it into a queue
        // that is answering slower than clients wait. The depth watermark is
        // read off the held state rather than through [`Self::degraded`] —
        // that accessor takes the same (non-reentrant) lock.
        if state.pending.len() >= self.config.degrade_queue_depth || self.p99_breached() {
            return Some(ServiceError::Degraded);
        }
        if state.pending.len() + incoming > self.config.capacity {
            return Some(ServiceError::Overloaded);
        }
        None
    }

    /// Enqueues one request with no deadline, failing fast when the queue
    /// is full or closed.
    pub fn submit(&self, request: QueryRequest) -> Result<Ticket, ServiceError> {
        let mut tickets =
            self.submit_many_with_context(vec![request], RequestContext::unbounded())?;
        Ok(tickets.pop().expect("one ticket per request"))
    }

    /// [`admit`](Self::admit)'s queueing half: enqueues a batch with one
    /// shared deadline / cancellation context, all-or-nothing — either
    /// every request is admitted (in order, so the lane that takes them
    /// keeps them in one batch when it fits) or the whole batch is refused
    /// and nothing is queued. The caller keeps a clone of `context`:
    /// cancelling it (or letting the deadline pass) makes a lane shed the
    /// requests before dispatch and evaluation stop cooperatively if it
    /// already started.
    fn submit_many_with_context(
        &self,
        requests: Vec<QueryRequest>,
        context: RequestContext,
    ) -> Result<Vec<Ticket>, ServiceError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let submitted = Instant::now();
        let mut state = self.state.lock().expect(STATE_POISONED);
        if let Some(refused) = self.refusal(&state, requests.len()) {
            return Err(refused);
        }
        let mut tickets = Vec::with_capacity(requests.len());
        for request in requests {
            let slot = Slot::new();
            tickets.push(Ticket {
                state: TicketState::Queued(slot.clone()),
            });
            state.pending.push_back(Pending {
                request,
                context: context.clone(),
                slot,
                submitted,
            });
        }
        drop(state);
        // One lane is enough to take what was just queued; if it leaves some
        // behind, `next_batch` wakes the next.
        self.not_empty.notify_one();
        Ok(tickets)
    }

    /// Requests waiting for dispatch right now.
    pub fn len(&self) -> usize {
        self.state.lock().expect(STATE_POISONED).pending.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect(STATE_POISONED).closed
    }

    /// Whether the load watermarks are breached: queue depth at or above
    /// [`AdmissionConfig::degrade_queue_depth`], or end-to-end p99 at or
    /// above [`AdmissionConfig::degrade_p99`] over the requests completed
    /// since the queue was last found drained. While degraded, the
    /// lanes cap route search budgets, and the HTTP front-end reports
    /// the state on `/healthz`.
    pub fn degraded(&self) -> bool {
        self.len() >= self.config.degrade_queue_depth || self.p99_breached()
    }

    /// Whether the windowed end-to-end p99 (seconds, read off the live
    /// buckets without allocating — this runs on every submit) has reached
    /// the watermark; never while the window is empty.
    fn p99_breached(&self) -> bool {
        let p99 = self.window.quantile(0.99);
        p99 > 0.0 && p99 >= self.config.degrade_p99.as_secs_f64()
    }

    /// Records one completed request's end-to-end latency.
    fn observe_e2e(&self, elapsed: Duration) {
        self.latency.observe_duration(elapsed);
        self.window.observe_duration(elapsed);
    }

    /// Closes the queue: subsequent submits fail with
    /// [`ServiceError::ShuttingDown`]; already-admitted requests are still
    /// drained and answered before [`dispatch`](Self::dispatch) returns.
    pub fn close(&self) {
        self.state.lock().expect(STATE_POISONED).closed = true;
        self.not_empty.notify_all();
    }

    /// Runs one dispatch lane on the calling thread until the queue is
    /// closed *and* drained. Several lanes may run at once, each draining
    /// its own batches; the server runs [`QueryEngine::worker_count`] of
    /// them. One lane serialises single-request batches — the executor runs
    /// those inline on the lane — so under light load a cold estimate holds
    /// up every request behind it, cache hits included. Extra lanes let a
    /// free lane take the next request meanwhile; under heavy load whatever
    /// queued while the lanes were busy still forms one batch that fans out
    /// over the process-wide worker pool (or runs on its lane, if another
    /// lane's batch or a fit holds the pool).
    pub fn dispatch(&self, engine: &QueryEngine<'_>) {
        while let Some(batch) = self.next_batch() {
            let answered = self.run_batch(engine, batch);
            // Found drained by this lane: the backlog the window judged is
            // gone, so the p99 watermark starts afresh and a past slow spell
            // cannot keep refusing work. Reset before the tickets complete,
            // so a client holding its answer also sees the reopened door.
            if self.is_empty() {
                self.window.reset();
            }
            for (slot, result) in answered {
                slot.complete(result);
            }
        }
    }

    /// Sheds the requests of `batch` that expired while they queued (their
    /// tickets complete at once), executes the rest as one engine batch and
    /// returns their slots with their results, not yet completed.
    fn run_batch(
        &self,
        engine: &QueryEngine<'_>,
        batch: Vec<Pending>,
    ) -> Vec<(Arc<Slot>, Result<QueryOutcome, ServiceError>)> {
        let picked_up = Instant::now();
        let degraded = self.degraded();
        self.note_degradation(degraded);
        let mut requests = Vec::with_capacity(batch.len());
        let mut contexts = Vec::with_capacity(batch.len());
        let mut slots = Vec::with_capacity(batch.len());
        for pending in batch {
            let queued = pending.submitted.elapsed();
            self.queue_wait.observe_duration(queued);
            if let Some(trace) = pending.context.trace() {
                trace.record(Stage::Queue, queued);
            }
            if pending.context.should_stop() {
                // Shed before dispatch: the deadline passed (or the client
                // abandoned the request) while it queued, so answer
                // immediately instead of burning a worker.
                let elapsed = pending.submitted.elapsed();
                engine.recorder.record_shed(elapsed);
                self.observe_e2e(elapsed);
                pending.slot.complete(Err(stop_error(&pending.context)));
                continue;
            }
            requests.push(pending.request);
            contexts.push(pending.context);
            slots.push((pending.slot, pending.submitted));
        }
        if requests.is_empty() {
            return Vec::new();
        }
        // Dispatch span: batch assembly between pickup and execution.
        let assembly = picked_up.elapsed();
        for context in &contexts {
            if let Some(trace) = context.trace() {
                trace.record(Stage::Dispatch, assembly);
            }
        }
        // Backstop: a panic escaping the batch (the answer phase already
        // contains per-query panics) must not kill the lane — every
        // waiting ticket would hang forever. Answer the whole batch with an
        // internal error instead.
        let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.execute_batch_under(&requests, &contexts, degraded)
        }))
        .unwrap_or_else(|_| {
            engine.recorder.panicked_queries.inc();
            (0..requests.len())
                .map(|_| Err(ServiceError::Internal("batch execution panicked")))
                .collect()
        });
        slots
            .into_iter()
            .zip(results)
            .map(|((slot, submitted), result)| {
                self.observe_e2e(submitted.elapsed());
                (slot, result)
            })
            .collect()
    }

    /// Logs watermark transitions (entered/left degraded mode) exactly once
    /// per edge, from whichever lane observes them.
    fn note_degradation(&self, degraded: bool) {
        let was = self.was_degraded.swap(degraded, Ordering::Relaxed);
        if was == degraded {
            return;
        }
        let fields = [
            ("queue_depth", obslog::Value::from(self.len())),
            (
                "e2e_p99_us",
                obslog::Value::from((self.window.quantile(0.99) * 1e6) as u64),
            ),
        ];
        if degraded {
            obslog::warn("admission", "degraded_mode_entered", &fields);
        } else {
            obslog::info("admission", "degraded_mode_left", &fields);
        }
    }

    /// Blocks until work is available and returns the next batch — whatever
    /// has queued, up to [`AdmissionConfig::max_batch`] — or `None` once the
    /// queue is closed and fully drained.
    fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut state = self.state.lock().expect(STATE_POISONED);
        loop {
            while state.pending.is_empty() {
                if state.closed {
                    return None;
                }
                state = self.not_empty.wait(state).expect(STATE_POISONED);
            }
            // Opt-in linger: hold a non-full batch open for a fixed window so
            // more connections can join it (closed queues flush immediately).
            if self.config.linger > Duration::ZERO {
                let deadline = Instant::now() + self.config.linger;
                while state.pending.len() < self.config.max_batch && !state.closed {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, _) = self
                        .not_empty
                        .wait_timeout(state, deadline - now)
                        .expect(STATE_POISONED);
                    state = guard;
                }
            }
            // Another lane may have taken everything while this one lingered.
            if !state.pending.is_empty() {
                break;
            }
        }
        let take = state.pending.len().min(self.config.max_batch);
        let batch = state.pending.drain(..take).collect();
        if !state.pending.is_empty() {
            // More than one batch was waiting: hand the rest to the next lane.
            self.not_empty.notify_one();
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_core::{HybridConfig, HybridGraph};
    use pathcost_traj::{DatasetPreset, TrajectoryStore};
    use std::sync::Arc;

    fn with_engine(f: impl FnOnce(&QueryEngine<'_>, &TrajectoryStore)) {
        let (net, store) = DatasetPreset::tiny(7).materialise().unwrap();
        let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
        let engine = QueryEngine::new(Arc::new(graph), crate::ServiceConfig::default());
        f(&engine, &store);
    }

    fn sample_request(store: &TrajectoryStore, seed: usize) -> QueryRequest {
        let paths = store.frequent_paths(2, 30, None);
        let (path, _) = paths[seed % paths.len()].clone();
        let departure = store.occurrences_on(&path)[0].entry_time;
        QueryRequest::EstimateDistribution {
            path,
            departure,
            regime: pathcost_core::RegimeId::ALL_TRAFFIC,
        }
    }

    #[test]
    fn admit_answers_a_cached_point_query_without_queueing_it() {
        with_engine(|engine, store| {
            let queue = AdmissionQueue::new(AdmissionConfig::default());
            let hit = sample_request(store, 0);
            let direct = engine.execute(&hit).unwrap();
            let QueryRequest::EstimateDistribution {
                path, departure, ..
            } = hit.clone()
            else {
                unreachable!()
            };
            let prob = QueryRequest::ProbWithinBudget {
                path,
                departure,
                budget_s: 600.0,
                regime: pathcost_core::RegimeId::ALL_TRAFFIC,
            };
            let counts = || {
                let stats = engine.stats();
                (stats.batches, stats.cache_hits, stats.cache_misses)
            };
            let before = counts();
            for request in [hit, prob] {
                let mut tickets = queue
                    .admit(engine, vec![request], RequestContext::unbounded())
                    .unwrap();
                assert!(queue.is_empty(), "a hit takes no queue slot");
                let outcome = tickets.remove(0).wait().unwrap();
                assert_eq!(
                    (outcome.stats.cache_hits, outcome.stats.cache_misses),
                    (1, 0)
                );
                if let Some(histogram) = outcome.response.distribution() {
                    assert_eq!(histogram, direct.response.distribution().unwrap());
                }
            }
            assert_eq!(
                counts(),
                (before.0, before.1 + 2, before.2),
                "no batch, no miss"
            );
            let registry = queue.registry();
            for (series, want) in [
                ("pathcost_request_e2e_seconds_count", 2.0),
                ("pathcost_admission_queue_wait_seconds_count", 2.0),
                ("pathcost_admission_queue_wait_seconds_sum", 0.0),
            ] {
                assert_eq!(registry.value(series).unwrap(), want, "{series}");
            }

            // A miss is queued, its probe uncounted; the lane counts it.
            let miss = queue
                .admit(
                    engine,
                    vec![sample_request(store, 1)],
                    RequestContext::unbounded(),
                )
                .unwrap()
                .remove(0);
            assert_eq!(queue.len(), 1);
            assert_eq!(counts(), (before.0, before.1 + 2, before.2));
            queue.close();
            queue.dispatch(engine);
            assert_eq!(miss.wait().unwrap().stats.cache_misses, 1);
            assert_eq!(counts(), (before.0 + 1, before.1 + 2, before.2 + 1));
        });
    }

    #[test]
    fn admit_refuses_and_sheds_a_cached_point_query_as_submit_does() {
        with_engine(|engine, store| {
            let hit = sample_request(store, 0);
            engine.execute(&hit).unwrap();
            let hits = || engine.stats().cache_hits;
            let before = hits();
            let admit = |queue: &AdmissionQueue, context| {
                let tickets = queue.admit(engine, vec![hit.clone()], context);
                tickets.map(|mut tickets| tickets.remove(0))
            };

            let closed = AdmissionQueue::new(AdmissionConfig::default());
            closed.close();
            let refused = admit(&closed, RequestContext::unbounded());
            assert!(matches!(refused, Err(ServiceError::ShuttingDown)));

            let degraded = AdmissionQueue::new(AdmissionConfig {
                degrade_queue_depth: 1,
                ..AdmissionConfig::default()
            });
            degraded.submit(sample_request(store, 1)).unwrap();
            let refused = admit(&degraded, RequestContext::unbounded());
            assert!(matches!(refused, Err(ServiceError::Degraded)));

            let full = AdmissionQueue::new(AdmissionConfig {
                capacity: 1,
                ..AdmissionConfig::default()
            });
            full.submit(sample_request(store, 1)).unwrap();
            let refused = admit(&full, RequestContext::unbounded());
            assert!(matches!(refused, Err(ServiceError::Overloaded)));

            let open = AdmissionQueue::new(AdmissionConfig::default());
            let expired = RequestContext::with_deadline(Some(Duration::ZERO));
            let shed = admit(&open, expired).unwrap();
            assert_eq!(
                open.len(),
                1,
                "an expired hit is queued for the lane to shed"
            );
            open.close();
            open.dispatch(engine);
            assert!(matches!(shed.wait(), Err(ServiceError::DeadlineExceeded)));
            assert_eq!(
                engine
                    .registry()
                    .value("pathcost_admission_shed_total")
                    .unwrap(),
                1.0
            );
            assert_eq!(hits(), before, "no refused or shed hit reads the cache");
        });
    }

    #[test]
    fn degraded_queue_rejects_new_submissions_early() {
        with_engine(|engine, store| {
            let queue = AdmissionQueue::new(AdmissionConfig {
                degrade_queue_depth: 2,
                ..AdmissionConfig::default()
            });
            queue.submit(sample_request(store, 0)).unwrap();
            let second = queue.submit(sample_request(store, 1)).unwrap();
            assert!(queue.degraded(), "depth watermark breached");
            // The door is closed while degraded — well before capacity.
            assert!(matches!(
                queue.submit(sample_request(store, 2)),
                Err(ServiceError::Degraded)
            ));
            assert_eq!(queue.len(), 2, "rejected request was never queued");
            // Draining the backlog clears the watermark and reopens the door.
            queue.close();
            queue.dispatch(engine);
            assert!(second.wait().is_ok());
            assert!(!queue.degraded());
        });
    }

    #[test]
    fn a_past_slow_spell_stops_refusing_work_once_the_queue_drains() {
        with_engine(|engine, store| {
            let queue = AdmissionQueue::new(AdmissionConfig::default());
            let admitted = queue.submit(sample_request(store, 0)).unwrap();
            for _ in 0..100 {
                queue.observe_e2e(Duration::from_secs(3));
            }
            assert!(queue.degraded(), "p99 3 s is past the 2 s watermark");
            assert!(matches!(
                queue.submit(sample_request(store, 1)),
                Err(ServiceError::Degraded)
            ));
            // Dispatch the one admitted request; the queue is then empty.
            // Everything is read inside the scope and asserted after it, so a
            // failure cannot leave the dispatcher waiting on an open queue.
            let (answered, degraded_after, resubmitted) = std::thread::scope(|scope| {
                scope.spawn(|| queue.dispatch(engine));
                let answered = admitted.wait();
                let degraded_after = queue.degraded();
                let resubmitted = queue.submit(sample_request(store, 2)).map(Ticket::wait);
                queue.close();
                (answered, degraded_after, resubmitted)
            });
            assert!(answered.is_ok());
            assert!(!degraded_after, "the drained queue judges p99 afresh");
            assert!(matches!(resubmitted, Ok(Ok(_))), "the door reopened");
            assert_eq!(
                queue
                    .registry()
                    .value("pathcost_request_e2e_seconds_count")
                    .unwrap(),
                102.0,
                "the exported family keeps all"
            );
        });
    }

    #[test]
    fn batches_whatever_has_queued_without_a_timer() {
        assert_eq!(AdmissionConfig::default().linger, Duration::ZERO);
        with_engine(|engine, store| {
            let queue = AdmissionQueue::new(AdmissionConfig::default());
            let lone = queue.submit(sample_request(store, 0)).unwrap();
            let held = queue.next_batch().expect("one request queued");
            assert_eq!(held.len(), 1, "a lone request is a batch of its own");
            // Five arrive while that batch is out of the queue (running, for
            // a real dispatcher): they form the next batch together.
            let five: Vec<Ticket> = (1..6)
                .map(|i| queue.submit(sample_request(store, i)).unwrap())
                .collect();
            let next = queue.next_batch().expect("five requests queued");
            assert_eq!(next.len(), 5);
            assert!(queue.is_empty());
            for batch in [held, next] {
                for (slot, result) in queue.run_batch(engine, batch) {
                    slot.complete(result);
                }
            }
            assert!(lone.wait().is_ok());
            assert!(five.into_iter().all(|ticket| ticket.wait().is_ok()));
        });
    }

    #[test]
    fn registry_renders_exact_sums_and_live_gauges() {
        with_engine(|_engine, store| {
            let queue = AdmissionQueue::new(AdmissionConfig {
                degrade_queue_depth: 1,
                ..AdmissionConfig::default()
            });
            // Durations far from any bucket's upper edge, so a sum rebuilt
            // from edges (up to 2x high) cannot pass for the real one.
            queue.latency.observe_duration(Duration::from_micros(1_100));
            queue.latency.observe_duration(Duration::from_micros(70));
            queue
                .queue_wait
                .observe_duration(Duration::from_micros(300));
            queue.submit(sample_request(store, 0)).unwrap();
            for (series, want) in [
                ("pathcost_request_e2e_seconds_sum", 1_170e-6),
                ("pathcost_admission_queue_wait_seconds_sum", 300e-6),
                ("pathcost_admission_queue_depth", 1.0),
                ("pathcost_admission_degraded", 1.0),
            ] {
                let value = queue.registry().value(series).unwrap();
                assert!(
                    (value - want).abs() < 1e-6,
                    "{series} = {value}, want {want}"
                );
            }
        });
    }

    #[test]
    fn batched_dispatch_matches_direct_execution() {
        with_engine(|engine, store| {
            let queue = AdmissionQueue::new(AdmissionConfig {
                linger: Duration::from_millis(5),
                ..AdmissionConfig::default()
            });
            let requests: Vec<QueryRequest> = (0..6).map(|i| sample_request(store, i)).collect();
            let direct: Vec<_> = requests
                .iter()
                .map(|r| {
                    let outcome = engine.execute(r).unwrap();
                    outcome.response.distribution().unwrap().clone()
                })
                .collect();
            std::thread::scope(|scope| {
                let tickets = queue
                    .submit_many_with_context(requests.clone(), RequestContext::unbounded())
                    .unwrap();
                scope.spawn(|| queue.dispatch(engine));
                for (ticket, expected) in tickets.into_iter().zip(&direct) {
                    let outcome = ticket.wait().unwrap();
                    assert_eq!(outcome.response.distribution().unwrap(), expected);
                }
                queue.close();
            });
        });
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        with_engine(|_engine, store| {
            let queue = AdmissionQueue::new(AdmissionConfig {
                capacity: 2,
                ..AdmissionConfig::default()
            });
            queue.submit(sample_request(store, 0)).unwrap();
            queue.submit(sample_request(store, 1)).unwrap();
            assert!(matches!(
                queue.submit(sample_request(store, 2)),
                Err(ServiceError::Overloaded)
            ));
            // All-or-nothing: a 2-element batch over a full queue queues none.
            let pair = vec![sample_request(store, 0), sample_request(store, 1)];
            assert!(matches!(
                queue.submit_many_with_context(pair, RequestContext::unbounded()),
                Err(ServiceError::Overloaded)
            ));
            assert_eq!(queue.len(), 2);
        });
    }

    #[test]
    fn close_drains_admitted_work_then_rejects() {
        with_engine(|engine, store| {
            let queue = AdmissionQueue::new(AdmissionConfig::default());
            let ticket = queue.submit(sample_request(store, 0)).unwrap();
            queue.close();
            assert!(matches!(
                queue.submit(sample_request(store, 1)),
                Err(ServiceError::ShuttingDown)
            ));
            // Dispatch drains the already-admitted request, then returns.
            queue.dispatch(engine);
            assert!(ticket.wait().is_ok());
            assert!(queue.is_empty());
            assert!(
                queue
                    .registry()
                    .value("pathcost_request_e2e_seconds_count")
                    .unwrap()
                    >= 1.0
            );
        });
    }

    #[test]
    fn concurrent_submitters_all_get_answers() {
        with_engine(|engine, store| {
            let queue = AdmissionQueue::new(AdmissionConfig {
                max_batch: 4,
                linger: Duration::from_micros(500),
                ..AdmissionConfig::default()
            });
            std::thread::scope(|scope| {
                let dispatcher = scope.spawn(|| queue.dispatch(engine));
                let clients: Vec<_> = (0..8)
                    .map(|i| {
                        let queue = &queue;
                        scope.spawn(move || {
                            let ticket = queue.submit(sample_request(store, i)).unwrap();
                            ticket.wait()
                        })
                    })
                    .collect();
                for client in clients {
                    assert!(client.join().unwrap().is_ok());
                }
                queue.close();
                dispatcher.join().unwrap();
            });
            for series in [
                "pathcost_request_e2e_seconds_count",
                "pathcost_admission_queue_wait_seconds_count",
            ] {
                assert_eq!(queue.registry().value(series).unwrap(), 8.0, "{series}");
            }
        });
    }
}
