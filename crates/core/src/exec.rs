//! The one fork–join executor: a persistent worker pool.
//!
//! A [`WorkerPool`] keeps N long-lived workers that sleep on a condvar
//! between jobs, and has one schedule, [`WorkerPool::run`]: the workers and
//! the submitting thread claim indices from a shared atomic counter until the
//! range is exhausted. Nothing is spawned per call, so a thread that fits
//! variables or answers a batch is already running and already placed, and
//! whatever it keeps in thread-local storage (a fit scratch, an estimator
//! scratch) survives from one call to the next.
//!
//! One instance exists: [`global`], cores − 1 workers plus the caller,
//! created on first use and never dropped. Every fan-out runs on it — the
//! weight fits (instantiation, re-derivation, recovery replay), a snapshot
//! restore's two section decodes and the query engine's batches alike.
//! `WorkerPool::new` is private, so nothing outside this module (and its
//! tests) can build a second one.
//!
//! Jobs are **broadcast**: every worker observes every generation in order
//! and joins its index claiming. One job runs at a time. A submitter that
//! finds the pool busy — another thread's job, or the job it is itself
//! running inside — runs its range inline instead of waiting, so nested
//! calls cannot deadlock and concurrent callers never queue behind each
//! other.
//!
//! A panic inside a task does not take a worker down: the task is isolated
//! with [`std::panic::catch_unwind`], the job completes, and the first panic
//! is re-raised on the *submitting* thread once the job is done. The pool
//! stays serviceable for the next job.
//!
//! ## Why the small `unsafe` block is sound
//!
//! Workers are plain `std::thread::spawn` threads (they must outlive any one
//! call), so the job closure — which borrows the caller's items, scratch
//! slots and result slots — cannot be handed to them as a safely-typed
//! reference: its lifetime is local to [`WorkerPool::run`]. The pointer is
//! therefore lifetime-erased, the way scoped thread pools (rayon, crossbeam)
//! erase theirs, and soundness rests on a happens-before protocol that holds
//! whoever submits and however long the pool lives:
//!
//! 1. Only the holder of the submit lock publishes a job, so at most one
//!    erased pointer is live per pool, and it belongs to a submitter that is
//!    inside `run`. Submitters on any other thread find the lock taken and
//!    never touch the job.
//! 2. `run` publishes the pointer under the state mutex; a worker copies it
//!    out under that mutex, calls it only for the indices it claims, and
//!    then decrements the job's `remaining` count under the same mutex —
//!    after which it never touches that job again (it waits for the next
//!    generation).
//! 3. `run` does **not return or unwind** until `remaining` is zero: its own
//!    claims run under `catch_unwind`, and the state mutex is never left
//!    poisoned (no code that can panic runs under it, and a poisoned guard
//!    would be recovered, since every update leaves the state valid).
//!
//! So the closure is alive for the entire window in which any thread may
//! dereference it. A `'static` instance ([`global`]) changes nothing: its
//! workers outlive every job, but per (2) none of them holds a job's pointer
//! past that job's `remaining == 0`.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// The task reference workers execute. The `'static` is a lie confined to
/// this module — see the module docs for the protocol that makes it sound.
type Task = &'static (dyn Fn(usize) + Sync);

/// One fork-join: the task, called once for every index in `0..count`.
#[derive(Clone, Copy)]
struct Job {
    task: Task,
    count: usize,
}

struct State {
    /// Bumped once per job; workers run every generation exactly once.
    generation: u64,
    job: Option<Job>,
    /// Workers yet to finish the current generation.
    remaining: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new generation (or shutdown).
    work: Condvar,
    /// The submitter waits here for `remaining` to reach zero.
    done: Condvar,
    /// The current job's index-claim counter.
    next: AtomicUsize,
    /// The first panic a task of the current job raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Shared {
    /// The state guard. Every update under it is a single field assignment
    /// that leaves the state valid, so a poisoned guard is recovered rather
    /// than propagated — the soundness argument relies on `run` never
    /// unwinding while a job is published.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims indices of `job` until its range is exhausted, running each
    /// invocation under `catch_unwind` so a panicking task cannot take the
    /// worker (or the submitter's wait) down.
    fn claim(&self, job: Job) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= job.count {
                break;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (job.task)(i))) {
                let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
                first.get_or_insert(payload);
            }
        }
    }

    fn worker_loop(&self) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut state = self.state();
                loop {
                    if state.shutdown {
                        return;
                    }
                    if state.generation != seen {
                        seen = state.generation;
                        break state.job;
                    }
                    state = self
                        .work
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            if let Some(job) = job {
                self.claim(job);
            }
            let mut state = self.state();
            state.remaining -= 1;
            if state.remaining == 0 {
                self.done.notify_all();
            }
        }
    }
}

/// Long-lived worker threads executing broadcast fork-join jobs.
///
/// [`Drop`] signals shutdown and joins every worker, so a pool going away
/// never leaks threads.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes jobs: one fork-join at a time.
    submit: Mutex<()>,
}

impl WorkerPool {
    /// Spawns `width` workers. With none, every job runs on its submitter.
    fn new(width: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                generation: 0,
                job: None,
                remaining: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        let handles = (0..width)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pathcost-worker-{id}"))
                    .spawn(move || shared.worker_loop())
                    .expect("worker thread spawns")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            submit: Mutex::new(()),
        }
    }

    /// How many workers the pool keeps (the submitter is not counted).
    pub fn width(&self) -> usize {
        self.handles.len()
    }

    /// Runs `f(i)` for every `i in 0..count`, blocking until all invocations
    /// completed. The submitting thread participates in the index claiming,
    /// so a pool of width W applies W + 1 threads to the range. For any `f`
    /// whose invocations are independent the result does not depend on which
    /// thread ran which index.
    ///
    /// Runs inline on the calling thread when there is nothing to share
    /// (`count <= 1`, no workers) or the pool is busy with another job —
    /// including the one the caller is itself a task of.
    ///
    /// Panics (on the submitting thread, after the whole range completed)
    /// with the first task panic; the workers themselves survive.
    pub fn run<F: Fn(usize) + Sync>(&self, count: usize, f: F) {
        // Nothing that can panic runs while the submit lock is held, so a
        // failed `try_lock` means only that the pool is busy.
        let guard = if count > 1 && !self.handles.is_empty() {
            self.submit.try_lock().ok()
        } else {
            None
        };
        let Some(guard) = guard else {
            let mut first = None;
            for i in 0..count {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                    first.get_or_insert(payload);
                }
            }
            if let Some(payload) = first {
                resume_unwind(payload);
            }
            return;
        };
        let job = Job {
            task: erase(&f),
            count,
        };
        {
            let mut state = self.shared.state();
            self.shared.next.store(0, Ordering::Relaxed);
            state.job = Some(job);
            state.generation += 1;
            state.remaining = self.handles.len();
            self.shared.work.notify_all();
        }
        self.shared.claim(job);
        let mut state = self.shared.state();
        while state.remaining > 0 {
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        // No worker can touch the erased pointer past this line: each one
        // decremented `remaining` under the state mutex after its last use.
        state.job = None;
        drop(state);
        let panic = self
            .shared
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        // Release the submit lock *before* re-raising, so reporting a task
        // panic does not poison the pool for the next submitter.
        drop(guard);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

/// Erases the task's lifetime. Sound per the protocol in the module docs:
/// the erased reference is only ever dereferenced between `run` publishing
/// it and `run` observing `remaining == 0`, a window in which the borrow it
/// came from is provably alive (the submitter is still inside `run`, which
/// borrows `f`, and cannot unwind out of it).
fn erase<F: Fn(usize) + Sync>(f: &F) -> Task {
    let short: &(dyn Fn(usize) + Sync) = f;
    // SAFETY: the reference outlives every dereference of the result. Only
    // the submit-lock holder publishes it (one live job per pool, whatever
    // thread submits), every worker's last use of it happens-before its
    // `remaining` decrement under the state mutex, and `run` neither returns
    // nor unwinds before observing `remaining == 0` under that mutex — for a
    // local pool and for the never-dropped `global` one alike.
    unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Task>(short) }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state();
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The process-wide pool every fan-out runs on: cores − 1 workers (the
/// caller is the last core), spawned on first use and never dropped.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        WorkerPool::new(cores - 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    #[test]
    fn run_covers_every_index_exactly_once() {
        for width in [0, 1, 4] {
            let pool = WorkerPool::new(width);
            for count in [0usize, 1, 2, 7, 64, 1000] {
                let hits: Vec<AtomicU64> = (0..count).map(|_| AtomicU64::new(0)).collect();
                pool.run(count, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "width {width}, count {count}: every index exactly once"
                );
            }
        }
    }

    #[test]
    fn sequential_jobs_reuse_the_same_workers() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        let threads = Mutex::new(HashSet::new());
        let caller = std::thread::current().id();
        for _ in 0..100 {
            pool.run(16, |_| {
                total.fetch_add(1, Ordering::Relaxed);
                threads.lock().unwrap().insert(std::thread::current().id());
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 1600);
        let mut threads = threads.into_inner().unwrap();
        threads.remove(&caller);
        assert!(
            threads.len() <= 2,
            "{} worker threads for width 2",
            threads.len()
        );
    }

    #[test]
    fn concurrent_submitters_never_lose_work() {
        let pool = WorkerPool::new(4);
        let total = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        pool.run(8, |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 8);
    }

    #[test]
    fn a_busy_pool_runs_the_second_submitter_inline() {
        let pool = WorkerPool::new(1);
        // Both indices of the outer job wait for each other, so the worker
        // and the caller are both inside it while the nested submit happens.
        let both_in = Barrier::new(2);
        let nested = Mutex::new(Vec::new());
        pool.run(2, |i| {
            both_in.wait();
            if i == 0 {
                let me = std::thread::current().id();
                pool.run(3, |_| {
                    nested.lock().unwrap().push(std::thread::current().id())
                });
                assert!(nested.lock().unwrap().iter().all(|&t| t == me));
            }
        });
        assert_eq!(nested.into_inner().unwrap().len(), 3);
    }

    #[test]
    fn a_panicking_task_reraises_its_payload_but_does_not_kill_the_pool() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 3 {
                    panic!("poisoned request");
                }
            });
        }));
        let payload = result.expect_err("the submitter observes the panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"poisoned request"));
        let total = AtomicU64::new(0);
        pool.run(8, |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(8);
        pool.run(100, |_| {});
        drop(pool); // must not hang
    }

    /// Four submitters, tasks that panic, borrowed data that dies with each
    /// call, and the drop of the pool at the end: the protocol the `unsafe`
    /// block relies on, exercised hard (run it with `--release` too).
    #[test]
    fn stress_four_submitters_with_panicking_tasks_then_drop() {
        let pool = WorkerPool::new(3);
        let counted = AtomicU64::new(0);
        std::thread::scope(|s| {
            for submitter in 0..4u64 {
                let (pool, counted) = (&pool, &counted);
                s.spawn(move || {
                    for round in 0..300u64 {
                        // Local to this call: a task outliving `run` would
                        // read freed memory.
                        let cells: Vec<AtomicU64> = (0..17).map(|_| AtomicU64::new(0)).collect();
                        let poisoned = (submitter + round) % 5 == 0;
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            pool.run(cells.len(), |i| {
                                cells[i].fetch_add(round, Ordering::Relaxed);
                                if poisoned && i == 11 {
                                    panic!("task {i} of round {round}");
                                }
                            });
                        }));
                        assert_eq!(outcome.is_err(), poisoned);
                        let sum: u64 = cells.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                        assert_eq!(sum, 17 * round, "every index ran once, panic or not");
                        counted.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(counted.load(Ordering::Relaxed), 4 * 300);
        drop(pool);
    }

    #[test]
    fn the_global_pool_leaves_one_core_to_the_caller() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(global().width(), cores - 1);
        assert!(std::ptr::eq(global(), global()));
    }
}
