//! A persistent worker pool for batch fan-out.
//!
//! The original batch executor spawned a fresh set of scoped threads for
//! every phase of every batch — fine for a harness that executes one batch,
//! wasteful for a serving process that executes thousands per second (two
//! thread spawns + joins per batch). [`WorkerPool`] replaces that with N
//! long-lived workers (N = available cores by default) that sleep on a
//! condvar between jobs, and has one schedule, [`WorkerPool::run`]: the
//! workers and the submitting thread claim indices from a shared atomic
//! counter until the range is exhausted — the work-stealing schedule the
//! scoped executor used, minus the per-batch spawn/join cost.
//!
//! Jobs are **broadcast**: every worker observes every generation in order
//! and joins its index claiming. One job runs at a time (submitters
//! serialize on an internal lock).
//!
//! A panic inside a task does not take a worker down: the task is isolated
//! with [`std::panic::catch_unwind`], the batch completes, and the panic is
//! re-raised on the *submitting* thread once the job is done — the same
//! observable behaviour as the scoped executor (whose scope join re-raised
//! worker panics), except the pool stays serviceable for the next batch,
//! which is what a network front-end needs from a worker that just served a
//! poisoned request.
//!
//! ## Why the small `unsafe` block is sound
//!
//! Workers are plain `std::thread::spawn` threads (they must outlive any one
//! call), so the job closure — which borrows the engine, the batch's job
//! list, the response slots — cannot be handed to them as a safely-typed
//! reference: its lifetime is local to [`WorkerPool::run`]. The pointer is
//! therefore lifetime-erased, exactly the way scoped thread pools
//! (rayon, crossbeam) erase theirs, and soundness rests on a strict
//! happens-before protocol. `run` publishes the erased pointer under the
//! state mutex; a worker copies it out under that mutex, calls it only for
//! the indices it claims, and then decrements the job's `remaining` count
//! under the same mutex — after which it never touches that job again (it
//! waits for the next generation). `run` does **not return** until
//! `remaining` is zero, i.e. until no worker can touch the pointer again, so
//! the closure is alive for the entire window in which any thread may
//! dereference it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
    /// Set when any task panicked during the current job.
    panicked: AtomicBool,
}

impl Shared {
    /// Claims indices of `job` until its range is exhausted, running each
    /// invocation under `catch_unwind` so a poisoned request cannot take the
    /// worker (or the whole process) down.
    fn claim(&self, job: Job) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= job.count {
                break;
            }
            if catch_unwind(AssertUnwindSafe(|| (job.task)(i))).is_err() {
                self.panicked.store(true, Ordering::Release);
            }
        }
    }

    fn worker_loop(&self) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut state = self.state.lock().expect("pool state poisoned");
                loop {
                    if state.shutdown {
                        return;
                    }
                    if state.generation != seen {
                        seen = state.generation;
                        break state.job.expect("a bumped generation always has a job");
                    }
                    state = self.work.wait(state).expect("pool state poisoned");
                }
            };
            self.claim(job);
            let mut state = self.state.lock().expect("pool state poisoned");
            state.remaining -= 1;
            if state.remaining == 0 {
                self.done.notify_all();
            }
        }
    }
}

/// N long-lived worker threads executing broadcast fork-join jobs.
///
/// Created once per [`QueryEngine`](crate::QueryEngine) (lazily, on the
/// first batch) and dropped with it; [`Drop`] signals shutdown and joins
/// every worker, so an engine going away never leaks threads.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes jobs: one fork-join at a time.
    submit: Mutex<()>,
}

impl WorkerPool {
    /// Spawns `width` workers (clamped to at least 1).
    pub(crate) fn new(width: usize) -> Self {
        let width = width.max(1);
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
            panicked: AtomicBool::new(false),
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

    /// Runs `f(i)` for every `i in 0..count` across the pool, blocking until
    /// all invocations completed. The submitting thread participates in the
    /// index claiming, so a pool of width W applies W+1 threads to the range
    /// — the same schedule (and the same result, for any `f` whose
    /// invocations are independent) as the scoped executor it replaces.
    ///
    /// Panics (on the submitting thread, after the whole range completed) if
    /// any invocation panicked; the workers themselves survive.
    pub(crate) fn run<F: Fn(usize) + Sync>(&self, count: usize, f: F) {
        let guard = self.submit.lock().expect("pool submit lock poisoned");
        let job = Job {
            task: erase(&f),
            count,
        };
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            self.shared.next.store(0, Ordering::Relaxed);
            state.job = Some(job);
            state.generation += 1;
            state.remaining = self.handles.len();
            self.shared.work.notify_all();
        }
        self.shared.claim(job);
        let mut state = self.shared.state.lock().expect("pool state poisoned");
        while state.remaining > 0 {
            state = self.shared.done.wait(state).expect("pool state poisoned");
        }
        // No worker can touch the erased pointer past this line: each one
        // decremented `remaining` under the state mutex after its last use.
        state.job = None;
        drop(state);
        let panicked = self.shared.panicked.swap(false, Ordering::AcqRel);
        // Release the submit lock *before* re-raising, so reporting a task
        // panic does not poison the pool for the next submitter.
        drop(guard);
        if panicked {
            panic!("a worker-pool task panicked (the pool itself survived)");
        }
    }
}

/// Erases the task's lifetime. Sound per the protocol in the module docs:
/// the erased reference is only ever dereferenced between `run` publishing
/// it and `run` observing `remaining == 0`, a window in which the borrow it
/// came from is provably alive (the submitter is still inside `run`, which
/// borrows `f`).
fn erase<F: Fn(usize) + Sync>(f: &F) -> Task {
    let short: &(dyn Fn(usize) + Sync) = f;
    // SAFETY: see above and the module docs.
    unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Task>(short) }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_covers_every_index_exactly_once() {
        let pool = WorkerPool::new(4);
        for count in [0usize, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicU64> = (0..count).map(|_| AtomicU64::new(0)).collect();
            pool.run(count, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "count {count}: every index exactly once"
            );
        }
    }

    #[test]
    fn sequential_jobs_reuse_the_same_workers() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        for _ in 0..100 {
            pool.run(16, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 1600);
    }

    #[test]
    fn concurrent_submitters_serialize_without_losing_work() {
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
    fn a_panicking_task_reports_but_does_not_kill_the_pool() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 3 {
                    panic!("poisoned request");
                }
            });
        }));
        assert!(result.is_err(), "the submitter observes the panic");
        // The pool still works.
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
}
