//! Steadying what the benchmark measures on a small shared machine: three
//! measures against three kinds of noise that have nothing to do with the
//! program, each found by measuring where the run-to-run spread came from.
//!
//! * [`keep_freed_memory`] — the first touch of a page is a fault the host
//!   has to serve, and glibc by default hands freed memory back and faults
//!   it in again;
//! * [`KeepAwake`] — an idle core halts, the host takes it away, and every
//!   wake-up waits for the host to give it back;
//! * [`Probe`] — the machine's speed itself drifts, for seconds or for
//!   minutes, and every timing drifts with it.

use crate::reference::PROBE_SLICE_S;
use crate::rng::{mix, Rng, GAMMA};
use crate::stats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Makes the allocator keep freed memory instead of handing it back to the
/// kernel. With glibc's defaults every large allocation of the program (a
/// cloned store, a snapshot buffer, a decoded lineage) is mapped, faulted in
/// page by page and unmapped again; in this virtual machine a page fault's
/// cost depends on the host, and it showed: five recoveries in a row took
/// 0.38, 0.40, 0.46, 0.53, 0.52 s, a sixth of a run's CPU time was system
/// time, and the same ingest batch took 150 ms in one run and 240 ms in the
/// next. With the memory kept, the five recoveries take 0.35 s each and a
/// batch repeats within 5 %. Called first thing in `main`.
pub fn keep_freed_memory() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: glibc's documented tuning call, made before any other thread
    // exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_TOP_PAD, 64 << 20);
    }
}

/// Linux's `SCHED_IDLE`: runs only when nothing else wants the core.
const SCHED_IDLE: i32 = 5;

/// Keeps the cores awake while socket phases are timed: one spinner per
/// core, until dropped.
///
/// The sandbox has no idle driver: a core with nothing to run halts, the
/// host takes it away, and the next wake-up — every hand-over between the
/// generator, a connection thread, the dispatcher and a worker is one, and a
/// warm round trip has five — waits until the host gives it back: 20–500 µs
/// depending on the neighbours, not on the program. A spinner in the lowest
/// scheduling class keeps the core with the guest; any thread of the
/// benchmark or the program pre-empts it at once, so it costs them nothing,
/// and what remains of a hand-over is the guest kernel's own work. (Measured
/// on `warm_zipf`: median round trip 0.66 → 0.48 ms, spread of the
/// closed-loop rate over eight runs 0.13 → 0.055.)
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spinners = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let priority = 0i32;
                    // SAFETY: plain system call on the calling thread
                    // (pid 0) with a valid `sched_param` (one int).
                    let demoted = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } == 0;
                    // A spinner that could not demote itself would compete
                    // with what is measured: then rather none.
                    while demoted && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

/// A fixed piece of work, timed: how fast the machine is right now.
///
/// The sandbox's speed is not constant. A deterministic single-threaded
/// computation — this one, or the fixture's 6 s of set-up — takes 10–30 %
/// longer during spells that last from seconds to many minutes, and every
/// timing of a run moves with it. The probe is run in the quiet moments
/// between the phases of a run, and each timing metric is scaled by how
/// slow the probe ran around it (see [`speed`]), so a metric reads
/// what the run would have measured at the reference machine's usual speed.
/// The probe lives in the benchmark, not in the program: no change to the
/// program can move it.
///
/// One slice walks a 4 MB table at random (memory latency, as the
/// estimator's hash maps do) and mixes integers and floats on the way
/// (arithmetic, as the histogram kernels do).
pub struct Probe {
    table: Vec<u64>,
    state: u64,
    sink: f64,
}

/// Steps of one slice: about 1 ms.
const SLICE_STEPS: usize = 1 << 17;
/// Words of the table: 4 MB.
const TABLE_WORDS: usize = 1 << 19;

impl Probe {
    pub fn new() -> Probe {
        let mut rng = Rng::new(0, 0);
        Probe {
            table: (0..TABLE_WORDS).map(|_| rng.next_u64()).collect(),
            state: rng.next_u64(),
            sink: 0.0,
        }
    }

    /// Runs one slice and returns the seconds it took.
    fn slice(&mut self) -> f64 {
        let began = std::time::Instant::now();
        let (mut x, mut acc) = (self.state, self.sink);
        for _ in 0..SLICE_STEPS {
            // Each step's slot follows from the step before: the walk is
            // bound by latency, as a walk through a hash map is.
            x = mix(x.wrapping_add(GAMMA));
            let slot = &mut self.table[x as usize & (TABLE_WORDS - 1)];
            *slot = slot.wrapping_add(x).rotate_left(7);
            acc = acc * 0.999 + (*slot >> 11) as f64 * 1e-16;
        }
        self.state = x;
        self.sink = std::hint::black_box(acc);
        began.elapsed().as_secs_f64()
    }

    /// One reading: the faster of two slices, after one that brings the
    /// table back into the caches the program has just used — a reading must
    /// not depend on what the program did before it.
    pub fn read(&mut self) -> f64 {
        self.slice();
        self.slice().min(self.slice())
    }
}

/// The machine's speed relative to the reference machine's usual one, from
/// the probe `readings` taken around a measurement: a time measured there is
/// multiplied by it, a rate divided, to read what it would have been at the
/// usual speed.
pub fn speed(readings: &[f64]) -> f64 {
    PROBE_SLICE_S / stats::median(readings)
}
