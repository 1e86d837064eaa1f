//! One end-to-end run: set-up → warm-up → socket phases (closed loop and
//! open-loop ladder, in cycles) → ingest → recovery → accuracy, every
//! answer checked, every timing scaled by the machine's speed around it
//! (see `steady`).

use crate::accuracy;
use crate::fixture::{Fixture, Preset};
use crate::harness::{self, References, SetupTimes};
use crate::ingest;
use crate::loadgen::{self, PhaseOutcome, Sample, Verdict};
use crate::oracle;
use crate::reference::{ladder, reference};
use crate::report::{Metrics, RunResult};
use crate::stats;
use crate::steady::{self, KeepAwake, Probe};
use crate::workload::{schedule_ns, Plan, Pools, Workload};
use pathcost_service::{QueryEngine, ServiceStats};
use std::net::SocketAddr;
use std::time::Duration;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds of socket measurement, all cycles together.
    pub seconds: f64,
    pub preset: Preset,
}

/// The closed loop and the operating rate — the two phases the timing
/// metrics are read from — alternate in this many short cycles and pool
/// their samples: what one sub-second phase measures depends on which cores
/// the kernel happened to put the threads of a round trip on, and on the
/// sandbox's speed in that very second (it drifts by 10–20 %); many short
/// phases spread over the run average over both, one long phase sits inside
/// one draw.
pub const CYCLES: usize = 12;
/// The upper rungs of the ladder only have to show whether their median
/// holds, and the last one has to be long enough to build a visible backlog:
/// they run in this many longer passes, evenly spaced between the cycles.
const LADDER_PASSES: usize = 3;
/// Rungs of the ladder.
const RUNGS: usize = 4;
/// Shares of `--seconds`: closed loop, operating rate, upper rungs.
const SHARES: [f64; 3] = [0.35, 0.40, 0.25];
/// Share of operations that must be answered correctly for a rung to count
/// as sustained.
const RUNG_OK_SHARE: f64 = 0.999;
/// Every n-th answer of a workload without inline references is kept and
/// checked after the phases; every n-th distinct query of one with inline
/// references is confirmed by an independent evaluation before them.
const CHECK_EVERY: usize = 8;
/// Queries compared after the ingest against the recovered lineage (and on
/// `ingest_churn` against a from-scratch rebuild).
const ORACLE_QUERIES: usize = 500;
/// Batches a workload without churn publishes on the quiet server.
const QUIET_BATCHES: usize = 20;

/// One socket phase of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// Back-to-back on every connection, a fixed number of operations.
    Closed,
    /// Open loop at the ladder's rung `i`.
    Rung(usize),
}

/// Phase order, lengths and operation budgets of a run: fixed by `--seconds`
/// and the committed reference capacity, never by how fast the program is.
pub struct Shape {
    /// The phases in the order they run; `segment_ops[i]` is what phase `i`
    /// may consume.
    pub phases: Vec<Phase>,
    pub segment_ops: Vec<usize>,
    pub rung_rates: [f64; RUNGS],
    /// Length of one phase at the operating rate and of one at an upper rung.
    pub operating: Duration,
    pub upper: Duration,
}

impl Shape {
    pub fn new(workload: Workload, seconds: f64) -> Shape {
        let capacity = reference(workload).capacity_qps;
        let rung_rates = ladder(workload).map(|f| f * capacity);
        let closed_s = seconds * SHARES[0] / CYCLES as f64;
        let operating_s = seconds * SHARES[1] / CYCLES as f64;
        let upper_s = seconds * SHARES[2] / (LADDER_PASSES * (RUNGS - 1)) as f64;
        let mut phases = Vec::new();
        for cycle in 1..=CYCLES {
            phases.extend([Phase::Closed, Phase::Rung(0)]);
            if cycle % (CYCLES / LADDER_PASSES) == 0 {
                phases.extend((1..RUNGS).map(Phase::Rung));
            }
        }
        let segment_ops = phases
            .iter()
            .map(|phase| match *phase {
                // What the reference machine answers in the phase's share;
                // the phase then takes however long it takes.
                Phase::Closed => (capacity * closed_s).ceil() as usize,
                Phase::Rung(0) => (rung_rates[0] * operating_s).ceil() as usize,
                Phase::Rung(i) => (rung_rates[i] * upper_s).ceil() as usize,
            })
            .collect();
        Shape {
            phases,
            segment_ops,
            rung_rates,
            operating: Duration::from_secs_f64(operating_s),
            upper: Duration::from_secs_f64(upper_s),
        }
    }
}

/// Totals over every checked operation of a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn add(&mut self, phase: &str, attempted: usize, failed: usize) {
        eprintln!(
            "  {phase}: attempted {attempted} succeeded {} failed {failed}",
            attempted - failed
        );
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    pub fn problem(&mut self, what: String) {
        eprintln!("  ! {what}");
        self.problems.push(what);
    }
}

/// How answers are judged while a phase runs.
pub enum Judge<'a> {
    /// Every answer against its reference, inline.
    Exact(&'a References),
    /// Status and type inline; every [`CHECK_EVERY`]-th body kept for a
    /// check after the phases (a reference costs as much as the answer).
    Sampled,
}

/// One socket phase's checker: `offset` maps the phase's operation indices
/// back into the plan.
fn judge<'a>(
    how: &'a Judge<'a>,
    plan: &'a Plan,
    offset: usize,
) -> impl Fn(usize, u16, &[u8]) -> Verdict + Sync + 'a {
    move |index, status, body| {
        if status != 200 {
            return Verdict::Failed;
        }
        match how {
            Judge::Exact(references) => {
                if references.matches(&plan.ops[offset + index], body) {
                    Verdict::Correct
                } else {
                    Verdict::Failed
                }
            }
            Judge::Sampled if !body.starts_with(b"{\"type\":\"") => Verdict::Failed,
            Judge::Sampled if (offset + index).is_multiple_of(CHECK_EVERY) => Verdict::Keep,
            Judge::Sampled => Verdict::Correct,
        }
    }
}

/// What one ladder rung showed, its phases pooled.
#[derive(Debug, Clone)]
pub struct Rung {
    pub rate: f64,
    /// Latencies from intended send time, ms, ascending.
    pub latency_ms: Vec<f64>,
    /// Send lags, ms, ascending.
    pub sendlag_ms: Vec<f64>,
    pub failed: usize,
    pub unsent: usize,
    /// Whether the program kept up, phase by phase.
    pub kept_up: Vec<bool>,
}

/// Whether the program kept up with the rate of one open-loop phase: the
/// median operation is answered within `slo_ms` of when it was due, the
/// generator's own median lateness stays within it too (a generator that
/// sends late measures its backlog, not the server — such a phase counts as
/// failed, never as fast), at most a fifth of the schedule is still unsent
/// when the phase ends (a growing backlog shows in the lateness first; this
/// catches a server that stopped answering), and 99.9 % of the answers are
/// correct.
///
/// The limit is on the median, not on the tail: on the 2-core sandbox the
/// tail of an unsaturated rung moves by a factor of three between runs (see
/// `loadgen.latency_p99_ms`), while the median of a saturated rung is
/// 10–100 × that of an unsaturated one, so the verdict repeats.
fn kept_up(outcome: &PhaseOutcome, slo_ms: f64) -> bool {
    let n = outcome.samples.len();
    let median_ms = |of: fn(&Sample) -> f64| {
        stats::median(&outcome.samples.iter().map(of).collect::<Vec<_>>()) / 1e3
    };
    n > 0
        && median_ms(|s| s.latency_us) <= slo_ms
        && median_ms(|s| s.sendlag_us) <= slo_ms
        && outcome.unsent * 4 <= n
        && (outcome.failed() as f64) <= (1.0 - RUNG_OK_SHARE) * n as f64
}

impl Rung {
    pub fn new(rate: f64) -> Rung {
        Rung {
            rate,
            latency_ms: Vec::new(),
            sendlag_ms: Vec::new(),
            failed: 0,
            unsent: 0,
            kept_up: Vec::new(),
        }
    }

    pub fn absorb(&mut self, outcome: &PhaseOutcome, slo_ms: f64) {
        self.latency_ms
            .extend(outcome.samples.iter().map(|s| s.latency_us / 1e3));
        self.sendlag_ms
            .extend(outcome.samples.iter().map(|s| s.sendlag_us / 1e3));
        self.failed += outcome.failed();
        self.unsent += outcome.unsent;
        self.kept_up.push(kept_up(outcome, slo_ms));
    }

    pub fn sort(&mut self) {
        self.latency_ms.sort_by(f64::total_cmp);
        self.sendlag_ms.sort_by(f64::total_cmp);
    }

    pub fn p50_ms(&self) -> f64 {
        if self.latency_ms.is_empty() {
            f64::INFINITY
        } else {
            stats::percentile(&self.latency_ms, 50)
        }
    }

    /// The highest percentile ≤ 99 with ten samples beyond it, of the
    /// latencies and of the send lags: `(percentile, latency, send lag)`.
    pub fn tail_ms(&self) -> Option<(u32, f64, f64)> {
        let p = stats::supported_percentile(self.latency_ms.len(), 99)?;
        Some((
            p,
            stats::percentile(&self.latency_ms, p),
            stats::percentile(&self.sendlag_ms, p),
        ))
    }

    /// Whether the rate is sustained: the program kept up in more than half
    /// of the rung's phases. The sandbox's host now and then takes the
    /// machine away for a few hundred milliseconds; that ruins the one
    /// phase it hits and must not decide the rung.
    pub fn sustained(&self) -> bool {
        2 * self.kept_up.iter().filter(|&&held| held).count() > self.kept_up.len()
    }
}

/// What the socket phases of a run showed.
pub struct SocketPhases {
    /// Per closed-loop phase: operations answered and operations per second.
    pub closed: Vec<(usize, f64)>,
    pub rungs: Vec<Rung>,
    /// Bodies kept for checking after the phases, by plan operation index.
    pub kept: Vec<(usize, Vec<u8>)>,
}

impl SocketPhases {
    /// Operations per second over all closed-loop phases together: each
    /// phase contributes its operations and the time it needed for them, so
    /// a cycle whose operations are dearer — or that ran while the writer
    /// was busy — weighs as much as it lasted.
    pub fn capacity_qps(&self) -> f64 {
        // A phase in which nothing was answered has no rate (and has
        // already failed the run).
        let answered = || self.closed.iter().filter(|&&(ops, _)| ops > 0);
        let ops: f64 = answered().map(|&(ops, _)| ops as f64).sum();
        let seconds: f64 = answered().map(|&(ops, qps)| ops as f64 / qps).sum();
        ops / seconds.max(f64::MIN_POSITIVE)
    }

    /// The rung at the operating rate.
    pub fn operating(&self) -> &Rung {
        &self.rungs[0]
    }

    /// The highest rate sustained (0 when not even the operating rate is).
    pub fn sustained_rate(&self) -> f64 {
        self.rungs
            .iter()
            .filter(|rung| rung.sustained())
            .map(|rung| rung.rate)
            .fold(0.0, f64::max)
    }
}

/// The socket phases of `shape` against `addr`, with the cores kept awake.
/// `between` is called before each phase and after the last (the run reads
/// the machine's speed there).
pub fn socket_phases(
    addr: SocketAddr,
    workload: Workload,
    plan: &Plan,
    shape: &Shape,
    how: &Judge<'_>,
    tally: &mut Tally,
    between: &mut dyn FnMut(),
) -> SocketPhases {
    let connections = harness::connections();
    let slo_ms = reference(workload).slo_ms;
    let mut phases = SocketPhases {
        closed: Vec::new(),
        rungs: shape
            .rung_rates
            .iter()
            .map(|&rate| Rung::new(rate))
            .collect(),
        kept: Vec::new(),
    };
    let (mut attempted, mut failed) = (0, 0);
    let awake = KeepAwake::start();
    for (phase, segment) in shape.phases.iter().zip(&plan.segments) {
        between();
        let ops = &plan.ops[segment.clone()];
        let checker = judge(how, plan, segment.start);
        let mut outcome = match *phase {
            Phase::Closed => {
                let (outcome, qps) = loadgen::closed_loop(addr, connections, ops, &checker);
                phases
                    .closed
                    .push((outcome.attempted() - outcome.failed(), qps));
                outcome
            }
            Phase::Rung(i) => {
                let rate = shape.rung_rates[i];
                let length = if i == 0 { shape.operating } else { shape.upper };
                let schedule = schedule_ns(ops.len(), rate);
                let outcome =
                    loadgen::open_loop(addr, connections, ops, &schedule, length, &checker);
                phases.rungs[i].absorb(&outcome, slo_ms);
                outcome
            }
        };
        attempted += outcome.attempted();
        failed += outcome.failed();
        phases.kept.extend(
            outcome
                .kept
                .drain(..)
                .map(|(i, body)| (segment.start + i, body)),
        );
    }
    between();
    drop(awake);
    tally.add("socket phases", attempted, failed);
    eprintln!(
        "  closed loop: {:.1} operations/s over {connections} connections (per cycle {:.0?})",
        phases.capacity_qps(),
        phases
            .closed
            .iter()
            .map(|&(_, qps)| qps)
            .collect::<Vec<_>>()
    );
    for rung in &mut phases.rungs {
        rung.sort();
        let (p, tail, lag) = rung.tail_ms().unwrap_or((0, f64::NAN, f64::NAN));
        eprintln!(
            "  {:7.0}/s: n={} p50 {:.3} ms, p{p} {tail:.3} ms (send lag p{p} {lag:.3} ms), unsent {}, failed {} → {}",
            rung.rate,
            rung.latency_ms.len(),
            rung.p50_ms(),
            rung.unsent,
            rung.failed,
            if rung.sustained() {
                "sustained"
            } else {
                "not sustained"
            }
        );
    }
    phases
}

/// Checks the bodies a [`Judge::Sampled`] phase kept: against an independent
/// evaluation when answers are stable, for shape when they raced an ingest.
fn check_kept(
    kept: &[(usize, Vec<u8>)],
    independent: Option<&QueryEngine<'_>>,
    plan: &Plan,
    tally: &mut Tally,
) {
    let wrong = match independent {
        Some(engine) => {
            let items = kept
                .iter()
                .flat_map(|(op, _)| plan.ops[*op].items.iter().map(|&id| id as usize));
            let references = References::compute(engine, plan, items);
            kept.iter()
                .filter(|(op, body)| !references.matches(&plan.ops[*op], body))
                .count()
        }
        None => kept
            .iter()
            .filter(|(_, body)| !oracle::well_formed(body))
            .count(),
    };
    // These operations were already counted as attempted (and as plausible)
    // by their phase; a wrong payload turns them into failures.
    eprintln!("  kept answers: {} checked, {wrong} wrong", kept.len());
    tally.failed += wrong as u64;
}

/// Share of cache lookups between two stats snapshots that found an entry
/// nobody had to compute for them. The batch executor looks every
/// distribution up twice — its warm phase fills a missing entry (one miss,
/// one estimation), its answer phase then reads it (one hit) — so the reads
/// of entries estimated in between are taken out of both sides.
pub fn cache_hit_ratio(before: &ServiceStats, after: &ServiceStats) -> f64 {
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    let estimated = (after.estimations - before.estimations) as f64;
    ((hits - estimated) / (hits + misses - estimated).max(1.0)).clamp(0.0, 1.0)
}

/// A run is invalid — not slow — when its workload did not exercise what it
/// exists to exercise.
pub fn check_hit_ratio(workload: Workload, hit_ratio: f64, tally: &mut Tally) {
    eprintln!("  cache hit ratio over the socket phases: {hit_ratio:.4}");
    match workload {
        Workload::WarmZipf if hit_ratio < 0.99 => tally.problem(format!(
            "warm_zipf hit ratio {hit_ratio:.4} < 0.99: run invalid"
        )),
        Workload::ColdScan if hit_ratio > 0.05 => tally.problem(format!(
            "cold_scan hit ratio {hit_ratio:.4} > 0.05: run invalid"
        )),
        _ => {}
    }
}

/// `VmHWM` of this process in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The program, set up: the engine that serves and a second engine over the
/// same weight function whose cache stays independent, so what it answers
/// is a second evaluation, not a second read.
pub struct Stack<'f> {
    pub served: QueryEngine<'f>,
    pub independent: QueryEngine<'f>,
    pub times: SetupTimes,
}

/// Generates the requests of a run and sets the program up for them.
pub fn set_up<'f>(fixture: &'f Fixture, plan: &Plan, between: &mut dyn FnMut()) -> Stack<'f> {
    let (served, times) = harness::boot(fixture, &plan.warm_fill, between);
    eprintln!(
        "  set-up: generate {:.3}s simulate {:.3}s instantiate {:.3}s ({} variables) boot {:.3}s warm-up {:.3}s = {:.3}s",
        times.generate_s,
        times.simulate_s,
        times.instantiate_s,
        times.variables,
        times.boot_s,
        times.warmup_s,
        times.total_s()
    );
    let weights = served.graph().weights().clone();
    Stack {
        independent: fixture.engine(weights),
        served,
        times,
    }
}

/// References for a workload whose answers are stable and few enough to
/// judge inline: what the served engine answers in process — the same cache
/// entries, so every byte must match. A sample of the distributions behind
/// them is confirmed by the independent engine first (point queries only,
/// see `Item::is_point_query`).
fn inline_references(stack: &Stack<'_>, plan: &Plan, tally: &mut Tally) -> References {
    let references = References::compute(&stack.served, plan, 0..plan.items.len());
    let sample: Vec<usize> = plan
        .items
        .iter()
        .enumerate()
        .filter(|(_, item)| item.is_point_query())
        .map(|(id, _)| id)
        .step_by(CHECK_EVERY)
        .collect();
    let second = References::compute(&stack.independent, plan, sample.iter().copied());
    let disagreeing = sample
        .iter()
        .filter(|&&id| !references.agrees_with(&second, id))
        .count();
    tally.add(
        "independent evaluation of a sample",
        sample.len(),
        disagreeing,
    );
    references
}

/// What a measured time would have been at the reference machine's usual
/// speed, given the probe `readings` taken around it.
#[derive(Clone, Copy)]
enum Timing {
    /// Seconds (or milliseconds) of computing: all of it moves with the
    /// machine's speed.
    Computing(f64),
    /// Median seconds of one operation over the socket.
    Operation(f64),
    /// Operations per second of a closed loop over this many connections.
    ClosedLoop(f64, usize),
}

/// Scales one operation's seconds. A request spends the admission linger
/// waiting on a timer the program set, and a timer does not run faster on a
/// faster machine: only the rest of the operation moves with the speed.
/// (Scaling all of it over-corrects: `warm_zipf`'s 0.48 ms round trip, 0.2 ms
/// of it linger, spread by 0.061 as measured, 0.078 scaled whole and 0.038
/// scaled like this over ten runs that saw speeds of 0.75–1.0.)
fn operation_at_speed(seconds: f64, speed: f64) -> f64 {
    let linger = harness::server_config().admission.linger.as_secs_f64();
    linger + (seconds - linger) * speed
}

/// Sets a timing metric to what was measured, scaled to the reference
/// machine's usual speed by the probe `readings` taken around it.
fn set_timing(metrics: &mut Metrics, name: &str, measured: Timing, readings: &[f64]) {
    let speed = steady::speed(readings);
    let (measured, value) = match measured {
        Timing::Computing(time) => (time, time * speed),
        Timing::Operation(seconds) => (seconds * 1e3, operation_at_speed(seconds, speed) * 1e3),
        // Each connection has one operation in flight at a time.
        Timing::ClosedLoop(rate, connections) => {
            let connections = connections as f64;
            (
                rate,
                connections / operation_at_speed(connections / rate, speed),
            )
        }
    };
    eprintln!(
        "  {name}: {measured:.4} measured with the machine at {speed:.3} of its reference speed → {value:.4}"
    );
    metrics.set(name, value);
}

/// Runs `args.workload` end to end and reports every end-to-end metric.
pub fn run(args: RunArgs) -> RunResult {
    let RunArgs {
        workload,
        seed,
        seconds,
        preset,
    } = args;
    eprintln!(
        "{} on {} — seed {seed}, {seconds} s of socket phases in {CYCLES} cycles, {} connections",
        workload.name(),
        preset.name,
        harness::connections()
    );
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let wall = std::time::Instant::now();
    let lap = |what: &str| eprintln!("  [{:7.3}s] {what}", wall.elapsed().as_secs_f64());

    // Machine-speed readings, by the part of the run they are taken in.
    let mut probe = Probe::new();
    let (mut at_setup, mut at_sockets, mut at_ingest, mut at_recovery) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    // The request stream is generated between the two halves of the set-up
    // (the warm-up needs it), outside its timing.
    at_setup.push(probe.read());
    let fixture = Fixture::build(preset);
    at_setup.push(probe.read());
    let pools = Pools::build(&fixture);
    let shape = Shape::new(workload, seconds);
    let plan = Plan::generate(workload, &fixture, &pools, seed, &shape.segment_ops);
    let stack = set_up(&fixture, &plan, &mut || at_setup.push(probe.read()));
    set_timing(
        &mut metrics,
        "setup_s",
        Timing::Computing(stack.times.total_s()),
        &at_setup,
    );
    lap("set up");

    // Where each reference costs as much as the answer (cold keys) or moves
    // with the epoch (churn), a sample is kept and judged after the phases.
    let churn = workload == Workload::IngestChurn;
    let references = matches!(workload, Workload::WarmZipf | Workload::RouteBatch)
        .then(|| inline_references(&stack, &plan, &mut tally));
    let how = references.as_ref().map_or(Judge::Sampled, Judge::Exact);
    lap("references ready");

    let state_dir = ingest::state_dir(workload.name());
    let served = &stack.served;
    let ingested = harness::serve(served, harness::server_config(), |addr| {
        let before = served.stats();
        let (phases, ingested) = if churn {
            let (phases, ingested) =
                ingest::alongside(&fixture, served, &state_dir, seconds, || {
                    socket_phases(addr, workload, &plan, &shape, &how, &mut tally, &mut || {
                        at_sockets.push(probe.read())
                    })
                });
            (phases, Some(ingested))
        } else {
            let phases =
                socket_phases(addr, workload, &plan, &shape, &how, &mut tally, &mut || {
                    at_sockets.push(probe.read())
                });
            (phases, None)
        };
        check_hit_ratio(
            workload,
            cache_hit_ratio(&before, &served.stats()),
            &mut tally,
        );
        lap("socket phases done");

        set_timing(
            &mut metrics,
            "capacity_qps",
            Timing::ClosedLoop(phases.capacity_qps(), harness::connections()),
            &at_sockets,
        );
        set_timing(
            &mut metrics,
            "latency_p50_ms",
            Timing::Operation(phases.operating().p50_ms() / 1e3),
            &at_sockets,
        );
        metrics.set("sustained_rate_qps", phases.sustained_rate());
        match workload {
            Workload::ColdScan => {
                check_kept(&phases.kept, Some(&stack.independent), &plan, &mut tally)
            }
            Workload::IngestChurn => check_kept(&phases.kept, None, &plan, &mut tally),
            Workload::WarmZipf | Workload::RouteBatch => {}
        }

        // Without a churn the same batches are published on the now quiet
        // server, so every workload reports the write path.
        let ingested = ingested.unwrap_or_else(|| {
            ingest::publish(
                &fixture,
                served,
                &state_dir,
                None,
                QUIET_BATCHES,
                &mut || at_ingest.push(probe.read()),
            )
        });
        lap("ingest done");
        let queries = if churn {
            ORACLE_QUERIES
        } else {
            ORACLE_QUERIES / 5
        };
        let recovered = ingest::verify_lineage(
            addr,
            &fixture,
            served,
            &plan,
            &ingested,
            &state_dir,
            churn,
            queries,
            &mut tally,
            &mut || at_recovery.push(probe.read()),
        );
        set_timing(
            &mut metrics,
            "recover_s",
            Timing::Computing(recovered.recover_s),
            &at_recovery,
        );
        ingested
    });
    let _ = std::fs::remove_dir_all(&state_dir);
    lap("recovery and lineage oracle done");

    // The churn's writer ran while the socket phases' readings were taken.
    set_timing(
        &mut metrics,
        "ingest_publish_mean_ms",
        Timing::Computing(stats::mean(&ingested.publish_ms)),
        if churn { &at_sockets } else { &at_ingest },
    );
    metrics.set(
        "ok_share",
        1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    match accuracy::kl_to_truth(&fixture, &stack.independent) {
        Ok((mean, paths)) => {
            eprintln!("  accuracy: mean KL(ground truth ‖ OD) {mean:.6} over {paths} paths");
            metrics.set("kl_to_truth_mean", mean);
        }
        Err(problem) => tally.problem(problem),
    }
    metrics.set("rss_peak_mb", rss_peak_mb());
    lap("accuracy done");

    RunResult {
        workload: workload.name().to_string(),
        seed,
        traced: false,
        correct: tally.failed == 0 && tally.problems.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        problems: tally.problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_timed_phases_are_many_and_the_upper_rungs_few() {
        let shape = Shape::new(Workload::WarmZipf, 12.0);
        let count = |phase: Phase| shape.phases.iter().filter(|&&p| p == phase).count();
        assert_eq!(count(Phase::Closed), CYCLES);
        assert_eq!(count(Phase::Rung(0)), CYCLES);
        for upper in 1..RUNGS {
            assert_eq!(count(Phase::Rung(upper)), LADDER_PASSES);
        }
        assert_eq!(shape.phases.len(), shape.segment_ops.len());
        // Every cycle opens with its closed loop; a pass closes the run.
        assert_eq!(shape.phases[..2], [Phase::Closed, Phase::Rung(0)]);
        assert_eq!(shape.phases.last(), Some(&Phase::Rung(RUNGS - 1)));
        // The open-loop phases take their shares of `--seconds`.
        let open_s = shape.operating.as_secs_f64() * CYCLES as f64
            + shape.upper.as_secs_f64() * (LADDER_PASSES * (RUNGS - 1)) as f64;
        assert!((open_s - 12.0 * (SHARES[1] + SHARES[2])).abs() < 1e-6);
        // A phase is offered what its rate yields in its length: 0.3 × the
        // reference capacity for 0.4 s (up to the rounding of the product).
        let offered = 0.3 * reference(Workload::WarmZipf).capacity_qps * 0.4;
        assert!((shape.segment_ops[1] as f64 - offered).abs() <= 1.0);
    }

    /// An open-loop phase of 100 operations, all answered after `latency_ms`.
    fn phase(latency_ms: f64, unsent: usize) -> PhaseOutcome {
        PhaseOutcome {
            samples: (0..100)
                .map(|op| Sample {
                    op,
                    latency_us: latency_ms * 1e3,
                    sendlag_us: 0.0,
                    ok: true,
                })
                .collect(),
            kept: Vec::new(),
            unsent,
        }
    }

    #[test]
    fn one_ruined_phase_does_not_decide_a_rung() {
        let slo_ms = 20.0;
        let mut rung = Rung::new(1_000.0);
        rung.absorb(&phase(1.0, 0), slo_ms);
        rung.absorb(&phase(300.0, 80), slo_ms);
        rung.absorb(&phase(1.2, 0), slo_ms);
        assert_eq!(rung.kept_up, [true, false, true]);
        assert!(rung.sustained());

        let mut overloaded = Rung::new(8_000.0);
        overloaded.absorb(&phase(90.0, 0), slo_ms);
        overloaded.absorb(&phase(1.0, 0), slo_ms);
        overloaded.absorb(&phase(1.0, 40), slo_ms);
        assert_eq!(overloaded.kept_up, [false, true, false]);
        assert!(!overloaded.sustained());
        assert!(!Rung::new(1.0).sustained(), "no phase, no verdict");
    }

    #[test]
    fn timings_are_scaled_to_the_reference_speed() {
        use crate::reference::PROBE_SLICE_S;
        let mut metrics = Metrics::default();
        let linger_s = harness::server_config().admission.linger.as_secs_f64();
        // The probe ran a quarter slower than its reference: the machine is
        // at 0.8 of its usual speed.
        let slow = [PROBE_SLICE_S * 1.25; 5];
        set_timing(&mut metrics, "recover_s", Timing::Computing(0.5), &slow);
        set_timing(
            &mut metrics,
            "setup_s",
            Timing::Computing(5.0),
            &[PROBE_SLICE_S; 3],
        );
        // An operation of linger + 10 ms: the 10 ms shrink, the linger stays.
        let operation = Timing::Operation(linger_s + 0.010);
        set_timing(&mut metrics, "latency_p50_ms", operation, &slow);
        // Two connections, each answered every linger + 10 ms.
        let closed = Timing::ClosedLoop(2.0 / (linger_s + 0.010), 2);
        set_timing(&mut metrics, "capacity_qps", closed, &slow);
        let value = |name: &str| metrics.get(name).expect("metric set");
        assert!((value("recover_s") - 0.4).abs() < 1e-12);
        assert!((value("setup_s") - 5.0).abs() < 1e-12);
        assert!((value("latency_p50_ms") - (linger_s + 0.008) * 1e3).abs() < 1e-9);
        assert!((value("capacity_qps") - 2.0 / (linger_s + 0.008)).abs() < 1e-6);
    }
}
