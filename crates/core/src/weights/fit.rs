//! The §3 instantiation procedure: β-threshold counting, per-edge cost rows
//! and the Auto + V-Optimal fit of each surviving key, fanned out over the
//! process-wide worker pool ([`crate::exec::global`]).

use crate::config::HybridConfig;
use crate::error::CoreError;
use crate::exec;
use crate::interval::{DayPartition, IntervalId};
use crate::variable::{InstantiatedVariable, VariableSource};
use pathcost_hist::{auto::auto_histogram_with_scratch, FitScratch, HistogramNd};
use pathcost_roadnet::{EdgeId, Path, RoadNetwork};
use pathcost_traj::costs::per_edge_costs;
use pathcost_traj::{RegimeId, TrajectoryStore};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Mutex;

/// Fits the §3.1/§3.2 variable of one key from its qualified per-edge cost
/// rows (shared by full instantiation and selective re-derivation so both
/// produce bit-identical distributions).
pub(super) fn fit_variable(
    path: Path,
    interval: IntervalId,
    rows: &[Vec<f64>],
    cfg: &HybridConfig,
    scratch: &mut FitScratch,
) -> Result<InstantiatedVariable, CoreError> {
    let histogram = if path.is_unit() {
        let totals: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        HistogramNd::from_histogram1d(&auto_histogram_with_scratch(&totals, &cfg.auto, scratch)?)
    } else {
        HistogramNd::from_samples_with_scratch(rows, &cfg.auto, scratch)?
    };
    let source = VariableSource::Trajectories { count: rows.len() };
    Ok(InstantiatedVariable::new(path, interval, histogram, source))
}

/// Keys per chunk of a machine-sized fan-out. Fit costs vary severalfold
/// along the sorted key list (the second half of a dirty set can take twice
/// as long as the first), so the list is cut into many small chunks that
/// idle threads keep claiming, and the threads finish together. A fit takes
/// tens of microseconds, so claiming a chunk costs nothing next to fitting
/// it; below two chunks' worth a fan-out stays on the calling thread.
const KEYS_PER_CHUNK: usize = 32;

thread_local! {
    /// This thread's fit scratch. Pool workers and callers are long-lived,
    /// so the buffers survive from one fan-out to the next.
    static SCRATCH: Cell<FitScratch> = Cell::default();
}

/// Maps the per-key job `f` over `items` and returns the results in item
/// order (or the error of the first failing item), whatever the partition.
/// The list is cut into contiguous chunks — `workers` of them when given,
/// else chunks of [`KEYS_PER_CHUNK`] keys — that the calling thread and the
/// workers of [`exec::global`] claim, each running on its thread's
/// [`FitScratch`].
pub(super) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    workers: Option<usize>,
    f: impl Fn(&T, &mut FitScratch) -> Result<R, CoreError> + Sync,
) -> Result<Vec<R>, CoreError> {
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let chunk_len = match workers {
        Some(parts) => items.len().div_ceil(parts.clamp(1, items.len())),
        None if items.len() < 2 * KEYS_PER_CHUNK => items.len(),
        None => KEYS_PER_CHUNK,
    };
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    // One slot per chunk: whichever thread runs a chunk writes only its slot.
    let slots: Vec<Mutex<Option<_>>> = chunks.iter().map(|_| Mutex::new(None)).collect();
    exec::global().run(chunks.len(), |c| {
        // Taken out, not borrowed: a fan-out nested inside `f` gets a fresh
        // scratch instead of a double borrow.
        let mut scratch = SCRATCH.take();
        let part: Result<Vec<R>, CoreError> =
            chunks[c].iter().map(|item| f(item, &mut scratch)).collect();
        SCRATCH.set(scratch);
        *slots[c].lock().expect("no panic holds a chunk slot") = Some(part);
    });
    let mut results = Vec::with_capacity(items.len());
    for slot in slots {
        let part = slot.into_inner().expect("no panic holds a chunk slot");
        results.extend(part.expect("every chunk ran")?);
    }
    Ok(results)
}

/// Fits one table: the two-pass β-threshold procedure over the trajectories
/// whose fallback ladder passes through `table` (every trajectory, for the
/// ladders' last rung) — so the rows a key collects in a regime's own table
/// are exactly the contributing subsequence, in the same (trajectory,
/// position) order, of the rows the all-traffic table collects. Candidate
/// paths containing one of the `excluded` paths during its interval are
/// skipped. Returns the fitted variables in sorted `(path edges, interval)`
/// key order.
pub(super) fn fit_table(
    net: &RoadNetwork,
    store: &TrajectoryStore,
    cfg: &HybridConfig,
    partition: &DayPartition,
    excluded: &[(Path, IntervalId)],
    table: RegimeId,
    workers: Option<usize>,
) -> Result<Vec<InstantiatedVariable>, CoreError> {
    let is_excluded = |edges: &[EdgeId], interval: IntervalId| -> bool {
        excluded.iter().any(|(path, iv)| {
            *iv == interval
                && path.cardinality() <= edges.len()
                && edges.windows(path.cardinality()).any(|w| w == path.edges())
        })
    };
    let contributing = || {
        store
            .matched()
            .iter()
            .filter(|m| cfg.regimes.contributes_to(m.regime, table))
    };

    // Pass 1: count qualified occurrences of every (window, interval)
    // key; the keys borrow their windows from the store's trajectories.
    type WindowKey<'a> = (&'a [EdgeId], IntervalId);
    let mut counts: HashMap<WindowKey, usize> = HashMap::new();
    for m in contributing() {
        let edges = m.path.edges();
        for k in 1..=cfg.max_rank.min(edges.len()) {
            for start in 0..=edges.len() - k {
                let interval = partition.interval_of(m.entry_times[start].time_of_day());
                let window = &edges[start..start + k];
                if !excluded.is_empty() && is_excluded(window, interval) {
                    continue;
                }
                *counts.entry((window, interval)).or_insert(0) += 1;
            }
        }
    }

    // Pass 2: collect per-edge cost rows only for keys that reached β.
    let mut samples: HashMap<WindowKey, (Path, Vec<Vec<f64>>)> = counts
        .into_iter()
        .filter(|&(_, c)| c >= cfg.beta)
        .map(|(key, c)| {
            let path = Path::from_edges_unchecked(key.0.to_vec());
            (key, (path, Vec::with_capacity(c)))
        })
        .collect();
    if !samples.is_empty() {
        for m in contributing() {
            let edges = m.path.edges();
            for k in 1..=cfg.max_rank.min(edges.len()) {
                for start in 0..=edges.len() - k {
                    let interval = partition.interval_of(m.entry_times[start].time_of_day());
                    if let Some((path, rows)) =
                        samples.get_mut(&(&edges[start..start + k], interval))
                    {
                        if let Some(costs) = per_edge_costs(m, net, path, start, cfg.cost_kind) {
                            rows.push(costs);
                        }
                    }
                }
            }
        }
    }

    // Fit the surviving keys, in sorted key order.
    let mut jobs: Vec<(Path, IntervalId, Vec<Vec<f64>>)> = samples
        .into_iter()
        .filter(|(_, (_, rows))| rows.len() >= cfg.beta)
        .map(|((_, interval), (path, rows))| (path, interval, rows))
        .collect();
    jobs.sort_unstable_by(|a, b| (a.0.edges(), a.1).cmp(&(b.0.edges(), b.1)));
    fan_out(&jobs, workers, |(path, interval, rows), scratch| {
        fit_variable(path.clone(), *interval, rows, cfg, scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_hist::{AutoConfig, Histogram1D};
    use std::collections::HashSet;
    use std::sync::Barrier;

    #[test]
    fn fan_out_keeps_item_order_and_reports_the_first_error() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [None, Some(1), Some(3), Some(100), Some(1000)] {
            let doubled = fan_out(&items, workers, |&i, _| Ok(2 * i)).unwrap();
            assert_eq!(doubled, (0..100).map(|i| 2 * i).collect::<Vec<_>>());
            let failed = fan_out(&items, workers, |&i, _| match i {
                40 => Err(CoreError::NoDistribution),
                80 => Err(CoreError::InvalidConfig("later error")),
                _ => Ok(i),
            });
            assert_eq!(failed, Err(CoreError::NoDistribution));
        }
        let none: Vec<usize> = fan_out(&[], None, |&i: &usize, _| Ok(i)).unwrap();
        assert!(none.is_empty());
    }

    /// A real fit per item, so concurrent fan-outs share workers *and*
    /// reuse each thread's scratch between unrelated callers.
    fn fit_seed(seed: &u64, scratch: &mut FitScratch) -> Result<Histogram1D, CoreError> {
        let samples: Vec<f64> = (0..60u64)
            .map(|k| ((seed * 31 + k * k * 17) % 97) as f64 * 1.5 + *seed as f64)
            .collect();
        Ok(auto_histogram_with_scratch(
            &samples,
            &AutoConfig::default(),
            scratch,
        )?)
    }

    #[test]
    fn concurrent_fan_outs_each_get_the_serial_result() {
        let seeds: Vec<u64> = (0..160).collect();
        let serial = fan_out(&seeds, Some(1), fit_seed).unwrap();
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            let callers: Vec<_> = [Some(7), None]
                .into_iter()
                .map(|workers| {
                    let (seeds, start) = (&seeds, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..5)
                            .map(|_| fan_out(seeds, workers, fit_seed).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for caller in callers {
                for fitted in caller.join().unwrap() {
                    assert!(fitted == serial, "a concurrent fan-out changed a fit");
                }
            }
        });
    }

    #[test]
    fn a_fan_out_inside_a_pool_job_runs_inline() {
        let items: Vec<usize> = (0..100).collect();
        let answers = Mutex::new(Vec::new());
        // The outer job holds the global pool; the nested fan-outs must not
        // wait for it.
        exec::global().run(4, |_| {
            let doubled = fan_out(&items, Some(4), |&i, _| Ok(2 * i)).unwrap();
            answers.lock().unwrap().push(doubled);
        });
        let answers = answers.into_inner().unwrap();
        assert_eq!(answers.len(), 4);
        let want: Vec<usize> = items.iter().map(|i| 2 * i).collect();
        assert!(answers.iter().all(|a| *a == want));
    }

    #[test]
    fn a_panicking_fit_job_reraises_on_the_caller_and_the_next_call_succeeds() {
        let items: Vec<usize> = (0..100).collect();
        let panicked = std::panic::catch_unwind(|| {
            fan_out(&items, Some(4), |&i, _| {
                assert!(i != 77, "fit job {i} panicked");
                Ok(i)
            })
        });
        assert!(panicked.is_err(), "the panic reaches the caller");
        assert_eq!(fan_out(&items, Some(4), |&i, _| Ok(i)).unwrap(), items);
    }

    #[test]
    fn repeated_fan_outs_run_on_the_same_worker_threads() {
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..64).collect();
        let helpers = Mutex::new(HashSet::new());
        let width = exec::global().width();
        // Enough calls to see a worker join in (another test may hold the
        // pool for a while, and then a call runs inline); a per-call spawn
        // would show one new thread id per chunk per call.
        for round in 0.. {
            fan_out(&items, Some(8), |&i, _| {
                std::hint::black_box((0..2_000u64).fold(i, |a, b| a ^ b.wrapping_mul(a | 1)));
                let me = std::thread::current().id();
                if me != caller {
                    helpers.lock().unwrap().insert(me);
                }
                Ok(())
            })
            .unwrap();
            let seen = helpers.lock().unwrap().len();
            assert!(seen <= width, "{seen} helper threads, pool width {width}");
            if round >= 50 && (seen > 0 || width == 0) {
                break;
            }
            assert!(round < 100_000, "no pool worker ever joined a fan-out");
        }
    }
}
