//! The §3 instantiation procedure: β-threshold counting, level by level so a
//! rank-k window is counted only under a rank-(k − 1) prefix that reached β;
//! per-edge cost rows; and the Auto + V-Optimal fit of each surviving key,
//! fanned out over the process-wide worker pool ([`crate::exec::global`]).

use crate::config::HybridConfig;
use crate::error::CoreError;
use crate::exec;
use crate::interval::{DayPartition, IntervalId};
use crate::variable::{InstantiatedVariable, VariableSource};
use pathcost_hist::{auto::auto_histogram_with_scratch, FitScratch, HistogramNd};
use pathcost_roadnet::{EdgeId, Path, RoadNetwork};
use pathcost_traj::costs::per_edge_costs;
use pathcost_traj::{MatchedTrajectory, RegimeId, TrajectoryStore};
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
/// 150–200 µs on average (the benchmark's 40×40 `city40` fixture: 7 893
/// fits in 0.6–0.8 s over 2 cores of a 2.1 GHz Xeon), so claiming a chunk
/// costs nothing next to fitting it; below two chunks' worth a fan-out stays
/// on the calling thread.
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

/// One key's fit job: its path, its interval and its qualified per-edge
/// cost rows in (trajectory, position) order.
type Job = (Path, IntervalId, Vec<Vec<f64>>);

/// Marks a start whose window at the current level did not reach β.
const PRUNED: u32 = u32::MAX;

/// Fits one table: the β-threshold procedure over the trajectories whose
/// fallback ladder passes through `table` (every trajectory, for the
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
    let jobs = table_jobs(net, store, cfg, partition, excluded, table);
    fan_out(&jobs, workers, |(path, interval, rows), scratch| {
        fit_variable(path.clone(), *interval, rows, cfg, scratch)
    })
}

/// The keys of one table that reach β, with their rows, in sorted
/// `(path edges, interval)` order. A key is a window `edges[s..s + k]` of a
/// contributing trajectory with the interval of its first edge's entry, and
/// its count is the number of `(trajectory, s)` starts it occurs at.
///
/// The windows are counted level by level, `k = 1..=max_rank`, and a
/// rank-k window only at the starts where its rank-(k − 1) prefix reached β
/// (Apriori pruning). This loses no key: the prefix occurs at every start
/// the window does, under the same interval, so a window counts at most its
/// prefix's count — below β when the prefix is. An excluded prefix excludes
/// every extension too (the extension contains the excluded path during the
/// same interval), so pruning it keeps the exclusions exact; the check still
/// runs at every level, for an excluded path at a window's end.
fn table_jobs(
    net: &RoadNetwork,
    store: &TrajectoryStore,
    cfg: &HybridConfig,
    partition: &DayPartition,
    excluded: &[(Path, IntervalId)],
    table: RegimeId,
) -> Vec<Job> {
    let is_excluded = |edges: &[EdgeId], interval: IntervalId| -> bool {
        excluded.iter().any(|(path, iv)| {
            *iv == interval
                && path.cardinality() <= edges.len()
                && edges.windows(path.cardinality()).any(|w| w == path.edges())
        })
    };
    // The contributing trajectories, with the interval of every position.
    let trips: Vec<(&MatchedTrajectory, Vec<IntervalId>)> = store
        .matched()
        .iter()
        .filter(|m| cfg.regimes.contributes_to(m.regime, table))
        .map(|m| {
            let times = m.entry_times.iter();
            let intervals = times.map(|t| partition.interval_of(t.time_of_day()));
            (m, intervals.collect())
        })
        .collect();
    // Per trajectory and start: the id of the window of the last level that
    // starts there, or `PRUNED`. Level 0 is the empty window, id 0 at every
    // start.
    let mut ids: Vec<Vec<u32>> = trips
        .iter()
        .map(|(m, _)| vec![0; m.path.cardinality()])
        .collect();

    let mut jobs = Vec::new();
    for k in 1..=cfg.max_rank {
        // Count `(prefix id, last edge, interval)` keys under the prefixes
        // that survived. A key's slot is its first-seen index; `ids` holds
        // the slot of each counted start until the survivors are known.
        let mut slots: HashMap<(u32, EdgeId, IntervalId), u32> = HashMap::new();
        let mut counts: Vec<usize> = Vec::new();
        for ((m, intervals), ids) in trips.iter().zip(&mut ids) {
            let edges = m.path.edges();
            for (start, id) in ids.iter_mut().enumerate() {
                let prefix = std::mem::replace(id, PRUNED);
                if prefix == PRUNED || start + k > edges.len() {
                    continue;
                }
                let interval = intervals[start];
                if !excluded.is_empty() && is_excluded(&edges[start..start + k], interval) {
                    continue;
                }
                let key = (prefix, edges[start + k - 1], interval);
                let slot = *slots.entry(key).or_insert_with(|| {
                    counts.push(0);
                    u32::try_from(counts.len() - 1)
                        .ok()
                        .filter(|&slot| slot != PRUNED)
                        .expect("fewer than u32::MAX keys per level")
                });
                counts[slot as usize] += 1;
                *id = slot;
            }
        }

        // The keys that reached β get dense ids in slot order, and each
        // start's slot becomes its key's id (or `PRUNED`). Walking the
        // starts in (trajectory, position) order lists every key's
        // occurrences in the order its rows are collected in.
        let mut id_of = vec![PRUNED; counts.len()];
        let mut occurrences: Vec<Vec<(usize, usize)>> = Vec::new();
        for (slot, &count) in counts.iter().enumerate() {
            if count >= cfg.beta {
                id_of[slot] = occurrences.len() as u32;
                occurrences.push(Vec::with_capacity(count));
            }
        }
        if occurrences.is_empty() {
            break;
        }
        for (t, ids) in ids.iter_mut().enumerate() {
            for (start, id) in ids.iter_mut().enumerate() {
                if *id != PRUNED {
                    *id = id_of[*id as usize];
                    if *id != PRUNED {
                        occurrences[*id as usize].push((t, start));
                    }
                }
            }
        }

        // Collect each surviving key's rows. A key short of β rows is not
        // fitted, but its count reached β, so it still prefixes the next
        // level.
        for starts in occurrences {
            let (m, intervals) = &trips[starts[0].0];
            let at = starts[0].1;
            let path = Path::from_edges_unchecked(m.path.edges()[at..at + k].to_vec());
            let rows: Vec<Vec<f64>> = starts
                .iter()
                .filter_map(|&(t, start)| {
                    per_edge_costs(trips[t].0, net, &path, start, cfg.cost_kind)
                })
                .collect();
            if rows.len() >= cfg.beta {
                jobs.push((path, intervals[at], rows));
            }
        }
    }
    jobs.sort_unstable_by(|a, b| (a.0.edges(), a.1).cmp(&(b.0.edges(), b.1)));
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_hist::{AutoConfig, Histogram1D};
    use pathcost_traj::{CostKind, DatasetPreset, RegimeSchema};
    use std::collections::HashSet;
    use std::sync::Barrier;

    /// The two-pass enumeration the level-wise count replaced: pass 1
    /// counts every window of rank ≤ `max_rank`, pass 2 collects the rows of
    /// the keys that reached β. Kept as the reference [`table_jobs`] must
    /// match.
    fn two_pass_jobs(
        net: &RoadNetwork,
        store: &TrajectoryStore,
        cfg: &HybridConfig,
        partition: &DayPartition,
        excluded: &[(Path, IntervalId)],
        table: RegimeId,
    ) -> Vec<Job> {
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
                            if let Some(costs) = per_edge_costs(m, net, path, start, cfg.cost_kind)
                            {
                                rows.push(costs);
                            }
                        }
                    }
                }
            }
        }

        let mut jobs: Vec<Job> = samples
            .into_iter()
            .filter(|(_, (_, rows))| rows.len() >= cfg.beta)
            .map(|((_, interval), (path, rows))| (path, interval, rows))
            .collect();
        jobs.sort_unstable_by(|a, b| (a.0.edges(), a.1).cmp(&(b.0.edges(), b.1)));
        jobs
    }

    /// Every bit of a job list: key edges, interval and each row's costs.
    fn job_bits(jobs: &[Job]) -> Vec<(Vec<u32>, u16, Vec<Vec<u64>>)> {
        jobs.iter()
            .map(|(path, interval, rows)| {
                let edges = path.edges().iter().map(|e| e.0).collect();
                let rows = rows
                    .iter()
                    .map(|r| r.iter().map(|c| c.to_bits()).collect())
                    .collect();
                (edges, interval.0, rows)
            })
            .collect()
    }

    #[test]
    fn level_wise_counting_matches_the_two_pass_enumeration() {
        let partition = DayPartition::new(30).unwrap();
        let grouped = RegimeSchema::flat()
            .with_group(RegimeId(1), RegimeId(3))
            .with_group(RegimeId(2), RegimeId(3));
        for seed in [21, 51] {
            let (net, untagged) = DatasetPreset::tiny(seed).materialise().unwrap();
            // Every third trajectory under regime 2, the rest under 1.
            let tagged = TrajectoryStore::new(
                untagged
                    .matched()
                    .iter()
                    .enumerate()
                    .map(|(i, m)| m.clone().with_regime(RegimeId(1 + u16::from(i % 3 == 0))))
                    .collect(),
            );
            // Three excluded keys off one trajectory: rank 3 at its start,
            // rank 2 overlapping it, and a unit path further on.
            let m = untagged
                .matched()
                .iter()
                .find(|m| m.path.cardinality() >= 6)
                .unwrap();
            let key = |at: usize, k: usize| {
                let path = Path::from_edges_unchecked(m.path.edges()[at..at + k].to_vec());
                (path, partition.interval_of(m.entry_times[at].time_of_day()))
            };
            let excluded = [key(0, 3), key(2, 2), key(5, 1)];
            // Each excluded key clears β = 2 unless excluded.
            let cfg = HybridConfig {
                beta: 2,
                ..HybridConfig::default()
            };
            let all = RegimeId::ALL_TRAFFIC;
            let jobs = |excluded| table_jobs(&net, &untagged, &cfg, &partition, excluded, all);
            let (kept, pruned) = (jobs(&[][..]), jobs(&excluded[..]));
            for (path, interval) in &excluded {
                let fitted = |jobs: &[Job]| jobs.iter().any(|j| (&j.0, j.1) == (path, *interval));
                assert!(fitted(&kept) && !fitted(&pruned), "{path:?} {interval:?}");
            }
            let setups = [
                (&untagged, RegimeSchema::flat(), vec![RegimeId::ALL_TRAFFIC]),
                (&tagged, grouped.clone(), (0..4).map(RegimeId).collect()),
            ];
            let grid = [1, 2, 5, 30].into_iter().flat_map(|beta| {
                [1, 2, 6, 40].into_iter().flat_map(move |max_rank| {
                    [CostKind::TravelTime, CostKind::Emissions].map(|kind| (beta, max_rank, kind))
                })
            });
            for (beta, max_rank, cost_kind) in grid {
                for (store, regimes, tables) in &setups {
                    let cfg = HybridConfig {
                        beta,
                        max_rank,
                        cost_kind,
                        regimes: regimes.clone(),
                        ..HybridConfig::default()
                    };
                    for excluded in [&[][..], &excluded[..]] {
                        for &table in tables {
                            let at = format!(
                                "tiny({seed}) table {table:?} β {beta} rank {max_rank} \
                                 {cost_kind:?} {} exclusions",
                                excluded.len()
                            );
                            let want =
                                two_pass_jobs(&net, store, &cfg, &partition, excluded, table);
                            let got = table_jobs(&net, store, &cfg, &partition, excluded, table);
                            assert_eq!(job_bits(&got), job_bits(&want), "{at}");
                            // The fits are a pure function of the rows;
                            // compare them where fitting every key stays
                            // cheap in a debug build.
                            if beta >= 5 && max_rank == 6 {
                                let fitted =
                                    fit_table(&net, store, &cfg, &partition, excluded, table, None);
                                let reference = fan_out(&want, Some(1), |(p, iv, rows), s| {
                                    fit_variable(p.clone(), *iv, rows, &cfg, s)
                                });
                                assert!(fitted.unwrap() == reference.unwrap(), "{at}: fits differ");
                            }
                        }
                    }
                }
            }
        }
    }

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
