//! The §3 instantiation procedure: β-threshold counting, level by level so a
//! rank-k window is counted only under a rank-(k − 1) prefix that reached β;
//! per-edge cost rows; and the Auto + V-Optimal fit of each surviving key.
//!
//! Rows are collected two ways. Instantiation ([`fit_table`]) walks every
//! contributing trajectory. A live re-derivation ([`dirty_jobs`]) walks, for
//! each group of dirty keys sharing a first edge and a table, that edge's
//! postings once, and passes over every posting whose entry minute is in
//! none of the group's intervals without opening its trajectory. Both keep
//! a key's rows in one flat buffer, in (trajectory, position) order.
//!
//! There is one fit pipeline, [`fit_jobs`], for instantiation and for every
//! live re-derivation alike. It fits each *distinct* column once — overlapping
//! keys share most of theirs: on the benchmark's `city40` fixture 11 163 of
//! the 24 740 axis columns of an instantiation are distinct, and about half
//! of a 10-row publish's are — and assembles every variable from the fits of
//! its columns, reading each column and row in place in the flat buffer.
//! Collection, fits and assembly fan out over the process-wide worker pool
//! ([`crate::exec::global`]).

use crate::config::HybridConfig;
use crate::error::CoreError;
use crate::exec;
use crate::interval::{DayPartition, IntervalId};
use crate::variable::{InstantiatedVariable, VariableSource};
use crate::weights::RegimeVariableKey;
use pathcost_hist::{auto::auto_histogram_with_scratch, FitScratch, HistogramNd};
use pathcost_roadnet::{EdgeId, Path, RoadNetwork};
use pathcost_traj::costs::per_edge_costs_into;
use pathcost_traj::{MatchedTrajectory, RegimeId, TrajectoryStore};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;

/// One key's fit job: its path, its interval and its qualified per-edge
/// cost rows in (trajectory, position) order, in one flat buffer — row `r`
/// is `rows[r * k..(r + 1) * k]` for the path's cardinality `k`, one cost
/// per edge.
type Job = (Path, IntervalId, Vec<f64>);

/// The rows of a job, each a slice of its flat buffer.
fn rows_of((path, _, rows): &Job) -> std::slice::ChunksExact<'_, f64> {
    rows.chunks_exact(path.cardinality())
}

/// The number of rows of a job.
fn row_count((path, _, rows): &Job) -> usize {
    rows.len() / path.cardinality()
}

/// Column `d` of a job's rows, read in place in row order.
fn column_of((path, _, rows): &Job, d: usize) -> impl Iterator<Item = f64> + '_ {
    rows.iter().skip(d).step_by(path.cardinality()).copied()
}

/// Fits the §3.1/§3.2 variable of every job and returns them in job order
/// (or the error of the first failing job). The one fit pipeline: full
/// instantiation ([`fit_table`]) and selective re-derivation
/// (`PathWeightFunction::rederive_regimes`) both end here, so both produce
/// bit-identical distributions.
///
/// A variable's histogram is a pure function of its rows and `cfg.auto`:
/// each axis is the Auto + V-Optimal fit of one column (the values of one
/// dimension, in row order — cross-validation deals samples into folds by
/// position, so the order is part of the input), a unit variable is its
/// column's 1-D fit, and any other variable counts its rows into the cross
/// product of its axes. Overlapping keys often share columns — a window
/// whose occurrences are exactly its prefix's has the prefix's columns for
/// its first edges — so the fit runs in three steps:
///
/// 1. every `(job, dim)` column is interned: an FNV-style hash over the
///    value bits in row order, plus the length, and on a hash hit an exact
///    comparison in place. Distinct columns are numbered in first-appearance
///    `(job, dim)` order;
/// 2. one Auto fit per distinct column, fanned out over the worker pool;
/// 3. each variable is assembled from the fits of its columns.
///
/// By purity every variable is bit-identical to fitting it on its own. So
/// is the error: fitting each variable on its own fails first at the first
/// failing `(job, dim)` pair, whose column first appears there (an earlier
/// appearance would be an identical column failing earlier), and the
/// fan-out reports the first failing distinct column in that order.
pub(super) fn fit_jobs(
    jobs: Vec<Job>,
    cfg: &HybridConfig,
    workers: Option<usize>,
) -> Result<Vec<InstantiatedVariable>, CoreError> {
    // Step 1: the distinct columns by their first `(job, dim)`, and each
    // job's column ids.
    let mut distinct: Vec<(usize, usize)> = Vec::new();
    let mut ids: Vec<Vec<u32>> = Vec::with_capacity(jobs.len());
    let mut by_hash: HashMap<(u64, usize), Vec<u32>> = HashMap::new();
    for (j, job) in jobs.iter().enumerate() {
        let k = job.0.cardinality();
        let mut own = Vec::with_capacity(k);
        for d in 0..k {
            let same = by_hash
                .entry((column_hash(column_of(job, d)), row_count(job)))
                .or_default();
            let seen = same.iter().copied().find(|&id| {
                let (first, dim) = distinct[id as usize];
                column_of(job, d)
                    .zip(column_of(&jobs[first], dim))
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            let id = seen.unwrap_or_else(|| {
                let id = u32::try_from(distinct.len()).expect("fewer than 2^32 columns");
                distinct.push((j, d));
                same.push(id);
                id
            });
            own.push(id);
        }
        ids.push(own);
    }

    // Step 2: one fit per distinct column.
    let fits = fan_out(&distinct, workers, |&(j, d), scratch| {
        let column: Vec<f64> = column_of(&jobs[j], d).collect();
        Ok(auto_histogram_with_scratch(&column, &cfg.auto, scratch)?)
    })?;
    #[cfg(test)]
    tests::FITS_RUN.with(|n| n.set(n.get() + fits.len()));

    // Step 3: each variable from its columns' fits.
    let assembly: Vec<(&Job, &Vec<u32>)> = jobs.iter().zip(&ids).collect();
    fan_out(&assembly, workers, |&(job, ids), _| {
        let (path, interval, _) = job;
        let histogram = if path.is_unit() {
            HistogramNd::from_histogram1d(&fits[ids[0] as usize])
        } else {
            let rows: Vec<&[f64]> = rows_of(job).collect();
            let axes = ids.iter().map(|&id| fits[id as usize].buckets().to_vec());
            HistogramNd::from_samples_with_axes(&rows, axes.collect())?
        };
        let source = VariableSource::Trajectories {
            count: row_count(job),
        };
        Ok(InstantiatedVariable::new(
            path.clone(),
            *interval,
            histogram,
            source,
        ))
    })
}

/// An FNV-1a-style hash of a column: one xor-multiply round per value's 64
/// bits, in row order. Equal hashes are compared exactly.
fn column_hash(column: impl Iterator<Item = f64>) -> u64 {
    column.fold(0xcbf2_9ce4_8422_2325, |h, value| {
        (h ^ value.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Items per chunk of a machine-sized fan-out. Fit costs vary severalfold
/// along the sorted key list (the second half of a dirty set can take twice
/// as long as the first), so the list is cut into many small chunks that
/// idle threads keep claiming, and the threads finish together. On the
/// benchmark's 40×40 `city40` fixture, over 2 cores of a 2.1 GHz Xeon, an
/// axis fit takes 30–40 µs on average (11 163 distinct columns in 0.17–0.21
/// s) and assembling a variable from its axes about 8 µs (7 893 in about
/// 30 ms), so claiming a chunk costs nothing next to running it; below two
/// chunks' worth a fan-out stays on the calling thread.
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
    fit_jobs(jobs, cfg, workers)
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
            let mut rows = Vec::with_capacity(starts.len() * k);
            for &(t, start) in &starts {
                per_edge_costs_into(trips[t].0, net, &path, start, cfg.cost_kind, &mut rows);
            }
            if rows.len() / k >= cfg.beta {
                jobs.push((path, intervals[at], rows));
            }
        }
    }
    jobs.sort_unstable_by(|a, b| (a.0.edges(), a.1).cmp(&(b.0.edges(), b.1)));
    jobs
}

/// The rows of every dirty key in its table of the `current` store, in
/// `dirty`'s order: `Some(job)` for a key with at least β qualified
/// occurrences yielding at least β rows, `None` otherwise. A key's rows are
/// the rows of its qualified occurrences in its table's contributing
/// subsequence, in (trajectory, position) order — the order [`table_jobs`]
/// collects them in, so the fit is the rebuild's.
///
/// The keys are collected in groups that share a first edge and a table,
/// one walk over the edge's postings per group, the groups fanned out over
/// the worker pool. A posting carries the minute of day of its entry, so
/// the walk passes over every posting whose minute cannot fall in any of the
/// group's intervals without opening its trajectory; see [`minute_mask`].
/// A posting that passes is tested exactly — the interval of its entry
/// time, the regime of its trajectory, the edges that follow — and appended
/// to every key of the group it is an occurrence of. Postings are in
/// (trajectory, position) order, so each key's occurrences are too. Nothing
/// here assumes `dirty` holds the prefixes of its keys.
pub(super) fn dirty_jobs(
    net: &RoadNetwork,
    current: &TrajectoryStore,
    cfg: &HybridConfig,
    partition: &DayPartition,
    dirty: &BTreeSet<RegimeVariableKey>,
    workers: Option<usize>,
) -> Result<Vec<Option<Job>>, CoreError> {
    type Group<'a> = Vec<(usize, &'a RegimeVariableKey)>;
    let mut groups: BTreeMap<(EdgeId, RegimeId), Group> = BTreeMap::new();
    for (i, key) in dirty.iter().enumerate() {
        groups.entry((key.0[0], key.2)).or_default().push((i, key));
    }
    let groups: Vec<_> = groups.into_iter().collect();
    let collected = fan_out(&groups, workers, |((edge, table), keys), _| {
        Ok(collect_group(
            net, current, cfg, partition, *edge, *table, keys,
        ))
    })?;
    let mut jobs: Vec<Option<Job>> = (0..dirty.len()).map(|_| None).collect();
    for (i, job) in collected.into_iter().flatten() {
        jobs[i] = job;
    }
    Ok(jobs)
}

/// The minutes of the day whose postings may enter one of `intervals`:
/// each interval's minutes, widened by one minute on either side so that no
/// rounding of a time of day to its minute can reject a posting the exact
/// interval test would accept.
fn minute_mask(partition: &DayPartition, intervals: impl Iterator<Item = IntervalId>) -> Vec<bool> {
    const MINUTES: usize = 1_440;
    let alpha = partition.alpha_minutes() as usize;
    let mut mask = vec![false; MINUTES];
    for interval in intervals.filter(|iv| iv.0 < partition.interval_count()) {
        // The last interval absorbs the remainder of the day.
        let first = usize::from(interval.0) * alpha;
        let last = if interval.0 + 1 == partition.interval_count() {
            MINUTES - 1
        } else {
            first + alpha - 1
        };
        mask[first.saturating_sub(1)..=(last + 1).min(MINUTES - 1)].fill(true);
    }
    mask
}

/// One group of [`dirty_jobs`]: the keys (with their indices in the dirty
/// set) that start with `edge` and live in `table`.
fn collect_group(
    net: &RoadNetwork,
    current: &TrajectoryStore,
    cfg: &HybridConfig,
    partition: &DayPartition,
    edge: EdgeId,
    table: RegimeId,
    keys: &[(usize, &RegimeVariableKey)],
) -> Vec<(usize, Option<Job>)> {
    let mask = minute_mask(partition, keys.iter().map(|(_, key)| key.1));
    let matched = current.matched();
    let (postings, minutes) = current.postings(edge);
    let mut occurrences: Vec<Vec<(u32, u32)>> = vec![Vec::new(); keys.len()];
    for (&(ti, pos), &minute) in postings.iter().zip(minutes) {
        if !mask[usize::from(minute)] {
            continue;
        }
        let m = &matched[ti as usize];
        let interval = partition.interval_of(m.entry_times[pos as usize].time_of_day());
        let tail = &m.path.edges()[pos as usize..];
        // Whether the trajectory feeds `table` is the same for every key of
        // the group: asked once, and only of a posting some key matches.
        let mut contributes = None;
        for ((_, (edges, key_interval, _)), found) in keys.iter().zip(&mut occurrences) {
            if *key_interval == interval
                && tail.starts_with(edges)
                && *contributes.get_or_insert_with(|| cfg.regimes.contributes_to(m.regime, table))
            {
                found.push((ti, pos));
            }
        }
    }
    keys.iter()
        .zip(occurrences)
        .map(|(&(i, (edges, interval, _)), found)| {
            if found.len() < cfg.beta {
                return (i, None);
            }
            let path = Path::from_edges_unchecked(edges.clone());
            let mut rows = Vec::with_capacity(found.len() * edges.len());
            for (ti, pos) in found {
                let m = &matched[ti as usize];
                per_edge_costs_into(m, net, &path, pos as usize, cfg.cost_kind, &mut rows);
            }
            let job = (rows.len() / edges.len() >= cfg.beta).then_some((path, *interval, rows));
            (i, job)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::{dirty_keys_by_regime, PathWeightFunction};
    use pathcost_hist::{auto::auto_histogram, AutoConfig, Histogram1D};
    use pathcost_traj::costs::per_edge_costs;
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
        let mut samples: HashMap<WindowKey, (Path, Vec<f64>)> = counts
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
                                rows.extend(costs);
                            }
                        }
                    }
                }
            }
        }

        let mut jobs: Vec<Job> = samples
            .into_iter()
            .filter(|(_, (path, rows))| rows.len() / path.cardinality() >= cfg.beta)
            .map(|((_, interval), (path, rows))| (path, interval, rows))
            .collect();
        jobs.sort_unstable_by(|a, b| (a.0.edges(), a.1).cmp(&(b.0.edges(), b.1)));
        jobs
    }

    /// Every bit of a job list: key edges, interval and each row's costs.
    fn job_bits<'a>(
        jobs: impl IntoIterator<Item = &'a Job>,
    ) -> Vec<(Vec<u32>, u16, Vec<Vec<u64>>)> {
        jobs.into_iter()
            .map(|job| {
                let edges = job.0.edges().iter().map(|e| e.0).collect();
                let rows = rows_of(job)
                    .map(|r| r.iter().map(|c| c.to_bits()).collect())
                    .collect();
                (edges, job.1 .0, rows)
            })
            .collect()
    }

    /// One seed's fixture: the network, the untagged store, a copy with
    /// every third trajectory under regime 2 and the rest under 1, and three
    /// excluded keys off one trajectory — rank 3 at its start, rank 2
    /// overlapping it, and a unit path further on.
    struct Fixture {
        net: RoadNetwork,
        untagged: TrajectoryStore,
        tagged: TrajectoryStore,
        excluded: Vec<(Path, IntervalId)>,
    }

    fn fixture(seed: u64, partition: &DayPartition) -> Fixture {
        let (net, untagged) = DatasetPreset::tiny(seed).materialise().unwrap();
        let tagged = TrajectoryStore::new(
            untagged
                .matched()
                .iter()
                .enumerate()
                .map(|(i, m)| m.clone().with_regime(RegimeId(1 + u16::from(i % 3 == 0))))
                .collect(),
        );
        let m = untagged
            .matched()
            .iter()
            .find(|m| m.path.cardinality() >= 6)
            .unwrap();
        let key = |at: usize, k: usize| {
            let path = Path::from_edges_unchecked(m.path.edges()[at..at + k].to_vec());
            (path, partition.interval_of(m.entry_times[at].time_of_day()))
        };
        let excluded = vec![key(0, 3), key(2, 2), key(5, 1)];
        Fixture {
            net,
            untagged,
            tagged,
            excluded,
        }
    }

    /// Visits every table of the grid `betas × max_ranks × {travel time,
    /// emissions} × {untagged flat, tagged grouped} × {no exclusions, the
    /// fixture's}` with a label naming the case.
    fn each_table(
        fx: &Fixture,
        betas: &[usize],
        max_ranks: &[usize],
        mut visit: impl FnMut(&str, &TrajectoryStore, &HybridConfig, &[(Path, IntervalId)], RegimeId),
    ) {
        let grouped = RegimeSchema::flat()
            .with_group(RegimeId(1), RegimeId(3))
            .with_group(RegimeId(2), RegimeId(3));
        let setups = [
            (
                &fx.untagged,
                RegimeSchema::flat(),
                vec![RegimeId::ALL_TRAFFIC],
            ),
            (&fx.tagged, grouped, (0..4).map(RegimeId).collect()),
        ];
        for &beta in betas {
            for &max_rank in max_ranks {
                for cost_kind in [CostKind::TravelTime, CostKind::Emissions] {
                    for (store, regimes, tables) in &setups {
                        let cfg = HybridConfig {
                            beta,
                            max_rank,
                            cost_kind,
                            regimes: regimes.clone(),
                            ..HybridConfig::default()
                        };
                        for excluded in [&[][..], &fx.excluded[..]] {
                            for &table in tables {
                                let at = format!(
                                    "table {table:?} β {beta} rank {max_rank} {cost_kind:?} \
                                     {} exclusions",
                                    excluded.len()
                                );
                                visit(&at, store, &cfg, excluded, table);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn level_wise_counting_matches_the_two_pass_enumeration() {
        let partition = DayPartition::new(30).unwrap();
        for seed in [21, 51] {
            let fx = fixture(seed, &partition);
            // Each excluded key clears β = 2 unless excluded.
            let cfg = HybridConfig {
                beta: 2,
                ..HybridConfig::default()
            };
            let all = RegimeId::ALL_TRAFFIC;
            let jobs =
                |excluded| table_jobs(&fx.net, &fx.untagged, &cfg, &partition, excluded, all);
            let (kept, pruned) = (jobs(&[][..]), jobs(&fx.excluded[..]));
            for (path, interval) in &fx.excluded {
                let fitted = |jobs: &[Job]| jobs.iter().any(|j| (&j.0, j.1) == (path, *interval));
                assert!(fitted(&kept) && !fitted(&pruned), "{path:?} {interval:?}");
            }
            let (betas, max_ranks) = ([1, 2, 5, 30], [1, 2, 6, 40]);
            each_table(
                &fx,
                &betas,
                &max_ranks,
                |at, store, cfg, excluded, table| {
                    let want = two_pass_jobs(&fx.net, store, cfg, &partition, excluded, table);
                    let got = table_jobs(&fx.net, store, cfg, &partition, excluded, table);
                    assert_eq!(job_bits(&got), job_bits(&want), "tiny({seed}) {at}");
                },
            );
        }
    }

    /// The per-key collection [`dirty_jobs`] replaced: each key walks its
    /// first edge's postings through `occurrences_on`, keeps the occurrences
    /// of its table's contributing trajectories that enter during its
    /// interval, and collects their rows. Kept as the reference the grouped
    /// collection must match bit for bit.
    fn per_key_jobs(
        net: &RoadNetwork,
        store: &TrajectoryStore,
        cfg: &HybridConfig,
        partition: &DayPartition,
        dirty: &BTreeSet<RegimeVariableKey>,
    ) -> Vec<Option<Job>> {
        dirty
            .iter()
            .map(|(edges, interval, table)| {
                let path = Path::from_edges_unchecked(edges.clone());
                let occurrences: Vec<_> = store
                    .occurrences_on(&path)
                    .into_iter()
                    .filter(|o| {
                        let regime = store.matched()[o.traj_index].regime;
                        cfg.regimes.contributes_to(regime, *table)
                    })
                    .filter(|o| partition.interval_of(o.entry_time.time_of_day()) == *interval)
                    .collect();
                if occurrences.len() < cfg.beta {
                    return None;
                }
                let rows: Vec<Vec<f64>> = occurrences
                    .iter()
                    .filter_map(|o| {
                        let m = &store.matched()[o.traj_index];
                        per_edge_costs(m, net, &path, o.offset, cfg.cost_kind)
                    })
                    .collect();
                (rows.len() >= cfg.beta).then(|| (path, *interval, rows.concat()))
            })
            .collect()
    }

    /// Asserts [`dirty_jobs`] ≡ [`per_key_jobs`] bit for bit, whatever the
    /// fan-out, and returns how many keys kept a job.
    fn assert_collects_like_per_key(
        net: &RoadNetwork,
        store: &TrajectoryStore,
        cfg: &HybridConfig,
        dirty: &BTreeSet<RegimeVariableKey>,
        at: &str,
    ) -> usize {
        let partition = DayPartition::new(cfg.alpha_minutes).unwrap();
        let bits = |jobs: Vec<Option<Job>>| -> Vec<_> { jobs.iter().map(job_bits).collect() };
        let want = bits(per_key_jobs(net, store, cfg, &partition, dirty));
        for workers in [None, Some(1), Some(3)] {
            let got = dirty_jobs(net, store, cfg, &partition, dirty, workers).unwrap();
            assert!(
                got.len() == want.len() && bits(got) == want,
                "{at} {workers:?}"
            );
        }
        want.iter().filter(|job| !job.is_empty()).count()
    }

    /// Dirty sets that are not closed under prefixes, cut from `dirty`: its
    /// keys of rank ≥ 2 only (no unit key), every third key, each key one
    /// interval later, and each key in a table nobody feeds and past the
    /// last interval.
    fn not_prefix_closed(
        dirty: &BTreeSet<RegimeVariableKey>,
        partition: &DayPartition,
    ) -> Vec<BTreeSet<RegimeVariableKey>> {
        let moved = |f: &dyn Fn(&RegimeVariableKey) -> RegimeVariableKey| {
            dirty.iter().map(f).collect::<BTreeSet<_>>()
        };
        let past_the_day = IntervalId(partition.interval_count());
        vec![
            dirty.iter().filter(|k| k.0.len() >= 2).cloned().collect(),
            dirty.iter().step_by(3).cloned().collect(),
            moved(&|(e, iv, t)| (e.clone(), IntervalId(iv.0 + 1), *t)),
            moved(&|(e, _, _)| (e.clone(), past_the_day, RegimeId(9)))
                .into_iter()
                .chain(moved(&|(e, iv, _)| (e.clone(), *iv, RegimeId(9))))
                .collect(),
        ]
    }

    #[test]
    fn grouped_collection_matches_the_per_key_collection() {
        let partition = DayPartition::new(30).unwrap();
        let (mut kept, mut dropped) = (0, 0);
        for seed in [21, 51] {
            let fx = fixture(seed, &partition);
            let grouped = RegimeSchema::flat()
                .with_group(RegimeId(1), RegimeId(3))
                .with_group(RegimeId(2), RegimeId(3));
            let setups = [
                ("untagged", &fx.untagged, RegimeSchema::flat()),
                ("tagged", &fx.tagged, grouped),
            ];
            for (name, full, regimes) in setups {
                for cost_kind in [CostKind::TravelTime, CostKind::Emissions] {
                    let cfg = HybridConfig {
                        beta: 5,
                        cost_kind,
                        regimes: regimes.clone(),
                        ..HybridConfig::default()
                    };
                    let dirty_of = |batch: &[MatchedTrajectory]| {
                        dirty_keys_by_regime(batch, &partition, cfg.max_rank, &cfg.regimes)
                    };
                    let mut check = |store: &TrajectoryStore,
                                     dirty: &BTreeSet<RegimeVariableKey>,
                                     step: &str| {
                        let at = format!("tiny({seed}) {name} {cost_kind:?} {step}");
                        let n = assert_collects_like_per_key(&fx.net, store, &cfg, dirty, &at);
                        kept += n;
                        dropped += dirty.len() - n;
                    };
                    // Append the last 30 %, retire the oldest quarter, retire
                    // every fifth id, append the retired back.
                    let split = full.len() * 7 / 10;
                    let mut store = TrajectoryStore::new(full.matched()[..split].to_vec());
                    let batch = full.matched()[split..].to_vec();
                    let dirty = dirty_of(&batch);
                    store.append(batch);
                    check(&store, &dirty, "append");
                    for (i, cut) in not_prefix_closed(&dirty, &partition).iter().enumerate() {
                        check(&store, cut, &format!("append, cut {i}"));
                    }
                    let cutoff = store.start_time_at_percentile(25).unwrap();
                    let retired = store.retire_before(cutoff);
                    check(&store, &dirty_of(&retired), "retire_before");
                    let ids: Vec<u64> = store.matched().iter().step_by(5).map(|m| m.id).collect();
                    let retired = store.retire_ids(&ids);
                    let dirty = dirty_of(&retired);
                    check(&store, &dirty, "retire_ids");
                    for (i, cut) in not_prefix_closed(&dirty, &partition).iter().enumerate() {
                        check(&store, cut, &format!("retire_ids, cut {i}"));
                    }
                    let dirty = dirty_of(&retired);
                    store.append(retired);
                    check(&store, &dirty, "re-append");
                }
            }
        }
        assert!(
            kept > 0 && dropped > 0,
            "{kept} keys kept a job, {dropped} did not"
        );
    }

    #[test]
    fn boundary_entry_times_collect_like_the_per_key_collection() {
        // Entry times on an interval boundary, one ulp below it, on a minute
        // boundary and one ulp below that, on days 0, 1, 7 and 29.
        let below = |t: f64| f64::from_bits(t.to_bits() - 1);
        let mut times = Vec::new();
        for day in [0.0, 1.0, 7.0, 29.0] {
            for seconds in [
                8.0 * 3_600.0,
                8.5 * 3_600.0,
                17.0 * 3_600.0 + 60.0,
                86_340.0,
            ] {
                let t = day * 86_400.0 + seconds;
                times.extend([t, below(t)]);
            }
        }
        times.push(below(86_400.0));
        let partition = DayPartition::new(30).unwrap();
        let fx = fixture(21, &partition);
        // Every trajectory's every entry time is one of them, in turn.
        let placed: Vec<MatchedTrajectory> = fx
            .tagged
            .matched()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let mut m = m.clone();
                for (p, t) in m.entry_times.iter_mut().enumerate() {
                    *t = pathcost_traj::Timestamp(times[(i + p) % times.len()]);
                }
                m
            })
            .collect();
        let cfg = HybridConfig {
            beta: 2,
            regimes: RegimeSchema::flat().with_group(RegimeId(1), RegimeId(3)),
            ..HybridConfig::default()
        };
        let store = TrajectoryStore::new(placed);
        // The keys of every window, and each one interval earlier and later.
        let dirty = dirty_keys_by_regime(store.matched(), &partition, cfg.max_rank, &cfg.regimes);
        let shifted = |by: i32| {
            dirty.iter().filter_map(move |(e, iv, t)| {
                let iv = u16::try_from(i32::from(iv.0) + by).ok()?;
                Some((e.clone(), IntervalId(iv), *t))
            })
        };
        let dirty: BTreeSet<_> = shifted(-1).chain(shifted(0)).chain(shifted(1)).collect();
        let kept = assert_collects_like_per_key(&fx.net, &store, &cfg, &dirty, "boundaries");
        assert!(kept > 0, "some boundary key clears β");
        // One ulp below 08:30 is 08:29's minute and the 08:00 interval.
        let tod = pathcost_traj::Timestamp(below(86_400.0 + 8.5 * 3_600.0)).time_of_day();
        assert_eq!(tod.minute_of_day(), 509);
        assert_eq!(partition.interval_of(tod), IntervalId(16));
    }

    #[test]
    fn minute_mask_widens_each_interval_by_a_minute() {
        let minutes = |mask: Vec<bool>| -> Vec<usize> {
            mask.iter()
                .enumerate()
                .filter(|(_, &on)| on)
                .map(|(m, _)| m)
                .collect()
        };
        let half_hours = DayPartition::new(30).unwrap();
        let mask = minute_mask(&half_hours, [IntervalId(16)].into_iter());
        assert_eq!(minutes(mask), (479..=510).collect::<Vec<_>>());
        let mask = minute_mask(&half_hours, [IntervalId(0), IntervalId(47)].into_iter());
        let want: Vec<usize> = (0..=30).chain(1_409..1_440).collect();
        assert_eq!(minutes(mask), want);
        // 50-minute intervals: the last one, 28, absorbs 23:20–24:00.
        let fifties = DayPartition::new(50).unwrap();
        let mask = minute_mask(&fifties, [IntervalId(28), IntervalId(29)].into_iter());
        assert_eq!(minutes(mask), (1_399..1_440).collect::<Vec<_>>());
        assert!(minutes(minute_mask(&fifties, std::iter::empty())).is_empty());
    }

    thread_local! {
        /// Axis fits run by the [`fit_jobs`] calls this thread made.
        pub(super) static FITS_RUN: Cell<usize> = const { Cell::new(0) };
    }

    /// The number of axis fits `f` runs through [`fit_jobs`] on this thread.
    fn fits_run(f: impl FnOnce()) -> usize {
        let before = FITS_RUN.get();
        f();
        FITS_RUN.get() - before
    }

    /// The per-variable fit [`fit_jobs`] replaced: every variable fits each
    /// of its columns itself. Kept as the reference the shared-column fit
    /// must match bit for bit.
    fn fit_variable(
        (path, interval, rows): &Job,
        cfg: &HybridConfig,
    ) -> Result<InstantiatedVariable, CoreError> {
        let rows: Vec<Vec<f64>> = rows
            .chunks_exact(path.cardinality())
            .map(<[f64]>::to_vec)
            .collect();
        let histogram = if path.is_unit() {
            let totals: Vec<f64> = rows.iter().map(|r| r[0]).collect();
            HistogramNd::from_histogram1d(&auto_histogram(&totals, &cfg.auto)?)
        } else {
            HistogramNd::from_samples(&rows, &cfg.auto)?
        };
        let source = VariableSource::Trajectories { count: rows.len() };
        Ok(InstantiatedVariable::new(
            path.clone(),
            *interval,
            histogram,
            source,
        ))
    }

    fn fit_each(jobs: &[Job], cfg: &HybridConfig) -> Result<Vec<InstantiatedVariable>, CoreError> {
        jobs.iter().map(|job| fit_variable(job, cfg)).collect()
    }

    /// Every bit of each variable: key edges, interval, source count, axis
    /// bounds, cell indices and masses.
    fn variable_bits(vars: &[InstantiatedVariable]) -> Vec<Vec<u64>> {
        vars.iter()
            .map(|v| {
                let mut bits: Vec<u64> = v.path.edges().iter().map(|e| u64::from(e.0)).collect();
                bits.push(u64::from(v.interval.0));
                if let VariableSource::Trajectories { count } = v.source {
                    bits.push(count as u64);
                }
                for axis in v.histogram.axes() {
                    bits.push(axis.len() as u64);
                    bits.extend(axis.iter().flat_map(|b| [b.lo.to_bits(), b.hi.to_bits()]));
                }
                for (cell, p) in v.histogram.cells() {
                    bits.extend(cell.iter().map(|&i| u64::from(i)));
                    bits.push(p.to_bits());
                }
                bits
            })
            .collect()
    }

    /// `(distinct columns, (variable, dim) pairs)` of `jobs`, where a column
    /// is its values' bits in row order.
    fn column_counts<'a>(jobs: impl IntoIterator<Item = &'a Job>) -> (usize, usize) {
        let columns: Vec<Vec<u64>> = jobs
            .into_iter()
            .flat_map(|job| {
                (0..job.0.cardinality()).map(move |d| column_of(job, d).map(f64::to_bits).collect())
            })
            .collect();
        let pairs = columns.len();
        (columns.into_iter().collect::<HashSet<_>>().len(), pairs)
    }

    #[test]
    fn shared_column_fits_match_per_variable_fits_bit_for_bit() {
        let partition = DayPartition::new(30).unwrap();
        let mut shared = 0;
        for seed in [21, 51] {
            let fx = fixture(seed, &partition);
            each_table(&fx, &[5, 30], &[6], |at, store, cfg, excluded, table| {
                let jobs = table_jobs(&fx.net, store, cfg, &partition, excluded, table);
                let want = variable_bits(&fit_each(&jobs, cfg).unwrap());
                let (distinct, pairs) = column_counts(&jobs);
                shared += pairs - distinct;
                for workers in [None, Some(3)] {
                    let mut got = Vec::new();
                    let fits = fits_run(|| {
                        got = fit_table(&fx.net, store, cfg, &partition, excluded, table, workers)
                            .unwrap();
                    });
                    assert_eq!(variable_bits(&got), want, "tiny({seed}) {at}");
                    assert_eq!(fits, distinct, "tiny({seed}) {at}: one fit per column");
                }
            });
        }
        assert!(shared > 0, "the grid shares some column");
    }

    #[test]
    fn hand_made_columns_are_shared_only_when_identical() {
        let cfg = HybridConfig::default();
        let path =
            |ids: &[u32]| Path::from_edges_unchecked(ids.iter().map(|&i| EdgeId(i)).collect());
        let rows = |columns: &[&[f64]]| -> Vec<f64> {
            (0..columns[0].len())
                .flat_map(|i| columns.iter().map(move |c| c[i]))
                .collect()
        };
        let a: Vec<f64> = (0..40u32)
            .map(|k| 20.0 + f64::from(k % 4) * 15.0 + f64::from(k * 7 % 5))
            .collect();
        let b: Vec<f64> = (0..40u32).map(|k| 30.0 + f64::from(k * 11 % 17)).collect();
        let reversed: Vec<f64> = a.iter().rev().copied().collect();
        let jobs: Vec<Job> = vec![
            (path(&[1, 2]), IntervalId(3), rows(&[&a, &b])),
            // The pair's first column: shared.
            (path(&[1]), IntervalId(3), rows(&[&a])),
            // The same values in another order: not shared, because folds
            // are dealt by position.
            (path(&[4]), IntervalId(3), rows(&[&reversed])),
            // A longer path whose columns all appeared above, b at another
            // dim: all three shared.
            (path(&[7, 2, 9]), IntervalId(5), rows(&[&reversed, &b, &a])),
        ];
        let reference = fit_each(&jobs, &cfg).unwrap();
        assert!(
            reference[1].histogram != reference[2].histogram,
            "the order of a column decides its fit here, so sharing on the \
             values alone would change a histogram"
        );
        let want = variable_bits(&reference);
        for workers in [None, Some(1), Some(3)] {
            let mut got = Vec::new();
            let fits = fits_run(|| got = fit_jobs(jobs.clone(), &cfg, workers).unwrap());
            assert_eq!(fits, 3, "a, b and a reversed, once each");
            assert_eq!(variable_bits(&got), want);
        }

        // The first error is the reference's: the earliest failing
        // (variable, dim), not the earliest failing column of another order.
        let mut nan = b.clone();
        nan[7] = f64::NAN;
        let mut negative = a.clone();
        negative[3] = -1.0;
        let failing: Vec<Job> = vec![
            jobs[0].clone(),
            (path(&[5]), IntervalId(3), rows(&[&b])),
            (path(&[5, 6]), IntervalId(3), rows(&[&a, &nan])),
            (path(&[7]), IntervalId(3), rows(&[&negative])),
            (path(&[8, 6]), IntervalId(3), rows(&[&negative, &nan])),
        ];
        let want = format!("{:?}", fit_each(&failing, &cfg).unwrap_err());
        assert!(want.contains("NaN"), "{want}");
        for workers in [None, Some(1), Some(5)] {
            let got = fit_jobs(failing.clone(), &cfg, workers).unwrap_err();
            assert_eq!(format!("{got:?}"), want);
        }
    }

    #[test]
    fn instantiate_and_rederive_fit_each_distinct_column_once() {
        let partition = DayPartition::new(30).unwrap();
        let fx = fixture(31, &partition);
        let cfg = HybridConfig {
            beta: 10,
            regimes: RegimeSchema::flat()
                .with_group(RegimeId(1), RegimeId(3))
                .with_group(RegimeId(2), RegimeId(3)),
            ..HybridConfig::default()
        };
        let split = fx.tagged.len() * 7 / 10;
        let mut store = TrajectoryStore::new(fx.tagged.matched()[..split].to_vec());
        let batch = fx.tagged.matched()[split..].to_vec();

        let mut wp = None;
        let fits = fits_run(|| wp = Some(PathWeightFunction::instantiate(&fx.net, &store, &cfg)));
        let wp = wp.unwrap().unwrap();
        // Instantiation fits table by table.
        let (mut distinct, mut pairs) = (0, 0);
        for &table in wp.tables().keys() {
            let jobs = table_jobs(&fx.net, &store, &cfg, &partition, &[], table);
            assert_eq!(jobs.len(), wp.tables()[&table].len());
            let counts = column_counts(&jobs);
            (distinct, pairs) = (distinct + counts.0, pairs + counts.1);
        }
        assert_eq!(fits, distinct, "instantiate: one fit per distinct column");
        assert!(fits < pairs, "instantiate: {fits} fits for {pairs} columns");

        let dirty = dirty_keys_by_regime(&batch, &partition, cfg.max_rank, &cfg.regimes);
        store.append(batch);
        let mut update = None;
        let fits = fits_run(|| update = Some(wp.rederive_regimes(&fx.net, &store, &cfg, &dirty)));
        let update = update.unwrap().unwrap();
        // Re-derivation fits every re-fitted key of every table at once.
        let refitted: HashSet<(&[EdgeId], IntervalId, RegimeId)> = update
            .updated
            .iter()
            .chain(&update.added)
            .map(|(path, interval, table)| (path.edges(), *interval, *table))
            .collect();
        let mut jobs = Vec::new();
        for &table in update.weights.tables().keys() {
            let table_jobs = table_jobs(&fx.net, &store, &cfg, &partition, &[], table);
            jobs.extend(table_jobs.into_iter().filter(|(path, interval, _)| {
                refitted.contains(&(path.edges(), *interval, table))
            }));
        }
        assert_eq!(jobs.len(), refitted.len());
        let (distinct, pairs) = column_counts(&jobs);
        assert_eq!(fits, distinct, "rederive: one fit per distinct column");
        assert!(fits < pairs, "rederive: {fits} fits for {pairs} columns");
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
