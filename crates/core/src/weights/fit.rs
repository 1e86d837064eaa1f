//! The §3 instantiation procedure: β-threshold counting, per-edge cost rows
//! and the Auto + V-Optimal fit of each surviving key, fanned out over
//! scoped workers.

use crate::config::HybridConfig;
use crate::error::CoreError;
use crate::interval::{DayPartition, IntervalId};
use crate::variable::{InstantiatedVariable, VariableSource};
use pathcost_hist::{auto::auto_histogram_with_scratch, FitScratch, HistogramNd};
use pathcost_roadnet::{EdgeId, Path, RoadNetwork};
use pathcost_traj::costs::per_edge_costs;
use pathcost_traj::{RegimeId, TrajectoryStore};
use std::collections::HashMap;
use std::num::NonZeroUsize;

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

/// Fewest keys that are worth a worker of their own: below twice this many a
/// fan-out stays on the calling thread (a fit takes tens of microseconds, a
/// thread hand-over about as long).
const MIN_KEYS_PER_WORKER: usize = 32;

/// Maps the per-key job `f` over `items` — contiguous chunks of the list on
/// scoped worker threads, one [`FitScratch`] each — and returns the results
/// in item order (or the error of the first failing item), whatever the
/// worker count. `workers` fixes that count; `None` sizes it from the cores
/// available and the number of items.
pub(super) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    workers: Option<usize>,
    f: impl Fn(&T, &mut FitScratch) -> Result<R, CoreError> + Sync,
) -> Result<Vec<R>, CoreError> {
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let workers = workers
        .unwrap_or_else(|| {
            let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
            cores.min(items.len() / MIN_KEYS_PER_WORKER)
        })
        .clamp(1, items.len());
    let run = |chunk: &[T]| -> Result<Vec<R>, CoreError> {
        let mut scratch = FitScratch::new();
        chunk.iter().map(|item| f(item, &mut scratch)).collect()
    };
    // The calling thread takes the first chunk itself.
    let mut chunks = items.chunks(items.len().div_ceil(workers));
    let first = chunks.next().expect("items is not empty");
    let parts: Vec<Result<Vec<R>, CoreError>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = chunks.map(|chunk| scope.spawn(|| run(chunk))).collect();
        std::iter::once(run(first))
            .chain(spawned.into_iter().map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }))
            .collect()
    });
    let mut results = Vec::with_capacity(items.len());
    for part in parts {
        results.extend(part?);
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
}
