//! Instantiating the path weight function `W_P` from trajectories (§3).
//!
//! The weight function maps a path and a time interval to an instantiated
//! random variable — the joint distribution of the path's per-edge costs.
//! Every table of the function — the all-traffic table, and one own table per
//! regime rung present in the data — is built by the same procedure over the
//! trajectories that contribute to it:
//!
//! 1. every window of length `1..=max_rank` of every matched trajectory is an
//!    occurrence of a candidate path, keyed by the interval its entry time
//!    falls in; a first pass counts the occurrences of every key;
//! 2. a second pass collects the per-edge cost rows of the keys with at least
//!    `β` qualified occurrences;
//! 3. each such key gets a multi-dimensional histogram fitted to its rows (the
//!    Auto + V-Optimal procedure of §3.1/§3.2). The fits are independent, so
//!    the sorted key list is cut into contiguous chunks, one scoped worker
//!    (with its own [`FitScratch`]) per chunk, and the fitted variables are
//!    concatenated in key order — the result does not depend on the worker
//!    count. [`PathWeightFunction::rederive_regimes`] re-fits its dirty keys
//!    through the same fan-out.
//!
//! Unit paths that never reach `β` qualified trajectories fall back to a
//! speed-limit-derived distribution, so every edge always has *some*
//! ground-truth unit weight.

use crate::config::HybridConfig;
use crate::error::CoreError;
use crate::interval::{DayPartition, IntervalId};
use crate::variable::{InstantiatedVariable, VariableSource};
use pathcost_hist::{auto::auto_histogram_with_scratch, FitScratch, Histogram1D, HistogramNd};
use pathcost_roadnet::{EdgeId, Path, RoadNetwork};
use pathcost_traj::costs::per_edge_costs;
use pathcost_traj::MatchedTrajectory;
use pathcost_traj::{CostKind, RegimeId, RegimeSchema, TrajectoryStore};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::num::NonZeroUsize;
use std::sync::Arc;

/// The variable keys whose qualified occurrence sets a batch of *appended or
/// removed* trajectories changes: each `(edges[start..start + k], interval)`
/// window for `k = 1..=max_rank` — the exact mirror of instantiation's pass-1
/// enumeration below, kept next to it so the two cannot drift — once per rung
/// of the trajectory's fallback ladder, because a regime-`Q` traversal
/// contributes occurrences to `Q`'s own table, every ancestor group table and
/// the global table (an untagged trajectory's ladder is the global table
/// alone). Everything outside this set is provably untouched by the append
/// (or retirement), which is what makes
/// [`PathWeightFunction::rederive_regimes`] exact: a trajectory only ever
/// contributes occurrences to its own windows, whether it is arriving or
/// aging out.
pub fn dirty_keys_by_regime(
    batch: &[MatchedTrajectory],
    partition: &DayPartition,
    max_rank: usize,
    schema: &RegimeSchema,
) -> BTreeSet<RegimeVariableKey> {
    let mut dirty = BTreeSet::new();
    for m in batch {
        let ladder = schema.ladder(m.regime);
        let edges = m.path.edges();
        for k in 1..=max_rank.min(edges.len()) {
            for start in 0..=edges.len() - k {
                let interval = partition.interval_of(m.entry_times[start].time_of_day());
                for &table in &ladder {
                    dirty.insert((edges[start..start + k].to_vec(), interval, table));
                }
            }
        }
    }
    dirty
}

/// Summary statistics of an instantiated weight function, used by the
/// Figure 8–12 experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct WeightStats {
    /// Number of trajectory-derived variables per rank.
    pub count_by_rank: BTreeMap<usize, usize>,
    /// Mean entropy of trajectory-derived variables per rank (Figure 8(b)).
    pub mean_entropy_by_rank: BTreeMap<usize, f64>,
    /// Number of distinct edges covered by trajectory-derived variables (`E'`).
    pub covered_edges: usize,
    /// Number of distinct edges with at least one GPS-covered traversal (`E''`).
    pub edges_with_records: usize,
    /// Total approximate memory of all variables (including fallbacks), bytes.
    pub memory_bytes: usize,
}

impl WeightStats {
    /// Coverage ratio `|E'| / |E''|` (Figure 8(a)).
    pub fn coverage(&self) -> f64 {
        if self.edges_with_records == 0 {
            0.0
        } else {
            self.covered_edges as f64 / self.edges_with_records as f64
        }
    }

    /// Total number of trajectory-derived variables.
    pub fn total_variables(&self) -> usize {
        self.count_by_rank.values().sum()
    }
}

/// The instantiated path weight function `W_P`.
///
/// With regime-tagged trajectories in the store, the function additionally
/// carries per-regime *own* tables (variables whose `(path, interval,
/// regime)` occurrence count clears β) and, for every regime reachable from
/// the data, a materialized *effective view*: a complete weight function in
/// which each key is resolved to the nearest fallback-ladder ancestor table
/// that clears β (specific regime → regime group → global). The estimator
/// pipeline runs unchanged against a view; the view remembers each
/// variable's resolution depth and source regime so the serving layer can
/// report fallback depth and invalidate by source table. With no regime
/// tags the extra fields stay empty and the function is bit-identical to
/// the pre-regime pipeline.
#[derive(Debug, Clone)]
pub struct PathWeightFunction {
    partition: DayPartition,
    cost_kind: CostKind,
    variables: Vec<InstantiatedVariable>,
    /// Exact lookup: (path edges, interval) → variable index.
    index: HashMap<(Vec<EdgeId>, IntervalId), usize>,
    /// All variable indices whose path starts with the given edge.
    by_first_edge: HashMap<EdgeId, Vec<usize>>,
    /// Speed-limit-derived fallback distribution per edge.
    fallback_units: HashMap<EdgeId, Histogram1D>,
    stats: WeightStats,
    /// The regime fallback-ladder schema the function was instantiated under.
    schema: RegimeSchema,
    /// Per-regime own variable tables, sorted by `(path edges, interval)` —
    /// only non-global regimes appear, and only with non-empty tables.
    regime_own: BTreeMap<RegimeId, Vec<InstantiatedVariable>>,
    /// Materialized effective view per regime (ladder-resolved variables).
    regime_views: BTreeMap<RegimeId, Arc<PathWeightFunction>>,
    /// Per-variable fallback-ladder resolution depth — parallel to
    /// `variables` on a regime view, empty on the global function (depth 0).
    variable_depths: Vec<usize>,
    /// Per-variable source regime table — parallel to `variables` on a
    /// regime view, empty on the global function (all-traffic).
    variable_regimes: Vec<RegimeId>,
}

/// A set of `(path, interval)` pairs whose weights must *not* be instantiated.
///
/// Used by the held-out evaluation protocol (§5.2.2): the ground-truth
/// distribution of an evaluation path is computed from its qualified
/// trajectories, and the weight function is then instantiated as if that
/// information were unavailable — any candidate path *containing* the held-out
/// path during its interval is skipped, so estimators must reconstruct the
/// distribution from strictly shorter sub-paths.
pub type HoldoutExclusions = Vec<(Path, IntervalId)>;

/// A `(path edges, interval)` variable key — the unit of dirtiness the live
/// ingestion subsystem tracks: a key is *dirty* after an ingest when at least
/// one newly appended trajectory contributes a qualified occurrence to it.
pub type VariableKey = (Vec<EdgeId>, IntervalId);

/// A regime-qualified variable key: `(path edges, interval, regime table)`.
/// The regime names the *table* the key lives in — `RegimeId::ALL_TRAFFIC`
/// for the global table every trajectory contributes to, a non-global id for
/// a regime's own table (fed only by trajectories whose fallback ladder
/// passes through it).
pub type RegimeVariableKey = (Vec<EdgeId>, IntervalId, RegimeId);

/// The outcome of a selective re-instantiation
/// ([`PathWeightFunction::rederive_regimes`]):
/// a new weight-function epoch plus the exact set of variable keys whose
/// histograms differ from the previous epoch. The serving layer consumes this
/// to swap the published weight function and surgically evict exactly the
/// dependent cache entries.
#[derive(Debug, Clone)]
pub struct WeightUpdate {
    /// Monotonically increasing version of the published weight function
    /// (stamped by the live ingestor; `rederive` itself leaves it 0).
    pub epoch: u64,
    /// Number of trajectories the producing ingest appended (stamped by the
    /// live ingestor; `rederive` itself leaves it 0).
    pub trajectories: usize,
    /// Number of trajectories the producing retirement removed (stamped by
    /// the live ingestor; `rederive` itself leaves it 0).
    pub trajectories_retired: usize,
    /// Number of dirty keys that were examined.
    pub dirty_keys: usize,
    /// The re-derived weight function — bit-identical to a full
    /// [`PathWeightFunction::instantiate`] over the merged store. Shared
    /// behind an [`Arc`] so the ingestor keeping it for the next epoch and
    /// the graph serving it reuse one allocation.
    pub weights: Arc<PathWeightFunction>,
    /// Keys of previously instantiated variables whose histograms were
    /// re-derived (their qualified occurrence sets grew). The
    /// [`RegimeId`] names the *table* the change landed in —
    /// [`RegimeId::ALL_TRAFFIC`] for the global table, a non-global id for
    /// a regime's own table — so the serving layer can evict only readers
    /// that resolved the key from that table.
    pub updated: Vec<(Path, IntervalId, RegimeId)>,
    /// Keys that newly crossed the β threshold and were instantiated for the
    /// first time (regime-qualified as in [`Self::updated`]). New variables
    /// change candidate *selection* for any query path containing them, so
    /// invalidation must treat these by sub-path containment rather than by
    /// recorded reads.
    pub added: Vec<(Path, IntervalId, RegimeId)>,
    /// Keys of previously instantiated variables whose support dropped below
    /// the β threshold (trajectories aged out) and were *deleted* from the
    /// weight function (regime-qualified as in [`Self::updated`]). Like
    /// [`Self::added`], a deletion changes candidate selection for any query
    /// path containing the key's path, so invalidation must flush recorded
    /// readers *and* sweep by sub-path containment.
    pub removed: Vec<(Path, IntervalId, RegimeId)>,
}

impl WeightUpdate {
    /// Total number of variable keys whose histogram changed in this epoch
    /// (re-derived, newly instantiated or deleted).
    pub fn changed(&self) -> usize {
        self.updated.len() + self.added.len() + self.removed.len()
    }
}

/// Fits the §3.1/§3.2 variable of one key from its qualified per-edge cost
/// rows (shared by full instantiation and selective re-derivation so both
/// produce bit-identical distributions).
fn fit_variable(
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
    Ok(InstantiatedVariable {
        path,
        interval,
        histogram,
        source: VariableSource::Trajectories { count: rows.len() },
    })
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
fn fan_out<T: Sync, R: Send>(
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

/// The non-global rungs of the fallback ladders of `regimes`: the own tables
/// those regimes' trajectories feed, and the views they resolve through.
fn own_tables(
    schema: &RegimeSchema,
    regimes: impl IntoIterator<Item = RegimeId>,
) -> BTreeSet<RegimeId> {
    regimes
        .into_iter()
        .flat_map(|q| schema.ladder(q))
        .filter(|r| !r.is_global())
        .collect()
}

impl PathWeightFunction {
    /// Instantiates the weight function from a trajectory store.
    pub fn instantiate(
        net: &RoadNetwork,
        store: &TrajectoryStore,
        cfg: &HybridConfig,
    ) -> Result<Self, CoreError> {
        Self::instantiate_with_exclusions(net, store, cfg, &[])
    }

    /// Instantiates the weight function, skipping every candidate path that
    /// contains one of the `excluded` paths during the excluded interval.
    pub fn instantiate_with_exclusions(
        net: &RoadNetwork,
        store: &TrajectoryStore,
        cfg: &HybridConfig,
        excluded: &[(Path, IntervalId)],
    ) -> Result<Self, CoreError> {
        Self::instantiate_on(net, store, cfg, excluded, None)
    }

    /// [`Self::instantiate_with_exclusions`] with the fit fan-out's worker
    /// count fixed (`None`: sized from the machine).
    fn instantiate_on(
        net: &RoadNetwork,
        store: &TrajectoryStore,
        cfg: &HybridConfig,
        excluded: &[(Path, IntervalId)],
        workers: Option<usize>,
    ) -> Result<Self, CoreError> {
        cfg.validate()?;
        let partition = DayPartition::new(cfg.alpha_minutes)?;
        let fit_table = |table: RegimeId| {
            Self::fit_table(net, store, cfg, &partition, excluded, table, workers)
        };

        // The all-traffic table is the root rung of every fallback ladder.
        let variables = fit_table(RegimeId::ALL_TRAFFIC)?;

        // Speed-limit fallbacks for every edge of the network.
        let mut fallback_units = HashMap::with_capacity(net.edge_count());
        for edge in net.edges() {
            let t_ff = edge.free_flow_time_s();
            let lo = t_ff * (1.0 - cfg.speed_limit_spread);
            let hi = t_ff * (1.0 + 3.0 * cfg.speed_limit_spread);
            fallback_units.insert(edge.id, Histogram1D::uniform(lo, hi.max(lo + 0.5))?);
        }

        // Per-regime own tables: one table per non-global rung reachable from
        // the regimes present in the store — none for an untagged store.
        let mut regime_own: BTreeMap<RegimeId, Vec<InstantiatedVariable>> = BTreeMap::new();
        for table in own_tables(&cfg.regimes, store.regimes_present()) {
            let vars = fit_table(table)?;
            if !vars.is_empty() {
                regime_own.insert(table, vars);
            }
        }

        Ok(
            Self::finish(partition, cfg.cost_kind, variables, fallback_units, store)
                .with_regime_tables(cfg.regimes.clone(), regime_own, store),
        )
    }

    /// Fits one table: the two-pass β-threshold procedure over the
    /// trajectories whose fallback ladder passes through `table` (every
    /// trajectory, for the all-traffic table) — so the rows a key collects in
    /// a regime's own table are exactly the contributing subsequence, in the
    /// same (trajectory, position) order, of the rows the all-traffic table
    /// collects. Returns the fitted variables in sorted `(path edges,
    /// interval)` key order.
    fn fit_table(
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
                            if let Some(costs) = per_edge_costs(m, net, path, start, cfg.cost_kind)
                            {
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

    /// Attaches the regime schema and own tables to an assembled global
    /// function and (re-)materializes the effective per-regime views. The
    /// views are a pure function of `(global variables, own tables, schema,
    /// store)`, so every constructor path — full instantiation, selective
    /// re-derivation, snapshot restore — converges on identical views for
    /// identical inputs.
    fn with_regime_tables(
        mut self,
        schema: RegimeSchema,
        regime_own: BTreeMap<RegimeId, Vec<InstantiatedVariable>>,
        store: &TrajectoryStore,
    ) -> PathWeightFunction {
        self.schema = schema;
        self.regime_own = regime_own;
        self.materialise_views(store);
        self
    }

    /// Builds the effective view of every regime reachable from the data:
    /// ladder rungs are layered far-ancestor-first (global at the bottom),
    /// so the nearest table that instantiated a key wins, and the winning
    /// rung's ladder position becomes the key's reported fallback depth.
    fn materialise_views(&mut self, store: &TrajectoryStore) {
        self.regime_views.clear();
        if self.regime_own.is_empty() && !store.has_regimes() {
            return;
        }
        // Schema-declared regimes get a view even before their own data
        // lands: a sparse regime must resolve through its *group's* table
        // (ladder rung 1), not skip straight to the global function.
        let sources = store
            .regimes_present()
            .into_iter()
            .chain(self.regime_own.keys().copied())
            .chain(self.schema.entries().map(|(regime, _)| regime));
        for regime in own_tables(&self.schema, sources) {
            let ladder = self.schema.ladder(regime);
            let mut by_key: BTreeMap<VariableKey, (InstantiatedVariable, usize, RegimeId)> =
                BTreeMap::new();
            for (depth, rung) in ladder.iter().enumerate().rev() {
                let vars: &[InstantiatedVariable] = if rung.is_global() {
                    &self.variables
                } else {
                    self.regime_own.get(rung).map(Vec::as_slice).unwrap_or(&[])
                };
                for v in vars {
                    by_key.insert(
                        (v.path.edges().to_vec(), v.interval),
                        (v.clone(), depth, *rung),
                    );
                }
            }
            let mut variables = Vec::with_capacity(by_key.len());
            let mut depths = Vec::with_capacity(by_key.len());
            let mut sources = Vec::with_capacity(by_key.len());
            for (_, (v, d, r)) in by_key {
                variables.push(v);
                depths.push(d);
                sources.push(r);
            }
            let mut view = Self::finish(
                self.partition.clone(),
                self.cost_kind,
                variables,
                self.fallback_units.clone(),
                store,
            );
            view.schema = self.schema.clone();
            view.variable_depths = depths;
            view.variable_regimes = sources;
            self.regime_views.insert(regime, Arc::new(view));
        }
    }

    /// Patches a sorted delta into this function's already-sorted variable
    /// list by a single splice/merge pass, which [`Self::rederive_regimes`]
    /// uses so a small epoch does not pay an `O(|variables| log |variables|)`
    /// sorted re-index.
    /// `Some(var)` entries replace (or insert) their key, `None` entries
    /// delete it. The merged order is exactly the sorted-key order a full
    /// re-assembly would produce — bit-identity is asserted by the weight
    /// tests and the live-equivalence oracle.
    fn assemble_patched(
        &self,
        delta: BTreeMap<VariableKey, Option<InstantiatedVariable>>,
        regime_own: BTreeMap<RegimeId, Vec<InstantiatedVariable>>,
        store: &TrajectoryStore,
    ) -> PathWeightFunction {
        let mut variables: Vec<InstantiatedVariable> =
            Vec::with_capacity(self.variables.len() + delta.len());
        let mut patches = delta.into_iter().peekable();
        for var in &self.variables {
            let mut replaced = false;
            while let Some((key, _)) = patches.peek() {
                // BTreeMap orders (Vec<EdgeId>, IntervalId) keys exactly like
                // this slice comparison, so the merge preserves sorted order.
                let ord = (key.0.as_slice(), key.1).cmp(&(var.path.edges(), var.interval));
                if ord == std::cmp::Ordering::Greater {
                    break;
                }
                let (_, patch) = patches.next().expect("peeked");
                if let Some(new_var) = patch {
                    variables.push(new_var);
                }
                if ord == std::cmp::Ordering::Equal {
                    replaced = true;
                    break;
                }
            }
            if !replaced {
                variables.push(var.clone());
            }
        }
        for (_, patch) in patches {
            if let Some(new_var) = patch {
                variables.push(new_var);
            }
        }
        Self::finish(
            self.partition.clone(),
            self.cost_kind,
            variables,
            self.fallback_units.clone(),
            store,
        )
        .with_regime_tables(self.schema.clone(), regime_own, store)
    }

    /// The tail shared by every constructor (instantiation,
    /// [`Self::assemble_patched`], restore from parts): `variables` must
    /// already be in sorted key order; the lookup and
    /// first-edge indices and the summary statistics are derived from it.
    fn finish(
        partition: DayPartition,
        cost_kind: CostKind,
        variables: Vec<InstantiatedVariable>,
        fallback_units: HashMap<EdgeId, Histogram1D>,
        store: &TrajectoryStore,
    ) -> PathWeightFunction {
        let mut index = HashMap::with_capacity(variables.len());
        let mut by_first_edge: HashMap<EdgeId, Vec<usize>> = HashMap::new();
        for (idx, var) in variables.iter().enumerate() {
            by_first_edge
                .entry(var.path.first_edge())
                .or_default()
                .push(idx);
            index.insert((var.path.edges().to_vec(), var.interval), idx);
        }

        let mut count_by_rank: BTreeMap<usize, usize> = BTreeMap::new();
        let mut entropy_sum: BTreeMap<usize, f64> = BTreeMap::new();
        let mut covered: std::collections::HashSet<EdgeId> = std::collections::HashSet::new();
        let mut memory = 0usize;
        for v in &variables {
            *count_by_rank.entry(v.rank()).or_insert(0) += 1;
            *entropy_sum.entry(v.rank()).or_insert(0.0) += v.entropy();
            covered.extend(v.path.edges().iter().copied());
            memory += v.storage_bytes();
        }
        memory += fallback_units
            .values()
            .map(|h| h.storage_bytes())
            .sum::<usize>();
        let mean_entropy_by_rank = entropy_sum
            .into_iter()
            .map(|(rank, sum)| (rank, sum / count_by_rank[&rank] as f64))
            .collect();
        let stats = WeightStats {
            count_by_rank,
            mean_entropy_by_rank,
            covered_edges: covered.len(),
            edges_with_records: store.covered_edges().len(),
            memory_bytes: memory,
        };

        PathWeightFunction {
            partition,
            cost_kind,
            variables,
            index,
            by_first_edge,
            fallback_units,
            stats,
            schema: RegimeSchema::flat(),
            regime_own: BTreeMap::new(),
            regime_views: BTreeMap::new(),
            variable_depths: Vec::new(),
            variable_regimes: Vec::new(),
        }
    }

    /// Selective re-instantiation: re-derives exactly the variables named by
    /// `dirty` against the current trajectory store and returns a new
    /// weight-function epoch.
    ///
    /// `current` is the store after the producing mutation — trajectories
    /// appended, retired (TTL expiry), or both — and `dirty` must name every
    /// key whose qualified occurrence set the mutation changed (the windows
    /// of appended plus removed trajectories on every rung of their fallback
    /// ladders, see [`dirty_keys_by_regime`]). `cfg` must
    /// be the configuration the function was originally instantiated with —
    /// the day partition (α), cost kind and regime schema are checked,
    /// because a changed partition would silently re-key every interval.
    /// Global keys are re-derived against the full store; a non-global key
    /// against the contributing subsequence of the store (trajectories whose
    /// fallback ladder passes through the key's table) and patched into that
    /// regime's own table, from which the effective views are
    /// re-materialized. Under those conditions the result is
    /// **bit-identical** to [`PathWeightFunction::instantiate`] over
    /// `current`:
    ///
    /// * a dirty key's qualified rows in the current store are exactly the
    ///   rows the full rebuild's collection pass would visit, in the same
    ///   (trajectory, position) order, so re-fitting reproduces the rebuild's
    ///   histogram exactly;
    /// * a non-dirty key's qualified occurrence set is untouched by the
    ///   mutation, so its existing histogram already equals what the rebuild
    ///   would fit;
    /// * variable order, lookup indices and statistics are reassembled in
    ///   sorted key order — spliced incrementally through the internal
    ///   `assemble_patched` merge pass, which is asserted bit-identical to
    ///   the full sorted re-index.
    ///
    /// Count transitions go both ways: a key crossing β upward is *added*, a
    /// previously instantiated key whose support drops below β (its
    /// trajectories aged out) is **deleted** and reported in
    /// [`WeightUpdate::removed`]. Holdout exclusions are an
    /// evaluation-protocol feature and are not supported here.
    pub fn rederive_regimes(
        &self,
        net: &RoadNetwork,
        current: &TrajectoryStore,
        cfg: &HybridConfig,
        dirty: &BTreeSet<RegimeVariableKey>,
    ) -> Result<WeightUpdate, CoreError> {
        self.rederive_on(net, current, cfg, dirty, None)
    }

    /// [`Self::rederive_regimes`] with the fit fan-out's worker count fixed
    /// (`None`: sized from the machine and the number of dirty keys).
    fn rederive_on(
        &self,
        net: &RoadNetwork,
        current: &TrajectoryStore,
        cfg: &HybridConfig,
        dirty: &BTreeSet<RegimeVariableKey>,
        workers: Option<usize>,
    ) -> Result<WeightUpdate, CoreError> {
        cfg.validate()?;
        let partition = DayPartition::new(cfg.alpha_minutes)?;
        if partition != self.partition || cfg.cost_kind != self.cost_kind {
            return Err(CoreError::InvalidConfig(
                "live updates must keep the day partition (α) and cost kind of the original instantiation",
            ));
        }
        if cfg.regimes != self.schema {
            return Err(CoreError::InvalidConfig(
                "live updates must keep the regime schema of the original instantiation",
            ));
        }

        // Re-fit every dirty key that still clears β in its table (`None`
        // for the ones that do not) — independent per key, so fanned out.
        let keys: Vec<&RegimeVariableKey> = dirty.iter().collect();
        let refits = fan_out(&keys, workers, |&(edges, interval, regime), scratch| {
            let path = Path::from_edges_unchecked(edges.clone());
            // The key's qualified occurrences in its table's contributing
            // subsequence of the current store, in the same (trajectory,
            // position) order the full rebuild collects rows in.
            let occurrences: Vec<_> = current
                .occurrences_on_contributing(&path, &self.schema, *regime)
                .into_iter()
                .filter(|o| partition.interval_of(o.entry_time.time_of_day()) == *interval)
                .collect();
            if occurrences.len() < cfg.beta {
                return Ok(None);
            }
            let rows: Vec<Vec<f64>> = occurrences
                .iter()
                .filter_map(|o| {
                    let m = current.get(o.traj_index).expect("occurrence is in store");
                    per_edge_costs(m, net, &path, o.offset, cfg.cost_kind)
                })
                .collect();
            if rows.len() < cfg.beta {
                return Ok(None);
            }
            fit_variable(path, *interval, &rows, cfg, scratch).map(Some)
        })?;

        let mut delta: BTreeMap<VariableKey, Option<InstantiatedVariable>> = BTreeMap::new();
        let mut regime_delta: BTreeMap<
            RegimeId,
            BTreeMap<VariableKey, Option<InstantiatedVariable>>,
        > = BTreeMap::new();
        let mut updated = Vec::new();
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for ((edges, interval, regime), refit) in keys.into_iter().zip(refits) {
            let key: VariableKey = (edges.clone(), *interval);
            let existing = if regime.is_global() {
                self.index.contains_key(&key)
            } else {
                self.regime_table_get(*regime, edges, *interval).is_some()
            };
            // A key that lost its β support in this table is one the full
            // rebuild would not instantiate there — delete it; one that never
            // had it is left alone.
            if refit.is_none() && !existing {
                continue;
            }
            let changed = match (&refit, existing) {
                (Some(_), true) => &mut updated,
                (Some(_), false) => &mut added,
                (None, _) => &mut removed,
            };
            changed.push((
                Path::from_edges_unchecked(edges.clone()),
                *interval,
                *regime,
            ));
            if regime.is_global() {
                delta.insert(key, refit);
            } else {
                regime_delta.entry(*regime).or_default().insert(key, refit);
            }
        }

        // Patch the regime own tables; an emptied table is dropped so the
        // result matches what full instantiation (which never inserts empty
        // tables) would build.
        let mut regime_own = self.regime_own.clone();
        for (regime, patches) in regime_delta {
            let mut by_key: BTreeMap<VariableKey, InstantiatedVariable> = regime_own
                .remove(&regime)
                .unwrap_or_default()
                .into_iter()
                .map(|v| ((v.path.edges().to_vec(), v.interval), v))
                .collect();
            for (key, patch) in patches {
                match patch {
                    Some(var) => {
                        by_key.insert(key, var);
                    }
                    None => {
                        by_key.remove(&key);
                    }
                }
            }
            if !by_key.is_empty() {
                regime_own.insert(regime, by_key.into_values().collect());
            }
        }

        let weights = self.assemble_patched(delta, regime_own, current);
        Ok(WeightUpdate {
            epoch: 0,
            trajectories: 0,
            trajectories_retired: 0,
            dirty_keys: dirty.len(),
            weights: Arc::new(weights),
            updated,
            added,
            removed,
        })
    }

    /// Restores a weight function from previously captured parts — the
    /// deserialization counterpart of [`Self::variables`] +
    /// [`Self::fallback_units`] + [`Self::regime_tables`]. `variables` and
    /// every regime own table must be in strictly increasing
    /// `(path edges, interval)` key order (the order [`Self::variables`]
    /// exposes); the lookup and first-edge indices, the summary statistics
    /// and the effective regime views are re-derived exactly as every other
    /// constructor derives them, so a restored function is bit-identical to
    /// the one that was captured (given the same `store`). A function without
    /// regimes restores with [`RegimeSchema::flat`] and no own tables.
    pub fn from_parts_with_regimes(
        partition: DayPartition,
        cost_kind: CostKind,
        variables: Vec<InstantiatedVariable>,
        fallback_units: HashMap<EdgeId, Histogram1D>,
        store: &TrajectoryStore,
        schema: RegimeSchema,
        regime_own: BTreeMap<RegimeId, Vec<InstantiatedVariable>>,
    ) -> Result<Self, CoreError> {
        for table in std::iter::once(&variables).chain(regime_own.values()) {
            for w in table.windows(2) {
                let a = (w[0].path.edges(), w[0].interval);
                let b = (w[1].path.edges(), w[1].interval);
                if a >= b {
                    return Err(CoreError::InvalidConfig(
                        "restored variables must be in strictly increasing (path, interval) order",
                    ));
                }
            }
        }
        if regime_own.contains_key(&RegimeId::ALL_TRAFFIC) {
            return Err(CoreError::InvalidConfig(
                "the global table is not a regime own table",
            ));
        }
        Ok(
            Self::finish(partition, cost_kind, variables, fallback_units, store)
                .with_regime_tables(schema, regime_own, store),
        )
    }

    /// Exact lookup in a regime's *own* table (not the effective view).
    fn regime_table_get(
        &self,
        regime: RegimeId,
        edges: &[EdgeId],
        interval: IntervalId,
    ) -> Option<&InstantiatedVariable> {
        let vars = self.regime_own.get(&regime)?;
        vars.binary_search_by(|v| (v.path.edges(), v.interval).cmp(&(edges, interval)))
            .ok()
            .map(|i| &vars[i])
    }

    /// The regime fallback-ladder schema this function was built under.
    pub fn regime_schema(&self) -> &RegimeSchema {
        &self.schema
    }

    /// The per-regime own variable tables, sorted by key — the persistence
    /// counterpart of [`Self::variables`] for the regime dimension.
    pub fn regime_tables(&self) -> &BTreeMap<RegimeId, Vec<InstantiatedVariable>> {
        &self.regime_own
    }

    /// The regimes with a materialized effective view, in ascending order.
    pub fn regimes(&self) -> impl Iterator<Item = RegimeId> + '_ {
        self.regime_views.keys().copied()
    }

    /// The effective weight function for `regime`: every key resolved to
    /// the nearest fallback-ladder table that clears β. Returns `None` for
    /// the global regime and for regimes without any materialized view —
    /// callers then evaluate against `self` (the global function), which is
    /// the deepest rung of every ladder.
    pub fn for_regime(&self, regime: RegimeId) -> Option<&Arc<PathWeightFunction>> {
        if regime.is_global() {
            return None;
        }
        self.regime_views.get(&regime)
    }

    /// The fallback-ladder depth the variable at `index` was resolved at —
    /// 0 on the global function and for own-regime hits on a view.
    pub fn variable_depth(&self, index: usize) -> usize {
        self.variable_depths.get(index).copied().unwrap_or(0)
    }

    /// The source regime table of the variable at `index` —
    /// [`RegimeId::ALL_TRAFFIC`] on the global function and for
    /// global-fallback hits on a view.
    pub fn variable_regime(&self, index: usize) -> RegimeId {
        self.variable_regimes
            .get(index)
            .copied()
            .unwrap_or(RegimeId::ALL_TRAFFIC)
    }

    /// The `(fallback depth, source regime)` a key resolves to on this
    /// view, when the key is instantiated.
    pub fn resolution_of(&self, path: &Path, interval: IntervalId) -> Option<(usize, RegimeId)> {
        self.index
            .get(&(path.edges().to_vec(), interval))
            .map(|&i| (self.variable_depth(i), self.variable_regime(i)))
    }

    /// The speed-limit-derived fallback unit distribution of every edge.
    pub fn fallback_units(&self) -> &HashMap<EdgeId, Histogram1D> {
        &self.fallback_units
    }

    /// The day partition (α) this weight function was built with.
    pub fn partition(&self) -> &DayPartition {
        &self.partition
    }

    /// Which cost the weight function describes.
    pub fn cost_kind(&self) -> CostKind {
        self.cost_kind
    }

    /// All trajectory-derived instantiated variables.
    pub fn variables(&self) -> &[InstantiatedVariable] {
        &self.variables
    }

    /// The variable at `index`.
    pub fn variable(&self, index: usize) -> &InstantiatedVariable {
        &self.variables[index]
    }

    /// Exact lookup `W_P(P, I_j)`: the trajectory-derived variable for this
    /// path and interval, if one was instantiated.
    pub fn get(&self, path: &Path, interval: IntervalId) -> Option<&InstantiatedVariable> {
        self.index
            .get(&(path.edges().to_vec(), interval))
            .map(|&i| &self.variables[i])
    }

    /// Indices of all variables whose path starts with `edge`.
    pub fn variables_starting_with(&self, edge: EdgeId) -> &[usize] {
        self.by_first_edge
            .get(&edge)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The unit-path cost distribution of `edge` during `interval`: the
    /// trajectory-derived one when it exists, otherwise the speed-limit
    /// fallback. Every edge of the network always has a unit distribution.
    pub fn unit_histogram(&self, edge: EdgeId, interval: IntervalId) -> Option<Histogram1D> {
        if let Some(var) = self.get(&Path::unit(edge), interval) {
            return var.histogram.marginal_1d(0).ok();
        }
        self.fallback_units.get(&edge).cloned()
    }

    /// `true` when the unit distribution for this edge and interval comes from
    /// trajectories rather than the speed-limit fallback.
    pub fn unit_is_trajectory_derived(&self, edge: EdgeId, interval: IntervalId) -> bool {
        self.get(&Path::unit(edge), interval).is_some()
    }

    /// Summary statistics of the instantiation.
    pub fn stats(&self) -> &WeightStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_traj::DatasetPreset;

    fn build() -> (RoadNetwork, TrajectoryStore, PathWeightFunction) {
        let (net, store) = DatasetPreset::tiny(21).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let wp = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        (net, store, wp)
    }

    #[test]
    fn instantiates_variables_of_multiple_ranks() {
        let (_, _, wp) = build();
        let stats = wp.stats();
        assert!(stats.total_variables() > 0, "no variables instantiated");
        assert!(
            stats.count_by_rank.contains_key(&1),
            "expected unit-path variables: {:?}",
            stats.count_by_rank
        );
        assert!(
            stats.count_by_rank.keys().any(|&r| r >= 2),
            "expected at least one non-unit variable: {:?}",
            stats.count_by_rank
        );
    }

    #[test]
    fn every_variable_satisfies_beta() {
        let (_, _, wp) = build();
        for v in wp.variables() {
            match v.source {
                VariableSource::Trajectories { count } => assert!(count >= 10),
                VariableSource::SpeedLimit => {
                    panic!("store-built variables must be trajectory-derived")
                }
            }
            assert_eq!(v.histogram.dims(), v.rank());
        }
    }

    #[test]
    fn exact_lookup_and_first_edge_index_agree() {
        let (_, _, wp) = build();
        for (i, v) in wp.variables().iter().enumerate() {
            let found = wp.get(&v.path, v.interval).expect("indexed variable");
            assert_eq!(found.path, v.path);
            assert!(wp.variables_starting_with(v.path.first_edge()).contains(&i));
        }
    }

    #[test]
    fn unit_histogram_falls_back_to_speed_limit() {
        let (net, _, wp) = build();
        // Every edge must have a unit histogram for every interval.
        let interval = IntervalId(3); // 01:30–02:00, almost certainly no data
        for edge in net.edges().iter().take(20) {
            let h = wp
                .unit_histogram(edge.id, interval)
                .expect("fallback exists");
            assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let t_ff = edge.free_flow_time_s();
            assert!(
                h.min() <= t_ff && h.max() >= t_ff,
                "fallback should straddle free-flow time"
            );
        }
    }

    #[test]
    fn stats_are_consistent() {
        let (net, store, wp) = build();
        let stats = wp.stats();
        assert!(stats.covered_edges <= stats.edges_with_records);
        assert!(stats.edges_with_records <= net.edge_count());
        assert!(stats.coverage() > 0.0 && stats.coverage() <= 1.0);
        assert!(stats.memory_bytes > 0);
        assert_eq!(stats.edges_with_records, store.covered_edges().len());
    }

    #[test]
    fn smaller_beta_instantiates_more_variables() {
        let (net, store) = DatasetPreset::tiny(22).materialise().unwrap();
        let strict =
            PathWeightFunction::instantiate(&net, &store, &HybridConfig::default().with_beta(40))
                .unwrap();
        let lenient =
            PathWeightFunction::instantiate(&net, &store, &HybridConfig::default().with_beta(8))
                .unwrap();
        assert!(
            lenient.stats().total_variables() >= strict.stats().total_variables(),
            "lenient β must not produce fewer variables"
        );
    }

    #[test]
    fn larger_alpha_does_not_reduce_variable_count() {
        let (net, store) = DatasetPreset::tiny(23).materialise().unwrap();
        let fine = PathWeightFunction::instantiate(
            &net,
            &store,
            &HybridConfig::default().with_beta(10).with_alpha(15),
        )
        .unwrap();
        let coarse = PathWeightFunction::instantiate(
            &net,
            &store,
            &HybridConfig::default().with_beta(10).with_alpha(120),
        )
        .unwrap();
        assert!(coarse.stats().total_variables() >= fine.stats().total_variables());
    }

    #[test]
    fn rejects_invalid_config() {
        let (net, store) = DatasetPreset::tiny(24).materialise().unwrap();
        assert!(PathWeightFunction::instantiate(
            &net,
            &store,
            &HybridConfig::default().with_beta(0)
        )
        .is_err());
    }

    #[test]
    fn rederive_is_bit_identical_to_full_reinstantiation() {
        let (net, store) = DatasetPreset::tiny(25).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let split = store.len() * 7 / 10;
        let mut base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let batch = store.matched()[split..].to_vec();
        assert!(!batch.is_empty());
        let wp = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
        let partition = DayPartition::new(cfg.alpha_minutes).unwrap();
        let dirty = dirty_keys_by_regime(&batch, &partition, cfg.max_rank, &cfg.regimes);

        base.append(batch);
        let update = wp.rederive_regimes(&net, &base, &cfg, &dirty).unwrap();
        let full = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
        // The strongest possible check: every variable (path, interval,
        // histogram buckets, source count) and the summary statistics are
        // exactly equal to the from-scratch rebuild.
        assert_eq!(update.weights.variables(), full.variables());
        assert_eq!(update.weights.stats(), full.stats());
        assert!(
            update.changed() > 0,
            "a 30% append on the tiny preset must change some variable"
        );
        // Changed keys are disjoint and consistent with the previous epoch.
        for (path, interval, regime) in &update.updated {
            assert!(regime.is_global(), "untagged store ⇒ global-table changes");
            assert!(wp.get(path, *interval).is_some(), "updated ⇒ pre-existing");
        }
        for (path, interval, _) in &update.added {
            assert!(wp.get(path, *interval).is_none(), "added ⇒ new");
            assert!(update.weights.get(path, *interval).is_some());
        }
    }

    /// Asserts every derived structure of `patched` — variables, summary
    /// stats, the exact-lookup index and the first-edge index — is
    /// bit-identical to `full` (the from-scratch sorted re-index), probing
    /// through the public API.
    fn assert_reindex_identical(patched: &PathWeightFunction, full: &PathWeightFunction) {
        assert_eq!(patched.variables(), full.variables());
        assert_eq!(patched.stats(), full.stats());
        for (i, v) in full.variables().iter().enumerate() {
            let found = patched.get(&v.path, v.interval).expect("indexed variable");
            assert_eq!(found, v, "lookup index diverged at {i}");
            assert_eq!(
                patched.variables_starting_with(v.path.first_edge()),
                full.variables_starting_with(v.path.first_edge()),
                "first-edge index diverged for {:?}",
                v.path.first_edge()
            );
        }
    }

    #[test]
    fn rederive_handles_downward_transitions_bit_identically() {
        let (net, store) = DatasetPreset::tiny(28).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let wp = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        assert!(wp.stats().total_variables() > 0);

        // Retire the oldest 60% of trajectories: plenty of keys drop below β.
        let cutoff = store.start_time_at_percentile(60).unwrap();
        let mut truncated = store;
        let removed_trajs = truncated.retire_before(cutoff);
        assert!(!removed_trajs.is_empty());

        let partition = DayPartition::new(cfg.alpha_minutes).unwrap();
        let dirty = dirty_keys_by_regime(&removed_trajs, &partition, cfg.max_rank, &cfg.regimes);
        let update = wp.rederive_regimes(&net, &truncated, &cfg, &dirty).unwrap();
        let full = PathWeightFunction::instantiate(&net, &truncated, &cfg).unwrap();
        assert_reindex_identical(&update.weights, &full);
        assert!(
            !update.removed.is_empty(),
            "a 60% retirement on the tiny preset must delete some variable"
        );
        // Removed keys existed before, are gone now; the rebuild agrees.
        for (path, interval, _) in &update.removed {
            assert!(wp.get(path, *interval).is_some(), "removed ⇒ pre-existing");
            assert!(update.weights.get(path, *interval).is_none());
            assert!(full.get(path, *interval).is_none());
        }
        // Updated keys survive with re-fitted histograms.
        for (path, interval, _) in &update.updated {
            assert!(update.weights.get(path, *interval).is_some());
        }
    }

    #[test]
    fn rederive_retire_then_append_interleaving_matches_rebuild() {
        let (net, store) = DatasetPreset::tiny(29).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let partition = DayPartition::new(cfg.alpha_minutes).unwrap();
        let split = store.len() * 8 / 10;
        let mut live = TrajectoryStore::new(store.matched()[..split].to_vec());
        let batch = store.matched()[split..].to_vec();
        let mut wp = PathWeightFunction::instantiate(&net, &live, &cfg).unwrap();

        // Epoch 1: retire the oldest quarter.
        let cutoff = live.start_time_at_percentile(25).unwrap();
        let removed_trajs = live.retire_before(cutoff);
        let dirty = dirty_keys_by_regime(&removed_trajs, &partition, cfg.max_rank, &cfg.regimes);
        let update = wp.rederive_regimes(&net, &live, &cfg, &dirty).unwrap();
        assert_reindex_identical(
            &update.weights,
            &PathWeightFunction::instantiate(&net, &live, &cfg).unwrap(),
        );
        wp = (*update.weights).clone();

        // Epoch 2: append the held-out batch on top of the truncated store.
        let dirty = dirty_keys_by_regime(&batch, &partition, cfg.max_rank, &cfg.regimes);
        live.append(batch);
        let update = wp.rederive_regimes(&net, &live, &cfg, &dirty).unwrap();
        assert_reindex_identical(
            &update.weights,
            &PathWeightFunction::instantiate(&net, &live, &cfg).unwrap(),
        );
    }

    #[test]
    fn rederive_with_no_dirty_keys_is_a_no_op_epoch() {
        let (net, store) = DatasetPreset::tiny(26).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let wp = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        let update = wp
            .rederive_regimes(&net, &store, &cfg, &BTreeSet::new())
            .unwrap();
        assert_eq!(update.changed(), 0);
        assert_eq!(update.weights.variables(), wp.variables());
        assert_eq!(update.weights.stats(), wp.stats());
    }

    #[test]
    fn untagged_store_keeps_regime_machinery_inert() {
        let (_, _, wp) = build();
        assert_eq!(wp.regimes().count(), 0);
        assert!(wp.regime_tables().is_empty());
        assert!(wp.for_regime(RegimeId(7)).is_none());
        assert_eq!(wp.variable_depth(0), 0);
        assert_eq!(wp.variable_regime(0), RegimeId::ALL_TRAFFIC);
        // A non-empty schema over an untagged store changes nothing: the
        // global table is bit-identical and no views are materialized.
        let (net, store) = DatasetPreset::tiny(21).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        }
        .with_regimes(RegimeSchema::flat().with_group(RegimeId(1), RegimeId(3)));
        let wp2 = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        assert_eq!(wp2.variables(), wp.variables());
        assert_eq!(wp2.stats(), wp.stats());
        assert_eq!(wp2.regimes().count(), 0);
    }

    #[test]
    fn dirty_keys_by_regime_matches_global_enumeration_for_untagged_batches() {
        let (_, store) = DatasetPreset::tiny(21).materialise().unwrap();
        let partition = DayPartition::new(30).unwrap();
        let batch = store.matched()[..10].to_vec();
        let mut flat = BTreeSet::new();
        for m in &batch {
            let edges = m.path.edges();
            for k in 1..=6.min(edges.len()) {
                for start in 0..=edges.len() - k {
                    let interval = partition.interval_of(m.entry_times[start].time_of_day());
                    flat.insert((edges[start..start + k].to_vec(), interval));
                }
            }
        }
        let tagged = dirty_keys_by_regime(&batch, &partition, 6, &RegimeSchema::flat());
        assert_eq!(tagged.len(), flat.len());
        for (edges, interval) in &flat {
            assert!(tagged.contains(&(edges.clone(), *interval, RegimeId::ALL_TRAFFIC)));
        }
    }

    /// Tags the tiny-preset store: the first `sparse` trajectories get
    /// regime 2, the rest regime 1.
    fn tag_store(store: &TrajectoryStore, sparse: usize) -> TrajectoryStore {
        let tagged: Vec<MatchedTrajectory> = store
            .matched()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let r = if i < sparse { RegimeId(2) } else { RegimeId(1) };
                m.clone().with_regime(r)
            })
            .collect();
        TrajectoryStore::new(tagged)
    }

    #[test]
    fn sparse_regime_views_fall_back_to_the_global_table() {
        let (net, untagged) = DatasetPreset::tiny(21).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let plain = PathWeightFunction::instantiate(&net, &untagged, &cfg).unwrap();
        // Regime 2 holds 5 trajectories — far below β, so its own table is
        // empty and its whole view answers from the global rung.
        let store = tag_store(&untagged, 5);
        let wp = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();

        // The global table still sees every trajectory: bit-identical to
        // the untagged instantiation.
        assert_eq!(wp.variables(), plain.variables());
        assert_eq!(wp.stats(), plain.stats());

        let sparse = wp.for_regime(RegimeId(2)).expect("regime 2 is present");
        assert_eq!(sparse.variables(), wp.variables());
        for (i, v) in sparse.variables().iter().enumerate() {
            assert_eq!(sparse.variable_depth(i), 1, "empty own table ⇒ depth 1");
            assert_eq!(sparse.variable_regime(i), RegimeId::ALL_TRAFFIC);
            assert_eq!(
                sparse.resolution_of(&v.path, v.interval),
                Some((1, RegimeId::ALL_TRAFFIC))
            );
        }

        // Regime 1 holds nearly all data: same key set as the global table
        // (a regime count clearing β implies the global count does), with
        // own-table hits at depth 0 and sparse keys answered from depth 1.
        let dense = wp.for_regime(RegimeId(1)).expect("regime 1 is present");
        assert_eq!(dense.variables().len(), wp.variables().len());
        let mut own_hits = 0;
        for (i, v) in dense.variables().iter().enumerate() {
            let global = wp.get(&v.path, v.interval).expect("view key ⊆ global keys");
            match dense.variable_depth(i) {
                0 => {
                    assert_eq!(dense.variable_regime(i), RegimeId(1));
                    own_hits += 1;
                }
                1 => {
                    assert_eq!(dense.variable_regime(i), RegimeId::ALL_TRAFFIC);
                    assert_eq!(v, global);
                }
                d => panic!("flat schema has no depth {d}"),
            }
        }
        assert!(own_hits > 0, "regime 1 holds almost all data, must clear β");

        // A regime with no data and no schema entry has no view.
        assert!(wp.for_regime(RegimeId(9)).is_none());
    }

    /// Asserts the global table, every regime own table and every
    /// materialized view of `a` are bit-identical to `b`'s.
    fn assert_regime_identical(a: &PathWeightFunction, b: &PathWeightFunction) {
        assert_eq!(a.variables(), b.variables());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.regime_tables(), b.regime_tables());
        let regimes: Vec<RegimeId> = a.regimes().collect();
        assert_eq!(regimes, b.regimes().collect::<Vec<_>>());
        for r in regimes {
            let va = a.for_regime(r).expect("listed regime has a view");
            let vb = b.for_regime(r).expect("listed regime has a view");
            assert_eq!(va.variables(), vb.variables());
            assert_eq!(va.stats(), vb.stats());
            for i in 0..va.variables().len() {
                assert_eq!(va.variable_depth(i), vb.variable_depth(i));
                assert_eq!(va.variable_regime(i), vb.variable_regime(i));
            }
        }
    }

    fn grouped_schema() -> RegimeSchema {
        RegimeSchema::flat()
            .with_group(RegimeId(1), RegimeId(3))
            .with_group(RegimeId(2), RegimeId(3))
    }

    #[test]
    fn rederive_regimes_is_bit_identical_to_full_reinstantiation() {
        let (net, untagged) = DatasetPreset::tiny(31).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        }
        .with_regimes(grouped_schema());
        let store = tag_store(&untagged, untagged.len() / 2);
        let split = store.len() * 7 / 10;
        let mut base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let batch = store.matched()[split..].to_vec();
        let wp = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
        let partition = DayPartition::new(cfg.alpha_minutes).unwrap();
        let dirty = dirty_keys_by_regime(&batch, &partition, cfg.max_rank, &cfg.regimes);

        base.append(batch);
        let update = wp.rederive_regimes(&net, &base, &cfg, &dirty).unwrap();
        let full = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
        assert_regime_identical(&update.weights, &full);
        // The group table is fed by every trajectory (both regimes ladder
        // through it), so it mirrors the global table exactly.
        assert_eq!(
            update.weights.regime_tables()[&RegimeId(3)],
            update.weights.variables()
        );
        assert!(
            update
                .updated
                .iter()
                .chain(&update.added)
                .any(|(_, _, r)| !r.is_global()),
            "a tagged append must change some regime table"
        );
    }

    #[test]
    fn rederive_regimes_handles_downward_transitions() {
        let (net, untagged) = DatasetPreset::tiny(32).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        }
        .with_regimes(grouped_schema());
        let store = tag_store(&untagged, untagged.len() / 2);
        let wp = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();

        let cutoff = store.start_time_at_percentile(60).unwrap();
        let mut truncated = store;
        let removed_trajs = truncated.retire_before(cutoff);
        assert!(!removed_trajs.is_empty());

        let partition = DayPartition::new(cfg.alpha_minutes).unwrap();
        let dirty = dirty_keys_by_regime(&removed_trajs, &partition, cfg.max_rank, &cfg.regimes);
        let update = wp.rederive_regimes(&net, &truncated, &cfg, &dirty).unwrap();
        let full = PathWeightFunction::instantiate(&net, &truncated, &cfg).unwrap();
        assert_regime_identical(&update.weights, &full);
        assert!(
            update.removed.iter().any(|(_, _, r)| !r.is_global()),
            "a 60% retirement must delete some regime-table variable"
        );
    }

    /// FNV-1a over every bit the fit produces: keys, source counts, axis
    /// bounds and cell masses of the global table and every regime own table.
    fn digest(wp: &PathWeightFunction) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let tables = std::iter::once((RegimeId::ALL_TRAFFIC, wp.variables())).chain(
            wp.regime_tables()
                .iter()
                .map(|(regime, vars)| (*regime, vars.as_slice())),
        );
        for (regime, vars) in tables {
            eat(u64::from(regime.0));
            eat(vars.len() as u64);
            for v in vars {
                eat(v.path.cardinality() as u64);
                v.path.edges().iter().for_each(|e| eat(u64::from(e.0)));
                eat(u64::from(v.interval.0));
                match v.source {
                    VariableSource::Trajectories { count } => eat(count as u64),
                    VariableSource::SpeedLimit => eat(u64::MAX),
                }
                for axis in v.histogram.axes() {
                    eat(axis.len() as u64);
                    for b in axis {
                        eat(b.lo.to_bits());
                        eat(b.hi.to_bits());
                    }
                }
                eat(v.histogram.cell_count() as u64);
                for (key, p) in v.histogram.cells() {
                    key.iter().for_each(|&i| eat(u64::from(i)));
                    eat(p.to_bits());
                }
            }
        }
        h
    }

    /// Digests captured at the parent of PR 12 (the straight-line fit kernel,
    /// serial instantiation): the rebuilt kernel and the parallel fan-out
    /// must reproduce every fitted bit.
    #[test]
    fn instantiate_matches_the_pre_pr12_golden_digest() {
        let beta10 = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let (_, _, wp) = build();
        assert_eq!(wp.variables().len(), 58);
        assert_eq!(digest(&wp), 0x1a83_5671_c5ee_b18e, "untagged tiny(21)");

        // Four times the trips: more variables, more rows per column.
        let mut dense = DatasetPreset::tiny(51);
        dense.simulation.trips = 600;
        let (net, store) = dense.materialise().unwrap();
        let wp = PathWeightFunction::instantiate(&net, &store, &beta10).unwrap();
        assert_eq!(wp.variables().len(), 576);
        assert_eq!(digest(&wp), 0xd641_08e1_6619_642d, "600-trip tiny(51)");

        let (net, untagged) = DatasetPreset::tiny(31).materialise().unwrap();
        let store = tag_store(&untagged, untagged.len() / 2);
        let cfg = beta10.with_regimes(grouped_schema());
        let wp = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        assert_eq!(wp.regime_tables().len(), 3);
        assert_eq!(digest(&wp), 0x7e55_f35e_ec4a_c7a5, "tagged tiny(31)");
    }

    #[test]
    fn fit_fan_out_is_independent_of_the_worker_count() {
        let (net, untagged) = DatasetPreset::tiny(31).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        }
        .with_regimes(grouped_schema());
        let store = tag_store(&untagged, untagged.len() / 2);
        let split = store.len() * 7 / 10;
        let mut base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let batch = store.matched()[split..].to_vec();
        let partition = DayPartition::new(cfg.alpha_minutes).unwrap();
        let dirty = dirty_keys_by_regime(&batch, &partition, cfg.max_rank, &cfg.regimes);

        let serial = PathWeightFunction::instantiate_on(&net, &base, &cfg, &[], Some(1)).unwrap();
        assert!(serial.variables().len() > 7, "more keys than workers");
        for workers in [2, 7] {
            let fanned =
                PathWeightFunction::instantiate_on(&net, &base, &cfg, &[], Some(workers)).unwrap();
            assert_regime_identical(&fanned, &serial);
        }

        base.append(batch);
        let refit = serial
            .rederive_on(&net, &base, &cfg, &dirty, Some(1))
            .unwrap();
        assert!(refit.changed() > 7, "more changed keys than workers");
        for workers in [2, 7] {
            let fanned = serial
                .rederive_on(&net, &base, &cfg, &dirty, Some(workers))
                .unwrap();
            assert_regime_identical(&fanned.weights, &refit.weights);
            assert_eq!(fanned.updated, refit.updated);
            assert_eq!(fanned.added, refit.added);
            assert_eq!(fanned.removed, refit.removed);
        }
        // And the machine-sized fan-out is one of them.
        let auto = serial.rederive_regimes(&net, &base, &cfg, &dirty).unwrap();
        assert_regime_identical(&auto.weights, &refit.weights);
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

    #[test]
    fn rederive_regimes_rejects_a_changed_schema() {
        let (net, untagged) = DatasetPreset::tiny(33).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let wp = PathWeightFunction::instantiate(&net, &untagged, &cfg).unwrap();
        let recut = cfg.with_regimes(grouped_schema());
        assert!(wp
            .rederive_regimes(&net, &untagged, &recut, &BTreeSet::new())
            .is_err());
    }

    #[test]
    fn rederive_rejects_a_changed_partition() {
        let (net, store) = DatasetPreset::tiny(27).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let wp = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        let recut = HybridConfig {
            alpha_minutes: cfg.alpha_minutes * 2,
            ..cfg
        };
        assert!(wp
            .rederive_regimes(&net, &store, &recut, &BTreeSet::new())
            .is_err());
    }
}
