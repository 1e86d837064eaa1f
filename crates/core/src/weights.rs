//! The path weight function `W_P`, instantiated from trajectories (§3).
//!
//! The weight function maps a path and a time interval to an instantiated
//! random variable — the joint distribution of the path's per-edge costs. It
//! is a map of **tables**, one per rung of the regime fallback ladders that
//! the data reaches; the all-traffic table, fed by every trajectory, is the
//! last rung of every ladder and one key of the map like the others. Every
//! table is fitted by the same procedure (`weights/fit.rs`) over the
//! trajectories that contribute to it, patched by the same sorted merge when
//! a live update re-derives some of its keys
//! ([`PathWeightFunction::rederive_regimes`]), and restored from the tables
//! alone ([`PathWeightFunction::from_parts`]): everything else a function
//! holds is derived from the network, the configuration and the store.
//!
//! What a query reads is a [`WeightView`]: the tables of its regime's ladder
//! layered nearest-first. The tables and the views share their variables
//! behind [`Arc`]s, so a view costs its indices and a new epoch copies only
//! the variables it re-fitted.
//!
//! Unit paths that never reach `β` qualified trajectories fall back to the
//! edge's speed-limit unit variable, so every edge always has *some* unit
//! weight. The fallbacks are a pure function of the network and
//! `speed_limit_spread`: one table indexed by edge id, built by the
//! constructors that start from scratch (instantiation, restore — never
//! persisted) and shared by every view of every epoch re-derived from it.

mod fit;
mod view;

pub use view::WeightView;

use crate::config::HybridConfig;
use crate::error::CoreError;
use crate::interval::{DayPartition, IntervalId};
use crate::variable::InstantiatedVariable;
use fit::{fan_out, fit_table, fit_variable};
use pathcost_hist::Histogram1D;
use pathcost_roadnet::{EdgeId, Path, RoadNetwork};
use pathcost_traj::costs::per_edge_costs;
use pathcost_traj::MatchedTrajectory;
use pathcost_traj::{CostKind, RegimeId, RegimeSchema, TrajectoryStore};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The variable keys whose qualified occurrence sets a batch of *appended or
/// removed* trajectories changes: each `(edges[start..start + k], interval)`
/// window for `k = 1..=max_rank` — every window instantiation counts against
/// β, not only the ones its level-wise count visits (the batch can lift a
/// prefix over β or drop it below) — once per rung of the trajectory's
/// fallback ladder, because a
/// regime-`Q` traversal contributes occurrences to `Q`'s own table, every
/// ancestor group table and the all-traffic table (an untagged trajectory's
/// ladder is the all-traffic table alone). Everything outside this set is
/// provably untouched by the append (or retirement), which is what makes
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

/// One table of the weight function: its variables in strictly increasing
/// `(path edges, interval)` key order, shared with every view that layers it.
pub type Table = Vec<Arc<InstantiatedVariable>>;

/// The key a table is sorted by.
fn key_of(var: &InstantiatedVariable) -> (&[EdgeId], IntervalId) {
    (var.path.edges(), var.interval)
}

/// The instantiated path weight function `W_P`.
///
/// `tables` holds one table per fallback-ladder rung with at least one key
/// clearing β: the all-traffic table under [`RegimeId::ALL_TRAFFIC`], and a
/// regime's (or regime group's) *own* table under its id, fed only by the
/// trajectories whose ladder passes through it. Estimation reads a
/// [`WeightView`] — [`Self::view`] is total: a regime whose ladder crosses no
/// own table (an untagged deployment, an undeclared regime) reads the root's
/// view.
#[derive(Debug, Clone)]
pub struct PathWeightFunction {
    partition: DayPartition,
    cost_kind: CostKind,
    /// The regime fallback-ladder schema the function was instantiated under.
    schema: RegimeSchema,
    /// The speed-limit fallback of every edge, indexed by edge id.
    fallback_units: Arc<Table>,
    tables: BTreeMap<RegimeId, Table>,
    /// The view of the ladder `[ALL_TRAFFIC]`.
    root: Arc<WeightView>,
    /// The view of every regime whose ladder crosses an own table.
    views: BTreeMap<RegimeId, Arc<WeightView>>,
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
/// for the table every trajectory contributes to, another id for a regime's
/// own table (fed only by trajectories whose fallback ladder passes through
/// it).
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
    /// [`RegimeId`] names the *table* the change landed in, so the serving
    /// layer can evict only readers that resolved the key from that table.
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

/// Patches a key-sorted `delta` into a sorted table in one merge pass:
/// `Some` entries replace (or insert) their key, `None` entries delete it.
/// The result is exactly the table a rebuild from the merged key set would
/// sort into.
fn patch_table<'k>(
    table: &[Arc<InstantiatedVariable>],
    delta: impl IntoIterator<
        Item = (
            (&'k [EdgeId], IntervalId),
            Option<Arc<InstantiatedVariable>>,
        ),
    >,
) -> Table {
    let mut patched = Vec::with_capacity(table.len());
    let mut kept = table.iter().peekable();
    for (key, patch) in delta {
        while let Some(var) = kept.next_if(|var| key_of(var) < key) {
            patched.push(var.clone());
        }
        kept.next_if(|var| key_of(var) == key);
        patched.extend(patch);
    }
    patched.extend(kept.cloned());
    patched
}

/// The speed-limit fallback of every edge of `net`, indexed by edge id: a
/// uniform distribution over `[t_ff·(1 − s), t_ff·(1 + 3s)]`, at least half
/// a second wide, for the edge's free-flow time `t_ff` and the spread `s`.
fn speed_limit_table(net: &RoadNetwork, spread: f64) -> Result<Arc<Table>, CoreError> {
    let table = net
        .edges()
        .iter()
        .map(|edge| {
            let t_ff = edge.free_flow_time_s();
            let lo = t_ff * (1.0 - spread);
            let hi = t_ff * (1.0 + 3.0 * spread);
            let unit = Histogram1D::uniform(lo, hi.max(lo + 0.5))?;
            Ok(Arc::new(InstantiatedVariable::speed_limit(edge.id, unit)))
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(Arc::new(table))
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

    /// [`Self::instantiate_with_exclusions`] with the fit fan-out cut into a
    /// fixed number of parts (`None`: small chunks the worker pool claims).
    fn instantiate_on(
        net: &RoadNetwork,
        store: &TrajectoryStore,
        cfg: &HybridConfig,
        excluded: &[(Path, IntervalId)],
        workers: Option<usize>,
    ) -> Result<Self, CoreError> {
        cfg.validate()?;
        let partition = DayPartition::new(cfg.alpha_minutes)?;

        // One table per rung the store's trajectories reach: the last rung
        // of every ladder, and the rungs above it for the regimes present.
        let rungs: BTreeSet<RegimeId> = std::iter::once(RegimeId::ALL_TRAFFIC)
            .chain(store.regimes_present())
            .flat_map(|regime| cfg.regimes.ladder(regime))
            .collect();
        let mut tables = BTreeMap::new();
        for table in rungs {
            let fitted = fit_table(net, store, cfg, &partition, excluded, table, workers)?;
            tables.insert(table, fitted.into_iter().map(Arc::new).collect());
        }
        let fallback_units = speed_limit_table(net, cfg.speed_limit_spread)?;
        Ok(Self::assemble(
            partition,
            cfg,
            fallback_units,
            tables,
            store,
        ))
    }

    /// The tail shared by every constructor (instantiation, re-derivation,
    /// restore from parts): drops empty tables and layers the views, which
    /// are a pure function of `(tables, schema, store)` — so every path
    /// converges on identical views for identical inputs. A view is built
    /// for the root and for every regime whose ladder crosses a table above
    /// its last rung; a declared regime gets one before its own data lands,
    /// so it resolves through its *group's* table rather than the root's.
    /// `partition` is `cfg`'s, already validated by the caller.
    fn assemble(
        partition: DayPartition,
        cfg: &HybridConfig,
        fallback_units: Arc<Table>,
        mut tables: BTreeMap<RegimeId, Table>,
        store: &TrajectoryStore,
    ) -> PathWeightFunction {
        let schema = cfg.regimes.clone();
        tables.retain(|_, table| !table.is_empty());
        let edges_with_records = store.covered_edges().len();
        let layer = |regime: RegimeId, ladder: &[RegimeId]| {
            let view =
                WeightView::layered(regime, ladder, &tables, &fallback_units, edges_with_records);
            Arc::new(view)
        };
        let root = layer(RegimeId::ALL_TRAFFIC, &[RegimeId::ALL_TRAFFIC]);
        let candidates: BTreeSet<RegimeId> = tables
            .keys()
            .copied()
            .chain(schema.entries().map(|(regime, _)| regime))
            .collect();
        let mut views = BTreeMap::new();
        for regime in candidates {
            let ladder = schema.ladder(regime);
            let above_last = &ladder[..ladder.len() - 1];
            if above_last.iter().any(|rung| tables.contains_key(rung)) {
                views.insert(regime, layer(regime, &ladder));
            }
        }
        PathWeightFunction {
            partition,
            cost_kind: cfg.cost_kind,
            schema,
            fallback_units,
            tables,
            root,
            views,
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
    /// Each key is re-derived against the contributing subsequence of the
    /// store (the trajectories whose fallback ladder passes through the
    /// key's table — all of them, for the all-traffic table) and patched
    /// into that table, from which the views are layered again. Under those
    /// conditions the result is **bit-identical** to
    /// [`PathWeightFunction::instantiate`] over `current`:
    ///
    /// * a dirty key's qualified rows in the current store are exactly the
    ///   rows the full rebuild's collection pass would visit, in the same
    ///   (trajectory, position) order, so re-fitting reproduces the rebuild's
    ///   histogram exactly;
    /// * a non-dirty key's qualified occurrence set is untouched by the
    ///   mutation, so its existing histogram already equals what the rebuild
    ///   would fit — the new epoch shares it;
    /// * every table stays in sorted key order (one merge pass per patched
    ///   table), and the views and statistics are derived from the tables
    ///   exactly as instantiation derives them.
    ///
    /// Count transitions go both ways: a key crossing β upward is *added*, a
    /// previously instantiated key whose support drops below β (its
    /// trajectories aged out) is **deleted** and reported in
    /// [`WeightUpdate::removed`]; a table left empty is dropped, as
    /// instantiation never keeps one. Holdout exclusions are an
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

    /// [`Self::rederive_regimes`] with the fit fan-out cut into a fixed
    /// number of parts (`None`: small chunks the worker pool claims).
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
        let refits = fan_out(&keys, workers, |&(edges, interval, table), scratch| {
            let path = Path::from_edges_unchecked(edges.clone());
            // The key's qualified occurrences in its table's contributing
            // subsequence of the current store, in the same (trajectory,
            // position) order the full rebuild collects rows in.
            let occurrences: Vec<_> = current
                .occurrences_on_contributing(&path, &self.schema, *table)
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

        // `dirty` is sorted by (edges, interval, table), so each table's
        // share of it arrives in that table's key order.
        let mut deltas: BTreeMap<RegimeId, Vec<_>> = BTreeMap::new();
        let mut updated = Vec::new();
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for ((edges, interval, table), refit) in keys.into_iter().zip(refits) {
            let key = (edges.as_slice(), *interval);
            let existing = self
                .tables
                .get(table)
                .is_some_and(|vars| vars.binary_search_by(|var| key_of(var).cmp(&key)).is_ok());
            // A key that lost its β support in this table is one the full
            // rebuild would not instantiate there — delete it; one that never
            // had it is left alone.
            let changed = match (&refit, existing) {
                (Some(_), true) => &mut updated,
                (Some(_), false) => &mut added,
                (None, true) => &mut removed,
                (None, false) => continue,
            };
            changed.push((Path::from_edges_unchecked(edges.clone()), *interval, *table));
            deltas
                .entry(*table)
                .or_default()
                .push((key, refit.map(Arc::new)));
        }

        let mut tables = self.tables.clone();
        for (table, delta) in deltas {
            let patched = patch_table(tables.get(&table).map_or(&[], Vec::as_slice), delta);
            tables.insert(table, patched);
        }
        let weights = Self::assemble(partition, cfg, self.fallback_units.clone(), tables, current);
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

    /// Restores a weight function from its captured tables — the
    /// deserialization counterpart of [`Self::tables`]. Every table must be
    /// in strictly increasing `(path edges, interval)` key order (the order
    /// [`Self::tables`] exposes). Nothing else is restored: the day
    /// partition, cost kind and regime schema are `cfg`'s, the speed-limit
    /// fallbacks are built from `net` and `cfg.speed_limit_spread`, and the
    /// views and summary statistics are derived exactly as every other
    /// constructor derives them. So a function captured under `cfg` restores
    /// bit-identically (given the same `net` and `store`).
    pub fn from_parts(
        net: &RoadNetwork,
        cfg: &HybridConfig,
        tables: BTreeMap<RegimeId, Vec<InstantiatedVariable>>,
        store: &TrajectoryStore,
    ) -> Result<Self, CoreError> {
        cfg.validate()?;
        if tables
            .values()
            .any(|table| table.windows(2).any(|w| key_of(&w[0]) >= key_of(&w[1])))
        {
            return Err(CoreError::InvalidConfig(
                "restored variables must be in strictly increasing (path, interval) order",
            ));
        }
        let tables = tables
            .into_iter()
            .map(|(table, vars)| (table, vars.into_iter().map(Arc::new).collect()))
            .collect();
        Ok(Self::assemble(
            DayPartition::new(cfg.alpha_minutes)?,
            cfg,
            speed_limit_table(net, cfg.speed_limit_spread)?,
            tables,
            store,
        ))
    }

    /// The regime fallback-ladder schema this function was built under.
    pub fn regime_schema(&self) -> &RegimeSchema {
        &self.schema
    }

    /// Every non-empty table, keyed by the ladder rung it belongs to.
    pub fn tables(&self) -> &BTreeMap<RegimeId, Table> {
        &self.tables
    }

    /// What a query under `regime` reads: the regime's own view when its
    /// ladder crosses an own table, the root's view otherwise (the root
    /// itself, an undeclared regime, a regime whose every rung is still too
    /// sparse). [`WeightView::regime`] tells which one answered.
    pub fn view(&self, regime: RegimeId) -> &Arc<WeightView> {
        self.views.get(&regime).unwrap_or(&self.root)
    }

    /// The speed-limit fallback of every edge, indexed by edge id.
    pub fn fallback_units(&self) -> &[Arc<InstantiatedVariable>] {
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

    /// The all-traffic variables, in sorted key order.
    pub fn variables(&self) -> &[Arc<InstantiatedVariable>] {
        self.root.variables()
    }

    /// Exact lookup `W_P(P, I_j)` in the all-traffic table.
    pub fn get(&self, path: &Path, interval: IntervalId) -> Option<&InstantiatedVariable> {
        self.root.get(path, interval)
    }

    /// A copy of the all-traffic unit-path cost distribution of `edge`
    /// during `interval` (see [`WeightView::unit`], which lends it).
    pub fn unit_histogram(&self, edge: EdgeId, interval: IntervalId) -> Option<Histogram1D> {
        self.root.unit(edge, interval).map(|(unit, _)| unit.clone())
    }

    /// Summary statistics of the all-traffic table.
    pub fn stats(&self) -> &WeightStats {
        self.root.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variable::VariableSource;
    use pathcost_traj::DatasetPreset;
    use proptest::prelude::*;
    use std::collections::HashMap;

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
            assert!(wp
                .root
                .variables_starting_with(v.path.first_edge())
                .contains(&i));
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
            assert_eq!(found, &**v, "lookup index diverged at {i}");
            assert_eq!(
                patched.root.variables_starting_with(v.path.first_edge()),
                full.root.variables_starting_with(v.path.first_edge()),
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

    /// The depth a query under `regime` reports for the variable at `index`
    /// of the view it reads: the ladder position of the variable's source.
    fn depth(wp: &PathWeightFunction, regime: RegimeId, index: usize) -> usize {
        let source = wp.view(regime).source(index);
        let ladder = wp.regime_schema().ladder(regime);
        ladder.iter().position(|rung| *rung == source).unwrap()
    }

    #[test]
    fn untagged_store_keeps_regime_machinery_inert() {
        let (_, _, wp) = build();
        assert!(wp.views.is_empty());
        assert!(wp.tables().keys().eq([&RegimeId::ALL_TRAFFIC]));
        assert!(Arc::ptr_eq(wp.view(RegimeId(7)), &wp.root));
        assert_eq!(depth(&wp, RegimeId::ALL_TRAFFIC, 0), 0);
        assert_eq!(wp.root.source(0), RegimeId::ALL_TRAFFIC);
        // A non-empty schema over an untagged store changes nothing: the
        // all-traffic table is bit-identical and no views are layered.
        let (net, store) = DatasetPreset::tiny(21).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        }
        .with_regimes(RegimeSchema::flat().with_group(RegimeId(1), RegimeId(3)));
        let wp2 = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        assert_eq!(wp2.variables(), wp.variables());
        assert_eq!(wp2.stats(), wp.stats());
        assert!(wp2.views.is_empty());
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

        let sparse = wp.view(RegimeId(2));
        assert_eq!(sparse.regime(), RegimeId::ALL_TRAFFIC, "the root answers");
        assert_eq!(sparse.variables(), wp.variables());
        for i in 0..sparse.variables().len() {
            assert_eq!(depth(&wp, RegimeId(2), i), 1, "empty own table ⇒ depth 1");
            assert_eq!(sparse.source(i), RegimeId::ALL_TRAFFIC);
        }

        // Regime 1 holds nearly all data: same key set as the global table
        // (a regime count clearing β implies the global count does), with
        // own-table hits at depth 0 and sparse keys answered from depth 1.
        let dense = wp.view(RegimeId(1));
        assert_eq!(dense.regime(), RegimeId(1), "regime 1 has a view");
        assert_eq!(dense.variables().len(), wp.variables().len());
        let mut own_hits = 0;
        for (i, v) in dense.variables().iter().enumerate() {
            let global = wp.get(&v.path, v.interval).expect("view key ⊆ global keys");
            match depth(&wp, RegimeId(1), i) {
                0 => {
                    assert_eq!(dense.source(i), RegimeId(1));
                    own_hits += 1;
                }
                1 => {
                    assert_eq!(dense.source(i), RegimeId::ALL_TRAFFIC);
                    assert_eq!(&**v, global);
                }
                d => panic!("flat schema has no depth {d}"),
            }
        }
        assert!(own_hits > 0, "regime 1 holds almost all data, must clear β");

        // A regime with no data and no schema entry has no view.
        assert_eq!(wp.view(RegimeId(9)).regime(), RegimeId::ALL_TRAFFIC);
    }

    /// Asserts the all-traffic table, every regime own table and every
    /// layered view of `a` are bit-identical to `b`'s.
    fn assert_regime_identical(a: &PathWeightFunction, b: &PathWeightFunction) {
        assert_eq!(a.variables(), b.variables());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.tables(), b.tables());
        let regimes: Vec<RegimeId> = a.views.keys().copied().collect();
        assert_eq!(regimes, b.views.keys().copied().collect::<Vec<_>>());
        for r in regimes {
            let (va, vb) = (a.view(r), b.view(r));
            assert_eq!((va.regime(), vb.regime()), (r, r), "listed ⇒ own view");
            assert_eq!(va.variables(), vb.variables());
            assert_eq!(va.stats(), vb.stats());
            for i in 0..va.variables().len() {
                assert_eq!(depth(a, r, i), depth(b, r, i));
                assert_eq!(va.source(i), vb.source(i));
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
            update.weights.tables()[&RegimeId(3)],
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
        for (regime, vars) in wp.tables() {
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
        assert_eq!(wp.tables().len(), 4, "all-traffic + three own tables");
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

    /// Every bit of a 1-D histogram: bounds, masses, cumulative masses.
    fn bits(h: &Histogram1D) -> Vec<u64> {
        let bounds = h.buckets().iter().flat_map(|b| [b.lo, b.hi]);
        bounds
            .chain(h.probs().iter().copied())
            .chain(h.cumulative_probs().iter().copied())
            .map(f64::to_bits)
            .collect()
    }

    /// Checks that every unit variable of every table carries
    /// `histogram.marginal_1d(0)` bit for bit — and that the views lend that
    /// very histogram — and no other variable carries one. Returns how many
    /// unit variables it saw.
    fn assert_units_carried(wp: &PathWeightFunction) -> usize {
        let mut units = 0;
        for (regime, table) in wp.tables() {
            for v in table {
                let Some(carried) = v.unit_marginal() else {
                    assert!(!v.is_unit(), "a unit variable without its marginal");
                    continue;
                };
                assert!(v.is_unit());
                assert_eq!(bits(carried), bits(&v.histogram.marginal_1d(0).unwrap()));
                // The view of the table's own regime resolves the key from
                // this table (nearest rung) and lends the carried histogram.
                let view = wp.view(*regime);
                let (lent, index) = view.unit(v.path.first_edge(), v.interval).unwrap();
                let index = index.expect("a trajectory-derived unit has a view position");
                assert_eq!(view.variable(index).path, v.path);
                if view.regime() == *regime {
                    assert!(std::ptr::eq(lent, carried));
                    assert!(std::ptr::eq(view.variable(index), &**v));
                }
                units += 1;
            }
        }
        units
    }

    #[test]
    fn unit_variables_carry_their_marginal_after_instantiate_and_rederive() {
        let (net, untagged) = DatasetPreset::tiny(31).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        }
        .with_regimes(grouped_schema());
        let store = tag_store(&untagged, untagged.len() / 2);
        // A small batch, so most keys stay clean.
        let split = store.len() - 5;
        let mut base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let batch = store.matched()[split..].to_vec();
        let wp = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
        assert!(
            wp.tables().len() > 1,
            "own tables beside the all-traffic one"
        );
        let before = assert_units_carried(&wp);
        assert!(before > 0);

        let partition = DayPartition::new(cfg.alpha_minutes).unwrap();
        let dirty = dirty_keys_by_regime(&batch, &partition, cfg.max_rank, &cfg.regimes);
        base.append(batch);
        let update = wp.rederive_regimes(&net, &base, &cfg, &dirty).unwrap();
        assert!(update.changed() > 0);
        assert!(assert_units_carried(&update.weights) >= before);
        // A variable the update did not re-fit is the same allocation in
        // both epochs, its marginal with it.
        let shared = update
            .weights
            .variables()
            .iter()
            .any(|new| new.is_unit() && wp.variables().iter().any(|old| Arc::ptr_eq(old, new)));
        assert!(shared, "epochs share untouched unit variables");
    }

    #[test]
    fn every_edge_lends_one_speed_limit_fallback_shared_by_every_view_and_epoch() {
        let (net, untagged) = DatasetPreset::tiny(31).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        }
        .with_regimes(grouped_schema());
        let store = tag_store(&untagged, untagged.len() / 2);
        let split = store.len() - 5;
        let mut base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let batch = store.matched()[split..].to_vec();
        let wp = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
        let partition = DayPartition::new(cfg.alpha_minutes).unwrap();
        let dirty = dirty_keys_by_regime(&batch, &partition, cfg.max_rank, &cfg.regimes);
        base.append(batch);
        let next = wp
            .rederive_regimes(&net, &base, &cfg, &dirty)
            .unwrap()
            .weights;
        assert!(
            !wp.views.is_empty() && !next.views.is_empty(),
            "regime views exist"
        );
        let views: Vec<&Arc<WeightView>> = [&wp, &*next]
            .into_iter()
            .flat_map(|w| std::iter::once(&w.root).chain(w.views.values()))
            .collect();

        // A path through the network at 03:00, when nothing is instantiated:
        // every row of its candidate array is a fallback.
        let query = &base.matched()[0].path;
        let graph = crate::HybridGraph::from_parts(&net, wp.clone(), cfg.clone());
        let departure = pathcost_traj::Timestamp::from_day_hms(0, 3, 0, 0);
        let array = crate::CandidateArray::build(&graph, query, departure, None).unwrap();
        let rows: HashMap<EdgeId, &Arc<InstantiatedVariable>> = array
            .rows
            .iter()
            .map(|row| (row[0].var.path.first_edge(), &row[0].var))
            .collect();
        assert_eq!(rows.len(), query.cardinality());

        let interval = IntervalId(3); // 01:30–02:00, no data
        let s = cfg.speed_limit_spread;
        for edge in net.edges() {
            let fallback = &wp.fallback_units()[edge.id.index()];
            let t_ff = edge.free_flow_time_s();
            let lo = t_ff * (1.0 - s);
            let expected = Histogram1D::uniform(lo, (t_ff * (1.0 + 3.0 * s)).max(lo + 0.5));
            assert_eq!(fallback.path, Path::unit(edge.id));
            assert_eq!(fallback.source, VariableSource::SpeedLimit);
            assert_eq!(
                bits(fallback.unit_marginal().unwrap()),
                bits(&expected.unwrap())
            );
            for view in &views {
                let (var, index) = view.unit_variable(edge.id, interval).unwrap();
                assert_eq!(index, None, "a fallback has no view position");
                assert!(Arc::ptr_eq(var, fallback));
                let (lent, _) = view.unit(edge.id, interval).unwrap();
                assert!(std::ptr::eq(lent, fallback.unit_marginal().unwrap()));
            }
            if let Some(row) = rows.get(&edge.id) {
                assert!(Arc::ptr_eq(row, fallback), "the candidate row shares it");
            }
        }
        assert!(wp.root.unit(EdgeId(u32::MAX), interval).is_none());

        // The fallbacks' 1-D histograms still count towards the footprint.
        let (net, _, wp) = build();
        let fallback_bytes: usize = net
            .edges()
            .iter()
            .map(|edge| {
                let fallback = &wp.fallback_units()[edge.id.index()];
                fallback.unit_marginal().unwrap().storage_bytes()
            })
            .sum();
        let variable_bytes: usize = wp.variables().iter().map(|v| v.storage_bytes()).sum();
        assert_eq!(wp.stats().memory_bytes, fallback_bytes + variable_bytes);
    }

    #[test]
    fn from_parts_derives_the_fallbacks_schema_and_views_it_is_not_given() {
        let (net, untagged) = DatasetPreset::tiny(31).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        }
        .with_regimes(grouped_schema());
        let store = tag_store(&untagged, untagged.len() / 2);
        let wp = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        let captured = |wp: &PathWeightFunction| {
            let tables = wp.tables().iter();
            tables
                .map(|(regime, vars)| (*regime, vars.iter().map(|v| (**v).clone()).collect()))
                .collect::<BTreeMap<RegimeId, Vec<InstantiatedVariable>>>()
        };
        let restored = PathWeightFunction::from_parts(&net, &cfg, captured(&wp), &store).unwrap();
        assert_regime_identical(&restored, &wp);
        assert_eq!(restored.fallback_units(), wp.fallback_units());
        assert_eq!(restored.regime_schema(), wp.regime_schema());
        assert_eq!(restored.partition(), wp.partition());

        // A table out of key order is refused.
        let mut swapped = captured(&wp);
        swapped.get_mut(&RegimeId::ALL_TRAFFIC).unwrap().swap(0, 1);
        assert!(PathWeightFunction::from_parts(&net, &cfg, swapped, &store).is_err());
    }

    /// A stand-in variable for `key`, told apart by `marker`.
    fn stub(key: &VariableKey, marker: usize) -> Arc<InstantiatedVariable> {
        let unit = Histogram1D::uniform(0.0, 1.0).unwrap();
        Arc::new(InstantiatedVariable::new(
            Path::from_edges_unchecked(key.0.clone()),
            key.1,
            pathcost_hist::HistogramNd::from_histogram1d(&unit),
            VariableSource::Trajectories { count: marker },
        ))
    }

    /// 36 keys over a small alphabet, so deltas hit stored keys often:
    /// one- and two-edge paths (prefixes of each other) × three intervals.
    fn small_key(code: usize) -> VariableKey {
        let edges = match code % 12 {
            c @ 0..=2 => vec![EdgeId(c as u32)],
            c => vec![EdgeId((c as u32 - 3) / 3), EdgeId((c as u32 - 3) % 3)],
        };
        (edges, IntervalId((code / 12) as u16))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// `patch_table` ≡ rebuilding the table through a `BTreeMap`, over
        /// one patch and a run of them, from an empty table and down to one.
        #[test]
        fn patch_table_matches_a_btreemap_rebuild(
            stored in prop::collection::vec(0usize..36, 0..20),
            patches in prop::collection::vec(
                prop::collection::vec((0usize..36, 0usize..3), 0..16),
                1..4,
            ),
        ) {
            let mut expected: BTreeMap<VariableKey, Arc<InstantiatedVariable>> = stored
                .iter()
                .map(|&code| (small_key(code), stub(&small_key(code), 0)))
                .collect();
            let mut table: Table = expected.values().cloned().collect();
            for (round, patch) in patches.iter().enumerate() {
                // Two ops in three upsert, the third deletes; a key named
                // twice keeps its last op.
                let delta: BTreeMap<VariableKey, Option<Arc<InstantiatedVariable>>> = patch
                    .iter()
                    .map(|&(code, op)| {
                        let key = small_key(code);
                        let var = (op > 0).then(|| stub(&key, round + 1));
                        (key, var)
                    })
                    .collect();
                for (key, var) in &delta {
                    match var {
                        Some(var) => expected.insert(key.clone(), var.clone()),
                        None => expected.remove(key),
                    };
                }
                table = patch_table(
                    &table,
                    delta.iter().map(|(key, var)| ((key.0.as_slice(), key.1), var.clone())),
                );
                prop_assert_eq!(&table, &expected.values().cloned().collect::<Table>());
            }
            // Deleting every key leaves nothing behind.
            let all: Vec<VariableKey> = (0..36).map(small_key).collect();
            let mut keys: Vec<_> = all.iter().map(|key| (key.0.as_slice(), key.1)).collect();
            keys.sort_unstable();
            prop_assert!(patch_table(&table, keys.into_iter().map(|key| (key, None))).is_empty());
        }
    }

    #[test]
    fn rederive_drops_an_emptied_table() {
        let (net, untagged) = DatasetPreset::tiny(32).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        }
        .with_regimes(grouped_schema());
        let store = tag_store(&untagged, untagged.len() / 2);
        let wp = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        assert_eq!(wp.tables().len(), 4);

        // Retire every regime-2 trajectory: its own table empties and goes,
        // the group's and the all-traffic table shrink, regime 1's stays.
        let ids: Vec<u64> = store.matched()[..untagged.len() / 2]
            .iter()
            .map(|m| m.id)
            .collect();
        let mut remaining = store;
        let retired = remaining.retire_ids(&ids);
        let partition = DayPartition::new(cfg.alpha_minutes).unwrap();
        let dirty = dirty_keys_by_regime(&retired, &partition, cfg.max_rank, &cfg.regimes);
        let update = wp.rederive_regimes(&net, &remaining, &cfg, &dirty).unwrap();
        assert!(!update.weights.tables().contains_key(&RegimeId(2)));
        assert_eq!(update.weights.tables().len(), 3);
        assert_eq!(update.weights.view(RegimeId(2)).regime(), RegimeId(2));
        let full = PathWeightFunction::instantiate(&net, &remaining, &cfg).unwrap();
        assert_regime_identical(&update.weights, &full);
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
