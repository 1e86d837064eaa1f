//! What a regime reads of the weight function: its fallback ladder's tables,
//! layered so the nearest table that instantiated a key answers for it.
//!
//! Reading is borrowing. A lookup hashes the caller's edge slice as it
//! stands — no key is built — and a unit distribution
//! ([`WeightView::unit`]) is a reference to the marginal its variable carries
//! or to the network's speed-limit fallback, so the routing search's
//! per-node extension and the candidate array's per-edge probes allocate
//! nothing here. A view holds nothing per edge of the network: its indices
//! are proportional to the variables it layers, as before.

use super::{key_of, Table, WeightStats};
use crate::interval::IntervalId;
use crate::variable::InstantiatedVariable;
use pathcost_hist::Histogram1D;
use pathcost_roadnet::{EdgeId, Path};
use pathcost_traj::RegimeId;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// The effective view of one regime: every key of the tables on its fallback
/// ladder, resolved to the nearest rung that instantiated it, with the lookup
/// indices the estimator pipeline reads. The variables are shared with the
/// tables they came from; each remembers its *source* table, so the serving
/// layer can invalidate by source and report a fallback depth — the source's
/// position on the requesting regime's ladder.
#[derive(Debug)]
pub struct WeightView {
    regime: RegimeId,
    variables: Table,
    /// The table each variable came from, parallel to `variables`.
    sources: Vec<RegimeId>,
    /// Exact lookup: path edges → the `(interval, variable index)` of every
    /// variable over that path, in interval order. Keyed by the edges alone
    /// so a probe borrows its slice.
    index: HashMap<Vec<EdgeId>, Vec<(IntervalId, usize)>>,
    /// All variable indices whose path starts with the given edge.
    by_first_edge: HashMap<EdgeId, Vec<usize>>,
    /// Speed-limit-derived fallback distribution per edge (one allocation
    /// for every view of every epoch — it depends on the network alone).
    fallback_units: Arc<HashMap<EdgeId, Histogram1D>>,
    stats: WeightStats,
}

impl WeightView {
    /// Layers the tables on `ladder` (nearest rung first) into `regime`'s
    /// view. `edges_with_records` is the store's covered-edge count, for the
    /// summary statistics.
    pub(super) fn layered(
        regime: RegimeId,
        ladder: &[RegimeId],
        tables: &BTreeMap<RegimeId, Table>,
        fallback_units: &Arc<HashMap<EdgeId, Histogram1D>>,
        edges_with_records: usize,
    ) -> WeightView {
        let mut rows: Vec<(&Arc<InstantiatedVariable>, RegimeId)> = ladder
            .iter()
            .flat_map(|rung| {
                tables
                    .get(rung)
                    .into_iter()
                    .flatten()
                    .map(move |v| (v, *rung))
            })
            .collect();
        // Stable, so among equal keys the nearest rung stays first and wins.
        rows.sort_by(|a, b| key_of(a.0).cmp(&key_of(b.0)));
        rows.dedup_by(|further, nearest| key_of(further.0) == key_of(nearest.0));

        let mut index: HashMap<Vec<EdgeId>, Vec<(IntervalId, usize)>> = HashMap::new();
        let mut by_first_edge: HashMap<EdgeId, Vec<usize>> = HashMap::new();
        let mut count_by_rank: BTreeMap<usize, usize> = BTreeMap::new();
        let mut entropy_sum: BTreeMap<usize, f64> = BTreeMap::new();
        let mut covered: HashSet<EdgeId> = HashSet::new();
        let mut memory: usize = fallback_units.values().map(|h| h.storage_bytes()).sum();
        for (idx, (var, _)) in rows.iter().enumerate() {
            by_first_edge
                .entry(var.path.first_edge())
                .or_default()
                .push(idx);
            match index.get_mut(var.path.edges()) {
                Some(intervals) => intervals.push((var.interval, idx)),
                None => {
                    index.insert(var.path.edges().to_vec(), vec![(var.interval, idx)]);
                }
            }
            *count_by_rank.entry(var.rank()).or_insert(0) += 1;
            *entropy_sum.entry(var.rank()).or_insert(0.0) += var.entropy();
            covered.extend(var.path.edges().iter().copied());
            memory += var.storage_bytes();
        }
        let mean_entropy_by_rank = entropy_sum
            .into_iter()
            .map(|(rank, sum)| (rank, sum / count_by_rank[&rank] as f64))
            .collect();
        let stats = WeightStats {
            count_by_rank,
            mean_entropy_by_rank,
            covered_edges: covered.len(),
            edges_with_records,
            memory_bytes: memory,
        };
        let (variables, sources) = rows.into_iter().map(|(v, rung)| (v.clone(), rung)).unzip();
        WeightView {
            regime,
            variables,
            sources,
            index,
            by_first_edge,
            fallback_units: fallback_units.clone(),
            stats,
        }
    }

    /// The regime whose fallback ladder this view layers.
    pub fn regime(&self) -> RegimeId {
        self.regime
    }

    /// The view's variables, in sorted `(path edges, interval)` key order.
    pub fn variables(&self) -> &[Arc<InstantiatedVariable>] {
        &self.variables
    }

    /// The variable at `index`.
    pub fn variable(&self, index: usize) -> &InstantiatedVariable {
        &self.variables[index]
    }

    /// The table the variable at `index` came from.
    pub fn source(&self, index: usize) -> RegimeId {
        self.sources[index]
    }

    fn index_of(&self, edges: &[EdgeId], interval: IntervalId) -> Option<usize> {
        let intervals = self.index.get(edges)?;
        let at = intervals
            .binary_search_by_key(&interval, |&(i, _)| i)
            .ok()?;
        Some(intervals[at].1)
    }

    /// Exact lookup `W_P(P, I_j)`: the trajectory-derived variable for this
    /// path and interval, if a table on the ladder instantiated one.
    pub fn get(&self, path: &Path, interval: IntervalId) -> Option<&InstantiatedVariable> {
        self.index_of(path.edges(), interval)
            .map(|i| self.variable(i))
    }

    /// The table this key resolves from, when the key is instantiated.
    pub fn source_of(&self, path: &Path, interval: IntervalId) -> Option<RegimeId> {
        self.index_of(path.edges(), interval)
            .map(|i| self.sources[i])
    }

    /// Indices of all variables whose path starts with `edge`.
    pub fn variables_starting_with(&self, edge: EdgeId) -> &[usize] {
        self.by_first_edge
            .get(&edge)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The unit-path cost distribution of `edge` during `interval`, borrowed
    /// from the view, and whether it is trajectory-derived: the marginal of
    /// the edge's unit variable when a table on the ladder instantiated one
    /// (`true`), otherwise the speed-limit fallback (`false`). Every edge of
    /// the network always has a unit distribution.
    pub fn unit(&self, edge: EdgeId, interval: IntervalId) -> Option<(&Histogram1D, bool)> {
        match self.index_of(&[edge], interval) {
            Some(i) => self.variables[i].unit_marginal().map(|unit| (unit, true)),
            None => self.fallback_units.get(&edge).map(|unit| (unit, false)),
        }
    }

    /// Summary statistics of the view's variables.
    pub fn stats(&self) -> &WeightStats {
        &self.stats
    }
}
