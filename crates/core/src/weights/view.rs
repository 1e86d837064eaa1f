//! What a regime reads of the weight function: its fallback ladder's tables,
//! layered so the nearest table that instantiated a key answers for it.
//!
//! Reading is borrowing. A lookup hashes the caller's edge slice as it
//! stands — no key is built — and a unit variable
//! ([`WeightView::unit_variable`]) is the view's own, named by its position,
//! or the network's speed-limit fallback, which has none, so the routing
//! search's per-node extension and the candidate array's per-edge probes
//! allocate nothing here. A view's indices are proportional to the
//! variables it layers; the fallback table is shared.

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
    /// The speed-limit fallback of every edge, indexed by edge id (one
    /// allocation for every view of every epoch — it depends on the network
    /// and `speed_limit_spread` alone).
    fallback_units: Arc<Table>,
    /// The store's covered-edge count, for [`Self::stats`].
    edges_with_records: usize,
}

impl WeightView {
    /// Layers the tables on `ladder` (nearest rung first) into `regime`'s
    /// view. `edges_with_records` is the store's covered-edge count, for the
    /// summary statistics.
    pub(super) fn layered(
        regime: RegimeId,
        ladder: &[RegimeId],
        tables: &BTreeMap<RegimeId, Table>,
        fallback_units: &Arc<Table>,
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
        }
        let (variables, sources) = rows.into_iter().map(|(v, rung)| (v.clone(), rung)).unzip();
        WeightView {
            regime,
            variables,
            sources,
            index,
            by_first_edge,
            fallback_units: fallback_units.clone(),
            edges_with_records,
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

    /// Indices of all variables whose path starts with `edge`.
    pub fn variables_starting_with(&self, edge: EdgeId) -> &[usize] {
        self.by_first_edge
            .get(&edge)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The unit variable of `edge` during `interval` and its position in the
    /// view: the view's variable when a table on the ladder instantiated one
    /// (`Some(index)`), otherwise the edge's speed-limit fallback (`None`).
    /// Every edge of the network always has one; an unknown edge has none.
    pub fn unit_variable(
        &self,
        edge: EdgeId,
        interval: IntervalId,
    ) -> Option<(&Arc<InstantiatedVariable>, Option<usize>)> {
        match self.index_of(&[edge], interval) {
            Some(i) => Some((&self.variables[i], Some(i))),
            None => self.fallback_units.get(edge.index()).map(|v| (v, None)),
        }
    }

    /// The cost distribution of [`Self::unit_variable`], borrowed from it,
    /// and its position in the view (`None` for a fallback).
    pub fn unit(
        &self,
        edge: EdgeId,
        interval: IntervalId,
    ) -> Option<(&Histogram1D, Option<usize>)> {
        let (var, index) = self.unit_variable(edge, interval)?;
        Some((var.unit_marginal()?, index))
    }

    /// Summary statistics of the view's variables, computed on each call
    /// (every epoch layers its views again; only reports read these).
    pub fn stats(&self) -> WeightStats {
        let mut count_by_rank: BTreeMap<usize, usize> = BTreeMap::new();
        let mut entropy_sum: BTreeMap<usize, f64> = BTreeMap::new();
        let mut covered: HashSet<EdgeId> = HashSet::new();
        let fallback_bytes = self.fallback_units.iter().flat_map(|v| v.unit_marginal());
        let mut memory: usize = fallback_bytes.map(Histogram1D::storage_bytes).sum();
        for var in &self.variables {
            *count_by_rank.entry(var.rank()).or_insert(0) += 1;
            *entropy_sum.entry(var.rank()).or_insert(0.0) += var.entropy();
            covered.extend(var.path.edges().iter().copied());
            memory += var.storage_bytes();
        }
        let mean_entropy_by_rank = entropy_sum
            .into_iter()
            .map(|(rank, sum)| (rank, sum / count_by_rank[&rank] as f64))
            .collect();
        WeightStats {
            count_by_rank,
            mean_entropy_by_rank,
            covered_edges: covered.len(),
            edges_with_records: self.edges_with_records,
            memory_bytes: memory,
        }
    }
}
