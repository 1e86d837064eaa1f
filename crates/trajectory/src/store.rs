//! The trajectory store.
//!
//! The hybrid graph is instantiated from queries of the form "give me the
//! trajectories that *occurred on* path `P` during interval `I`" (§2.1/§3).
//! A trajectory occurred on `P` at `t` iff `P` is a sub-path of the
//! trajectory's path and the entry time into the first edge of `P` is `t`.
//! [`TrajectoryStore`] indexes map-matched trajectories by edge so these
//! queries (and the sparseness / frequent-path analyses of the evaluation)
//! are efficient. Each posting of that index also carries the minute of day
//! of its traversal's entry ([`TrajectoryStore::postings`]), so a query for
//! one interval can skip the postings of every other without reading their
//! trajectories.

use crate::costs::{total_cost, CostKind};
use crate::regime::RegimeId;
use crate::simulator::{MatchedTrajectory, SimulationOutput};
use crate::time::{TimeInterval, Timestamp};
use pathcost_roadnet::{EdgeId, Path, RoadNetwork};
use std::collections::{BTreeSet, HashMap, HashSet};

/// One occurrence of a query path inside a stored trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occurrence {
    /// Index of the trajectory in the store.
    pub traj_index: usize,
    /// Edge offset at which the query path starts inside the trajectory's path.
    pub offset: usize,
    /// Entry time into the first edge of the query path.
    pub entry_time: Timestamp,
}

/// An indexed collection of map-matched trajectories.
///
/// Trajectory identity is the [`MatchedTrajectory::id`]: the store holds at
/// most one trajectory per id, and every constructor/mutation path
/// ([`Self::new`], [`Self::append`], [`Self::merge`]) deduplicates
/// deterministically — the *first* trajectory carrying an id wins, later
/// carriers are dropped. That makes retirement by id well-defined and keeps
/// the derived edge index from drifting when the same batch is (re)delivered.
#[derive(Debug, Clone)]
pub struct TrajectoryStore {
    matched: Vec<MatchedTrajectory>,
    /// The postings of every edge some stored trajectory traverses; an edge
    /// nobody traverses has no entry (retirement drops emptied lists).
    edge_index: HashMap<EdgeId, Postings>,
    /// Trajectory id → index into `matched`.
    by_id: HashMap<u64, u32>,
}

/// The postings of one edge: every `(trajectory index, position)` at which
/// it occurs, in ascending order, and beside each — in a parallel list, 2
/// bytes a posting — the minute of day at which that traversal entered the
/// edge ([`crate::TimeOfDay::minute_of_day`] of its entry time). The minute
/// lets a time-of-day filter pass over a posting without opening its
/// trajectory; both lists are always the same length.
#[derive(Debug, Clone, Default)]
struct Postings {
    at: Vec<(u32, u32)>,
    minutes: Vec<u16>,
}

impl TrajectoryStore {
    /// Builds a store from map-matched trajectories (duplicate ids are
    /// dropped, first occurrence wins).
    pub fn new(matched: Vec<MatchedTrajectory>) -> Self {
        let mut store = TrajectoryStore {
            matched: Vec::with_capacity(matched.len()),
            edge_index: HashMap::new(),
            by_id: HashMap::with_capacity(matched.len()),
        };
        store.append(matched);
        store
    }

    /// Builds a store directly from a simulation's ground-truth alignments
    /// (bypassing map matching).
    pub fn from_ground_truth(output: &SimulationOutput) -> Self {
        TrajectoryStore::new(output.ground_truth.clone())
    }

    /// Number of stored trajectories.
    pub fn len(&self) -> usize {
        self.matched.len()
    }

    /// `true` when the store holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.matched.is_empty()
    }

    /// The stored trajectories.
    pub fn matched(&self) -> &[MatchedTrajectory] {
        &self.matched
    }

    /// Capacity of the backing trajectory list — observability for the
    /// freed-capacity accounting that [`Self::compact`] reclaims. Equals
    /// [`Self::len`] right after a compaction; exceeds it after retirement.
    pub fn matched_capacity(&self) -> usize {
        self.matched.capacity()
    }

    /// The trajectory at `index`.
    pub fn get(&self, index: usize) -> Option<&MatchedTrajectory> {
        self.matched.get(index)
    }

    /// `true` when a trajectory with this id is stored.
    pub fn contains_id(&self, id: u64) -> bool {
        self.by_id.contains_key(&id)
    }

    /// The current index of the trajectory with this id, if stored.
    pub fn index_of(&self, id: u64) -> Option<usize> {
        self.by_id.get(&id).map(|&i| i as usize)
    }

    /// A store containing only the first `fraction` (0–1] of the trajectories,
    /// used by the dataset-size experiments (Figures 10, 12, 17).
    ///
    /// The fraction is sanitised rather than trusted: non-finite values (NaN,
    /// ±∞) and values below 0 keep nothing, values above 1 keep everything —
    /// a corrupted split ratio can never index out of bounds or silently
    /// produce a store larger than its source.
    pub fn subset(&self, fraction: f64) -> TrajectoryStore {
        let fraction = if fraction.is_finite() {
            fraction.clamp(0.0, 1.0)
        } else if fraction == f64::INFINITY {
            1.0
        } else {
            0.0 // NaN or -∞: nothing qualifies
        };
        let keep = ((self.matched.len() as f64) * fraction).round() as usize;
        TrajectoryStore::new(self.matched[..keep.min(self.matched.len())].to_vec())
    }

    /// The postings of `edge`: the `(trajectory index, position)` pairs where
    /// it occurs, in ascending order, and the minute of day
    /// ([`crate::TimeOfDay::minute_of_day`]) at which each of those
    /// traversals entered it. Both slices have the same length; both are
    /// empty for an edge no stored trajectory traverses.
    pub fn postings(&self, edge: EdgeId) -> (&[(u32, u32)], &[u16]) {
        self.edge_index
            .get(&edge)
            .map_or((&[], &[]), |p| (&p.at, &p.minutes))
    }

    /// All occurrences of `path` in the store (any time of day).
    pub fn occurrences_on(&self, path: &Path) -> Vec<Occurrence> {
        let k = path.cardinality();
        let (first_positions, _) = self.postings(path.first_edge());
        let mut out = Vec::new();
        for &(ti, pos) in first_positions {
            let m = &self.matched[ti as usize];
            let pos = pos as usize;
            if pos + k > m.path.cardinality() {
                continue;
            }
            if &m.path.edges()[pos..pos + k] == path.edges() {
                out.push(Occurrence {
                    traj_index: ti as usize,
                    offset: pos,
                    entry_time: m.entry_times[pos],
                });
            }
        }
        out
    }

    /// The distinct non-global regimes present in the store, ordered.
    pub fn regimes_present(&self) -> BTreeSet<RegimeId> {
        self.matched
            .iter()
            .filter(|m| !m.regime.is_global())
            .map(|m| m.regime)
            .collect()
    }

    /// The occurrences of `path` whose entry time of day falls inside `interval`
    /// — the paper's *qualified trajectories* for that path and interval.
    pub fn qualified(&self, path: &Path, interval: &TimeInterval) -> Vec<Occurrence> {
        self.occurrences_on(path)
            .into_iter()
            .filter(|o| interval.contains(o.entry_time.time_of_day()))
            .collect()
    }

    /// The total cost of each qualified trajectory on `path` during `interval`.
    pub fn qualified_total_costs(
        &self,
        net: &RoadNetwork,
        path: &Path,
        interval: &TimeInterval,
        kind: CostKind,
    ) -> Vec<f64> {
        self.qualified(path, interval)
            .iter()
            .filter_map(|o| total_cost(&self.matched[o.traj_index], net, path, o.offset, kind))
            .collect()
    }

    /// The set of edges traversed by at least one stored trajectory
    /// (the paper's `E''`: edges with at least one GPS record).
    pub fn covered_edges(&self) -> HashSet<EdgeId> {
        self.edge_index.keys().copied().collect()
    }

    /// `covered_edges().len()` without building the set: the number of
    /// non-empty posting lists, which is the number of lists, because
    /// retirement drops the lists it empties.
    pub fn covered_edge_count(&self) -> usize {
        self.edge_index.len()
    }

    /// For each cardinality `k = 1..=max_k`, the maximum number of
    /// trajectories that occurred on any single path of that cardinality
    /// (no time constraint) — the quantity plotted in Figure 3.
    pub fn max_occurrences_by_cardinality(&self, max_k: usize) -> Vec<usize> {
        (1..=max_k)
            .map(|k| {
                let mut counts: HashMap<&[EdgeId], usize> = HashMap::new();
                for m in &self.matched {
                    let edges = m.path.edges();
                    if edges.len() < k {
                        continue;
                    }
                    for w in edges.windows(k) {
                        *counts.entry(w).or_insert(0) += 1;
                    }
                }
                counts.values().copied().max().unwrap_or(0)
            })
            .collect()
    }

    /// Paths of the given cardinality with at least `min_count` occurrences,
    /// optionally restricted to occurrences entering during `interval`.
    /// Returns `(path, occurrence count)` pairs sorted by decreasing count.
    pub fn frequent_paths(
        &self,
        cardinality: usize,
        min_count: usize,
        interval: Option<&TimeInterval>,
    ) -> Vec<(Path, usize)> {
        let mut counts: HashMap<Vec<EdgeId>, usize> = HashMap::new();
        for m in &self.matched {
            let edges = m.path.edges();
            if edges.len() < cardinality {
                continue;
            }
            for (start, w) in edges.windows(cardinality).enumerate() {
                if let Some(iv) = interval {
                    if !iv.contains(m.entry_times[start].time_of_day()) {
                        continue;
                    }
                }
                *counts.entry(w.to_vec()).or_insert(0) += 1;
            }
        }
        let mut out: Vec<(Path, usize)> = counts
            .into_iter()
            .filter(|(_, c)| *c >= min_count)
            .map(|(edges, c)| (Path::from_edges_unchecked(edges), c))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Appends trajectories to the store, extending the edge index in place —
    /// the delta path of the live-ingestion subsystem. The resulting store is
    /// indistinguishable from `TrajectoryStore::new` over the concatenated
    /// trajectory list: existing indices keep their values, new trajectories
    /// take the next indices, and every per-edge posting list stays in
    /// ascending `(trajectory, position)` order.
    ///
    /// Trajectories whose id is already stored (or repeated earlier in the
    /// batch) are dropped deterministically — first occurrence wins — so a
    /// re-delivered batch is a no-op instead of silently double-counting
    /// every qualified occurrence. An empty batch changes nothing, not even
    /// edge-index allocation. Returns the number of trajectories actually
    /// appended.
    pub fn append(&mut self, matched: Vec<MatchedTrajectory>) -> usize {
        let mut appended = 0;
        for m in matched {
            let index = self.matched.len() as u32;
            match self.by_id.entry(m.id) {
                std::collections::hash_map::Entry::Occupied(_) => continue,
                std::collections::hash_map::Entry::Vacant(slot) => slot.insert(index),
            };
            for (pos, &e) in m.path.edges().iter().enumerate() {
                let postings = self.edge_index.entry(e).or_default();
                postings.at.push((index, pos as u32));
                let entry = m.entry_times.get(pos);
                let minute = entry.map_or(0, |t| t.time_of_day().minute_of_day());
                postings.minutes.push(minute);
            }
            self.matched.push(m);
            appended += 1;
        }
        appended
    }

    /// Merges another store's trajectories into this one. Delegates to
    /// [`Self::append`], so the derived edge index is maintained
    /// incrementally instead of being rebuilt from scratch, and ids already
    /// present are dropped (first occurrence wins). Returns the number of
    /// trajectories actually merged in — check it when merging stores from
    /// *independent* sources: id-keyed dedup means colliding id spaces keep
    /// only the receiver's trajectories (the simulator seed-prefixes its
    /// ids so different-seed datasets merge losslessly).
    pub fn merge(&mut self, other: TrajectoryStore) -> usize {
        self.append(other.matched)
    }

    /// Retires (removes and returns) every trajectory whose *start* — the
    /// entry time into its first edge — is strictly before `cutoff`: the
    /// TTL-expiry primitive of the live retention pipeline. Trajectories
    /// starting exactly at `cutoff` stay.
    ///
    /// The edge index is shrunk in place (posting lists are filtered and
    /// re-numbered, never rebuilt from the trajectory paths), and the
    /// resulting store is indistinguishable from `TrajectoryStore::new` over
    /// the surviving trajectory list: survivors keep their relative order and
    /// every posting list stays in ascending `(trajectory, position)` order.
    pub fn retire_before(&mut self, cutoff: Timestamp) -> Vec<MatchedTrajectory> {
        self.retire_where(|m| {
            m.entry_times
                .first()
                .is_some_and(|t| t.seconds() < cutoff.seconds())
        })
    }

    /// The trajectory start time (entry into the first edge) at the given
    /// percentile of the store, or `None` when the store is empty — the
    /// standard way to pick a [`Self::retire_before`] cutoff that expires
    /// roughly `pct`% of the current data. `pct` is clamped to 0–100;
    /// percentile 0 is the oldest start (retiring strictly-before it removes
    /// nothing), percentile 100 saturates at the newest.
    pub fn start_time_at_percentile(&self, pct: usize) -> Option<Timestamp> {
        let mut starts: Vec<f64> = self
            .matched
            .iter()
            .filter_map(|m| m.entry_times.first().map(|t| t.seconds()))
            .collect();
        if starts.is_empty() {
            return None;
        }
        starts.sort_by(f64::total_cmp);
        let at = (starts.len() * pct.min(100) / 100).min(starts.len() - 1);
        Some(Timestamp(starts[at]))
    }

    /// Retires (removes and returns) the trajectories with the given ids, in
    /// store order; ids not present are ignored. Same index-maintenance
    /// guarantees as [`Self::retire_before`].
    pub fn retire_ids(&mut self, ids: &[u64]) -> Vec<MatchedTrajectory> {
        let ids: HashSet<u64> = ids.iter().copied().collect();
        self.retire_where(|m| ids.contains(&m.id))
    }

    /// Releases the capacity retirement leaves behind: [`Self::retire_before`]
    /// and [`Self::retire_ids`] shrink lengths but keep allocations sized for
    /// the pre-retirement store, so a long-lived store that cycled through
    /// heavy TTL expiry can hold several times its live data in freed
    /// capacity. Shrinks the trajectory list, every per-edge posting list and
    /// both maps down to their current contents. Snapshot writers call this
    /// before serialising so the persisted image — and the process after a
    /// heavy-retirement snapshot — is sized for the live data.
    pub fn compact(&mut self) {
        self.matched.shrink_to_fit();
        for m in &mut self.matched {
            m.entry_times.shrink_to_fit();
            m.travel_times.shrink_to_fit();
        }
        for postings in self.edge_index.values_mut() {
            postings.at.shrink_to_fit();
            postings.minutes.shrink_to_fit();
        }
        self.edge_index.shrink_to_fit();
        self.by_id.shrink_to_fit();
    }

    /// Shared removal path: splits off the trajectories matching `predicate`,
    /// renumbers the survivors, and filters + remaps every edge posting list
    /// and its minutes in place, in step (the remap is monotone, so ascending
    /// posting order is preserved without re-sorting).
    fn retire_where<F: FnMut(&MatchedTrajectory) -> bool>(
        &mut self,
        mut predicate: F,
    ) -> Vec<MatchedTrajectory> {
        let mut remap: Vec<Option<u32>> = vec![None; self.matched.len()];
        let mut removed = Vec::new();
        let mut kept = Vec::with_capacity(self.matched.len());
        for (old, m) in self.matched.drain(..).enumerate() {
            if predicate(&m) {
                removed.push(m);
            } else {
                remap[old] = Some(kept.len() as u32);
                kept.push(m);
            }
        }
        self.matched = kept;
        if removed.is_empty() {
            return removed;
        }
        self.edge_index.retain(|_, postings| {
            let Postings { at, minutes } = postings;
            let mut kept = 0;
            for i in 0..at.len() {
                let (ti, pos) = at[i];
                if let Some(new) = remap[ti as usize] {
                    at[kept] = (new, pos);
                    minutes[kept] = minutes[i];
                    kept += 1;
                }
            }
            at.truncate(kept);
            minutes.truncate(kept);
            kept > 0
        });
        for m in &removed {
            self.by_id.remove(&m.id);
        }
        for slot in self.by_id.values_mut() {
            *slot = remap[*slot as usize].expect("surviving id maps to a surviving index");
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::per_edge_costs;
    use crate::simulator::{SimulationConfig, TrafficSimulator};
    use crate::time::TimeInterval;
    use pathcost_roadnet::GeneratorConfig;
    use std::collections::BTreeMap;

    fn store_and_net() -> (pathcost_roadnet::RoadNetwork, TrajectoryStore) {
        let net = GeneratorConfig::tiny(12).generate();
        let sim = TrafficSimulator::new(
            &net,
            SimulationConfig {
                trips: 150,
                days: 10,
                hotspot_pairs: 4,
                hotspot_fraction: 0.9,
                ..SimulationConfig::default()
            },
        )
        .unwrap();
        let out = sim.run().unwrap();
        (net, TrajectoryStore::from_ground_truth(&out))
    }

    /// One edge's postings and their minutes.
    type EdgePostings = (Vec<(u32, u32)>, Vec<u16>);

    /// Every covered edge's postings and minutes, by edge — the whole edge
    /// index — after checking that each minute is its traversal's entry
    /// minute and that the covered-edge count is the set's size.
    fn postings_by_edge(store: &TrajectoryStore) -> BTreeMap<EdgeId, EdgePostings> {
        let covered = store.covered_edges();
        assert_eq!(store.covered_edge_count(), covered.len());
        covered
            .into_iter()
            .map(|e| {
                let (at, minutes) = store.postings(e);
                assert_eq!(at.len(), minutes.len());
                for (&(ti, pos), &minute) in at.iter().zip(minutes) {
                    let entry = store.matched[ti as usize].entry_times[pos as usize];
                    assert_eq!(minute, entry.time_of_day().minute_of_day());
                }
                (e, (at.to_vec(), minutes.to_vec()))
            })
            .collect()
    }

    #[test]
    fn occurrences_on_full_and_sub_paths() {
        let (_, store) = store_and_net();
        let m0 = store.get(0).unwrap().clone();
        let occs = store.occurrences_on(&m0.path);
        assert!(!occs.is_empty());
        assert!(occs.iter().any(|o| o.traj_index == 0 && o.offset == 0));
        // A sub-path in the middle occurs at the right offset.
        if m0.path.cardinality() >= 3 {
            let sub = m0.path.slice(1, 2).unwrap();
            let sub_occs = store.occurrences_on(&sub);
            assert!(sub_occs.iter().any(|o| o.traj_index == 0 && o.offset == 1));
            // Every reported occurrence really matches.
            for o in &sub_occs {
                let m = store.get(o.traj_index).unwrap();
                assert_eq!(&m.path.edges()[o.offset..o.offset + 2], sub.edges());
            }
        }
    }

    #[test]
    fn qualified_filters_by_time_of_day() {
        let (_, store) = store_and_net();
        let m0 = store.get(0).unwrap().clone();
        let all = store.occurrences_on(&m0.path);
        let whole_day = TimeInterval::new(0.0, 86_400.0);
        assert_eq!(store.qualified(&m0.path, &whole_day).len(), all.len());
        let empty_window = TimeInterval::new(0.0, 1.0);
        assert!(store.qualified(&m0.path, &empty_window).len() <= all.len());
    }

    #[test]
    fn qualified_costs_have_consistent_shapes() {
        let (net, store) = store_and_net();
        let m0 = store.get(0).unwrap().clone();
        let whole_day = TimeInterval::new(0.0, 86_400.0);
        let totals = store.qualified_total_costs(&net, &m0.path, &whole_day, CostKind::TravelTime);
        let rows: Vec<Vec<f64>> = store
            .qualified(&m0.path, &whole_day)
            .iter()
            .filter_map(|o| {
                let matched = store.get(o.traj_index).unwrap();
                per_edge_costs(matched, &net, &m0.path, o.offset, CostKind::TravelTime)
            })
            .collect();
        assert_eq!(totals.len(), rows.len());
        for (t, row) in totals.iter().zip(&rows) {
            assert_eq!(row.len(), m0.path.cardinality());
            assert!((t - row.iter().sum::<f64>()).abs() < 1e-9);
        }
    }

    #[test]
    fn sparseness_curve_is_non_increasing() {
        let (_, store) = store_and_net();
        let curve = store.max_occurrences_by_cardinality(12);
        assert_eq!(curve.len(), 12);
        assert!(curve[0] > 0);
        for w in curve.windows(2) {
            assert!(
                w[1] <= w[0],
                "longer paths cannot have more exact occurrences: {curve:?}"
            );
        }
    }

    #[test]
    fn frequent_paths_respect_min_count_and_ordering() {
        let (_, store) = store_and_net();
        let frequent = store.frequent_paths(2, 3, None);
        for (path, count) in &frequent {
            assert_eq!(path.cardinality(), 2);
            assert!(*count >= 3);
            assert_eq!(store.occurrences_on(path).len(), *count);
        }
        for w in frequent.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn subset_and_merge_roundtrip() {
        let (_, store) = store_and_net();
        let half = store.subset(0.5);
        assert!(half.len() <= store.len());
        assert!(half.len() >= store.len() / 2 - 1);
        // Merging keeps the id-keyed union: a subset already contained in the
        // receiver adds nothing, disjoint trajectories all arrive.
        let mut other = store.subset(0.25);
        let quarter = other.len();
        assert_eq!(other.merge(store.subset(0.25)), 0, "same prefix: all dups");
        assert_eq!(other.len(), quarter);
        let merged = other.merge(half.clone());
        assert_eq!(other.len(), half.len());
        assert_eq!(merged, half.len() - quarter);
        assert!(store.subset(0.0).is_empty());
    }

    #[test]
    fn subset_sanitises_out_of_range_and_non_finite_fractions() {
        let (_, store) = store_and_net();
        assert!(store.subset(f64::NAN).is_empty());
        assert!(store.subset(f64::NEG_INFINITY).is_empty());
        assert!(store.subset(-0.5).is_empty());
        assert_eq!(store.subset(f64::INFINITY).len(), store.len());
        assert_eq!(store.subset(2.0).len(), store.len());
        assert_eq!(store.subset(1.0).len(), store.len());
    }

    #[test]
    fn append_matches_a_full_rebuild() {
        let (_, store) = store_and_net();
        let split = store.len() / 2;
        let mut incremental = TrajectoryStore::new(store.matched()[..split].to_vec());
        incremental.append(store.matched()[split..].to_vec());
        assert_eq!(incremental.len(), store.len());
        // Derived indices must agree with the from-scratch build: every
        // occurrence query answers identically.
        for m in store.matched().iter().take(10) {
            assert_eq!(
                incremental.occurrences_on(&m.path),
                store.occurrences_on(&m.path)
            );
            if m.path.cardinality() >= 2 {
                let sub = m.path.slice(0, 2).unwrap();
                assert_eq!(incremental.occurrences_on(&sub), store.occurrences_on(&sub));
            }
        }
        assert_eq!(incremental.covered_edges(), store.covered_edges());
        // Postings and their minutes, edge by edge.
        assert_eq!(postings_by_edge(&incremental), postings_by_edge(&store));
        assert!(incremental.postings(EdgeId(u32::MAX)).0.is_empty());
    }

    #[test]
    fn merge_empty_and_duplicate_heavy_inputs_keep_indices_consistent() {
        let (_, store) = store_and_net();
        // Merging an empty store is a no-op — including on the edge index.
        let mut merged = store.clone();
        assert_eq!(merged.merge(TrajectoryStore::new(Vec::new())), 0);
        assert_eq!(merged.len(), store.len());
        let m0 = store.get(0).unwrap().clone();
        assert_eq!(
            merged.occurrences_on(&m0.path),
            store.occurrences_on(&m0.path)
        );
        // Merging into an empty store reproduces the source.
        let mut from_empty = TrajectoryStore::new(Vec::new());
        assert!(from_empty.is_empty());
        from_empty.merge(store.clone());
        assert_eq!(from_empty.len(), store.len());
        // Duplicate-heavy: merging a store into itself is an id-keyed no-op —
        // occurrence counts must NOT double, and the index stays in sync with
        // a from-scratch rebuild over the deduplicated list.
        let mut doubled = store.clone();
        assert_eq!(doubled.merge(store.clone()), 0);
        assert_eq!(doubled.len(), store.len());
        let rebuilt = TrajectoryStore::new(
            store
                .matched()
                .iter()
                .chain(store.matched())
                .cloned()
                .collect(),
        );
        assert_eq!(rebuilt.len(), store.len(), "new() dedups by id too");
        assert_eq!(
            doubled.occurrences_on(&m0.path),
            rebuilt.occurrences_on(&m0.path)
        );
        assert_eq!(
            doubled.occurrences_on(&m0.path),
            store.occurrences_on(&m0.path)
        );
    }

    #[test]
    fn append_rejects_duplicate_ids_and_empty_batches_deterministically() {
        let (_, store) = store_and_net();
        let split = store.len() / 2;
        let mut incremental = TrajectoryStore::new(store.matched()[..split].to_vec());
        // An empty batch is a strict no-op.
        let edges_before = incremental.covered_edges();
        assert_eq!(incremental.append(Vec::new()), 0);
        assert_eq!(incremental.len(), split);
        assert_eq!(incremental.covered_edges(), edges_before);
        // A batch of already-stored ids is dropped wholesale; a mixed batch
        // keeps exactly the new ids, and repeating a batch (re-delivery)
        // changes nothing.
        assert_eq!(incremental.append(store.matched()[..split].to_vec()), 0);
        let mixed: Vec<MatchedTrajectory> = store.matched()[split - 1..].to_vec();
        assert_eq!(incremental.append(mixed.clone()), store.len() - split);
        assert_eq!(
            incremental.append(mixed),
            0,
            "re-delivered batch is a no-op"
        );
        assert_eq!(incremental.len(), store.len());
        // Within-batch duplicates: first occurrence wins.
        let mut fresh = TrajectoryStore::new(Vec::new());
        let dup = store.get(0).unwrap().clone();
        assert_eq!(fresh.append(vec![dup.clone(), dup.clone(), dup]), 1);
        assert_eq!(fresh.len(), 1);
        // The deduplicated store answers occurrence queries like a rebuild.
        for m in store.matched().iter().take(5) {
            assert_eq!(
                incremental.occurrences_on(&m.path),
                store.occurrences_on(&m.path)
            );
        }
        assert_eq!(incremental.covered_edges(), store.covered_edges());
    }

    #[test]
    fn start_time_percentiles_are_ordered_and_clamped() {
        let (_, store) = store_and_net();
        let p0 = store.start_time_at_percentile(0).unwrap();
        let p50 = store.start_time_at_percentile(50).unwrap();
        let p100 = store.start_time_at_percentile(100).unwrap();
        assert!(p0.seconds() <= p50.seconds() && p50.seconds() <= p100.seconds());
        // Out-of-range percentiles clamp instead of panicking.
        assert_eq!(
            store.start_time_at_percentile(100).unwrap().seconds(),
            store.start_time_at_percentile(999).unwrap().seconds()
        );
        // Percentile 0 is the oldest start: strictly-before retires nothing.
        let mut untouched = store;
        assert!(untouched.retire_before(p0).is_empty());
        assert!(TrajectoryStore::new(Vec::new())
            .start_time_at_percentile(50)
            .is_none());
    }

    #[test]
    fn retire_before_matches_a_rebuild_over_survivors() {
        let (_, store) = store_and_net();
        // Cut at the median start time: a real two-sided split.
        let cutoff = store.start_time_at_percentile(50).unwrap();

        let mut retired_store = store.clone();
        let removed = retired_store.retire_before(cutoff);
        assert!(!removed.is_empty(), "median cut retires something");
        assert!(!retired_store.is_empty(), "median cut keeps something");
        assert_eq!(removed.len() + retired_store.len(), store.len());
        for m in &removed {
            assert!(m.entry_times[0].seconds() < cutoff.seconds());
            assert!(!retired_store.contains_id(m.id));
        }
        // Survivors keep store order and the shrunk index answers every
        // occurrence query exactly like a from-scratch rebuild.
        let survivors: Vec<MatchedTrajectory> = store
            .matched()
            .iter()
            .filter(|m| m.entry_times[0].seconds() >= cutoff.seconds())
            .cloned()
            .collect();
        let rebuilt = TrajectoryStore::new(survivors);
        assert_eq!(retired_store.matched(), rebuilt.matched());
        for m in store.matched().iter().take(10) {
            assert_eq!(
                retired_store.occurrences_on(&m.path),
                rebuilt.occurrences_on(&m.path)
            );
            if m.path.cardinality() >= 2 {
                let sub = m.path.slice(0, 2).unwrap();
                assert_eq!(
                    retired_store.occurrences_on(&sub),
                    rebuilt.occurrences_on(&sub)
                );
            }
        }
        assert_eq!(retired_store.covered_edges(), rebuilt.covered_edges());
        // Postings and their minutes, edge by edge.
        assert_eq!(postings_by_edge(&retired_store), postings_by_edge(&rebuilt));
        // Retiring everything (or nothing) is well-behaved.
        let mut all = store.clone();
        assert_eq!(
            all.retire_before(Timestamp(f64::INFINITY)).len(),
            store.len()
        );
        assert!(all.is_empty());
        assert!(all.covered_edges().is_empty());
        assert_eq!(all.covered_edge_count(), 0);
        let mut none = store.clone();
        assert!(none.retire_before(Timestamp(f64::NEG_INFINITY)).is_empty());
        assert_eq!(none.len(), store.len());
    }

    #[test]
    fn retire_ids_removes_exactly_the_named_trajectories() {
        let (_, store) = store_and_net();
        let victims: Vec<u64> = store.matched().iter().step_by(3).map(|m| m.id).collect();
        let mut retired_store = store.clone();
        // Unknown ids are ignored; named ids are all removed, in store order.
        let mut request = victims.clone();
        request.push(u64::MAX);
        let removed = retired_store.retire_ids(&request);
        assert_eq!(
            removed.iter().map(|m| m.id).collect::<Vec<_>>(),
            victims,
            "removed in store order, unknown id ignored"
        );
        assert_eq!(retired_store.len() + removed.len(), store.len());
        let rebuilt = TrajectoryStore::new(
            store
                .matched()
                .iter()
                .filter(|m| !victims.contains(&m.id))
                .cloned()
                .collect(),
        );
        assert_eq!(retired_store.matched(), rebuilt.matched());
        for m in store.matched().iter().take(10) {
            assert_eq!(
                retired_store.occurrences_on(&m.path),
                rebuilt.occurrences_on(&m.path)
            );
        }
        assert_eq!(postings_by_edge(&retired_store), postings_by_edge(&rebuilt));
        // index_of stays consistent after renumbering.
        for (i, m) in retired_store.matched().iter().enumerate() {
            assert_eq!(retired_store.index_of(m.id), Some(i));
        }
        // Retire-then-append round-trip: re-appending the retired
        // trajectories yields a store equivalent to a rebuild over
        // survivors-then-retired.
        let mut round_trip = retired_store.clone();
        assert_eq!(round_trip.append(removed.clone()), removed.len());
        let expected = TrajectoryStore::new(
            retired_store
                .matched()
                .iter()
                .chain(removed.iter())
                .cloned()
                .collect(),
        );
        assert_eq!(round_trip.matched(), expected.matched());
        for m in store.matched().iter().take(10) {
            assert_eq!(
                round_trip.occurrences_on(&m.path),
                expected.occurrences_on(&m.path)
            );
        }
        assert_eq!(postings_by_edge(&round_trip), postings_by_edge(&expected));
    }

    #[test]
    fn compact_releases_retirement_capacity_without_changing_answers() {
        let (_, store) = store_and_net();
        let mut heavy = store.clone();
        let cutoff = heavy.start_time_at_percentile(80).unwrap();
        let removed = heavy.retire_before(cutoff);
        assert!(!removed.is_empty());
        assert!(
            heavy.matched_capacity() > heavy.len(),
            "heavy retirement must leave freed capacity behind"
        );
        let before = heavy.clone();
        heavy.compact();
        assert_eq!(heavy.matched_capacity(), heavy.len());
        // Compaction is invisible to every query.
        assert_eq!(heavy.matched(), before.matched());
        assert_eq!(heavy.covered_edges(), before.covered_edges());
        assert_eq!(postings_by_edge(&heavy), postings_by_edge(&before));
        for m in store.matched().iter().take(10) {
            assert_eq!(
                heavy.occurrences_on(&m.path),
                before.occurrences_on(&m.path)
            );
        }
        for (i, m) in heavy.matched().iter().enumerate() {
            assert_eq!(heavy.index_of(m.id), Some(i));
        }
    }

    #[test]
    fn covered_edges_subset_of_network_edges() {
        let (net, store) = store_and_net();
        let covered = store.covered_edges();
        assert!(!covered.is_empty());
        assert!(covered.len() <= net.edge_count());
        for e in covered {
            assert!(net.contains_edge(e));
        }
    }
}
