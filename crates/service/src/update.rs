//! Live weight-function updates with targeted cache invalidation.
//!
//! An ingest of new trajectories (produced by `pathcost-live`) re-derives a
//! small set of weight-function variables and publishes a new epoch. The
//! serving side's job is to keep answering queries as if the engine had been
//! rebuilt from the merged store with a cold cache — **without** rebuilding
//! anything or flushing the cache.
//!
//! One mechanism makes that exact. In the paper an estimate is a pure
//! function of the few instantiated variables its coarsest decomposition
//! selected (§4), so every cache entry carries its **reads** — the
//! fingerprints of the regime-qualified variable keys its estimation
//! consumed (the shift-and-enlarge unit probes plus the decomposition's
//! instantiated components, reported by
//! [`pathcost_core::EstimateArtifacts`]) — beside its value, and
//! [`QueryEngine::apply_update`] is a single
//! [`invalidate_matching`](crate::DistributionCache::invalidate_matching)
//! pass over the cache that evicts an entry when either rule holds:
//!
//! * **tracked** — its reads intersect the update's *updated* or *removed*
//!   keys: the value of something it consumed changed. An entry that never
//!   read the variable is bit-identical under the new epoch and survives. A
//!   read names its **source** regime — the fallback-ladder table the
//!   variable resolved from — so a regime-R entry that fell back to the
//!   global table is staled by global changes, not regime-R ones.
//! * **swept** — otherwise, an *added* variable (its key crossed β for the
//!   first time) or a *removed* one (its support dropped below β after
//!   trajectories were retired) may change the entry's candidate
//!   **selection** whether or not its previous estimate read the key, so
//!   reads cannot find it. Such a key `(p, I, table)` sweeps the entry when
//!   the table lies on the entry regime's fallback ladder and `p` occurs in
//!   the entry's path at a position `k` whose **footprint** admits `I`:
//!   `I` overlaps the shift-and-enlarged window `UI_k` by a positive length,
//!   or `p` is a unit key and a unit probe at `k` looked `I` up. Every
//!   entry stores the footprints of the candidate array it was estimated
//!   from ([`pathcost_core::PositionFootprint`], packed to four bytes a
//!   position as [`PackedFootprint`]), beside its reads. Apart
//!   from keys, an entry is swept when the update hands its regime to
//!   another view — a regime's first table appeared or its last one
//!   emptied — because an answer reports the fallback depth of the view
//!   that answered it, even one that read no trajectory variable.
//!
//! Why the swept rule is exact. The candidate array consults the weight
//! view in two ways only (§4.1.3, Eq. 3): the relevance scan at position
//! `k` keeps a variable whose path matches the query there only if its
//! interval overlaps `UI_k` by a positive length — the very test the
//! footprint's range records — and each unit probe at `k` looks up the
//! unit key of the `k`-th edge at one computed interval, which the
//! footprint records apart (at the midnight clamp `UI_k` is empty and the
//! probe wraps to interval 0, outside any range). The windows themselves
//! are computed from the probes' histograms, and the coarsest
//! decomposition reads only the array's ranks. So the array is a function
//! of the keys the footprints admit, plus the histograms of what it read;
//! a key added or removed where no occurrence of its path admits its
//! interval leaves the array, the decomposition and every histogram read
//! unchanged, and the cached answer is bit-identical to a re-estimate.
//! Histogram changes never alter selection, so updated keys need only the
//! tracked rule. (The footprints are the canonical departure's — the one
//! the entry was estimated at, and the only one it answers for.)
//!
//! Reads are 64-bit fingerprints; a collision can only over-evict (sound,
//! never stale). Together the two rules evict a superset of the entries
//! whose answers can change and a (typically small) subset of the whole
//! cache — the "bit-identical to full rebuild + flush" oracle is
//! property-tested in `tests/live_equivalence.rs`, which also pins the
//! per-update counts of each mode and checks that an entry the footprints
//! spare, though its path contains an added key, answers bit-identically
//! to a rebuild; `crates/service/tests/service.rs` checks that a 5 %
//! append evicts a strict subset of a warm cache.
//!
//! Consistency under concurrency: the new epoch is swapped in *before*
//! invalidation, and updates serialize against each other (monotonic
//! epochs). Queries racing an update may still read a pre-update cache entry
//! (a pre-update answer, exactly as if they had arrived earlier). A miss
//! whose estimation is in flight while the update lands is epoch-guarded by
//! the fill (estimate → insert value and reads under one shard lock, only if
//! the epoch is still the snapshot's there): the pass takes each shard lock
//! after the bump, so either it finds the inserted entry with its reads, or
//! the filler sees the bump and keeps its entry out — a raced fill can hand
//! its caller a pre-update answer but no other query ever reads it from the
//! cache. The engine's route map is emptied after the pass, and keeps only
//! answers of searches that began after their epoch's pass (see the
//! `engine` module). Sequential callers (ingest, then query) always observe
//! post-update answers.

use crate::cache::{key_fingerprint, DistributionCache};
use crate::engine::QueryEngine;
use crate::error::ServiceError;
use pathcost_core::{
    IntervalId, PackedFootprint, PathWeightFunction, RegimeId, RegimeSchema, WeightUpdate,
};
use pathcost_roadnet::{EdgeId, Path};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A regime-qualified variable key, as a [`WeightUpdate`] lists it.
type VariableKey = (Path, IntervalId, RegimeId);

/// The added and removed keys, indexed by the first edge of their path, so
/// the swept rule scans an entry's path once instead of once per key: a
/// bitset over edge ids rules out most positions, and the keys starting at
/// a marked edge are one run of a sorted list.
struct KeysByFirstEdge<'k> {
    marked: Vec<u64>,
    keys: Vec<(EdgeId, &'k VariableKey)>,
}

impl<'k> KeysByFirstEdge<'k> {
    fn new(keys: impl Iterator<Item = &'k VariableKey>) -> Self {
        let mut keys: Vec<_> = keys.map(|key| (key.0.first_edge(), key)).collect();
        keys.sort_unstable_by_key(|(edge, _)| *edge);
        let words = keys.last().map_or(0, |(edge, _)| edge.index() / 64 + 1);
        let mut marked = vec![0u64; words];
        for (edge, _) in &keys {
            marked[edge.index() / 64] |= 1 << (edge.index() % 64);
        }
        KeysByFirstEdge { marked, keys }
    }

    /// The keys whose path starts with `edge`.
    fn starting_with(&self, edge: EdgeId) -> &[(EdgeId, &'k VariableKey)] {
        let word = self.marked.get(edge.index() / 64).copied().unwrap_or(0);
        if word & (1 << (edge.index() % 64)) == 0 {
            return &[];
        }
        let from = self.keys.partition_point(|(first, _)| *first < edge);
        let len = self.keys[from..].partition_point(|(first, _)| *first == edge);
        &self.keys[from..from + len]
    }
}

/// The swept rule for one entry of regime `entry_regime` on `path`, whose
/// candidate array left `footprints`: some added or removed key's table is
/// on the entry's fallback ladder and its path occurs in `path` at a
/// position whose footprint admits its interval. Every occurrence counts —
/// a path may visit a key twice.
fn swept(
    path: &Path,
    footprints: &[PackedFootprint],
    entry_regime: RegimeId,
    schema: &RegimeSchema,
    changed: &KeysByFirstEdge<'_>,
) -> bool {
    let edges = path.edges();
    edges
        .iter()
        .zip(footprints)
        .enumerate()
        .any(|(k, (&edge, footprint))| {
            changed
                .starting_with(edge)
                .iter()
                .any(|(_, (sub, interval, table))| {
                    footprint.admits(*interval, sub.is_unit())
                        && edges[k..].starts_with(sub.edges())
                        && schema.contributes_to(entry_regime, *table)
                })
        })
}

/// The regimes whose queries `published` answers from another view than
/// `current` did. Only a regime with a view of its own in either epoch can
/// change hands, and those are the regimes of a non-empty table or of the
/// schema (see `PathWeightFunction::view`).
fn rerooted(current: &PathWeightFunction, published: &PathWeightFunction) -> Vec<RegimeId> {
    let schema = published
        .regime_schema()
        .entries()
        .map(|(regime, _)| regime);
    let tables = current.tables().keys().chain(published.tables().keys());
    (tables.copied().chain(schema))
        .filter(|&regime| current.view(regime).regime() != published.view(regime).regime())
        .collect()
}

/// The invalidation pass: evicts every entry of `cache` that the changed
/// variables — or a `rerooted` regime — can affect and returns
/// `(tracked, swept)`: how many fell to each rule of the module docs.
/// `schema` is the *new* epoch's fallback-ladder schema, which decides
/// which regimes' entries a touched table can reach.
fn invalidate(
    cache: &DistributionCache,
    schema: &RegimeSchema,
    rerooted: &[RegimeId],
    updated: &[VariableKey],
    added: &[VariableKey],
    removed: &[VariableKey],
) -> (u64, u64) {
    if updated.is_empty() && added.is_empty() && removed.is_empty() && rerooted.is_empty() {
        return (0, 0);
    }
    let stale_reads: HashSet<u64> = updated
        .iter()
        .chain(removed)
        .map(|(path, interval, regime)| key_fingerprint(path, *interval, *regime))
        .collect();
    let changed = KeysByFirstEdge::new(added.iter().chain(removed));
    let tracked = Cell::new(0u64);
    let evicted = cache.invalidate_matching(|path, _, entry_regime, reads, footprints| {
        if reads.iter().any(|read| stale_reads.contains(read)) {
            tracked.set(tracked.get() + 1);
            return true;
        }
        // The regime each change names is the *table* it landed in, so only
        // entries whose regime resolves through that table are swept: a
        // regime-R table change never evicts a sibling regime's (or the
        // global) entries, which is the strict-subset invalidation the
        // regime dimension promises.
        rerooted.contains(&entry_regime) || swept(path, footprints, entry_regime, schema, &changed)
    });
    (tracked.get(), evicted - tracked.get())
}

/// What one applied update did to the engine — the per-update view of the
/// cumulative `pathcost_ingest_*` / `pathcost_cache_invalidation_*`
/// families in [`QueryEngine::registry`](crate::QueryEngine::registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateReport {
    /// The epoch now published.
    pub epoch: u64,
    /// Variables whose histograms were re-derived.
    pub variables_updated: usize,
    /// Variables newly instantiated.
    pub variables_added: usize,
    /// Variables deleted because their support dropped below β (their
    /// trajectories were retired).
    pub variables_removed: usize,
    /// Entries evicted because their reads name an updated or removed
    /// variable.
    pub evicted_tracked: u64,
    /// Entries evicted by footprint alone (an added or removed variable's
    /// path occurs in theirs at a position whose footprint admits its
    /// interval; their reads name none of the changes), or because another
    /// view now answers their regime.
    pub evicted_swept: u64,
    /// Cache entries immediately before the update.
    pub cache_entries_before: usize,
    /// Cache entries surviving the update.
    pub cache_entries_after: usize,
}

impl UpdateReport {
    /// Total entries evicted by this update.
    pub fn evicted_total(&self) -> u64 {
        self.evicted_tracked + self.evicted_swept
    }
}

impl<'n> QueryEngine<'n> {
    /// Applies a live weight-function update: publishes the new epoch
    /// (swap-on-publish — in-flight queries keep their snapshot) and
    /// surgically evicts exactly the cache entries the changed variables can
    /// affect, instead of flushing.
    ///
    /// After this returns, sequential queries are answered bit-identically to
    /// an engine rebuilt from the merged trajectory store with a cold cache
    /// (the live subsystem's correctness oracle): surviving entries read only
    /// unchanged variables, evicted ones are re-estimated against the new
    /// epoch on their next miss.
    ///
    /// Updates are serialized: concurrent `apply_update` calls take the
    /// engine's update lock in turn, and an ingestor-stamped epoch that is
    /// not newer than the published one is rejected (delivering epochs out
    /// of order would otherwise publish stale weights under a newer version
    /// number).
    ///
    /// The update must keep the day partition (α) the engine was built with;
    /// a re-partitioned weight function would silently re-key every interval
    /// and is rejected.
    pub fn apply_update(&self, update: WeightUpdate) -> Result<UpdateReport, ServiceError> {
        if update.weights.partition() != self.partition() {
            return Err(ServiceError::InvalidRequest(
                "update must keep the day partition (α) the engine was built with",
            ));
        }
        let WeightUpdate {
            epoch,
            trajectories,
            trajectories_retired,
            dirty_keys: _,
            weights,
            updated,
            added,
            removed,
        } = update;

        // One update at a time: publish, epoch bump and invalidation form a
        // single critical section against other updaters (queries are not
        // blocked — they read the graph through its own lock).
        let _serialized = self.update_lock().lock().expect("update lock poisoned");
        let publish_started = std::time::Instant::now();
        // Hand-built updates (epoch 0, e.g. straight from `rederive`) get the
        // next engine-local version; the live ingestor stamps its own, which
        // must advance monotonically.
        let published = if epoch == 0 { self.epoch() + 1 } else { epoch };
        if published <= self.epoch() {
            return Err(ServiceError::InvalidRequest(
                "update epoch is not newer than the published epoch",
            ));
        }

        let cache_entries_before = self.cache().len();
        let current = self.graph();
        if weights.cost_kind() != current.weights().cost_kind() {
            return Err(ServiceError::InvalidRequest(
                "update must keep the cost kind the engine was built with",
            ));
        }
        let published_graph = Arc::new(current.with_weights(weights));
        self.publish_graph(published_graph.clone());
        // SeqCst pairs with the in-flight-fill guard in `QueryEngine::lookup`:
        // a fill that started before this store and takes its shard lock
        // after the pass below has visited that shard observes the bump and
        // keeps its entry out.
        self.epoch.store(published, Ordering::SeqCst);
        let published_weights = published_graph.weights();
        let schema = published_weights.regime_schema();
        let rerooted = rerooted(current.weights(), published_weights);
        let (evicted_tracked, evicted_swept) =
            invalidate(self.cache(), schema, &rerooted, &updated, &added, &removed);
        // Route answers read distributions, which the pass above has now
        // made the new epoch's: forget the old epoch's routes only here, so
        // no search that read a pre-pass entry can keep its answer.
        self.forget_routes(published);

        let recorder = &self.recorder;
        recorder.ingest_updates.inc();
        recorder.ingest_trajectories.add(trajectories as u64);
        recorder
            .ingest_trajectories_retired
            .add(trajectories_retired as u64);
        recorder.ingest_variables_updated.add(updated.len() as u64);
        recorder.ingest_variables_added.add(added.len() as u64);
        recorder.ingest_variables_removed.add(removed.len() as u64);
        recorder.invalidation_tracked_evictions.add(evicted_tracked);
        recorder.invalidation_swept_evictions.add(evicted_swept);
        recorder
            .ingest_publish_latency
            .observe_duration(publish_started.elapsed());
        Ok(UpdateReport {
            epoch: published,
            variables_updated: updated.len(),
            variables_added: added.len(),
            variables_removed: removed.len(),
            evicted_tracked,
            evicted_swept,
            cache_entries_before,
            cache_entries_after: self.cache().len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_core::PositionFootprint;
    use pathcost_roadnet::EdgeId;

    fn path(ids: &[u32]) -> Path {
        Path::from_edges_unchecked(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    /// The global regime pre-regime tests record under.
    const G: RegimeId = RegimeId::ALL_TRAFFIC;

    /// A footprint over the interval ids `overlapping` with the given probes.
    fn footprint(overlapping: std::ops::Range<u16>, probes: [Option<u16>; 2]) -> PositionFootprint {
        PositionFootprint {
            overlapping,
            probes: probes.map(|probe| probe.map(IntervalId)),
        }
    }

    #[test]
    fn reads_name_their_source_table_and_sibling_regimes_stay_untouched() {
        use crate::cache::CachedDistribution;
        use pathcost_hist::{Bucket, Histogram1D};

        let (peak, off) = (RegimeId(1), RegimeId(2));
        let schema = RegimeSchema::flat().with_group(peak, G).with_group(off, G);
        // A 22:50 departure (α = 30 min) on edges 1 → 2 → 3: UI_0 lies in
        // interval 45, UI_1 spans 46–47, and UI_2 is clamped at midnight —
        // empty, its row's unit probe wrapped to interval 0.
        let entry = path(&[1, 2, 3]);
        let at = IntervalId(45);
        let footprints = || {
            vec![
                footprint(45..46, [Some(45), None]),
                footprint(46..48, [Some(46), None]),
                footprint(0..0, [None, Some(0)]),
            ]
        };
        // The same variable key — the unit probed at position 0 — lives in
        // two tables, global and peak.
        let key = path(&[1]);
        let read = |regime| vec![key_fingerprint(&key, at, regime)];
        // A global entry reading the global table, a peak entry that
        // resolved the key from the peak table, and an off-peak entry that
        // fell back to the global table (its read names the *source*).
        let value = || CachedDistribution {
            histogram: Arc::new(
                Histogram1D::from_entries(vec![(Bucket::new(1.0, 2.0).unwrap(), 1.0)]).unwrap(),
            ),
            decomposition_depth: 1,
            fallback_depth: 0,
        };
        let warm = || {
            let cache = DistributionCache::new(2, 8);
            cache.insert(&entry, at, G, value(), read(G), footprints());
            cache.insert(&entry, at, peak, value(), read(peak), footprints());
            cache.insert(&entry, at, off, value(), read(G), footprints());
            cache
        };
        let cached = |cache: &DistributionCache| {
            [G, peak, off].map(|regime| cache.get(&entry, at, regime).is_some())
        };

        // A peak-table update stales only the own-table reader…
        let cache = warm();
        let changed = [(key.clone(), at, peak)];
        assert_eq!(invalidate(&cache, &schema, &[], &changed, &[], &[]), (1, 0));
        assert_eq!(cached(&cache), [true, false, true]);
        // …and a global-table one the global reader AND the off-peak
        // fallback reader, never the peak entry.
        let cache = warm();
        let changed = [(key.clone(), at, G)];
        assert_eq!(invalidate(&cache, &schema, &[], &changed, &[], &[]), (2, 0));
        assert_eq!(cached(&cache), [false, true, false]);

        // An added key sweeps only where its path occurs at a position whose
        // footprint admits its interval. Outside every footprint — an
        // interval UI_0 does not reach (its range ends before 46), one
        // before UI_1, a unit at an interval nobody probed — nothing goes.
        let cache = warm();
        for outside in [
            (path(&[1, 2]), IntervalId(46)),
            (path(&[2, 3]), IntervalId(45)),
            (path(&[1]), IntervalId(46)),
        ] {
            let changed = [(outside.0, outside.1, G)];
            assert_eq!(invalidate(&cache, &schema, &[], &[], &changed, &[]), (0, 0));
        }
        assert_eq!(cache.len(), 3);
        // Inside UI_1's range the key reaches every regime whose ladder
        // holds its table: a peak-table key peak entries only, a global one
        // every regime.
        let changed = [(path(&[2, 3]), IntervalId(47), peak)];
        assert_eq!(invalidate(&cache, &schema, &[], &[], &changed, &[]), (0, 1));
        assert_eq!(cached(&cache), [true, false, true]);
        let changed = [(path(&[2, 3]), IntervalId(47), G)];
        assert_eq!(invalidate(&cache, &schema, &[], &[], &changed, &[]), (0, 2));
        assert!(cache.is_empty());
        // A unit key at the interval position 2's probe wrapped to sweeps,
        // though UI_2 admits no interval; a longer key there could not.
        let cache = warm();
        let changed = [(path(&[2, 3]), IntervalId(0), G)];
        assert_eq!(invalidate(&cache, &schema, &[], &[], &changed, &[]), (0, 0));
        let changed = [(path(&[3]), IntervalId(0), G)];
        assert_eq!(invalidate(&cache, &schema, &[], &[], &changed, &[]), (0, 3));

        // A path that visits `5 → 6` twice: the key sweeps when either
        // occurrence admits its interval, here only the second one, and
        // not one past that occurrence's range.
        let looped = path(&[5, 6, 5, 6]);
        let cache = DistributionCache::new(2, 8);
        let looped_footprints = || {
            vec![
                footprint(10..11, [Some(10), None]),
                footprint(10..12, [Some(11), None]),
                footprint(11..13, [Some(12), None]),
                footprint(12..14, [None, None]),
            ]
        };
        cache.insert(
            &looped,
            IntervalId(10),
            G,
            value(),
            Vec::new(),
            looped_footprints(),
        );
        let changed = [(path(&[5, 6]), IntervalId(13), G)];
        assert_eq!(invalidate(&cache, &schema, &[], &[], &changed, &[]), (0, 0));
        let changed = [(path(&[5, 6]), IntervalId(12), G)];
        assert_eq!(invalidate(&cache, &schema, &[], &[], &[], &changed), (0, 1));
        assert!(cache.is_empty());

        // A removed key counts its readers as tracked and the other entries
        // whose footprint admits it as swept; an update that changed
        // nothing, or only keys nobody read or could select, evicts nothing.
        let cache = warm();
        let changed = [(key.clone(), at, G)];
        assert_eq!(invalidate(&cache, &schema, &[], &[], &[], &changed), (2, 1));
        let cache = warm();
        let changed = [(path(&[7]), at, G)];
        assert_eq!(
            invalidate(&cache, &schema, &[], &changed, &changed, &[]),
            (0, 0)
        );
        assert_eq!(invalidate(&cache, &schema, &[], &[], &[], &[]), (0, 0));
        assert_eq!(cache.len(), 3);
        // A regime another view now answers loses every entry, whatever it
        // read; the other regimes keep theirs.
        assert_eq!(invalidate(&cache, &schema, &[off], &[], &[], &[]), (0, 1));
        assert_eq!(cached(&cache), [true, true, false]);
    }

    #[test]
    fn update_report_totals_both_eviction_counts() {
        let report = UpdateReport {
            epoch: 1,
            variables_updated: 2,
            variables_added: 1,
            variables_removed: 1,
            evicted_tracked: 3,
            evicted_swept: 1,
            cache_entries_before: 16,
            cache_entries_after: 12,
        };
        assert_eq!(report.evicted_total(), 4);
    }
}
