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
//! * **swept** — otherwise, its path contains the path of an *added*
//!   variable (its key crossed β for the first time) or a *removed* one (its
//!   support dropped below β after trajectories were retired) whose table
//!   lies on the entry regime's fallback ladder. Such a change alters
//!   candidate **selection** for every containing path whether or not that
//!   path's previous estimate read the key, so reads cannot find it. Any
//!   interval matches — temporal relevance depends on the entry's
//!   shift-and-enlarge windows, which the rule conservatively does not
//!   model.
//!
//! Reads are 64-bit fingerprints; a collision can only over-evict (sound,
//! never stale). Together the two rules evict a superset of the entries
//! whose answers can change and a (typically small) subset of the whole
//! cache — the "bit-identical to full rebuild + flush" oracle is
//! property-tested in `tests/live_equivalence.rs`, which also pins the
//! per-update counts of each mode; `tests/service.rs` checks that a 5 %
//! append evicts a strict subset of a warm cache.
//!
//! Consistency under concurrency: the new epoch is swapped in *before*
//! invalidation, and updates serialize against each other (monotonic
//! epochs). Queries racing an update may still read a pre-update cache entry
//! (a pre-update answer, exactly as if they had arrived earlier). A miss
//! whose estimation is in flight while the update lands is epoch-guarded by
//! the three-step fill (estimate → insert value and reads under one shard
//! lock → re-check the epoch): either the pass finds the inserted entry
//! with its reads, or the filler observes the epoch bump after its insert
//! and evicts its own entry — a raced fill can hand its caller a pre-update
//! answer but never *retains* one. Sequential callers (ingest, then query)
//! always observe post-update answers.

use crate::cache::{key_fingerprint, DistributionCache};
use crate::engine::QueryEngine;
use crate::error::ServiceError;
use pathcost_core::{IntervalId, RegimeId, RegimeSchema, WeightUpdate};
use pathcost_roadnet::Path;
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A regime-qualified variable key, as a [`WeightUpdate`] lists it.
type VariableKey = (Path, IntervalId, RegimeId);

/// The invalidation pass: evicts every entry of `cache` that the changed
/// variables can affect and returns `(tracked, swept)` — how many fell to
/// each rule of the module docs. `schema` is the *new* epoch's
/// fallback-ladder schema, which decides which regimes' entries a touched
/// table can reach.
fn invalidate(
    cache: &DistributionCache,
    schema: &RegimeSchema,
    updated: &[VariableKey],
    added: &[VariableKey],
    removed: &[VariableKey],
) -> (u64, u64) {
    if updated.is_empty() && added.is_empty() && removed.is_empty() {
        return (0, 0);
    }
    let stale_reads: HashSet<u64> = updated
        .iter()
        .chain(removed)
        .map(|(path, interval, regime)| key_fingerprint(path, *interval, *regime))
        .collect();
    let tracked = Cell::new(0u64);
    let evicted = cache.invalidate_matching(|path, _, entry_regime, reads| {
        if reads.iter().any(|read| stale_reads.contains(read)) {
            tracked.set(tracked.get() + 1);
            return true;
        }
        // The regime each change names is the *table* it landed in, so only
        // entries whose regime resolves through that table are swept: a
        // regime-R table change never evicts a sibling regime's (or the
        // global) entries, which is the strict-subset invalidation the
        // regime dimension promises.
        added.iter().chain(removed).any(|(sub, _, var_regime)| {
            schema.contributes_to(entry_regime, *var_regime) && sub.is_subpath_of(path)
        })
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
    /// Entries evicted by containment alone (their path contains an added
    /// or removed variable's path; their reads name none of the changes).
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
        // SeqCst pairs with the in-flight-fill guard in `estimate_cached_on`:
        // a fill that started before this store and lands after the pass
        // below observes the bump and evicts its own entry.
        self.epoch.store(published, Ordering::SeqCst);
        let schema = published_graph.weights().regime_schema();
        let (evicted_tracked, evicted_swept) =
            invalidate(self.cache(), schema, &updated, &added, &removed);

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
    use pathcost_roadnet::EdgeId;

    fn path(ids: &[u32]) -> Path {
        Path::from_edges_unchecked(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    /// The global regime pre-regime tests record under.
    const G: RegimeId = RegimeId::ALL_TRAFFIC;

    #[test]
    fn reads_name_their_source_table_and_sibling_regimes_stay_untouched() {
        use crate::cache::CachedDistribution;
        use pathcost_hist::{Bucket, Histogram1D};

        let (peak, off) = (RegimeId(1), RegimeId(2));
        let schema = RegimeSchema::flat().with_group(peak, G).with_group(off, G);
        // The same variable key lives in two tables, global and peak.
        let key = path(&[1]);
        let at = IntervalId(4);
        let read = |regime| vec![key_fingerprint(&key, at, regime)];
        let entry = path(&[1, 2, 3]);
        // A global entry reading the global table, a peak entry that
        // resolved the key from the peak table, and an off-peak entry that
        // fell back to the global table (its read names the *source*).
        let warm = || {
            let cache = DistributionCache::new(2, 8);
            let bucket = Bucket::new(1.0, 2.0).unwrap();
            let value = CachedDistribution {
                histogram: Arc::new(Histogram1D::from_entries(vec![(bucket, 1.0)]).unwrap()),
                decomposition_depth: 1,
                fallback_depth: 0,
            };
            cache.insert(&entry, at, G, value.clone(), read(G));
            cache.insert(&entry, at, peak, value.clone(), read(peak));
            cache.insert(&entry, at, off, value, read(G));
            cache
        };
        let cached = |cache: &DistributionCache| {
            [G, peak, off].map(|regime| cache.get(&entry, at, regime).is_some())
        };

        // A peak-table update stales only the own-table reader…
        let cache = warm();
        let changed = [(key.clone(), at, peak)];
        assert_eq!(invalidate(&cache, &schema, &changed, &[], &[]), (1, 0));
        assert_eq!(cached(&cache), [true, false, true]);
        // …and a global-table one the global reader AND the off-peak
        // fallback reader, never the peak entry.
        let cache = warm();
        let changed = [(key.clone(), at, G)];
        assert_eq!(invalidate(&cache, &schema, &changed, &[], &[]), (2, 0));
        assert_eq!(cached(&cache), [false, true, false]);

        // Containment follows the ladder the same way: a key added to the
        // peak table reaches peak entries only, one added globally reaches
        // every regime. Another interval's key is no read of these entries.
        let elsewhere = IntervalId(9);
        let cache = warm();
        let changed = [(path(&[2, 3]), elsewhere, peak)];
        assert_eq!(invalidate(&cache, &schema, &[], &changed, &[]), (0, 1));
        assert_eq!(cached(&cache), [true, false, true]);
        let changed = [(path(&[2, 3]), elsewhere, G)];
        assert_eq!(invalidate(&cache, &schema, &[], &changed, &[]), (0, 2));
        assert!(cache.is_empty());

        // A removed key counts its readers as tracked and the other
        // containing entries as swept; an update that changed nothing, or
        // only keys nobody read or contains, evicts nothing.
        let cache = warm();
        let changed = [(key.clone(), at, G)];
        assert_eq!(invalidate(&cache, &schema, &[], &[], &changed), (2, 1));
        let cache = warm();
        let changed = [(path(&[7]), at, G)];
        assert_eq!(invalidate(&cache, &schema, &changed, &changed, &[]), (0, 0));
        assert_eq!(invalidate(&cache, &schema, &[], &[], &[]), (0, 0));
        assert_eq!(cache.len(), 3);
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
