//! Live weight-function updates with dependency-tracked cache invalidation.
//!
//! An ingest of new trajectories (produced by `pathcost-live`) re-derives a
//! small set of weight-function variables and publishes a new epoch. The
//! serving side's job is to keep answering queries as if the engine had been
//! rebuilt from the merged store with a cold cache — **without** rebuilding
//! anything or flushing the cache. Two mechanisms make that exact:
//!
//! * **Dependency index** — every cache fill records the trajectory-derived
//!   variable keys its estimation *read* (the shift-and-enlarge unit probes
//!   plus the decomposition's instantiated components, reported by
//!   [`pathcost_core::EstimateArtifacts`]). When an update re-derives an
//!   existing variable, exactly the recorded readers are evicted: an entry
//!   that never read the variable is bit-identical under the new epoch and
//!   survives.
//! * **Containment sweep** — a variable that is newly *added* (its key
//!   crossed β for the first time) or *removed* (its support dropped below β
//!   after trajectories were retired) changes candidate **selection** for any
//!   query path that contains its path, whether or not that path's previous
//!   estimate read it. Those entries cannot be found through recorded reads,
//!   so the cache is swept per shard and every entry whose path contains an
//!   added or removed variable's path (any interval — temporal relevance
//!   depends on the entry's shift-and-enlarge windows, which the sweep
//!   conservatively does not model) is evicted. Readers of removed variables
//!   are additionally flushed through the dependency index, like updated
//!   ones.
//!
//! Index hygiene: whenever the cache drops an entry — through either rule
//! above, LRU capacity pressure, or a raced fill evicting itself — the
//! entry's recorded reader edges are purged from the [`DependencyIndex`]
//! (counted as `invalidation_stale_reader_purges` in
//! [`ServiceStats`](crate::ServiceStats)), so the index stays bounded by the
//! live cache contents instead of accumulating edges for dead entries until
//! their variables happen to update.
//!
//! Together the two rules evict a superset of the entries whose answers can
//! change and a (typically small) subset of the whole cache — the
//! "bit-identical to full rebuild + flush" oracle is property-tested in
//! `tests/live_equivalence.rs`, and `benches/live_ingest.rs` measures the
//! precision and the warm-query latency advantage over a full flush.
//!
//! Consistency under concurrency: the new epoch is swapped in *before*
//! invalidation, and updates serialize against each other (monotonic
//! epochs). Queries racing an update may still read a pre-update cache entry
//! (a pre-update answer, exactly as if they had arrived earlier). A miss
//! whose estimation is in flight while the update lands is epoch-guarded:
//! the filler detects the epoch bump after its insert and evicts its own
//! entry, so a raced fill can hand its caller a pre-update answer but never
//! *retains* one the invalidation pass already missed. Sequential callers
//! (ingest, then query) always observe post-update answers.

use crate::cache::key_fingerprint;
use crate::engine::QueryEngine;
use crate::error::ServiceError;
use pathcost_core::{HybridGraph, IntervalId, RegimeId, WeightUpdate};
use pathcost_roadnet::Path;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// The recorded readers of one variable, keyed by the reader entry's
/// regime- and interval-mixed fingerprint so registration, draining and
/// targeted purging are all O(1) per edge (popular unit variables accumulate
/// hundreds of readers; linear scans per operation would creep toward O(n²)).
#[derive(Default)]
struct Readers {
    entries: HashMap<u64, (Path, IntervalId, RegimeId)>,
}

/// Bidirectional index between weight-function variable keys and the cache
/// entries whose estimations read them.
///
/// The *reverse* direction (variable → reader entries) answers "which entries
/// must an update of this variable evict". The *forward* direction (entry →
/// variables read) exists purely for hygiene: whenever the cache drops an
/// entry — LRU pressure, targeted invalidation, a raced fill evicting
/// itself — the crate-internal `purge_entry` removes every reader edge the
/// entry left behind, which keeps the index bounded by the *live* cache
/// contents instead of leaking edges until each variable happens to update.
///
/// Keys in both directions are interval-mixed path fingerprints; a
/// fingerprint collision merges two keys' records, which for the reverse
/// direction can only over-evict (sound, never stale) and for the forward
/// direction can at worst purge an edge early (under-tracking an entry whose
/// 64-bit fingerprint collides — negligible, and still only over-evicts
/// later via the containment sweep).
///
/// Mirrors the cache's concurrency model: each direction is split across
/// mutex-protected shards selected by the high bits of the fingerprint, and
/// no operation holds two shard locks at once (reverse shards are taken one
/// at a time, forward shards likewise), so concurrent fills only contend
/// when they read the same variables.
pub struct DependencyIndex {
    /// Variable fingerprint → its recorded reader entries.
    shards: Vec<Mutex<HashMap<u64, Readers>>>,
    /// Entry fingerprint → the variable fingerprints its estimation read.
    entries: Vec<Mutex<HashMap<u64, Vec<u64>>>>,
}

impl Default for DependencyIndex {
    fn default() -> Self {
        DependencyIndex::with_shards(16)
    }
}

impl DependencyIndex {
    /// An index with `shards` shards per direction (clamped to at least 1).
    /// The engine passes its cache's shard count so forward records — keyed
    /// by the same interval-mixed fingerprint as cache entries — partition
    /// across workers exactly like the cache shards they describe.
    pub(crate) fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        DependencyIndex {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            entries: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard_of(&self, variable_fingerprint: u64) -> &Mutex<HashMap<u64, Readers>> {
        let i = (variable_fingerprint >> 48) as usize % self.shards.len();
        &self.shards[i]
    }

    fn entry_shard_of(&self, entry_fingerprint: u64) -> &Mutex<HashMap<u64, Vec<u64>>> {
        let i = (entry_fingerprint >> 48) as usize % self.entries.len();
        &self.entries[i]
    }

    /// Records that the cache entry `(entry_path, entry_interval,
    /// entry_regime)` was estimated by reading each variable in
    /// `dependencies`. Each dependency names its **source** regime — the
    /// fallback-ladder table the variable actually resolved from — so a
    /// regime-R entry that fell back to the global table is registered as a
    /// global reader and is evicted by global updates, not regime-R ones.
    pub(crate) fn record(
        &self,
        dependencies: &[(Path, IntervalId, RegimeId)],
        entry_path: &Path,
        entry_interval: IntervalId,
        entry_regime: RegimeId,
    ) {
        if dependencies.is_empty() {
            return;
        }
        let entry_fingerprint = key_fingerprint(entry_path, entry_interval, entry_regime);
        let keys: Vec<u64> = dependencies
            .iter()
            .map(|(var_path, var_interval, var_regime)| {
                key_fingerprint(var_path, *var_interval, *var_regime)
            })
            .collect();
        // Forward record first — the order `purge_entry` reads in — so every
        // reverse edge written below already has its forward counterpart: a
        // purge racing this registration finds (and can remove) whatever
        // reverse edges exist so far, and the filler's post-insert
        // re-registration heals a purge that won the race outright.
        {
            let mut forward = self
                .entry_shard_of(entry_fingerprint)
                .lock()
                .expect("dependency index poisoned");
            let vars = forward.entry(entry_fingerprint).or_default();
            for &key in &keys {
                if !vars.contains(&key) {
                    vars.push(key);
                }
            }
        }
        for &key in &keys {
            let mut shard = self
                .shard_of(key)
                .lock()
                .expect("dependency index poisoned");
            shard.entry(key).or_default().entries.insert(
                entry_fingerprint,
                (entry_path.clone(), entry_interval, entry_regime),
            );
        }
    }

    /// Removes the reader sets of the given variable keys and returns their
    /// union, deduplicated — the entries an update of those variables must
    /// evict. The drained entries' *other* edges (and forward records) are
    /// left for the caller to purge via [`Self::purge_entry`] once the cache
    /// entry itself is gone.
    pub(crate) fn drain_dependents(
        &self,
        variables: &[(Path, IntervalId, RegimeId)],
    ) -> Vec<(Path, IntervalId, RegimeId)> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (var_path, var_interval, var_regime) in variables {
            let key = key_fingerprint(var_path, *var_interval, *var_regime);
            let drained = self
                .shard_of(key)
                .lock()
                .expect("dependency index poisoned")
                .remove(&key);
            for (fingerprint, entry) in drained.map(|r| r.entries).unwrap_or_default() {
                if seen.insert(fingerprint) {
                    out.push(entry);
                }
            }
        }
        out
    }

    /// Purges every reader edge the cache entry `(path, interval)` left in
    /// the index, returning how many edges were removed. Called whenever the
    /// cache drops an entry (LRU eviction, targeted invalidation, raced-fill
    /// self-eviction); purging an entry that was never recorded — or whose
    /// edges were already drained — is a cheap no-op.
    pub(crate) fn purge_entry(&self, path: &Path, interval: IntervalId, regime: RegimeId) -> u64 {
        let entry_fingerprint = key_fingerprint(path, interval, regime);
        let vars = self
            .entry_shard_of(entry_fingerprint)
            .lock()
            .expect("dependency index poisoned")
            .remove(&entry_fingerprint);
        let Some(vars) = vars else {
            return 0;
        };
        let mut purged = 0;
        for key in vars {
            let mut shard = self
                .shard_of(key)
                .lock()
                .expect("dependency index poisoned");
            if let Some(readers) = shard.get_mut(&key) {
                if readers.entries.remove(&entry_fingerprint).is_some() {
                    purged += 1;
                }
                if readers.entries.is_empty() {
                    shard.remove(&key);
                }
            }
        }
        purged
    }

    /// `true` when the entry `(path, interval)` currently has a forward
    /// record. Purges remove the forward record first (and run to completion
    /// under the entry's cache shard lock), so after an insert a surviving
    /// forward record proves the pre-insert registration was not raced away.
    pub(crate) fn entry_recorded(
        &self,
        path: &Path,
        interval: IntervalId,
        regime: RegimeId,
    ) -> bool {
        let entry_fingerprint = key_fingerprint(path, interval, regime);
        self.entry_shard_of(entry_fingerprint)
            .lock()
            .expect("dependency index poisoned")
            .contains_key(&entry_fingerprint)
    }

    /// Drops every recorded reader edge and forward record, returning the
    /// number of edges dropped — the dependency-index half of a full cache
    /// flush (`QueryEngine::flush_cache`).
    pub(crate) fn clear(&self) -> u64 {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("dependency index poisoned");
            dropped += shard.values().map(|r| r.entries.len() as u64).sum::<u64>();
            shard.clear();
        }
        for shard in &self.entries {
            shard.lock().expect("dependency index poisoned").clear();
        }
        dropped
    }

    /// Number of variable keys with at least one recorded reader.
    pub fn tracked_variables(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("dependency index poisoned").len())
            .sum()
    }

    /// Total recorded (variable → entry) reader edges.
    pub fn tracked_readers(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("dependency index poisoned")
                    .values()
                    .map(|r| r.entries.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Number of distinct cache entries with at least one recorded reader
    /// edge. With eviction-time purging in place this is bounded by the
    /// number of *live* cache entries — the hygiene invariant the churn
    /// tests assert.
    pub fn tracked_entries(&self) -> usize {
        self.entries
            .iter()
            .map(|s| s.lock().expect("dependency index poisoned").len())
            .sum()
    }
}

/// What one applied update did to the engine — the per-update view of the
/// cumulative `ingest_*` / `invalidation_*` counters in
/// [`ServiceStats`](crate::ServiceStats).
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
    /// Entries evicted through the dependency index (readers of updated or
    /// removed variables).
    pub evicted_tracked: u64,
    /// Entries evicted by the containment sweep (paths containing an added
    /// or removed variable).
    pub evicted_swept: u64,
    /// Stale reader edges purged from the dependency index while evicting
    /// (the evicted entries' edges to variables this update did not touch).
    pub stale_reader_purges: u64,
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

    /// Fraction of the pre-update cache this update evicted, in `[0, 1]`.
    /// A full flush scores 1.0; targeted invalidation's whole point is to
    /// keep this near the fraction of variables that actually changed.
    pub fn evicted_fraction(&self) -> f64 {
        if self.cache_entries_before == 0 {
            0.0
        } else {
            self.evicted_total() as f64 / self.cache_entries_before as f64
        }
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
        // The new epoch's fallback-ladder schema decides which regimes' cache
        // entries a touched table can affect (the containment sweep below).
        let schema = weights.regime_schema().clone();
        let new_graph =
            HybridGraph::from_parts(current.network(), weights, current.config().clone());
        self.publish_graph(Arc::new(new_graph));
        // SeqCst pairs with the in-flight-fill guard in `estimate_cached_on`:
        // a fill that started before this store and lands after the drain
        // below observes the bump and evicts its own entry.
        self.epoch.store(published, Ordering::SeqCst);

        // Updated variables: evict exactly the recorded readers. Removed
        // (below-β-deleted) variables are treated the same way — an entry
        // whose estimation read the deleted key is stale — and additionally
        // swept below, because deletion changes candidate selection for
        // *containing* paths whether or not they read the key.
        let mut evicted_tracked = 0u64;
        let mut stale_reader_purges = 0u64;
        let drained: Vec<(Path, IntervalId, RegimeId)> =
            updated.iter().chain(removed.iter()).cloned().collect();
        for (path, interval, regime) in self.deps.drain_dependents(&drained) {
            if self.cache().remove(&path, interval, regime) {
                evicted_tracked += 1;
            }
            // Hygiene: the evicted entry's edges to variables this update
            // did NOT touch would otherwise linger as stale readers. The
            // purge is liveness-checked, so a fill under the *new* epoch
            // that re-inserted this key mid-loop keeps its edges.
            stale_reader_purges += self.purge_stale_edges(&path, interval, regime);
        }
        // Added and removed variables: sweep by sub-path containment
        // (selection change), purging the swept entries' reader edges. The
        // regime each change names is the *table* it landed in, so only
        // entries whose regime resolves through that table — the table lies
        // on the entry regime's fallback ladder — are swept: a regime-R
        // table change never evicts a sibling regime's (or the global)
        // entries, which is the strict-subset invalidation the regime
        // dimension promises.
        let swept = if added.is_empty() && removed.is_empty() {
            Vec::new()
        } else {
            self.cache().invalidate_matching(|path, _, entry_regime| {
                added
                    .iter()
                    .chain(removed.iter())
                    .any(|(sub, _, var_regime)| {
                        schema.contributes_to(entry_regime, *var_regime) && sub.is_subpath_of(path)
                    })
            })
        };
        let evicted_swept = swept.len() as u64;
        for (path, interval, regime) in swept {
            stale_reader_purges += self.purge_stale_edges(&path, interval, regime);
        }

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
            stale_reader_purges,
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
    fn dependency_index_records_dedups_and_drains() {
        let index = DependencyIndex::default();
        let unit = (path(&[1]), IntervalId(4), G);
        let pair = (path(&[1, 2]), IntervalId(4), G);
        let entry = path(&[1, 2, 3]);
        index.record(&[unit.clone(), pair.clone()], &entry, IntervalId(4), G);
        index.record(std::slice::from_ref(&unit), &entry, IntervalId(4), G); // duplicate
        index.record(std::slice::from_ref(&unit), &entry, IntervalId(5), G); // other interval
        assert_eq!(index.tracked_variables(), 2);
        assert_eq!(index.tracked_readers(), 3);
        assert_eq!(index.tracked_entries(), 2);

        let dependents = index.drain_dependents(std::slice::from_ref(&unit));
        assert_eq!(dependents.len(), 2, "{dependents:?}");
        assert!(dependents.iter().all(|(p, _, _)| *p == entry));
        // Drained keys are gone; the pair variable's reader remains.
        assert_eq!(index.tracked_variables(), 1);
        assert!(index.drain_dependents(&[unit]).is_empty());
        assert_eq!(index.drain_dependents(&[pair]).len(), 1);
    }

    #[test]
    fn purge_entry_removes_exactly_the_entrys_edges() {
        let index = DependencyIndex::default();
        let unit = (path(&[1]), IntervalId(4), G);
        let pair = (path(&[1, 2]), IntervalId(4), G);
        let entry_a = path(&[1, 2, 3]);
        let entry_b = path(&[1, 2, 4]);
        index.record(&[unit.clone(), pair.clone()], &entry_a, IntervalId(4), G);
        index.record(std::slice::from_ref(&unit), &entry_b, IntervalId(4), G);
        assert_eq!(index.tracked_readers(), 3);
        assert_eq!(index.tracked_entries(), 2);

        // Purging A removes both of its edges; B's edge survives untouched.
        assert_eq!(index.purge_entry(&entry_a, IntervalId(4), G), 2);
        assert_eq!(index.tracked_readers(), 1);
        assert_eq!(index.tracked_entries(), 1);
        // The pair variable lost its only reader and is gone entirely.
        assert_eq!(index.tracked_variables(), 1);
        assert!(index
            .drain_dependents(std::slice::from_ref(&pair))
            .is_empty());
        // Purging is idempotent and safe for unknown entries.
        assert_eq!(index.purge_entry(&entry_a, IntervalId(4), G), 0);
        assert_eq!(index.purge_entry(&path(&[9]), IntervalId(0), G), 0);
        // B's reader edge is still drainable.
        assert_eq!(index.drain_dependents(&[unit]).len(), 1);
        // Draining left B's forward record behind; purging it afterwards is
        // the no-op cleanup apply_update performs after each eviction.
        assert_eq!(index.purge_entry(&entry_b, IntervalId(4), G), 0);
        assert_eq!(index.tracked_entries(), 0);
        assert_eq!(index.tracked_readers(), 0);
    }

    #[test]
    fn regime_qualified_records_drain_independently() {
        let index = DependencyIndex::default();
        let (peak, off) = (RegimeId(1), RegimeId(2));
        let key = path(&[1]);
        // The same variable key lives in three tables: global, peak, off-peak.
        let entry = path(&[1, 2, 3]);
        // A global entry reading the global table, a peak entry that resolved
        // the key from the peak table, and a peak entry that fell back to the
        // global table (its dependency is recorded at the *source* regime).
        index.record(&[(key.clone(), IntervalId(4), G)], &entry, IntervalId(4), G);
        index.record(
            &[(key.clone(), IntervalId(4), peak)],
            &entry,
            IntervalId(4),
            peak,
        );
        index.record(
            &[(key.clone(), IntervalId(4), G)],
            &entry,
            IntervalId(4),
            off,
        );
        assert_eq!(index.tracked_variables(), 2, "global + peak tables");
        assert_eq!(index.tracked_entries(), 3);

        // Draining the peak table's key evicts only the own-table reader.
        let peak_readers = index.drain_dependents(&[(key.clone(), IntervalId(4), peak)]);
        assert_eq!(peak_readers, vec![(entry.clone(), IntervalId(4), peak)]);
        // Draining the global key evicts the global reader AND the off-peak
        // fallback reader — dependent-fallback invalidation.
        let global_readers = index.drain_dependents(&[(key, IntervalId(4), G)]);
        assert_eq!(global_readers.len(), 2);
        assert!(global_readers.contains(&(entry.clone(), IntervalId(4), G)));
        assert!(global_readers.contains(&(entry, IntervalId(4), off)));
    }

    #[test]
    fn update_report_precision_divides_safely() {
        let report = UpdateReport {
            epoch: 1,
            variables_updated: 2,
            variables_added: 1,
            variables_removed: 1,
            evicted_tracked: 3,
            evicted_swept: 1,
            stale_reader_purges: 2,
            cache_entries_before: 16,
            cache_entries_after: 12,
        };
        assert_eq!(report.evicted_total(), 4);
        assert!((report.evicted_fraction() - 0.25).abs() < 1e-12);
        let empty = UpdateReport {
            cache_entries_before: 0,
            ..report
        };
        assert_eq!(empty.evicted_fraction(), 0.0);
    }
}
