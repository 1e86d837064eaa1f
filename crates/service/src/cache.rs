//! Sharded LRU cache for estimated cost distributions.
//!
//! The hybrid graph's weight function is defined per α-minute interval (§3.1
//! of the paper), and the serving engine canonicalises every departure to
//! its interval's anchor, which makes the cached distribution a pure
//! function of `(path, departure interval)` *by construction* (see the
//! crate-level "Semantics" notes for the sub-interval sensitivity this
//! trades away). That pair — fingerprinted through [`Path::fingerprint`]
//! and [`IntervalId::mix_fingerprint`] — keys the cache; every departure
//! inside the same interval hits the same entry, which is what turns a
//! repeated-query workload into O(1) lookups.
//!
//! Concurrency model: the key space is split across `shards` independent
//! mutex-protected LRU maps selected by the high bits of the fingerprint, so
//! concurrent readers/writers only contend when they touch the same shard.
//! Each shard is an exact LRU: a `HashMap` into a slab of intrusively
//! doubly-linked nodes, giving O(1) lookup, touch and eviction.
//!
//! Invalidation: an entry carries its **reads** — the fingerprints of the
//! regime-qualified weight-function variables its estimation consumed —
//! beside its value, written by the same [`DistributionCache::insert`]
//! under the same shard lock. "Which answers does this update stale?" is
//! therefore one [`DistributionCache::invalidate_matching`] pass whose
//! predicate sees each entry's key and reads together (the rule itself
//! lives in the [`update`](crate::update) module); an entry that leaves the
//! cache for any reason — LRU pressure, invalidation, a raced fill evicting
//! itself — takes its reads with it, so there is nothing to keep in step.
//!
//! Regimes: the key is really the triple `(path, interval, regime)` — the
//! regime is folded into the fingerprint through
//! [`mix_regime`], which is the *identity* for
//! [`RegimeId::ALL_TRAFFIC`], so global-regime keys (and their shard
//! selection) are bit-identical to the pre-regime cache.

use pathcost_core::{mix_regime, IntervalId, RegimeId};
use pathcost_hist::Histogram1D;
use pathcost_obs::{Counter, Registry};
use pathcost_roadnet::Path;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A cached estimation result.
///
/// The histogram is behind an [`Arc`], so handing a hit to a caller — or to
/// dozens of concurrent callers — bumps a reference count instead of copying
/// three bucket arrays. Warm-path lookups are therefore allocation-free, and
/// every consumer of the same `(path, interval)` entry shares one histogram
/// allocation until the entry is evicted.
#[derive(Debug, Clone)]
pub struct CachedDistribution {
    /// The estimated cost distribution of the path over its interval.
    pub histogram: Arc<Histogram1D>,
    /// Number of components in the coarsest decomposition that produced it.
    pub decomposition_depth: usize,
    /// Deepest regime-fallback rung any variable of this estimate was
    /// resolved at (0 under the global regime, and for estimates fully
    /// answered by the requested regime's own tables).
    pub fallback_depth: usize,
}

/// Cache key: regime- and interval-mixed path fingerprint plus the exact
/// triple for collision-proof equality.
#[derive(Debug, Clone)]
struct Key {
    fingerprint: u64,
    interval: IntervalId,
    regime: RegimeId,
    path: Path,
}

impl Key {
    fn matches(
        &self,
        fingerprint: u64,
        interval: IntervalId,
        regime: RegimeId,
        path: &Path,
    ) -> bool {
        self.fingerprint == fingerprint
            && self.interval == interval
            && self.regime == regime
            && &self.path == path
    }
}

/// The fingerprint of a `(path, interval, regime)` triple — a cache key or
/// a variable key an entry read. Identity-mixed for the global regime.
pub(crate) fn key_fingerprint(path: &Path, interval: IntervalId, regime: RegimeId) -> u64 {
    mix_regime(interval.mix_fingerprint(path.fingerprint()), regime)
}

const NIL: usize = usize::MAX;

struct Node {
    key: Key,
    value: CachedDistribution,
    /// [`key_fingerprint`]s of the variable keys the estimation read. Kept
    /// beside the value, not inside it, so a hit still clones one `Arc`.
    reads: Box<[u64]>,
    prev: usize,
    next: usize,
}

/// One mutex-protected exact-LRU shard.
struct Shard {
    /// fingerprint → slab indices of nodes with that fingerprint (collisions
    /// between distinct `(path, interval)` pairs are resolved by `Key::matches`).
    index: HashMap<u64, Vec<usize>>,
    slab: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    len: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            index: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            capacity,
        }
    }

    fn unlink(&mut self, at: usize) {
        let (prev, next) = (self.slab[at].prev, self.slab[at].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, at: usize) {
        self.slab[at].prev = NIL;
        self.slab[at].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = at;
        }
        self.head = at;
        if self.tail == NIL {
            self.tail = at;
        }
    }

    /// Slab index of the live node for `(path, interval, regime)`, if
    /// cached. Does not touch recency.
    fn find(
        &self,
        fingerprint: u64,
        interval: IntervalId,
        regime: RegimeId,
        path: &Path,
    ) -> Option<usize> {
        self.index.get(&fingerprint)?.iter().copied().find(|&i| {
            self.slab[i]
                .key
                .matches(fingerprint, interval, regime, path)
        })
    }

    fn get(
        &mut self,
        fingerprint: u64,
        interval: IntervalId,
        regime: RegimeId,
        path: &Path,
    ) -> Option<CachedDistribution> {
        let at = self.find(fingerprint, interval, regime, path)?;
        self.unlink(at);
        self.push_front(at);
        Some(self.slab[at].value.clone())
    }

    /// Inserts or refreshes an entry; returns whether making room dropped
    /// the least-recently-used entry.
    fn insert(
        &mut self,
        fingerprint: u64,
        interval: IntervalId,
        regime: RegimeId,
        path: &Path,
        value: CachedDistribution,
        reads: Box<[u64]>,
    ) -> bool {
        if let Some(at) = self.find(fingerprint, interval, regime, path) {
            self.slab[at].value = value;
            self.slab[at].reads = reads;
            self.unlink(at);
            self.push_front(at);
            return false;
        }
        // `capacity` is at least 1, so a full shard has a tail.
        let evicted = self.len >= self.capacity;
        if evicted {
            self.remove_at(self.tail);
        }
        let key = Key {
            fingerprint,
            interval,
            regime,
            path: path.clone(),
        };
        let node = Node {
            key,
            value,
            reads,
            prev: NIL,
            next: NIL,
        };
        let at = match self.free.pop() {
            Some(at) => {
                self.slab[at] = node;
                at
            }
            None => {
                self.slab.push(node);
                self.slab.len() - 1
            }
        };
        self.index.entry(fingerprint).or_default().push(at);
        self.push_front(at);
        self.len += 1;
        evicted
    }

    /// Unlinks and frees the node at slab index `at` (which must be live).
    fn remove_at(&mut self, at: usize) {
        self.unlink(at);
        let fingerprint = self.slab[at].key.fingerprint;
        if let Some(slots) = self.index.get_mut(&fingerprint) {
            slots.retain(|&i| i != at);
            if slots.is_empty() {
                self.index.remove(&fingerprint);
            }
        }
        self.free.push(at);
        self.len -= 1;
    }

    /// Removes the exact entry for `(path, interval, regime)`, returning
    /// whether it was present.
    fn remove(
        &mut self,
        fingerprint: u64,
        interval: IntervalId,
        regime: RegimeId,
        path: &Path,
    ) -> bool {
        let Some(at) = self.find(fingerprint, interval, regime, path) else {
            return false;
        };
        self.remove_at(at);
        true
    }

    /// Drops every entry at once, returning how many were live. Unlike
    /// [`Self::invalidate_matching`] this resets the slab wholesale — no
    /// free-list bookkeeping.
    fn clear_all(&mut self) -> u64 {
        let dropped = self.len as u64;
        self.index.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
        dropped
    }

    /// Evicts every entry whose key and reads match `predicate`, returning
    /// how many were evicted.
    fn invalidate_matching(
        &mut self,
        predicate: &impl Fn(&Path, IntervalId, RegimeId, &[u64]) -> bool,
    ) -> u64 {
        // Walk the recency list (only live nodes are linked), reading each
        // node's successor before a removal unlinks it.
        let mut evicted = 0;
        let mut cursor = self.head;
        while cursor != NIL {
            let (at, node) = (cursor, &self.slab[cursor]);
            let key = &node.key;
            cursor = node.next;
            if predicate(&key.path, key.interval, key.regime, &node.reads) {
                self.remove_at(at);
                evicted += 1;
            }
        }
        evicted
    }
}

/// One shard's hit/miss/eviction counters — the `shard`-labelled series on
/// `/metrics`, so load imbalance across the fingerprint space is visible.
/// They live outside the shard locks, and the whole-cache totals are their
/// sums: a lookup touches only its own shard's counter, never a cache line
/// every shard shares.
struct ShardTally {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

/// The sharded distribution cache.
pub struct DistributionCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard counters, parallel to `shards`.
    tallies: Vec<ShardTally>,
    insertions: Counter,
    /// Targeted-invalidation evictions. Not a family of its own: `/metrics`
    /// reports them by mechanism (`pathcost_cache_invalidation_evictions_total`).
    invalidations: Counter,
}

impl DistributionCache {
    /// A cache with `shards` shards of `shard_capacity` entries each, its
    /// counters registered nowhere (read them through the accessors).
    pub fn new(shards: usize, shard_capacity: usize) -> Self {
        Self::registered(shards, shard_capacity, &Registry::new())
    }

    /// As [`Self::new`], with the cache families registered in `registry`.
    pub(crate) fn registered(shards: usize, shard_capacity: usize, registry: &Registry) -> Self {
        let shards = shards.max(1);
        let shard_capacity = shard_capacity.max(1);
        // Each family stays one contiguous block on the page however its
        // series are interleaved here.
        let tallies = (0..shards)
            .map(|shard| {
                let shard = shard.to_string();
                let counter =
                    |name: &str, help: &str| registry.counter(name, help, &[("shard", &shard)]);
                ShardTally {
                    hits: counter(
                        "pathcost_cache_hits_total",
                        "Distribution-cache hits by shard.",
                    ),
                    misses: counter(
                        "pathcost_cache_misses_total",
                        "Distribution-cache misses by shard.",
                    ),
                    evictions: counter(
                        "pathcost_cache_evictions_total",
                        "LRU capacity evictions by shard (invalidation counted separately).",
                    ),
                }
            })
            .collect();
        DistributionCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(shard_capacity)))
                .collect(),
            tallies,
            insertions: registry.counter(
                "pathcost_cache_insertions_total",
                "Distribution-cache insertions (one per estimation).",
                &[],
            ),
            invalidations: Counter::new(),
        }
    }

    fn shard_of(&self, fingerprint: u64) -> &Mutex<Shard> {
        &self.shards[self.shard_index_of(fingerprint)]
    }

    /// The shard index a fingerprint routes to (high bits: the low bits feed
    /// the per-shard `HashMap`).
    fn shard_index_of(&self, fingerprint: u64) -> usize {
        (fingerprint >> 48) as usize % self.shards.len()
    }

    /// Looks up `(path, interval, regime)`, refreshing its recency on a hit.
    pub fn get(
        &self,
        path: &Path,
        interval: IntervalId,
        regime: RegimeId,
    ) -> Option<CachedDistribution> {
        let fingerprint = key_fingerprint(path, interval, regime);
        let shard_index = self.shard_index_of(fingerprint);
        let found = self.shards[shard_index]
            .lock()
            .expect("cache shard poisoned")
            .get(fingerprint, interval, regime, path);
        let tally = &self.tallies[shard_index];
        if found.is_some() {
            &tally.hits
        } else {
            &tally.misses
        }
        .inc();
        found
    }

    /// Inserts (or refreshes) the entry for `(path, interval, regime)`:
    /// `value` and the `reads` it was estimated from (fingerprints of the
    /// regime-qualified variable keys, mixed like the cache key itself — what
    /// [`Self::invalidate_matching`]'s predicate is later shown) land
    /// together under one shard lock, so no pass over the cache can observe
    /// the entry without its reads. Making room may drop the shard's
    /// least-recently-used entry.
    pub fn insert(
        &self,
        path: &Path,
        interval: IntervalId,
        regime: RegimeId,
        value: CachedDistribution,
        reads: Vec<u64>,
    ) {
        let fingerprint = key_fingerprint(path, interval, regime);
        let shard_index = self.shard_index_of(fingerprint);
        let reads = reads.into_boxed_slice();
        self.insertions.inc();
        let evicted = self.shards[shard_index]
            .lock()
            .expect("cache shard poisoned")
            .insert(fingerprint, interval, regime, path, value, reads);
        if evicted {
            self.tallies[shard_index].evictions.inc();
        }
    }

    /// Targeted invalidation of one exact `(path, interval, regime)` entry.
    /// Returns whether an entry existed (and was evicted). Counted under
    /// [`Self::invalidations`], not LRU [`Self::evictions`].
    pub fn remove(&self, path: &Path, interval: IntervalId, regime: RegimeId) -> bool {
        let fingerprint = key_fingerprint(path, interval, regime);
        let removed = self
            .shard_of(fingerprint)
            .lock()
            .expect("cache shard poisoned")
            .remove(fingerprint, interval, regime, path);
        if removed {
            self.invalidations.inc();
        }
        removed
    }

    /// Targeted invalidation by predicate: walks every shard (each under its
    /// own lock, so concurrent traffic on other shards proceeds) and evicts
    /// the entries for which `predicate(path, interval, regime, reads)`
    /// holds — `reads` being what the entry's [`Self::insert`] recorded. The
    /// predicate is called exactly once per live entry. Returns the number
    /// of entries evicted; counted under [`Self::invalidations`].
    pub fn invalidate_matching(
        &self,
        predicate: impl Fn(&Path, IntervalId, RegimeId, &[u64]) -> bool,
    ) -> u64 {
        let evicted = self
            .shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .expect("cache shard poisoned")
                    .invalidate_matching(&predicate)
            })
            .sum();
        self.invalidations.add(evicted);
        evicted
    }

    /// Evicts every entry — the full-flush baseline the targeted invalidation
    /// path is benchmarked against. Returns the number of entries dropped;
    /// counted under [`Self::invalidations`].
    pub fn clear(&self) -> u64 {
        let mut dropped = 0;
        for shard in &self.shards {
            dropped += shard.lock().expect("cache shard poisoned").clear_all();
        }
        self.invalidations.add(dropped);
        dropped
    }

    /// Number of entries currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len)
            .sum()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit counter (the sum over shards).
    pub fn hits(&self) -> u64 {
        self.tallies.iter().map(|t| t.hits.get()).sum()
    }

    /// Lifetime miss counter (the sum over shards).
    pub fn misses(&self) -> u64 {
        self.tallies.iter().map(|t| t.misses.get()).sum()
    }

    /// Lifetime insertion counter.
    pub fn insertions(&self) -> u64 {
        self.insertions.get()
    }

    /// Lifetime capacity-pressure (LRU) eviction counter (the sum over
    /// shards). Targeted invalidations are counted under
    /// [`Self::invalidations`] instead.
    pub fn evictions(&self) -> u64 {
        self.tallies.iter().map(|t| t.evictions.get()).sum()
    }

    /// Lifetime targeted-invalidation eviction counter
    /// ([`Self::remove`] / [`Self::invalidate_matching`] / [`Self::clear`]).
    pub fn invalidations(&self) -> u64 {
        self.invalidations.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_hist::{Bucket, Histogram1D};
    use pathcost_roadnet::EdgeId;

    /// The global regime every pre-regime test keys under.
    const G: RegimeId = RegimeId::ALL_TRAFFIC;

    fn value(mean: f64) -> CachedDistribution {
        CachedDistribution {
            histogram: Arc::new(
                Histogram1D::from_entries(vec![(
                    Bucket::new(mean - 1.0, mean + 1.0).unwrap(),
                    1.0,
                )])
                .unwrap(),
            ),
            decomposition_depth: 1,
            fallback_depth: 0,
        }
    }

    fn path(ids: &[u32]) -> Path {
        Path::from_edges_unchecked(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    #[test]
    fn get_after_insert_round_trips_and_counts() {
        let cache = DistributionCache::new(4, 8);
        let p = path(&[1, 2, 3]);
        assert!(cache.get(&p, IntervalId(3), G).is_none());
        cache.insert(&p, IntervalId(3), G, value(10.0), Vec::new());
        let got = cache.get(&p, IntervalId(3), G).expect("cached");
        assert!((got.histogram.mean() - 10.0).abs() < 1e-9);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn intervals_key_independent_entries() {
        let cache = DistributionCache::new(4, 8);
        let p = path(&[1, 2, 3]);
        cache.insert(&p, IntervalId(0), G, value(10.0), Vec::new());
        cache.insert(&p, IntervalId(1), G, value(20.0), Vec::new());
        assert_eq!(cache.len(), 2);
        assert!((cache.get(&p, IntervalId(0), G).unwrap().histogram.mean() - 10.0).abs() < 1e-9);
        assert!((cache.get(&p, IntervalId(1), G).unwrap().histogram.mean() - 20.0).abs() < 1e-9);
        assert!(cache.get(&p, IntervalId(2), G).is_none());
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let cache = DistributionCache::new(1, 2);
        let (a, b, c) = (path(&[1]), path(&[2]), path(&[3]));
        cache.insert(&a, IntervalId(0), G, value(1.0), Vec::new());
        cache.insert(&b, IntervalId(0), G, value(2.0), Vec::new());
        // Touch `a` so `b` is the LRU entry, then overflow.
        assert!(cache.get(&a, IntervalId(0), G).is_some());
        cache.insert(&c, IntervalId(0), G, value(3.0), Vec::new());
        assert_eq!(cache.len(), 2);
        assert!(
            cache.get(&a, IntervalId(0), G).is_some(),
            "recently used survives"
        );
        assert!(
            cache.get(&b, IntervalId(0), G).is_none(),
            "LRU entry evicted"
        );
        assert!(cache.get(&c, IntervalId(0), G).is_some());
    }

    #[test]
    fn reinsert_refreshes_value_without_growing() {
        let cache = DistributionCache::new(1, 4);
        let p = path(&[7, 8]);
        cache.insert(&p, IntervalId(5), G, value(1.0), Vec::new());
        cache.insert(&p, IntervalId(5), G, value(9.0), Vec::new());
        assert_eq!(cache.len(), 1);
        assert!((cache.get(&p, IntervalId(5), G).unwrap().histogram.mean() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn hits_share_one_histogram_allocation() {
        // The warm path must be allocation-free: every hit on the same entry
        // hands out the same Arc'd histogram instead of copying its arrays.
        let cache = DistributionCache::new(2, 4);
        let p = path(&[4, 5, 6]);
        let inserted = value(42.0);
        let backing = inserted.histogram.clone();
        cache.insert(&p, IntervalId(1), G, inserted, Vec::new());
        let first = cache.get(&p, IntervalId(1), G).expect("cached");
        let second = cache.get(&p, IntervalId(1), G).expect("cached");
        assert!(Arc::ptr_eq(&first.histogram, &backing));
        assert!(Arc::ptr_eq(&first.histogram, &second.histogram));
    }

    #[test]
    fn refreshing_a_full_shard_evicts_nothing_and_replaces_the_reads() {
        let cache = DistributionCache::new(1, 2);
        let (a, b, c) = (path(&[1]), path(&[2]), path(&[3]));
        cache.insert(&a, IntervalId(0), G, value(1.0), vec![7]);
        cache.insert(&b, IntervalId(4), G, value(2.0), vec![8]);
        // Refreshing an existing key never evicts, and the entry now
        // answers for the refill's reads, not its predecessor's.
        cache.insert(&a, IntervalId(0), G, value(1.5), vec![9]);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.invalidate_matching(|_, _, _, reads| reads == [7]), 0);
        // Overflow: `b` is now the LRU entry and leaves with its reads.
        cache.insert(&c, IntervalId(0), G, value(3.0), Vec::new());
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&b, IntervalId(4), G).is_none());
        assert_eq!(cache.invalidate_matching(|_, _, _, reads| reads == [8]), 0);
        assert_eq!(cache.invalidate_matching(|_, _, _, reads| reads == [9]), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_slots_are_reused() {
        let cache = DistributionCache::new(1, 2);
        for i in 0..100u32 {
            cache.insert(
                &path(&[i]),
                IntervalId(0),
                G,
                value(i as f64 + 1.0),
                Vec::new(),
            );
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 98);
        assert!(cache.get(&path(&[99]), IntervalId(0), G).is_some());
        assert!(cache.get(&path(&[98]), IntervalId(0), G).is_some());
        assert!(cache.get(&path(&[0]), IntervalId(0), G).is_none());
    }

    #[test]
    fn remove_evicts_exactly_one_entry_and_counts_it() {
        let cache = DistributionCache::new(4, 8);
        let (a, b) = (path(&[1, 2]), path(&[3, 4]));
        cache.insert(&a, IntervalId(0), G, value(1.0), Vec::new());
        cache.insert(&a, IntervalId(1), G, value(2.0), Vec::new());
        cache.insert(&b, IntervalId(0), G, value(3.0), Vec::new());
        assert!(cache.remove(&a, IntervalId(0), G));
        assert!(!cache.remove(&a, IntervalId(0), G), "already gone");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.invalidations(), 1);
        assert_eq!(cache.evictions(), 0, "targeted removals are not LRU");
        assert!(cache.get(&a, IntervalId(0), G).is_none());
        assert!(cache.get(&a, IntervalId(1), G).is_some());
        assert!(cache.get(&b, IntervalId(0), G).is_some());
        // A removed slot is reusable without disturbing the survivors.
        cache.insert(&a, IntervalId(0), G, value(9.0), Vec::new());
        assert_eq!(cache.len(), 3);
        assert!((cache.get(&a, IntervalId(0), G).unwrap().histogram.mean() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn invalidate_matching_sweeps_per_shard_and_clear_flushes() {
        let cache = DistributionCache::new(4, 16);
        for i in 0..12u32 {
            cache.insert(
                &path(&[i, i + 1]),
                IntervalId((i % 3) as u16),
                G,
                value(1.0),
                Vec::new(),
            );
        }
        let evicted = cache.invalidate_matching(|_, interval, _, _| interval == IntervalId(0));
        assert_eq!(evicted, 4);
        assert_eq!(cache.len(), 8);
        for i in 0..12u32 {
            let present = cache
                .get(&path(&[i, i + 1]), IntervalId((i % 3) as u16), G)
                .is_some();
            assert_eq!(present, i % 3 != 0, "entry {i}");
        }
        assert_eq!(cache.clear(), 8);
        assert!(cache.is_empty());
        assert_eq!(cache.invalidations(), 12);
    }

    #[test]
    fn regimes_key_independent_entries_and_global_keys_are_unmixed() {
        let cache = DistributionCache::new(4, 8);
        let p = path(&[1, 2, 3]);
        let (peak, off) = (RegimeId(1), RegimeId(2));
        cache.insert(&p, IntervalId(0), G, value(10.0), Vec::new());
        cache.insert(&p, IntervalId(0), peak, value(20.0), Vec::new());
        cache.insert(&p, IntervalId(0), off, value(30.0), Vec::new());
        assert_eq!(cache.len(), 3, "one entry per regime");
        assert!((cache.get(&p, IntervalId(0), G).unwrap().histogram.mean() - 10.0).abs() < 1e-9);
        assert!((cache.get(&p, IntervalId(0), peak).unwrap().histogram.mean() - 20.0).abs() < 1e-9);
        assert!((cache.get(&p, IntervalId(0), off).unwrap().histogram.mean() - 30.0).abs() < 1e-9);
        assert!(cache.get(&p, IntervalId(0), RegimeId(9)).is_none());
        // The global fingerprint (and therefore shard choice) is exactly the
        // pre-regime one: mix_regime is the identity at the root.
        assert_eq!(
            key_fingerprint(&p, IntervalId(0), G),
            IntervalId(0).mix_fingerprint(p.fingerprint())
        );
        // Regime-targeted invalidation only touches that regime's entries.
        assert_eq!(
            cache.invalidate_matching(|_, _, regime, _| regime == peak),
            1
        );
        assert!(cache.get(&p, IntervalId(0), peak).is_none());
        assert!(cache.get(&p, IntervalId(0), G).is_some());
        assert!(cache.get(&p, IntervalId(0), off).is_some());
    }
}
