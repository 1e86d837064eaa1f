//! Free-flow searches over the road network, run once and kept.
//!
//! A [`RoadNetwork`] is immutable for the life of the process and free-flow
//! travel times depend on nothing else — not on the weight-function epoch,
//! not on the traffic regime — so everything the stochastic search derives
//! from them is a pure function of the network and can be shared by every
//! search that ever runs over it. Per **destination** that is a
//! [`DestinationIndex`]: the admissible lower bound from every vertex
//! ([`free_flow_to_destination`]) together with every vertex's out-edges
//! already filtered and ordered by it — what the best-first search reads at
//! each expansion.
//!
//! Path-centric routing systems build their destination-side heuristic
//! tables offline for the same reason (arXiv 2407.06881); here they are
//! filled on demand. The map is bounded by a constant sized for a
//! 10⁴-vertex network and evicts in insertion order: the working set of a
//! serving process (tens of popular destinations) stays resident, and
//! nothing an entry holds can go stale. An entry is computed *outside* the
//! lock and inserted if still absent, so two threads missing on one key at
//! once both search, one result is kept, and both return the resident value.

use crate::dijkstra::{edge_target_lower_bound, free_flow_to_destination};
use pathcost_roadnet::{EdgeId, RoadNetwork, VertexId};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// Destinations kept resident. One index is 12 bytes per vertex plus 4 per
/// edge: ≈ 280 KB on a 10⁴-vertex grid (≈ 36 MB full), ≈ 43 KB on a
/// 1 600-vertex one.
const DESTINATION_CAPACITY: usize = 128;

/// Everything the best-first search needs to know about one destination.
#[derive(Debug)]
pub struct DestinationIndex {
    lower_bound: Vec<f64>,
    /// `successors[offsets[v]..offsets[v + 1]]` are vertex `v`'s ordered
    /// out-edges.
    offsets: Vec<u32>,
    successors: Vec<EdgeId>,
}

impl DestinationIndex {
    fn build(net: &RoadNetwork, destination: VertexId) -> Self {
        let lower_bound = free_flow_to_destination(net, destination);
        let mut offsets = Vec::with_capacity(net.vertex_count() + 1);
        let mut successors = Vec::new();
        let mut decorated: Vec<(f64, EdgeId)> = Vec::new();
        offsets.push(0);
        for v in 0..net.vertex_count() {
            decorated.clear();
            decorated.extend(
                net.out_edges(VertexId(v as u32))
                    .iter()
                    .map(|&e| (edge_target_lower_bound(net, &lower_bound, e), e))
                    .filter(|(key, _)| key.is_finite()),
            );
            decorated
                .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| (a.1).0.cmp(&(b.1).0)));
            successors.extend(decorated.iter().map(|&(_, e)| e));
            offsets.push(successors.len() as u32);
        }
        DestinationIndex {
            lower_bound,
            offsets,
            successors,
        }
    }

    /// Free-flow seconds from every vertex (by index) to the destination;
    /// `f64::INFINITY` where the destination cannot be reached. Never more
    /// than the congested travel time, so admissible for pruning.
    pub fn lower_bound(&self) -> &[f64] {
        &self.lower_bound
    }

    /// The out-edges of `v` whose head can reach the destination, in
    /// ascending order of the lower bound at their head (ties by edge id).
    /// Edges leading nowhere are dropped — any path through them fails the
    /// budget prune anyway.
    pub fn successors(&self, v: VertexId) -> &[EdgeId] {
        let at = v.index();
        if at >= self.lower_bound.len() {
            return &[];
        }
        &self.successors[self.offsets[at] as usize..self.offsets[at + 1] as usize]
    }
}

/// A map of at most `capacity` entries that makes room by dropping the
/// entry inserted longest ago.
struct Bounded<K, V> {
    entries: HashMap<K, V>,
    inserted: VecDeque<K>,
    capacity: usize,
}

impl<K: Copy + Eq + Hash, V: Clone> Bounded<K, V> {
    fn new(capacity: usize) -> Self {
        Bounded {
            entries: HashMap::new(),
            inserted: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// The resident value of `key` after the call: the one already there,
    /// or else `value`, inserted.
    fn insert_if_absent(&mut self, key: K, value: V) -> V {
        if let Some(resident) = self.entries.get(&key) {
            return resident.clone();
        }
        if self.entries.len() >= self.capacity {
            let oldest = self.inserted.pop_front().expect("a full map has an oldest");
            self.entries.remove(&oldest);
        }
        self.inserted.push_back(key);
        self.entries.insert(key, value.clone());
        value
    }
}

/// Bounded, thread-safe cache of the free-flow searches over one network.
///
/// The serving engine owns one for its lifetime and shares it with every
/// router it builds, across weight epochs and regime views; a router built
/// without one ([`BestFirstRouter::new`](crate::BestFirstRouter::new)) owns
/// a private one, so there is a single code path either way.
pub struct FreeFlowCache<'n> {
    net: &'n RoadNetwork,
    destinations: Mutex<Bounded<VertexId, Arc<DestinationIndex>>>,
    /// Told whether each lookup hit. A hook rather than counters of its own
    /// so an owner with a metrics registry counts there, and this crate need
    /// not depend on one.
    observer: Option<Box<dyn Fn(bool) + Send + Sync>>,
}

// Compile-time audit: one cache is shared by every connection and worker
// thread of a serving process.
const _: () = {
    const fn assert_sync<T: Send + Sync>() {}
    assert_sync::<FreeFlowCache<'static>>();
};

impl<'n> FreeFlowCache<'n> {
    /// An empty cache over `net` with the standard capacity.
    pub fn new(net: &'n RoadNetwork) -> Self {
        Self::with_capacity(net, DESTINATION_CAPACITY)
    }

    /// As [`Self::new`] with an explicit capacity (at least 1) — for tests
    /// that need evictions on a small fixture.
    pub fn with_capacity(net: &'n RoadNetwork, destinations: usize) -> Self {
        FreeFlowCache {
            net,
            destinations: Mutex::new(Bounded::new(destinations)),
            observer: None,
        }
    }

    /// Has `observer` told whether each lookup hit from now on.
    pub fn observed(mut self, observer: impl Fn(bool) + Send + Sync + 'static) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// The network every cached search ran over.
    pub fn network(&self) -> &'n RoadNetwork {
        self.net
    }

    /// The index of `destination`, built on first request. A vertex outside
    /// the network gets an index with no finite bound and no successors.
    pub fn destination(&self, destination: VertexId) -> Arc<DestinationIndex> {
        let resident = self
            .destinations
            .lock()
            .expect("free-flow cache poisoned")
            .entries
            .get(&destination)
            .cloned();
        if let Some(observer) = &self.observer {
            observer(resident.is_some());
        }
        resident.unwrap_or_else(|| {
            let built = Arc::new(DestinationIndex::build(self.net, destination));
            self.destinations
                .lock()
                .expect("free-flow cache poisoned")
                .insert_if_absent(destination, built)
        })
    }

    /// Destination indexes currently resident.
    pub fn destination_count(&self) -> usize {
        self.destinations
            .lock()
            .expect("free-flow cache poisoned")
            .entries
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_roadnet::GeneratorConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `[hits, misses]`.
    fn counting(cache: FreeFlowCache<'_>) -> (FreeFlowCache<'_>, Arc<[AtomicUsize; 2]>) {
        let tally: Arc<[AtomicUsize; 2]> = Arc::default();
        let sink = tally.clone();
        let cache = cache.observed(move |hit| {
            sink[usize::from(!hit)].fetch_add(1, Ordering::Relaxed);
        });
        (cache, tally)
    }

    fn counts(tally: &[AtomicUsize; 2]) -> [usize; 2] {
        std::array::from_fn(|i| tally[i].load(Ordering::Relaxed))
    }

    #[test]
    fn index_matches_the_searches_it_replaces() {
        let net = GeneratorConfig::aalborg_like(4).generate();
        let cache = FreeFlowCache::new(&net);
        let destination = VertexId(17);
        let index = cache.destination(destination);
        let bounds = free_flow_to_destination(&net, destination);
        assert_eq!(index.lower_bound(), &bounds[..]);
        for v in (0..net.vertex_count() as u32).map(VertexId) {
            let mut expected: Vec<EdgeId> = net
                .out_edges(v)
                .iter()
                .copied()
                .filter(|&e| edge_target_lower_bound(&net, &bounds, e).is_finite())
                .collect();
            expected.sort_by(|&a, &b| {
                edge_target_lower_bound(&net, &bounds, a)
                    .total_cmp(&edge_target_lower_bound(&net, &bounds, b))
                    .then(a.0.cmp(&b.0))
            });
            assert_eq!(index.successors(v), &expected[..], "vertex {v:?}");
        }
        assert!(index.successors(VertexId(u32::MAX)).is_empty());
        assert!(index
            .successors(VertexId(net.vertex_count() as u32))
            .is_empty());
    }

    #[test]
    fn lookups_hit_after_the_first() {
        let net = GeneratorConfig::tiny(2).generate();
        let (cache, tally) = counting(FreeFlowCache::new(&net));
        let first = cache.destination(VertexId(24));
        let again = cache.destination(VertexId(24));
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(counts(&tally), [1, 1]);
        assert_eq!(cache.destination_count(), 1);
        let outside = cache.destination(VertexId(9_999));
        assert!(outside.lower_bound().iter().all(|b| b.is_infinite()));
    }

    #[test]
    fn entry_counts_never_exceed_the_capacities() {
        let net = GeneratorConfig::tiny(3).generate();
        let (cache, tally) = counting(FreeFlowCache::with_capacity(&net, 3));
        let vertices = net.vertex_count() as u32;
        for round in 0..2 {
            for v in 0..vertices {
                cache.destination(VertexId(v));
                assert!(cache.destination_count() <= 3);
            }
            assert_eq!(cache.destination_count(), 3);
            // A scan wider than the capacity evicts every entry before its
            // next use: all misses, and each refill equals a fresh search.
            let scanned = (round + 1) * vertices as usize;
            assert_eq!(counts(&tally), [0, scanned]);
        }
        let refilled = cache.destination(VertexId(0));
        assert_eq!(
            refilled.lower_bound(),
            &free_flow_to_destination(&net, VertexId(0))[..]
        );
        // The oldest insertion goes first; a resident key is not re-inserted.
        let mut map = Bounded::new(2);
        assert_eq!(map.insert_if_absent(1, 'a'), 'a');
        assert_eq!(map.insert_if_absent(2, 'b'), 'b');
        assert_eq!(map.insert_if_absent(1, 'z'), 'a');
        assert_eq!(map.insert_if_absent(3, 'c'), 'c');
        assert!(!map.entries.contains_key(&1));
        assert!(map.entries.contains_key(&2) && map.entries.contains_key(&3));
    }
}
