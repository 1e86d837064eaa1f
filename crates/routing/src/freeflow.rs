//! Free-flow searches over the road network, run once and kept.
//!
//! The probabilistic path query prunes with a lower bound on the time still
//! needed to reach the destination: the free-flow time from every vertex,
//! one Dijkstra over the reverse graph ([`free_flow_to_destination`]). A
//! [`RoadNetwork`] is immutable for the life of the process and free-flow
//! travel times depend on nothing else — not on the weight-function epoch,
//! not on the traffic regime — so everything the stochastic search derives
//! from them is a pure function of the network and can be shared by every
//! search that ever runs over it. Per **destination** that is a
//! [`DestinationIndex`]: the bound from every vertex together with every
//! vertex's out-edges already filtered and ordered by it — what the
//! best-first search reads at each expansion.
//!
//! The bound is a free-flow sum, but a speed-limit fallback unit's support
//! starts below free flow, so the budget prune can reject a completion that
//! meets the budget. `tests/routing_equivalence.rs` counts the searches this
//! costs against the exhaustive oracle (`tests/support/exhaustive.rs`).
//!
//! Path-centric routing systems build their destination-side heuristic
//! tables offline for the same reason (arXiv 2407.06881); here they are
//! filled on demand. The map is bounded by a constant sized for a
//! 10⁴-vertex network and evicts in insertion order: the working set of a
//! serving process (tens of popular destinations) stays resident, and
//! nothing an entry holds can go stale. An entry is computed *outside* the
//! lock and inserted if still absent, so two threads missing on one key at
//! once both search, one result is kept, and both return the resident value.

use pathcost_core::BoundedMap;
use pathcost_roadnet::{EdgeId, RoadNetwork, VertexId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, Copy)]
struct Entry {
    cost: f64,
    vertex: VertexId,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| self.vertex.0.cmp(&other.vertex.0))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Free-flow travel time (seconds) from every vertex to `destination`, computed
/// with Dijkstra on the reverse graph. Unreachable vertices get `f64::INFINITY`.
///
/// The search prunes with these values as lower bounds on the time still
/// needed; the module docs say where an estimate can fall below them.
pub fn free_flow_to_destination(net: &RoadNetwork, destination: VertexId) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; net.vertex_count()];
    if destination.index() >= net.vertex_count() {
        return dist;
    }
    dist[destination.index()] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(Entry {
        cost: 0.0,
        vertex: destination,
    });
    while let Some(Entry { cost, vertex }) = heap.pop() {
        if cost > dist[vertex.index()] {
            continue;
        }
        // Relax incoming edges: we walk the graph backwards.
        for &eid in net.in_edges(vertex) {
            let edge = net.edge(eid).expect("edge ids from the network are valid");
            let next = edge.from;
            let c = cost + edge.free_flow_time_s();
            if c < dist[next.index()] {
                dist[next.index()] = c;
                heap.push(Entry {
                    cost: c,
                    vertex: next,
                });
            }
        }
    }
    dist
}

/// The lower bound at the head of `edge`: the free-flow time from
/// the edge's `to` vertex onwards, read out of a `lower_bound` array produced
/// by [`free_flow_to_destination`]. An edge the network cannot resolve gets
/// `f64::INFINITY`, so it sorts last.
fn edge_target_lower_bound(net: &RoadNetwork, lower_bound: &[f64], edge: EdgeId) -> f64 {
    net.edge(edge)
        .map(|e| lower_bound[e.to.index()])
        .unwrap_or(f64::INFINITY)
}

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
    /// `f64::INFINITY` where the destination cannot be reached. The search
    /// prunes with it; the module docs say where an estimate undercuts it.
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

/// Bounded, thread-safe cache of the free-flow searches over one network.
///
/// The serving engine owns one for its lifetime and shares it with every
/// router it builds, across weight epochs and regime views; a router built
/// without one ([`BestFirstRouter::new`](crate::BestFirstRouter::new)) owns
/// a private one, so there is a single code path either way.
pub struct FreeFlowCache<'n> {
    net: &'n RoadNetwork,
    destinations: Mutex<BoundedMap<VertexId, Arc<DestinationIndex>>>,
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
            destinations: Mutex::new(BoundedMap::new(destinations)),
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
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_roadnet::search::{fastest_path, free_flow_time_s};
    use pathcost_roadnet::GeneratorConfig;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    /// `[hits, misses]`.
    fn counting(cache: FreeFlowCache<'_>) -> (FreeFlowCache<'_>, Arc<[AtomicUsize; 2]>) {
        let tally: Arc<[AtomicUsize; 2]> = Arc::default();
        let sink = tally.clone();
        let cache = cache.observed(move |hit| {
            sink[usize::from(!hit)].fetch_add(1, Relaxed);
        });
        (cache, tally)
    }

    fn counts(tally: &[AtomicUsize; 2]) -> [usize; 2] {
        std::array::from_fn(|i| tally[i].load(Relaxed))
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
    }

    #[test]
    fn distances_match_forward_shortest_paths() {
        let net = GeneratorConfig::tiny(5).generate();
        let dest = VertexId(24);
        let dist = free_flow_to_destination(&net, dest);
        assert_eq!(dist[dest.index()], 0.0);
        for source in [VertexId(0), VertexId(7), VertexId(12)] {
            let path = fastest_path(&net, source, dest).unwrap();
            let time = free_flow_time_s(&net, &path);
            assert!(
                (dist[source.index()] - time).abs() < 1e-6,
                "reverse distance {} vs forward path time {}",
                dist[source.index()],
                time
            );
        }
    }

    #[test]
    fn lower_bounds_are_admissible() {
        let net = GeneratorConfig::tiny(6).generate();
        let dest = VertexId(20);
        let dist = free_flow_to_destination(&net, dest);
        // Any actual path's free-flow time is at least the bound at its start.
        for source in (0..10).map(VertexId) {
            if let Some(path) = fastest_path(&net, source, dest) {
                assert!(free_flow_time_s(&net, &path) + 1e-9 >= dist[source.index()]);
            }
        }
    }

    #[test]
    fn heap_order_is_total_even_over_nan_costs() {
        let entry = |cost, vertex| Entry {
            cost,
            vertex: VertexId(vertex),
        };
        let entries = [
            entry(1.0, 0),
            entry(f64::NAN, 1),
            entry(2.0, 2),
            entry(1.0, 3),
        ];
        for a in &entries {
            for b in &entries {
                assert_eq!(a.cmp(b), b.cmp(a).reverse());
                assert_eq!(a == b, a.cmp(b) == Ordering::Equal);
                for c in &entries {
                    if a.cmp(b) != Ordering::Greater && b.cmp(c) != Ordering::Greater {
                        assert_ne!(a.cmp(c), Ordering::Greater, "{a:?} {b:?} {c:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_destination_yields_all_infinite() {
        let net = GeneratorConfig::tiny(8).generate();
        let dist = free_flow_to_destination(&net, VertexId(9_999));
        assert!(dist.iter().all(|d| d.is_infinite()));
    }
}
