//! Deterministic shortest-path substrate used by the stochastic search.
//!
//! The probabilistic path query needs admissible lower bounds on the time
//! still required to reach the destination (for pruning) and a rough upper
//! bound (for bounding the search). Both come from single-source shortest-path
//! computations on the *reverse* graph, using free-flow travel times.

use pathcost_roadnet::{EdgeId, RoadNetwork, VertexId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
/// Free-flow times never overestimate the actual congested travel time, so the
/// returned values are admissible lower bounds for pruning.
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

/// The admissible lower bound at the head of `edge`: the free-flow time from
/// the edge's `to` vertex onwards, read out of a `lower_bound` array produced
/// by [`free_flow_to_destination`]. Both routing searches order successor
/// edges by this value.
///
/// An edge the network cannot resolve gets `f64::INFINITY`, so it sorts as
/// the least promising successor instead of inheriting vertex 0's bound (the
/// former `unwrap_or(0)` fallback made unknown edges look maximally
/// attractive).
pub fn edge_target_lower_bound(net: &RoadNetwork, lower_bound: &[f64], edge: EdgeId) -> f64 {
    net.edge(edge)
        .map(|e| lower_bound[e.to.index()])
        .unwrap_or(f64::INFINITY)
}

/// A conservative upper bound (seconds) on the congested travel time from
/// every vertex to `destination`: the free-flow time scaled by `factor`
/// (congestion rarely more than triples free-flow times in the simulator).
pub fn upper_bound_time_to_destination(
    net: &RoadNetwork,
    destination: VertexId,
    factor: f64,
) -> Vec<f64> {
    free_flow_to_destination(net, destination)
        .into_iter()
        .map(|d| d * factor.max(1.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_roadnet::search::{fastest_path, free_flow_time_s};
    use pathcost_roadnet::GeneratorConfig;

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
    fn upper_bound_scales_lower_bound() {
        let net = GeneratorConfig::tiny(7).generate();
        let dest = VertexId(3);
        let lower = free_flow_to_destination(&net, dest);
        let upper = upper_bound_time_to_destination(&net, dest, 3.0);
        for (l, u) in lower.iter().zip(&upper) {
            if l.is_finite() {
                assert!((u - l * 3.0).abs() < 1e-9);
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
