//! Shortest-path search over the road network.
//!
//! Trip generation (in the traffic simulator) and candidate-path generation
//! (in the routing crate) both need deterministic shortest paths. The search
//! is edge-based: states are edges, and the cost of a state is the accumulated
//! cost of the edges traversed so far, which lets callers plug in arbitrary
//! per-edge costs (free-flow time, length, or randomised costs for route
//! diversity) and yields results that are directly valid [`Path`]s.

use crate::graph::RoadNetwork;
use crate::ids::{EdgeId, VertexId};
use crate::path::Path;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A candidate in the priority queue.
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    cost: f64,
    edge: EdgeId,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we need the smallest cost.
        // `total_cmp`, because `edge_cost` is the caller's closure and an
        // ordering that calls NaN equal to everything is not transitive.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| self.edge.0.cmp(&other.edge.0))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Finds the cost-minimal edge sequence from `from` to `to` using the supplied
/// per-edge cost function, returning it as a [`Path`] when one exists.
///
/// Costs must be positive. The search runs Dijkstra over edges, so the
/// resulting edge sequence is adjacent by construction; if the cheapest edge
/// sequence revisits a vertex (which can only happen on pathological inputs)
/// the result is rejected and `None` is returned, matching the paper's
/// requirement that paths visit distinct vertices.
pub fn shortest_path<F>(
    net: &RoadNetwork,
    from: VertexId,
    to: VertexId,
    mut edge_cost: F,
) -> Option<Path>
where
    F: FnMut(EdgeId) -> f64,
{
    if from == to {
        return None;
    }
    let edge_count = net.edge_count();
    let mut best = vec![f64::INFINITY; edge_count];
    let mut parent: Vec<Option<EdgeId>> = vec![None; edge_count];
    let mut heap = BinaryHeap::new();

    for &e in net.out_edges(from) {
        let c = edge_cost(e).max(f64::EPSILON);
        if c < best[e.index()] {
            best[e.index()] = c;
            heap.push(QueueEntry { cost: c, edge: e });
        }
    }

    let mut goal: Option<EdgeId> = None;
    while let Some(QueueEntry { cost, edge }) = heap.pop() {
        if cost > best[edge.index()] {
            continue;
        }
        let edge_ref = net.edge(edge).ok()?;
        if edge_ref.to == to {
            goal = Some(edge);
            break;
        }
        for &next in net.out_edges(edge_ref.to) {
            let c = cost + edge_cost(next).max(f64::EPSILON);
            if c < best[next.index()] {
                best[next.index()] = c;
                parent[next.index()] = Some(edge);
                heap.push(QueueEntry {
                    cost: c,
                    edge: next,
                });
            }
        }
    }

    let goal = goal?;
    let mut edges = vec![goal];
    let mut cur = goal;
    while let Some(prev) = parent[cur.index()] {
        edges.push(prev);
        cur = prev;
    }
    edges.reverse();
    Path::new(net, edges).ok()
}

/// Shortest path by free-flow travel time.
pub fn fastest_path(net: &RoadNetwork, from: VertexId, to: VertexId) -> Option<Path> {
    shortest_path(net, from, to, |e| {
        net.edge(e)
            .map(|edge| edge.free_flow_time_s())
            .unwrap_or(f64::INFINITY)
    })
}

/// Free-flow travel time of a path in seconds.
pub fn free_flow_time_s(net: &RoadNetwork, path: &Path) -> f64 {
    path.edges()
        .iter()
        .filter_map(|&e| net.edge(e).ok())
        .map(|e| e.free_flow_time_s())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::GeneratorConfig;

    #[test]
    fn fastest_path_connects_grid_corners() {
        let net = GeneratorConfig::tiny(1).generate();
        let from = VertexId(0);
        let to = VertexId((net.vertex_count() - 1) as u32);
        let path = fastest_path(&net, from, to).expect("grid is connected");
        let vs = path.vertices(&net).unwrap();
        assert_eq!(*vs.first().unwrap(), from);
        assert_eq!(*vs.last().unwrap(), to);
        // Manhattan distance on a 5x5 grid: 8 edges.
        assert_eq!(path.cardinality(), 8);
    }

    #[test]
    fn shortest_path_respects_cost_function() {
        let net = GeneratorConfig::tiny(2).generate();
        let from = VertexId(0);
        let to = VertexId(24);
        let by_time = fastest_path(&net, from, to).unwrap();
        // Uniform unit cost per edge minimises hop count; both should have the
        // same cardinality on a uniform grid.
        let by_hops = shortest_path(&net, from, to, |_| 1.0).unwrap();
        assert_eq!(by_time.cardinality(), by_hops.cardinality());
    }

    #[test]
    fn same_vertex_and_unreachable_return_none() {
        let net = GeneratorConfig::tiny(1).generate();
        assert!(fastest_path(&net, VertexId(0), VertexId(0)).is_none());
    }

    #[test]
    fn queue_order_is_total_even_over_nan_costs() {
        let entry = |cost, edge| QueueEntry {
            cost,
            edge: EdgeId(edge),
        };
        let entries = [
            entry(1.0, 0),
            entry(f64::NAN, 1),
            entry(2.0, 2),
            entry(1.0, 3),
            entry(f64::INFINITY, 4),
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
        // Finite costs pop cheapest first, as they always did.
        let mut heap: BinaryHeap<QueueEntry> = entries.into_iter().collect();
        let popped: Vec<u32> = std::iter::from_fn(|| heap.pop())
            .map(|e| e.edge.0)
            .collect();
        assert_eq!(popped, [3, 0, 2, 4, 1]);
    }

    #[test]
    fn free_flow_time_accumulates_edges() {
        let net = GeneratorConfig::tiny(3).generate();
        let path = fastest_path(&net, VertexId(0), VertexId(4)).unwrap();
        let total = free_flow_time_s(&net, &path);
        let manual: f64 = path
            .edges()
            .iter()
            .map(|&e| net.edge(e).unwrap().free_flow_time_s())
            .sum();
        assert!((total - manual).abs() < 1e-9);
        assert!(total > 0.0);
    }

    #[test]
    fn randomised_costs_still_produce_valid_paths() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let net = GeneratorConfig::aalborg_like(9).generate();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20 {
            let from = VertexId(rng.gen_range(0..net.vertex_count() as u32));
            let to = VertexId(rng.gen_range(0..net.vertex_count() as u32));
            if from == to {
                continue;
            }
            let jitter: Vec<f64> = (0..net.edge_count())
                .map(|_| rng.gen_range(0.8..1.2))
                .collect();
            if let Some(path) = shortest_path(&net, from, to, |e| {
                net.edge(e).unwrap().free_flow_time_s() * jitter[e.index()]
            }) {
                // Path::new inside shortest_path validated adjacency/distinctness.
                assert!(path.cardinality() >= 1);
            }
        }
    }
}
