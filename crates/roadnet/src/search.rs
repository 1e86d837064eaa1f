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
/// Costs are clamped to at least `f64::EPSILON` (a NaN cost reads as
/// `EPSILON`). The search runs Dijkstra over edges, so the resulting edge
/// sequence is adjacent by construction, and it expands each vertex once, so
/// the sequence never revisits a vertex: the result is a valid [`Path`] (the
/// paper's paths visit distinct vertices) whenever `to` is reachable over
/// finite-cost edges.
pub fn shortest_path<F>(
    net: &RoadNetwork,
    from: VertexId,
    to: VertexId,
    mut edge_cost: F,
) -> Option<Path>
where
    F: FnMut(EdgeId) -> f64,
{
    if from == to || from.index() >= net.vertex_count() {
        return None;
    }
    let edge_count = net.edge_count();
    let mut best = vec![f64::INFINITY; edge_count];
    let mut parent: Vec<Option<EdgeId>> = vec![None; edge_count];
    // A vertex is expanded when the first edge into it pops; `from` is
    // expanded from the start. Costs are clamped to ≥ EPSILON, so pops come in
    // non-decreasing cost order, and `fl(a + c)` is monotone in `a`: a later
    // edge into an expanded vertex arrives at a cost no lower than the first
    // one's, so relaxing its out-edges could not strictly improve any label.
    // Skipping it — and never queueing an edge into an expanded vertex —
    // leaves every label and parent the full edge-Dijkstra would leave.
    let mut expanded = vec![false; net.vertex_count()];
    expanded[from.index()] = true;
    let mut heap = BinaryHeap::new();

    for &e in net.out_edges(from) {
        let c = edge_cost(e).max(f64::EPSILON);
        if c < best[e.index()] && !expanded[net.edge(e).ok()?.to.index()] {
            best[e.index()] = c;
            heap.push(QueueEntry { cost: c, edge: e });
        }
    }

    let mut goal: Option<EdgeId> = None;
    while let Some(QueueEntry { cost, edge }) = heap.pop() {
        if cost > best[edge.index()] {
            continue;
        }
        let head = net.edge(edge).ok()?.to;
        if head == to {
            goal = Some(edge);
            break;
        }
        if std::mem::replace(&mut expanded[head.index()], true) {
            continue;
        }
        for &next in net.out_edges(head) {
            let c = cost + edge_cost(next).max(f64::EPSILON);
            if c < best[next.index()] && !expanded[net.edge(next).ok()?.to.index()] {
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

    /// The search before it expanded each vertex once: an edge-Dijkstra
    /// that relaxes every edge it pops. Kept as the reference
    /// [`shortest_path`] must match.
    fn full_edge_dijkstra<F>(
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

    /// Compares [`shortest_path`] with the full edge-Dijkstra on every
    /// ordered vertex pair of `net` under `cost`, checks that every path is
    /// simple, and returns how many pairs had no path.
    fn assert_matches_the_full_search(net: &RoadNetwork, cost: impl Fn(EdgeId) -> f64) -> usize {
        let n = net.vertex_count() as u32;
        let mut unreachable = 0;
        for from in (0..n).map(VertexId) {
            for to in (0..n).map(VertexId) {
                let got = shortest_path(net, from, to, &cost);
                assert_eq!(
                    got,
                    full_edge_dijkstra(net, from, to, &cost),
                    "{from:?} → {to:?}"
                );
                let Some(path) = got else {
                    unreachable += usize::from(from != to);
                    continue;
                };
                let vertices = path.vertices(net).unwrap();
                assert_eq!((vertices[0], *vertices.last().unwrap()), (from, to));
                let distinct: std::collections::HashSet<_> = vertices.iter().collect();
                assert_eq!(distinct.len(), vertices.len(), "{from:?} → {to:?} revisits");
            }
        }
        unreachable
    }

    #[test]
    fn expanding_each_vertex_once_matches_the_full_search() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let grid = GeneratorConfig::tiny(1).generate();
        let free_flow = |e| {
            grid.edge(e)
                .map(|edge| edge.free_flow_time_s())
                .unwrap_or(f64::INFINITY)
        };
        // Unit costs tie every path of equal hop count.
        assert_eq!(assert_matches_the_full_search(&grid, |_| 1.0), 0);
        assert_eq!(assert_matches_the_full_search(&grid, free_flow), 0);
        // Zero and NaN costs clamp to EPSILON; an infinite one is never
        // relaxed.
        let mut rng = StdRng::seed_from_u64(41);
        let odd: Vec<f64> = (0..grid.edge_count())
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => f64::NAN,
                2 => f64::INFINITY,
                _ => rng.gen_range(0.5..2.0),
            })
            .collect();
        assert!(assert_matches_the_full_search(&grid, |e| odd[e.index()]) > 0);

        // Dropped edges leave some pairs unreachable; both searches say so.
        let sparse = GeneratorConfig {
            rows: 6,
            cols: 6,
            drop_probability: 0.5,
            ..GeneratorConfig::tiny(7)
        }
        .generate();
        let free_flow = |e| sparse.edge(e).unwrap().free_flow_time_s();
        assert!(assert_matches_the_full_search(&sparse, free_flow) > 0);
    }

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
