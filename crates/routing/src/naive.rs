//! The original DFS-based probabilistic path query (Hua & Pei \[10\], §4.3),
//! retained as the measured reference for the arena-based best-first search
//! in [`crate::bestfirst`] — the same role `pathcost_hist::naive` plays for
//! the histogram kernels. `tests/routing_equivalence.rs` property-tests that
//! both searches agree on the preset fixtures.
//!
//! The algorithm is kept verbatim: partial paths are explored depth-first
//! with the "path + another edge" pattern, each stack entry cloning a full
//! [`IncrementalEstimate`], successors re-sorted at every expansion, and
//! pruning only on free-flow lower bounds. Two deliberate deviations from
//! the pre-refactor code, both interface-level:
//!
//! * the successor comparators read their bound through
//!   [`edge_target_lower_bound`], fixing the old `unwrap_or(0)` fallback
//!   that ordered unresolvable edges by vertex 0's lower bound;
//! * results are reported through the shared [`RouteResult`] (its
//!   distribution now `Arc`-shared, `incumbent_prunes` always 0 here).

use crate::bestfirst::{RouteResult, RouterConfig};
use crate::dijkstra::{edge_target_lower_bound, free_flow_to_destination};
use crate::error::RoutingError;
use crate::query::prob_within_budget;
use pathcost_core::{CostEstimator, HybridGraph, IncrementalEstimate};
use pathcost_roadnet::VertexId;
use pathcost_traj::Timestamp;

/// DFS-based probabilistic path router over a hybrid graph (the reference
/// implementation).
pub struct DfsRouter<'g, 'n> {
    graph: &'g HybridGraph<'n>,
    config: RouterConfig,
}

impl<'g, 'n> DfsRouter<'g, 'n> {
    /// Creates a router with the given configuration.
    pub fn new(graph: &'g HybridGraph<'n>, config: RouterConfig) -> Result<Self, RoutingError> {
        if config.max_expansions == 0 || config.max_candidates == 0 || config.max_path_edges == 0 {
            return Err(RoutingError::InvalidConfig(
                "expansion, candidate and path-length limits must be positive",
            ));
        }
        Ok(DfsRouter { graph, config })
    }

    /// Finds the path from `source` to `destination` departing at `departure`
    /// that maximises the probability of arriving within `budget_s` seconds.
    ///
    /// Returns `Ok(None)` when no candidate path within the search limits can
    /// possibly meet the budget.
    pub fn route(
        &self,
        estimator: &dyn CostEstimator,
        source: VertexId,
        destination: VertexId,
        departure: Timestamp,
        budget_s: f64,
    ) -> Result<Option<RouteResult>, RoutingError> {
        if source == destination {
            return Err(RoutingError::SameSourceAndDestination);
        }
        let net = self.graph.network();
        net.vertex(source)?;
        net.vertex(destination)?;
        let lower_bound = free_flow_to_destination(net, destination);
        if !lower_bound[source.index()].is_finite() {
            return Err(RoutingError::Unreachable);
        }

        let mut best: Option<RouteResult> = None;
        let mut expansions = 0usize;
        let mut evaluated = 0usize;

        // Depth-first stack of partial paths with their incremental estimates.
        let mut stack: Vec<(IncrementalEstimate, VertexId)> = Vec::new();
        // Order initial edges by how promising they are (closest to destination).
        let mut first_edges: Vec<_> = net.out_edges(source).to_vec();
        first_edges.sort_by(|&a, &b| {
            edge_target_lower_bound(net, &lower_bound, b).total_cmp(&edge_target_lower_bound(
                net,
                &lower_bound,
                a,
            ))
        });
        for edge in first_edges {
            if let Ok(est) = IncrementalEstimate::start(self.graph, edge, departure) {
                let end = net.edge(edge)?.to;
                stack.push((est, end));
            }
        }

        while let Some((partial, at)) = stack.pop() {
            expansions += 1;
            if expansions > self.config.max_expansions || evaluated >= self.config.max_candidates {
                break;
            }
            // Prune: even the fastest completion exceeds the budget.
            let optimistic = partial.histogram().min() + lower_bound[at.index()];
            if optimistic > budget_s {
                continue;
            }
            if at == destination {
                // Complete candidate: evaluate its distribution with the real
                // estimator and keep the most reliable path.
                evaluated += 1;
                let distribution = estimator.estimate_arc(partial.path(), departure)?;
                let probability = prob_within_budget(&distribution, budget_s);
                let better = best
                    .as_ref()
                    .map(|b| probability > b.probability)
                    .unwrap_or(true);
                if better {
                    best = Some(RouteResult {
                        path: partial.path().clone(),
                        probability,
                        distribution,
                        evaluated_candidates: evaluated,
                        expansions,
                        incumbent_prunes: 0,
                    });
                }
                continue;
            }
            if partial.path().cardinality() >= self.config.max_path_edges {
                continue;
            }
            // Expand ("path + another edge"), most promising successor last so
            // it is popped first.
            let mut successors: Vec<_> = net.out_edges(at).to_vec();
            successors.sort_by(|&a, &b| {
                edge_target_lower_bound(net, &lower_bound, b).total_cmp(&edge_target_lower_bound(
                    net,
                    &lower_bound,
                    a,
                ))
            });
            for edge in successors {
                let Ok(extended) = partial.extend(self.graph, edge) else {
                    continue; // revisiting a vertex or unknown edge
                };
                let end = net.edge(edge)?.to;
                stack.push((extended, end));
            }
        }

        if let Some(result) = &mut best {
            result.evaluated_candidates = evaluated;
            result.expansions = expansions;
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_core::{HybridConfig, OdEstimator};
    use pathcost_roadnet::search::fastest_path;
    use pathcost_traj::DatasetPreset;

    #[test]
    fn reference_router_still_finds_feasible_paths() {
        let (net, store) = DatasetPreset::tiny(91).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let router = DfsRouter::new(&graph, RouterConfig::default()).unwrap();
        let od = OdEstimator::new(&graph);
        let source = VertexId(0);
        let destination = VertexId(18);
        let departure = Timestamp::from_day_hms(0, 8, 0, 0);
        let ff = pathcost_roadnet::search::free_flow_time_s(
            &net,
            &fastest_path(&net, source, destination).unwrap(),
        );
        let result = router
            .route(&od, source, destination, departure, ff * 3.0)
            .unwrap()
            .expect("a path should be found");
        assert!(result.probability > 0.5);
        assert_eq!(result.incumbent_prunes, 0, "the reference never prunes");
        let vs = result.path.vertices(&net).unwrap();
        assert_eq!(*vs.first().unwrap(), source);
        assert_eq!(*vs.last().unwrap(), destination);

        // An impossible budget stays infeasible.
        let infeasible = router
            .route(&od, source, VertexId(24), departure, 1.0)
            .unwrap();
        assert!(infeasible.is_none());
    }
}
