//! The paper's DFS probabilistic path query (Hua & Pei \[10\], §4.3), kept as
//! test code: the reference `BestFirstRouter` is property-tested against
//! (`tests/routing_equivalence.rs`), pinned to a digest of its answers
//! captured while it was still a library module.
//!
//! Partial paths are explored depth-first with the "path + another edge"
//! pattern: each stack entry owns its [`Path`] and its cost [`Histogram1D`],
//! grown through `chain_start` / `chain_extension` with
//! `convolve_with_limit`; successors are re-sorted at every expansion, and
//! pruning is on free-flow lower bounds only (no incumbent bound, so
//! `incumbent_prunes` is always 0).

use pathcost::core::{chain_extension, chain_start, ArrivalWindow, CostEstimator, HybridGraph};
use pathcost::hist::convolution::convolve_with_limit;
use pathcost::hist::Histogram1D;
use pathcost::roadnet::{EdgeId, Path, VertexId};
use pathcost::routing::{
    edge_target_lower_bound, free_flow_to_destination, prob_within_budget, RouteResult,
    RouterConfig, RoutingError,
};
use pathcost::traj::Timestamp;

/// One stack entry: a partial path, its cost distribution and arrival
/// window, and the vertex it ends at.
struct Partial {
    path: Path,
    histogram: Histogram1D,
    window: ArrivalWindow,
    at: VertexId,
}

/// DFS-based probabilistic path router over a hybrid graph.
pub struct DfsRouter<'g, 'n> {
    graph: &'g HybridGraph<'n>,
    config: RouterConfig,
}

impl<'g, 'n> DfsRouter<'g, 'n> {
    pub fn new(graph: &'g HybridGraph<'n>, config: RouterConfig) -> Self {
        DfsRouter { graph, config }
    }

    /// Finds the path from `source` to `destination` departing at `departure`
    /// that maximises the probability of arriving within `budget_s` seconds;
    /// `Ok(None)` when no candidate within the search limits can meet it.
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
        // Most promising edge last, so it is popped first.
        let by_bound =
            |edges: &[EdgeId]| {
                let mut edges = edges.to_vec();
                edges.sort_by(|&a, &b| {
                    edge_target_lower_bound(net, &lower_bound, b)
                        .total_cmp(&edge_target_lower_bound(net, &lower_bound, a))
                });
                edges
            };

        let mut best: Option<RouteResult> = None;
        let mut expansions = 0usize;
        let mut evaluated = 0usize;
        let mut stack: Vec<Partial> = Vec::new();
        for edge in by_bound(net.out_edges(source)) {
            if let Ok((unit, window)) = chain_start(self.graph, edge, departure) {
                stack.push(Partial {
                    path: Path::unit(edge),
                    histogram: unit.clone(),
                    window,
                    at: net.edge(edge)?.to,
                });
            }
        }

        while let Some(partial) = stack.pop() {
            expansions += 1;
            if expansions > self.config.max_expansions || evaluated >= self.config.max_candidates {
                break;
            }
            // Prune: even the fastest completion exceeds the budget.
            if partial.histogram.min() + lower_bound[partial.at.index()] > budget_s {
                continue;
            }
            if partial.at == destination {
                // Complete candidate: evaluate its distribution with the real
                // estimator and keep the most reliable path.
                evaluated += 1;
                let distribution = estimator.estimate_arc(&partial.path, departure)?;
                let probability = prob_within_budget(&distribution, budget_s);
                if best.as_ref().is_none_or(|b| probability > b.probability) {
                    best = Some(RouteResult {
                        path: partial.path,
                        probability,
                        distribution,
                        evaluated_candidates: evaluated,
                        expansions,
                        incumbent_prunes: 0,
                    });
                }
                continue;
            }
            if partial.path.cardinality() >= self.config.max_path_edges {
                continue;
            }
            for edge in by_bound(net.out_edges(partial.at)) {
                // A revisited vertex or an edge without a distribution.
                let Ok(path) = partial.path.extend(edge, net) else {
                    continue;
                };
                let Ok((histogram, window)) =
                    chain_extension(self.graph, edge, partial.window, |unit, limit| {
                        convolve_with_limit(&partial.histogram, unit, limit)
                    })
                else {
                    continue;
                };
                stack.push(Partial {
                    path,
                    histogram,
                    window,
                    at: net.edge(edge)?.to,
                });
            }
        }

        if let Some(result) = &mut best {
            result.evaluated_candidates = evaluated;
            result.expansions = expansions;
        }
        Ok(best)
    }
}
