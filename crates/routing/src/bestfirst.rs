//! Arena-based best-first probabilistic path query (§4.3).
//!
//! Answers the paper's probabilistic path query (Hua & Pei \[10\], a DFS
//! there): given a source, a destination, a departure time and a travel-time
//! budget, find the path that maximises the probability of arriving within
//! the budget. Its reference is the exhaustive oracle
//! `tests/support/exhaustive.rs`, which ranks every simple path by
//! `Incumbent::beaten_by`'s ordering. The search here is rebuilt for
//! throughput:
//!
//! * **A node is a slice** — partial paths live as nodes in a slab, each
//!   holding its last edge, its end vertex, its arrival window and the
//!   [`Span`] of its cost histogram in one flat [`HistogramArena`]. Extending
//!   a node ("path + another edge") convolves the parent's span with the unit
//!   distribution the weight view *lends* and appends the result to the
//!   arena; a child the budget or the incumbent rejects is popped off again.
//!   No `Path`, no `Histogram1D` and no `Arc` is made per node; a concrete
//!   edge sequence is materialised (by walking parent pointers) only for
//!   complete candidates that reach the destination. The rule that grows a
//!   chain is [`pathcost_core::chain_extension`], and the arena's kernels
//!   are the ones behind `Histogram1D`, so every bound is bit for bit what a
//!   per-node histogram would give.
//! * **Per-thread scratch** — the slab, the arena, the frontier heap, the
//!   convolution buffers and the visited marks belong to the thread and are
//!   reused by its next search: a warmed thread searches without allocating,
//!   whatever the number of expansions (`tests/routing_allocations.rs`).
//! * **Best-first frontier** — instead of a depth-first stack, a max-heap
//!   orders open nodes by their *optimistic within-budget probability*
//!   `P(partial cost ≤ budget − lb(v))`, where `lb(v)` is the free-flow
//!   bound to the destination. Ties break towards the smaller
//!   optimistic arrival time (A*-style), then insertion order, so the search
//!   is deterministic and reaches a strong first incumbent quickly.
//! * **Incumbent pruning** — once a candidate has been evaluated, any partial
//!   path whose optimistic bound is *strictly below* the incumbent
//!   probability is dropped (at push and again at pop, where the incumbent
//!   may have improved). Equal-bound paths are kept so tie-breaking stays
//!   exact.
//! * **Precomputed bounds and successor order** — the free-flow bounds to
//!   the destination and the lower-bound-sorted adjacency come from a
//!   [`FreeFlowCache`]: they depend on the network alone, so they are
//!   searched once per destination, not once per `route()` call.
//!
//! Complete candidates are evaluated with the pluggable [`CostEstimator`]
//! through [`CostEstimator::estimate_arc`], so an estimator backed by a
//! distribution cache (the serving layer's `CachingEstimator`) hands back
//! shared histograms without copying them.

use crate::error::RoutingError;
use crate::freeflow::{DestinationIndex, FreeFlowCache};
use crate::query::prob_within_budget;
use pathcost_core::{chain_extension, chain_start, ArrivalWindow, CostEstimator, HybridGraph};
use pathcost_hist::{ConvolveScratch, Histogram1D, HistogramArena, Span};
use pathcost_roadnet::{EdgeId, Path, RoadNetwork, VertexId};
use pathcost_traj::Timestamp;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Configuration of the probabilistic path query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Maximum number of partial-path expansions before the search stops.
    pub max_expansions: usize,
    /// Maximum number of complete candidate paths whose distribution is
    /// evaluated with the full estimator.
    pub max_candidates: usize,
    /// Maximum candidate path cardinality.
    pub max_path_edges: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_expansions: 20_000,
            max_candidates: 64,
            max_path_edges: 120,
        }
    }
}

/// The outcome of a probabilistic path query.
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// The best path found.
    pub path: Path,
    /// Probability of completing the path within the budget.
    pub probability: f64,
    /// The estimated cost distribution of the path, shared with the
    /// estimator that produced it (a cache-backed estimator hands out the
    /// cached allocation itself).
    pub distribution: Arc<Histogram1D>,
    /// Number of complete candidate paths whose distribution was evaluated.
    pub evaluated_candidates: usize,
    /// Number of partial-path expansions performed.
    pub expansions: usize,
    /// Partial paths and candidates dropped because their optimistic
    /// within-budget probability could not beat the incumbent.
    pub incumbent_prunes: usize,
}

/// Counters describing one search, reported even when no path was found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchTelemetry {
    /// Partial-path expansions performed (frontier pops).
    pub expansions: usize,
    /// Complete candidates evaluated with the estimator.
    pub evaluated_candidates: usize,
    /// Partial paths dropped by the incumbent bound.
    pub incumbent_prunes: usize,
}

const NIL: usize = usize::MAX;

/// One partial path: its last edge plus a parent pointer into the slab, and
/// where its cost histogram sits in the search's arena.
struct Node {
    parent: usize,
    edge: EdgeId,
    at: VertexId,
    depth: u32,
    histogram: Span,
    arrival_window: ArrivalWindow,
}

/// A heap entry for an open node. Max-ordered by optimistic within-budget
/// probability, then by *smaller* optimistic arrival time, then by *earlier*
/// insertion, so the pop order is total and deterministic.
struct Open {
    bound: f64,
    optimistic_cost: f64,
    seq: u64,
    node: usize,
}

impl PartialEq for Open {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Open {}

impl Ord for Open {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| other.optimistic_cost.total_cmp(&self.optimistic_cost))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Open {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The best complete candidate seen so far.
struct Incumbent {
    path: Path,
    probability: f64,
    mean: f64,
    distribution: Arc<Histogram1D>,
}

impl Incumbent {
    /// Deterministic candidate ordering: higher within-budget probability
    /// wins; exact ties prefer the lower expected cost, then the shorter
    /// (fewer-edge) path.
    fn beaten_by(&self, probability: f64, mean: f64, cardinality: usize) -> bool {
        probability > self.probability
            || (probability == self.probability
                && (mean < self.mean
                    || (mean == self.mean && cardinality < self.path.cardinality())))
    }
}

/// The ranked top-`k` complete candidates seen so far. For `k = 1` this is
/// exactly the single-incumbent bookkeeping the search always had; for larger
/// `k` the pruning bound weakens to the *k-th best* probability, so the
/// search provably cannot drop a partial path that could still place.
struct IncumbentList {
    k: usize,
    ranked: Vec<Incumbent>,
}

impl IncumbentList {
    fn new(k: usize) -> Self {
        IncumbentList {
            k,
            ranked: Vec::with_capacity(k),
        }
    }

    /// The probability below which a partial path's optimistic bound can be
    /// pruned: the weakest ranked candidate's, once `k` candidates exist.
    fn prune_probability(&self) -> Option<f64> {
        (self.ranked.len() >= self.k).then(|| {
            self.ranked
                .last()
                .expect("k >= 1 and list is full")
                .probability
        })
    }

    /// Offers a complete candidate, keeping the list ordered best-first by
    /// the deterministic [`Incumbent::beaten_by`] ordering and capped at `k`.
    /// Candidates whose path is already ranked are dropped (the arena never
    /// materialises the same edge sequence twice, so this is a defensive
    /// invariant, not an expected branch).
    fn offer(&mut self, candidate: Incumbent) {
        if self.ranked.iter().any(|inc| inc.path == candidate.path) {
            return;
        }
        let position = self.ranked.iter().position(|inc| {
            inc.beaten_by(
                candidate.probability,
                candidate.mean,
                candidate.path.cardinality(),
            )
        });
        match position {
            Some(at) => self.ranked.insert(at, candidate),
            None if self.ranked.len() < self.k => self.ranked.push(candidate),
            None => return,
        }
        self.ranked.truncate(self.k);
    }
}

/// What one search builds and throws away, kept by its thread for the next:
/// the node slab, the nodes' histograms, the frontier, the convolution
/// buffers and the visited marks.
#[derive(Default)]
struct SearchScratch {
    nodes: Vec<Node>,
    histograms: HistogramArena,
    heap: BinaryHeap<Open>,
    convolve: ConvolveScratch,
    /// Epoch-marked visited array: one pass down the parent chain marks the
    /// expanded node's vertices with a fresh epoch, then each successor is
    /// an O(1) check. Epochs only grow, so marks left by earlier searches
    /// (of any network) never match.
    visit_mark: Vec<u64>,
    epoch: u64,
}

/// Nodes and histogram buckets a thread keeps allocated between searches —
/// several times what the benchmark's largest search touches. One search at
/// the default expansion limit can grow the scratch to tens of megabytes;
/// that much is given back rather than pinned to the thread.
const RETAINED_NODES: usize = 1 << 14;
const RETAINED_BUCKETS: usize = 1 << 16;

impl SearchScratch {
    /// Empties the scratch for the next search.
    fn reset(&mut self) {
        self.nodes.clear();
        self.nodes.shrink_to(RETAINED_NODES);
        self.heap.clear();
        self.heap.shrink_to(RETAINED_NODES);
        self.histograms.clear_and_shrink_to(RETAINED_BUCKETS);
    }
}

thread_local! {
    static SCRATCH: RefCell<SearchScratch> = RefCell::default();
}

/// Best-first probabilistic path router over a hybrid graph.
pub struct BestFirstRouter<'g, 'n> {
    graph: &'g HybridGraph<'n>,
    config: RouterConfig,
    free_flow: Arc<FreeFlowCache<'n>>,
}

/// The checks on a routing request's shape that every search starts with,
/// in the order their errors are reported. A NaN budget is refused: every
/// comparison against it is false, so nothing would prune.
fn validate_route(
    net: &RoadNetwork,
    source: VertexId,
    destination: VertexId,
    budget_s: f64,
    k: usize,
) -> Result<(), RoutingError> {
    if k == 0 {
        return Err(RoutingError::InvalidConfig(
            "k-best routing needs k >= 1 ranked results",
        ));
    }
    if budget_s.is_nan() {
        return Err(RoutingError::InvalidConfig("the budget must not be NaN"));
    }
    if source == destination {
        return Err(RoutingError::SameSourceAndDestination);
    }
    net.vertex(source)?;
    net.vertex(destination)?;
    Ok(())
}

impl<'g, 'n> BestFirstRouter<'g, 'n> {
    /// Creates a router with the given configuration and a free-flow cache
    /// of its own.
    pub fn new(graph: &'g HybridGraph<'n>, config: RouterConfig) -> Result<Self, RoutingError> {
        let free_flow = Arc::new(FreeFlowCache::new(graph.network()));
        Self::with_cache(graph, config, free_flow)
    }

    /// As [`Self::new`], reading bounds and successor orders from
    /// `free_flow` — a cache a longer-lived owner shares across routers,
    /// weight epochs and regime views of the same network.
    ///
    /// # Panics
    /// When `free_flow` was built over a different network than the graph's:
    /// its bounds would silently misorder and misprune every search.
    pub fn with_cache(
        graph: &'g HybridGraph<'n>,
        config: RouterConfig,
        free_flow: Arc<FreeFlowCache<'n>>,
    ) -> Result<Self, RoutingError> {
        if config.max_expansions == 0 || config.max_candidates == 0 || config.max_path_edges == 0 {
            return Err(RoutingError::InvalidConfig(
                "expansion, candidate and path-length limits must be positive",
            ));
        }
        assert!(
            std::ptr::eq(free_flow.network(), graph.network()),
            "the free-flow cache must be over the router's network"
        );
        Ok(BestFirstRouter {
            graph,
            config,
            free_flow,
        })
    }

    /// Finds the path from `source` to `destination` departing at `departure`
    /// that maximises the probability of arriving within `budget_s` seconds.
    ///
    /// Returns `Ok(None)` when no candidate path within the search limits can
    /// possibly meet the budget. [`Self::route_top_k`] with `k = 1` and a
    /// probe that never fires, keeping only the best.
    pub fn route(
        &self,
        estimator: &dyn CostEstimator,
        source: VertexId,
        destination: VertexId,
        departure: Timestamp,
        budget_s: f64,
    ) -> Result<Option<RouteResult>, RoutingError> {
        let (ranked, _) = self.route_top_k(
            estimator,
            source,
            destination,
            departure,
            budget_s,
            1,
            &|| false,
        )?;
        Ok(ranked.into_iter().next())
    }

    /// K-best routing: the `k` distinct paths with the highest probability of
    /// arriving within `budget_s`, ordered best-first by the search's
    /// deterministic candidate ordering (probability, then lower mean, then
    /// fewer edges), with the search counters, which are reported even when
    /// no feasible path exists (the serving layer's `route_*` metrics).
    /// Fewer than `k` results are returned when the search space does not
    /// contain that many feasible candidates.
    ///
    /// The search explores identically for every `k`; only the incumbent
    /// bookkeeping widens — pruning compares against the *k-th best*
    /// probability, so partial paths that could still place in the ranking
    /// are never dropped.
    ///
    /// `cancel` is polled once per frontier pop. When it returns `true` the
    /// search stops immediately with [`RoutingError::Cancelled`] — the
    /// cooperative hook the serving layer uses so an abandoned query (client
    /// disconnect, deadline expiry) stops burning a worker instead of running
    /// its full expansion budget. It is a plain closure rather than a
    /// [`RouterConfig`] field so the config stays `Serialize`/`PartialEq` and
    /// per-request tokens do not leak into long-lived configuration.
    #[allow(clippy::too_many_arguments)]
    pub fn route_top_k(
        &self,
        estimator: &dyn CostEstimator,
        source: VertexId,
        destination: VertexId,
        departure: Timestamp,
        budget_s: f64,
        k: usize,
        cancel: &dyn Fn() -> bool,
    ) -> Result<(Vec<RouteResult>, SearchTelemetry), RoutingError> {
        let net = self.graph.network();
        validate_route(net, source, destination, budget_s, k)?;
        let index = self.free_flow.destination(destination);
        if !index.lower_bound()[source.index()].is_finite() {
            return Err(RoutingError::Unreachable);
        }
        // Taken rather than borrowed for the search: the estimator is the
        // caller's code and may itself route on this thread.
        let mut scratch = SCRATCH.with(RefCell::take);
        let outcome = self.search(
            &mut scratch,
            &index,
            estimator,
            (source, destination),
            departure,
            budget_s,
            k,
            cancel,
        );
        scratch.reset();
        SCRATCH.with(|cell| cell.replace(scratch));
        outcome
    }

    /// The search loop, on a scratch it may assume empty.
    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        scratch: &mut SearchScratch,
        index: &DestinationIndex,
        estimator: &dyn CostEstimator,
        (source, destination): (VertexId, VertexId),
        departure: Timestamp,
        budget_s: f64,
        k: usize,
        cancel: &dyn Fn() -> bool,
    ) -> Result<(Vec<RouteResult>, SearchTelemetry), RoutingError> {
        let net = self.graph.network();
        let lower_bound = index.lower_bound();
        let mut telemetry = SearchTelemetry::default();
        let mut seq: u64 = 0;
        let mut best = IncumbentList::new(k);
        if scratch.visit_mark.len() < net.vertex_count() {
            scratch.visit_mark.resize(net.vertex_count(), 0);
        }

        for &edge in index.successors(source) {
            let end = net.edge(edge)?.to;
            let Ok((unit, arrival_window)) = chain_start(self.graph, edge, departure) else {
                continue; // no unit distribution for this edge
            };
            let histogram = scratch.histograms.push(unit);
            admit(
                scratch,
                &mut seq,
                &mut telemetry,
                &best,
                lower_bound,
                budget_s,
                Node {
                    parent: NIL,
                    edge,
                    at: end,
                    depth: 1,
                    histogram,
                    arrival_window,
                },
            );
        }

        while let Some(Open { bound, node, .. }) = scratch.heap.pop() {
            if cancel() {
                return Err(RoutingError::Cancelled);
            }
            telemetry.expansions += 1;
            if telemetry.expansions > self.config.max_expansions
                || telemetry.evaluated_candidates >= self.config.max_candidates
            {
                break;
            }
            // The ranking may have improved since this node was pushed.
            if let Some(prune_at) = best.prune_probability() {
                if bound < prune_at {
                    telemetry.incumbent_prunes += 1;
                    continue;
                }
            }
            let Node {
                at,
                depth,
                histogram: parent_histogram,
                arrival_window: parent_window,
                ..
            } = scratch.nodes[node];
            if at == destination {
                // Complete candidate: materialise the path and evaluate its
                // distribution with the real estimator.
                telemetry.evaluated_candidates += 1;
                let path = materialise(&scratch.nodes, node);
                let distribution = estimator.estimate_arc(&path, departure)?;
                let probability = prob_within_budget(&distribution, budget_s);
                let mean = distribution.mean();
                best.offer(Incumbent {
                    path,
                    probability,
                    mean,
                    distribution,
                });
                continue;
            }
            if depth as usize >= self.config.max_path_edges {
                continue;
            }
            // Mark the vertices of this partial path (plus the source) so
            // successors closing a cycle are rejected in O(1).
            scratch.epoch += 1;
            let epoch = scratch.epoch;
            scratch.visit_mark[source.index()] = epoch;
            let mut cursor = node;
            loop {
                scratch.visit_mark[scratch.nodes[cursor].at.index()] = epoch;
                if scratch.nodes[cursor].parent == NIL {
                    break;
                }
                cursor = scratch.nodes[cursor].parent;
            }
            for &edge in index.successors(at) {
                let end = net.edge(edge)?.to;
                if scratch.visit_mark[end.index()] == epoch {
                    continue; // would revisit a vertex
                }
                let SearchScratch {
                    histograms,
                    convolve,
                    ..
                } = scratch;
                let Ok((histogram, arrival_window)) =
                    chain_extension(self.graph, edge, parent_window, |unit, max_buckets| {
                        histograms.push_convolved(parent_histogram, unit, max_buckets, convolve)
                    })
                else {
                    continue; // no unit distribution for this edge
                };
                admit(
                    scratch,
                    &mut seq,
                    &mut telemetry,
                    &best,
                    lower_bound,
                    budget_s,
                    Node {
                        parent: node,
                        edge,
                        at: end,
                        depth: depth + 1,
                        histogram,
                        arrival_window,
                    },
                );
            }
        }

        let ranked = best
            .ranked
            .into_iter()
            .map(|incumbent| RouteResult {
                path: incumbent.path,
                probability: incumbent.probability,
                distribution: incumbent.distribution,
                evaluated_candidates: telemetry.evaluated_candidates,
                expansions: telemetry.expansions,
                incumbent_prunes: telemetry.incumbent_prunes,
            })
            .collect();
        Ok((ranked, telemetry))
    }
}

/// Applies the budget and incumbent prunes to a prospective node, whose
/// histogram is the newest of the arena, and either stores it in the slab and
/// opens it on the frontier or pops its histogram off again.
fn admit(
    scratch: &mut SearchScratch,
    seq: &mut u64,
    telemetry: &mut SearchTelemetry,
    best: &IncumbentList,
    lower_bound: &[f64],
    budget_s: f64,
    node: Node,
) {
    let lb = lower_bound[node.at.index()];
    let optimistic_cost = scratch.histograms.min(node.histogram) + lb;
    if optimistic_cost > budget_s {
        // Even the fastest completion exceeds the budget.
        scratch.histograms.pop(node.histogram);
        return;
    }
    // Optimistic within-budget probability: were the completion to take at
    // least the free-flow bound, the candidate's probability could not exceed
    // P(partial ≤ budget − lb). (Neither prune is sound; the exhaustive
    // oracle's ratchet counts what they cost.) Strictly-worse bounds are
    // pruned; equal bounds survive so exact ties reach the deterministic
    // tie-break.
    let bound = scratch.histograms.prob_leq(node.histogram, budget_s - lb);
    if let Some(prune_at) = best.prune_probability() {
        if bound < prune_at {
            telemetry.incumbent_prunes += 1;
            scratch.histograms.pop(node.histogram);
            return;
        }
    }
    scratch.nodes.push(node);
    *seq += 1;
    scratch.heap.push(Open {
        bound,
        optimistic_cost,
        seq: *seq,
        node: scratch.nodes.len() - 1,
    });
}

/// Walks parent pointers from `node` to a root and returns the edge sequence
/// as a `Path`. Adjacency and vertex-distinctness hold by construction (the
/// search only extends with out-edges of the chain end and rejects vertex
/// revisits), so no re-validation against the network is needed.
fn materialise(arena: &[Node], node: usize) -> Path {
    let mut edges = Vec::with_capacity(arena[node].depth as usize);
    let mut cursor = node;
    loop {
        edges.push(arena[cursor].edge);
        if arena[cursor].parent == NIL {
            break;
        }
        cursor = arena[cursor].parent;
    }
    edges.reverse();
    Path::from_edges_unchecked(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_core::{HybridConfig, OdEstimator};
    use pathcost_roadnet::search::fastest_path;
    use pathcost_traj::DatasetPreset;

    struct Fixture {
        net: pathcost_roadnet::RoadNetwork,
        store: pathcost_traj::TrajectoryStore,
        cfg: HybridConfig,
    }

    fn fixture() -> Fixture {
        let (net, store) = DatasetPreset::tiny(91).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        Fixture { net, store, cfg }
    }

    #[test]
    fn finds_a_feasible_path_with_reasonable_probability() {
        let f = fixture();
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        let router = BestFirstRouter::new(&graph, RouterConfig::default()).unwrap();
        let od = OdEstimator::new(&graph);
        let source = VertexId(0);
        let destination = VertexId(18);
        let departure = Timestamp::from_day_hms(0, 8, 0, 0);
        // A generous budget: three times the free-flow time of the fastest path.
        let ff = pathcost_roadnet::search::free_flow_time_s(
            &f.net,
            &fastest_path(&f.net, source, destination).unwrap(),
        );
        let result = router
            .route(&od, source, destination, departure, ff * 3.0)
            .unwrap()
            .expect("a path should be found");
        assert!(
            result.probability > 0.5,
            "probability {}",
            result.probability
        );
        let vs = result.path.vertices(&f.net).unwrap();
        assert_eq!(*vs.first().unwrap(), source);
        assert_eq!(*vs.last().unwrap(), destination);
        assert!(result.evaluated_candidates >= 1);
        assert!(result.expansions >= result.path.cardinality());
    }

    #[test]
    fn impossible_budget_returns_none_with_telemetry() {
        let f = fixture();
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        let router = BestFirstRouter::new(&graph, RouterConfig::default()).unwrap();
        let od = OdEstimator::new(&graph);
        let (ranked, telemetry) = router
            .route_top_k(
                &od,
                VertexId(0),
                VertexId(24),
                Timestamp::from_day_hms(0, 8, 0, 0),
                1.0, // one second: unreachable within budget
                1,
                &|| false,
            )
            .unwrap();
        assert!(ranked.is_empty());
        assert_eq!(telemetry.evaluated_candidates, 0);
    }

    #[test]
    fn error_cases_are_reported() {
        let f = fixture();
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        let router = BestFirstRouter::new(&graph, RouterConfig::default()).unwrap();
        let od = OdEstimator::new(&graph);
        let departure = Timestamp::from_day_hms(0, 9, 0, 0);
        assert!(matches!(
            router.route(&od, VertexId(3), VertexId(3), departure, 600.0),
            Err(RoutingError::SameSourceAndDestination)
        ));
        assert!(router
            .route(&od, VertexId(3), VertexId(40_000), departure, 600.0)
            .is_err());
        // Every comparison against NaN is false, so a NaN budget would prune
        // nothing and answer anyway.
        assert!(matches!(
            router.route(&od, VertexId(0), VertexId(12), departure, f64::NAN),
            Err(RoutingError::InvalidConfig(_))
        ));
        // Infinite and negative budgets keep their answers: certain arrival,
        // and no path.
        let unbounded = router
            .route(&od, VertexId(0), VertexId(12), departure, f64::INFINITY)
            .unwrap()
            .expect("an infinite budget is met by any path");
        assert_eq!(unbounded.probability, 1.0);
        for budget in [f64::NEG_INFINITY, -1.0] {
            assert!(router
                .route(&od, VertexId(0), VertexId(12), departure, budget)
                .unwrap()
                .is_none());
        }
        assert!(BestFirstRouter::new(
            &graph,
            RouterConfig {
                max_expansions: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn od_and_lb_estimators_both_work_and_agree_on_feasibility() {
        let f = fixture();
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        let router = BestFirstRouter::new(&graph, RouterConfig::default()).unwrap();
        let od = OdEstimator::new(&graph);
        let lb = OdEstimator::with_rank_cap(&graph, 1);
        let source = VertexId(2);
        let destination = VertexId(22);
        let departure = Timestamp::from_day_hms(0, 17, 0, 0);
        let ff = pathcost_roadnet::search::free_flow_time_s(
            &f.net,
            &fastest_path(&f.net, source, destination).unwrap(),
        );
        let budget = ff * 3.0;
        let od_result = router
            .route(&od, source, destination, departure, budget)
            .unwrap();
        let lb_result = router
            .route(&lb, source, destination, departure, budget)
            .unwrap();
        assert!(od_result.is_some());
        assert!(lb_result.is_some());
    }

    #[test]
    fn tight_budget_prefers_reliable_paths() {
        let f = fixture();
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        let router = BestFirstRouter::new(&graph, RouterConfig::default()).unwrap();
        let od = OdEstimator::new(&graph);
        let source = VertexId(0);
        let destination = VertexId(12);
        let departure = Timestamp::from_day_hms(0, 8, 0, 0);
        let ff = pathcost_roadnet::search::free_flow_time_s(
            &f.net,
            &fastest_path(&f.net, source, destination).unwrap(),
        );
        // A moderately tight budget: the probability should be strictly
        // between 0 and 1 for at least one of the two budgets.
        let tight = router
            .route(&od, source, destination, departure, ff * 1.6)
            .unwrap();
        let generous = router
            .route(&od, source, destination, departure, ff * 4.0)
            .unwrap()
            .expect("generous budget must be feasible");
        if let Some(tight) = tight {
            assert!(tight.probability <= generous.probability + 1e-9);
        }
        assert!(generous.probability > 0.8);
    }

    #[test]
    fn repeated_searches_are_deterministic() {
        let f = fixture();
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        let router = BestFirstRouter::new(&graph, RouterConfig::default()).unwrap();
        let od = OdEstimator::new(&graph);
        let departure = Timestamp::from_day_hms(0, 8, 0, 0);
        let ff = pathcost_roadnet::search::free_flow_time_s(
            &f.net,
            &fastest_path(&f.net, VertexId(0), VertexId(18)).unwrap(),
        );
        let first = router
            .route(&od, VertexId(0), VertexId(18), departure, ff * 2.5)
            .unwrap()
            .expect("feasible");
        let second = router
            .route(&od, VertexId(0), VertexId(18), departure, ff * 2.5)
            .unwrap()
            .expect("feasible");
        assert_eq!(first.path, second.path);
        assert_eq!(first.probability, second.probability);
        assert_eq!(first.expansions, second.expansions);
        assert_eq!(first.incumbent_prunes, second.incumbent_prunes);
    }

    #[test]
    fn top_k_is_ordered_deduplicated_and_consistent_with_the_best() {
        let f = fixture();
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        let router = BestFirstRouter::new(&graph, RouterConfig::default()).unwrap();
        let od = OdEstimator::new(&graph);
        let source = VertexId(0);
        let destination = VertexId(18);
        let departure = Timestamp::from_day_hms(0, 8, 0, 0);
        let ff = pathcost_roadnet::search::free_flow_time_s(
            &f.net,
            &fastest_path(&f.net, source, destination).unwrap(),
        );
        let budget = ff * 2.5;

        let (ranked, _) = router
            .route_top_k(&od, source, destination, departure, budget, 3, &|| false)
            .unwrap();
        assert!((1..=3).contains(&ranked.len()), "got {}", ranked.len());
        // Ordered best-first and free of duplicate paths.
        for w in ranked.windows(2) {
            assert!(w[0].probability >= w[1].probability);
            assert_ne!(w[0].path, w[1].path, "alternatives must be distinct");
        }
        // The top alternative is exactly the single-result answer.
        let single = router
            .route(&od, source, destination, departure, budget)
            .unwrap()
            .expect("feasible");
        assert_eq!(ranked[0].path, single.path);
        assert_eq!(ranked[0].probability, single.probability);
        // k = 0 is rejected; a huge k just returns what exists.
        assert!(router
            .route_top_k(&od, source, destination, departure, budget, 0, &|| false)
            .is_err());
        let (all, telemetry) = router
            .route_top_k(&od, source, destination, departure, budget, 1_000, &|| {
                false
            })
            .unwrap();
        assert!(all.len() <= telemetry.evaluated_candidates);
        assert_eq!(all[0].path, single.path);
    }

    #[test]
    fn cancellation_probe_stops_the_search_mid_expansion() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let f = fixture();
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        let router = BestFirstRouter::new(&graph, RouterConfig::default()).unwrap();
        let od = OdEstimator::new(&graph);
        let departure = Timestamp::from_day_hms(0, 8, 0, 0);
        let ff = pathcost_roadnet::search::free_flow_time_s(
            &f.net,
            &fastest_path(&f.net, VertexId(0), VertexId(18)).unwrap(),
        );
        let budget = ff * 2.5;

        // A never-firing probe behaves exactly like the plain search.
        let polls = AtomicUsize::new(0);
        let (ranked, telemetry) = router
            .route_top_k(
                &od,
                VertexId(0),
                VertexId(18),
                departure,
                budget,
                1,
                &|| {
                    polls.fetch_add(1, Ordering::Relaxed);
                    false
                },
            )
            .unwrap();
        assert!(!ranked.is_empty());
        let total_polls = polls.load(Ordering::Relaxed);
        assert_eq!(
            total_polls, telemetry.expansions,
            "the probe is polled once per frontier pop"
        );
        assert!(total_polls > 3, "fixture search must actually expand");

        // Cancelling after a few polls stops the search well short of the
        // full expansion count, with the dedicated error.
        let polls = AtomicUsize::new(0);
        let result = router.route_top_k(
            &od,
            VertexId(0),
            VertexId(18),
            departure,
            budget,
            1,
            &|| polls.fetch_add(1, Ordering::Relaxed) >= 3,
        );
        assert!(matches!(result, Err(RoutingError::Cancelled)));
        assert_eq!(polls.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn incumbent_ordering_prefers_probability_then_mean_then_length() {
        let dist = Arc::new(
            pathcost_hist::Histogram1D::from_entries(vec![(
                pathcost_hist::Bucket::new(0.0, 1.0).unwrap(),
                1.0,
            )])
            .unwrap(),
        );
        let incumbent = Incumbent {
            path: Path::from_edges_unchecked(vec![EdgeId(0), EdgeId(1)]),
            probability: 0.8,
            mean: 100.0,
            distribution: dist,
        };
        assert!(
            incumbent.beaten_by(0.9, 200.0, 5),
            "higher probability wins"
        );
        assert!(!incumbent.beaten_by(0.7, 1.0, 1), "lower probability loses");
        assert!(
            incumbent.beaten_by(0.8, 90.0, 5),
            "probability tie: lower mean wins"
        );
        assert!(
            !incumbent.beaten_by(0.8, 110.0, 1),
            "probability tie: higher mean loses"
        );
        assert!(
            incumbent.beaten_by(0.8, 100.0, 1),
            "probability and mean tie: fewer edges win"
        );
        assert!(
            !incumbent.beaten_by(0.8, 100.0, 2),
            "full tie: the incumbent is kept"
        );
    }
    /// Everything a search returns, bit for bit: per ranked result its edge
    /// ids, probability and distribution bits, then the search counters.
    fn search_bits(
        outcome: &Result<(Vec<RouteResult>, SearchTelemetry), RoutingError>,
    ) -> Vec<u64> {
        let Ok((ranked, telemetry)) = outcome else {
            return vec![u64::MAX];
        };
        let mut bits = vec![ranked.len() as u64];
        for r in ranked {
            bits.push(r.path.cardinality() as u64);
            bits.extend(r.path.edges().iter().map(|e| u64::from(e.0)));
            bits.push(r.probability.to_bits());
            for (b, p) in r.distribution.buckets().iter().zip(r.distribution.probs()) {
                bits.extend([b.lo, b.hi, *p].map(f64::to_bits));
            }
            bits.extend([
                r.expansions as u64,
                r.evaluated_candidates as u64,
                r.incumbent_prunes as u64,
            ]);
        }
        bits.extend([
            telemetry.expansions as u64,
            telemetry.evaluated_candidates as u64,
            telemetry.incumbent_prunes as u64,
        ]);
        bits
    }

    /// Every ordered vertex pair of the fixture's 5×5 grid, as a top-2 search
    /// at 1.5 × its free-flow time (equal endpoints included: an error is an
    /// answer too).
    fn all_pairs(net: &pathcost_roadnet::RoadNetwork) -> Vec<(VertexId, VertexId, f64)> {
        let vertices = net.vertex_count() as u32;
        let mut pairs = Vec::new();
        for source in (0..vertices).map(VertexId) {
            for destination in (0..vertices).map(VertexId) {
                let budget = fastest_path(net, source, destination).map_or(600.0, |p| {
                    pathcost_roadnet::search::free_flow_time_s(net, &p) * 1.5
                });
                pairs.push((source, destination, budget));
            }
        }
        pairs
    }

    fn search_all(
        router: &BestFirstRouter<'_, '_>,
        od: &OdEstimator<'_, '_>,
        pairs: &[(VertexId, VertexId, f64)],
    ) -> Vec<Vec<u64>> {
        let departure = Timestamp::from_day_hms(0, 8, 0, 0);
        pairs
            .iter()
            .map(|&(s, d, budget)| {
                search_bits(&router.route_top_k(od, s, d, departure, budget, 2, &|| false))
            })
            .collect()
    }

    /// Digest captured at the parent of PR 20, where every search ran its own
    /// reverse Dijkstra and sorted its own successor lists.
    #[test]
    fn every_search_matches_the_pre_pr20_golden_digest() {
        let f = fixture();
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        let router = BestFirstRouter::new(&graph, RouterConfig::default()).unwrap();
        let od = OdEstimator::new(&graph);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let answers = search_all(&router, &od, &all_pairs(&f.net));
        for x in answers.iter().flatten() {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let found = answers
            .iter()
            .filter(|bits| bits[0] != u64::MAX && bits[0] > 0)
            .count();
        assert_eq!((h, answers.len(), found), (0xee6b_0e16_466c_3f19, 625, 600));
    }

    #[test]
    fn warm_cold_and_refilled_caches_answer_every_pair_identically() {
        let f = fixture();
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        let od = OdEstimator::new(&graph);
        let pairs = all_pairs(&f.net);
        let router = |destinations| {
            let cache = FreeFlowCache::with_capacity(&f.net, destinations);
            BestFirstRouter::with_cache(&graph, RouterConfig::default(), Arc::new(cache)).unwrap()
        };
        // Cold: every destination's first search fills its entry.
        let shared = router(f.net.vertex_count());
        let cold = search_all(&shared, &od, &pairs);
        assert_eq!(shared.free_flow.destination_count(), f.net.vertex_count());
        // Warm: the same router again, every entry resident.
        assert_eq!(search_all(&shared, &od, &pairs), cold);
        // Evicted and refilled: one slot, and the pairs visited destination
        // by destination backwards, so each entry is dropped and rebuilt
        // many times over.
        let single = router(1);
        let mut backwards: Vec<usize> = (0..pairs.len()).collect();
        backwards.sort_by_key(|&i| std::cmp::Reverse((pairs[i].0, pairs[i].1)));
        let reordered: Vec<_> = backwards.iter().map(|&i| pairs[i]).collect();
        let refilled = search_all(&single, &od, &reordered);
        for (at, &i) in backwards.iter().enumerate() {
            assert_eq!(refilled[at], cold[i], "pair {:?}", pairs[i]);
        }
        assert_eq!(single.free_flow.destination_count(), 1);
    }

    #[test]
    fn eight_threads_through_a_two_entry_cache_match_the_single_threaded_answers() {
        let f = fixture();
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        let od = OdEstimator::new(&graph);
        let destinations = [VertexId(24), VertexId(18), VertexId(4), VertexId(11)];
        let pairs: Vec<_> = all_pairs(&f.net)
            .into_iter()
            .filter(|(_, d, _)| destinations.contains(d))
            .collect();
        let alone = BestFirstRouter::new(&graph, RouterConfig::default()).unwrap();
        let expected = search_all(&alone, &od, &pairs);

        let cache = Arc::new(FreeFlowCache::with_capacity(&f.net, 2));
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for thread in 0..8 {
                let (graph, od, pairs, expected) = (&graph, &od, &pairs, &expected);
                let (cache, start) = (Arc::clone(&cache), &start);
                scope.spawn(move || {
                    let router =
                        BestFirstRouter::with_cache(graph, RouterConfig::default(), cache).unwrap();
                    // Each thread starts elsewhere in the list, so at any
                    // moment the eight want more destinations than fit.
                    let mut rotated = pairs.clone();
                    rotated.rotate_left(thread * pairs.len() / 8);
                    start.wait();
                    let answers = search_all(&router, od, &rotated);
                    for (at, answer) in answers.iter().enumerate() {
                        let original = (at + thread * pairs.len() / 8) % pairs.len();
                        assert_eq!(answer, &expected[original], "thread {thread}");
                    }
                });
            }
        });
        assert!(cache.destination_count() <= 2);
    }
}
