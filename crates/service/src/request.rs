//! Typed requests and responses of the query engine.

use crate::stats::QueryKind;
use pathcost_core::RegimeId;
use pathcost_hist::Histogram1D;
use pathcost_roadnet::{Path, VertexId};
use pathcost_routing::RouteResult;
use pathcost_traj::Timestamp;
use std::sync::Arc;
use std::time::Duration;

/// One query against the served hybrid graph.
#[derive(Debug, Clone)]
pub enum QueryRequest {
    /// The full travel-cost distribution of `path` departing at `departure`.
    EstimateDistribution {
        /// The query path.
        path: Path,
        /// Departure time; estimates are cached per α-interval.
        departure: Timestamp,
        /// Traffic regime to evaluate under. [`RegimeId::ALL_TRAFFIC`] (the
        /// wire default) reproduces pre-regime behaviour bit-identically;
        /// other regimes answer from the regime's materialized fallback view.
        regime: RegimeId,
    },
    /// `P(cost ≤ budget_s)` for `path` at `departure` (the paper's
    /// Figure 1(a) question).
    ProbWithinBudget {
        /// The query path.
        path: Path,
        /// Departure time.
        departure: Timestamp,
        /// Cost budget in the weight function's cost unit (seconds for
        /// travel time).
        budget_s: f64,
        /// Traffic regime to evaluate under (see
        /// [`QueryRequest::EstimateDistribution`]).
        regime: RegimeId,
    },
    /// Ranks candidate paths by their probability of completing within the
    /// budget.
    RankPaths {
        /// Candidate paths; the response refers to them by index.
        candidates: Vec<Path>,
        /// Common departure time.
        departure: Timestamp,
        /// Cost budget.
        budget_s: f64,
        /// Traffic regime every candidate is evaluated under (see
        /// [`QueryRequest::EstimateDistribution`]).
        regime: RegimeId,
    },
    /// Stochastic routing: the path from `source` to `destination` that
    /// maximises the probability of arriving within the budget (§4.3).
    Route {
        /// Start vertex.
        source: VertexId,
        /// End vertex.
        destination: VertexId,
        /// Departure time.
        departure: Timestamp,
        /// Travel-time budget in seconds.
        budget_s: f64,
        /// Number of ranked route alternatives to return (must be ≥ 1).
        /// `k == 1` answers with [`QueryResponse::Route`]; `k > 1` answers
        /// with [`QueryResponse::Routes`] — the top-`k` incumbents of the
        /// best-first arena, ordered best-first and deduplicated by path.
        k: usize,
        /// Traffic regime candidate paths are evaluated under (see
        /// [`QueryRequest::EstimateDistribution`]).
        regime: RegimeId,
    },
}

impl QueryRequest {
    pub(crate) fn kind(&self) -> QueryKind {
        match self {
            QueryRequest::EstimateDistribution { .. } => QueryKind::Estimate,
            QueryRequest::ProbWithinBudget { .. } => QueryKind::Probability,
            QueryRequest::RankPaths { .. } => QueryKind::Rank,
            QueryRequest::Route { .. } => QueryKind::Route,
        }
    }

    /// The traffic regime this request evaluates under.
    pub fn regime(&self) -> RegimeId {
        match self {
            QueryRequest::EstimateDistribution { regime, .. }
            | QueryRequest::ProbWithinBudget { regime, .. }
            | QueryRequest::RankPaths { regime, .. }
            | QueryRequest::Route { regime, .. } => *regime,
        }
    }
}

/// A ranked candidate in a [`QueryResponse::Ranking`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankedPath {
    /// Index into the request's `candidates` vector.
    pub index: usize,
    /// Probability of completing that candidate within the budget.
    pub probability: f64,
}

/// The payload answering a [`QueryRequest`] (variants correspond 1:1).
#[derive(Debug, Clone)]
pub enum QueryResponse {
    /// Answer to [`QueryRequest::EstimateDistribution`]. The histogram is
    /// shared with the engine's distribution cache: answering a warm query
    /// bumps a reference count instead of copying bucket arrays.
    Distribution(Arc<Histogram1D>),
    /// Answer to [`QueryRequest::ProbWithinBudget`].
    Probability(f64),
    /// Answer to [`QueryRequest::RankPaths`], sorted by decreasing
    /// probability. Candidates whose distribution could not be estimated
    /// (e.g. an edge with no weight) are omitted.
    Ranking(Vec<RankedPath>),
    /// Answer to [`QueryRequest::Route`] with `k == 1`; `None` when no path
    /// can meet the budget within the search limits.
    Route(Option<RouteResult>),
    /// Answer to [`QueryRequest::Route`] with `k > 1`: up to `k` distinct
    /// paths ordered best-first (probability, then lower expected cost, then
    /// fewer edges). Empty when no path can meet the budget.
    Routes(Vec<RouteResult>),
}

impl QueryResponse {
    /// The distribution, when this is a `Distribution` response.
    pub fn distribution(&self) -> Option<&Histogram1D> {
        match self {
            QueryResponse::Distribution(h) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// The probability, when this is a `Probability` response.
    pub fn probability(&self) -> Option<f64> {
        match self {
            QueryResponse::Probability(p) => Some(*p),
            _ => None,
        }
    }

    /// The ranking, when this is a `Ranking` response.
    pub fn ranking(&self) -> Option<&[RankedPath]> {
        match self {
            QueryResponse::Ranking(r) => Some(r),
            _ => None,
        }
    }

    /// The best route, when this is a `Route` or `Routes` response.
    pub fn route(&self) -> Option<&RouteResult> {
        match self {
            QueryResponse::Route(r) => r.as_ref(),
            QueryResponse::Routes(r) => r.first(),
            _ => None,
        }
    }

    /// The ranked route alternatives, when this is a `Routes` response.
    pub fn routes(&self) -> Option<&[RouteResult]> {
        match self {
            QueryResponse::Routes(r) => Some(r),
            _ => None,
        }
    }
}

/// Per-query observability attached to every response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Distribution-cache hits while answering this query.
    pub cache_hits: u64,
    /// Distribution-cache misses (each one ran a full estimation).
    pub cache_misses: u64,
    /// Deepest coarsest-decomposition chain estimated for this query
    /// (0 when every lookup hit the cache).
    pub max_decomposition_depth: usize,
    /// Deepest regime-fallback rung any distribution this query read was
    /// resolved at: 0 when every variable answered from the requested
    /// regime's own table (always 0 under the global regime), 1 when some
    /// variable fell back one ladder rung (e.g. to the regime group), and so
    /// on down to the global table.
    pub max_fallback_depth: usize,
    /// Wall-clock time spent answering.
    pub latency: Duration,
    /// Whether this query was answered under the load-watermark degradation
    /// policy (route search budgets capped) — the
    /// answer is valid but may be less thorough than under normal load.
    pub degraded: bool,
}

/// A response together with its per-query stats.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The answer payload.
    pub response: QueryResponse,
    /// What it cost to produce.
    pub stats: QueryStats,
}
