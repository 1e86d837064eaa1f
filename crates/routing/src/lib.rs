//! # pathcost-routing
//!
//! Routing on top of the hybrid-graph cost estimators (§4.3 of Dai et al.,
//! PVLDB 2016): a deterministic shortest-path substrate, probability-threshold
//! comparisons of cost distributions, and a probabilistic path query in the
//! style of Hua & Pei \[10\] that explores candidate paths with the
//! "path + another edge" pattern and can be parameterised with any
//! [`pathcost_core::CostEstimator`] (OD, LB, HP, …). Replacing the legacy
//! estimator with OD accelerates the search and improves the quality of the
//! selected paths — the effect measured in the paper's Figure 18.
//!
//! The one search is the arena-based best-first router in [`bestfirst`]
//! (parent-pointer partial paths, optimistic-probability frontier ordering,
//! incumbent pruning); the paper's original DFS survives only as test code
//! (`tests/support/dfs.rs` at the repository root), the reference the
//! router is property-tested against.
//! What the production search derives from free-flow times alone — destination
//! bounds, successor orders, fastest-path seeds — is a function of the
//! immutable network and lives in the bounded [`freeflow`] cache.

pub mod bestfirst;
pub mod dijkstra;
pub mod error;
pub mod freeflow;
pub mod query;

pub use bestfirst::{validate_route, BestFirstRouter, RouteResult, RouterConfig, SearchTelemetry};
pub use dijkstra::{
    edge_target_lower_bound, free_flow_to_destination, upper_bound_time_to_destination,
};
pub use error::RoutingError;
pub use freeflow::{DestinationIndex, FreeFlowCache, Lookup};
pub use query::{dominates_stochastically, prob_within_budget, rank_by_probability};
