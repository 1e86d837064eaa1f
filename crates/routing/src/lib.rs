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
//! incumbent pruning). Its reference is an exhaustive oracle kept as test
//! code (`tests/support/exhaustive.rs` at the repository root): every simple
//! path of at most 8 edges, estimated and ranked by the router's own
//! candidate ordering; `tests/routing_equivalence.rs` pins the searches
//! where the router answers worse as a ratchet.
//! What the production search derives from free-flow times alone — destination
//! bounds and successor orders — is a function of the immutable network and
//! lives in the bounded [`freeflow`] cache.

pub mod bestfirst;
pub mod error;
pub mod freeflow;
pub mod query;

pub use bestfirst::{BestFirstRouter, RouteResult, RouterConfig, SearchTelemetry};
pub use error::RoutingError;
pub use freeflow::{free_flow_to_destination, DestinationIndex, FreeFlowCache};
pub use query::{dominates_stochastically, prob_within_budget, rank_by_probability};
