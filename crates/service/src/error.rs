//! Service-level error type.

use pathcost_core::CoreError;
use pathcost_roadnet::RoadNetError;
use pathcost_routing::RoutingError;
use std::fmt;

/// Anything that can go wrong while serving a query.
#[derive(Debug)]
pub enum ServiceError {
    /// The underlying estimator failed (missing distribution, unknown edge…).
    Core(CoreError),
    /// The routing search failed (unreachable destination, bad config…).
    Routing(RoutingError),
    /// A path in the request is invalid for the served road network.
    RoadNet(RoadNetError),
    /// The request itself is malformed (empty candidate list, NaN budget…).
    InvalidRequest(&'static str),
    /// The admission queue is full — the caller should shed load (HTTP 503).
    Overloaded,
    /// The service was already degraded (load watermarks breached) when the
    /// request arrived, so it was refused at the admission door — the caller
    /// should back off and retry later (HTTP 429 + `Retry-After`).
    Degraded,
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// The request's deadline expired before an answer was produced — either
    /// shed in the admission queue or abandoned mid-evaluation (HTTP 504).
    DeadlineExceeded,
    /// The request was cancelled by its caller before completion.
    Cancelled,
    /// Query evaluation failed internally (a panic contained by the batch
    /// executor). The rest of the batch and its dispatch lane survive.
    Internal(&'static str),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Core(e) => write!(f, "estimation failed: {e}"),
            ServiceError::Routing(e) => write!(f, "routing failed: {e}"),
            ServiceError::RoadNet(e) => write!(f, "invalid path: {e}"),
            ServiceError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServiceError::Overloaded => write!(f, "admission queue full, request rejected"),
            ServiceError::Degraded => {
                write!(f, "service degraded, request rejected at admission")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the request completed")
            }
            ServiceError::Cancelled => write!(f, "request cancelled by the caller"),
            ServiceError::Internal(msg) => write!(f, "internal query failure: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

impl From<RoutingError> for ServiceError {
    fn from(e: RoutingError) -> Self {
        ServiceError::Routing(e)
    }
}

impl From<RoadNetError> for ServiceError {
    fn from(e: RoadNetError) -> Self {
        ServiceError::RoadNet(e)
    }
}
