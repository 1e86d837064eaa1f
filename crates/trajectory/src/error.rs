//! Error types for the trajectory substrate.

use std::fmt;

/// Errors produced by trajectory generation, map matching and the store.
#[derive(Debug, Clone, PartialEq)]
pub enum TrajError {
    /// A trajectory must contain at least two GPS records.
    TooFewRecords(usize),
    /// GPS records must be strictly increasing in time.
    NonMonotonicTime,
    /// Map matching could not associate the trajectory with any edge.
    NoMatch,
    /// The simulator could not find a route between the sampled origin and
    /// destination (disconnected vertices).
    NoRoute,
    /// A configuration value was invalid (e.g. zero trips or zero days).
    InvalidConfig(&'static str),
    /// An underlying road-network operation failed.
    RoadNet(pathcost_roadnet::RoadNetError),
}

impl fmt::Display for TrajError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrajError::TooFewRecords(n) => {
                write!(f, "trajectory needs at least two GPS records, got {n}")
            }
            TrajError::NonMonotonicTime => write!(f, "GPS record times must strictly increase"),
            TrajError::NoMatch => write!(f, "map matching found no candidate edges"),
            TrajError::NoRoute => write!(f, "no route exists between the sampled vertices"),
            TrajError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            TrajError::RoadNet(e) => write!(f, "road network error: {e}"),
        }
    }
}

impl std::error::Error for TrajError {}

impl From<pathcost_roadnet::RoadNetError> for TrajError {
    fn from(value: pathcost_roadnet::RoadNetError) -> Self {
        TrajError::RoadNet(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(TrajError::TooFewRecords(1).to_string().contains("two"));
        assert!(TrajError::NoRoute.to_string().contains("route"));
        let wrapped: TrajError = pathcost_roadnet::RoadNetError::EmptyPath.into();
        assert!(wrapped.to_string().contains("road network"));
    }
}
