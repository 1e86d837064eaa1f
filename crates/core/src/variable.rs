//! Instantiated random variables (`V_P^{I_j}` in the paper): fitted from at
//! least β trajectories or, for an edge the data never covered, derived from
//! its speed limit ([`InstantiatedVariable::speed_limit`]).

use crate::interval::IntervalId;
use pathcost_hist::{Histogram1D, HistogramNd};
use pathcost_roadnet::{EdgeId, Path};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How a random variable's distribution was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VariableSource {
    /// Instantiated from at least β qualified trajectories.
    Trajectories {
        /// Number of qualified trajectories used.
        count: usize,
    },
    /// Derived from the edge's speed limit (unit paths without enough
    /// trajectories, [`InstantiatedVariable::speed_limit`]).
    SpeedLimit,
}

/// An instantiated random variable: the joint cost distribution of a path
/// during one interval of the day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstantiatedVariable {
    /// The path this variable describes.
    pub path: Path,
    /// The interval of the day during which the distribution holds.
    pub interval: IntervalId,
    /// The joint distribution of the path's per-edge costs
    /// (one dimension per edge; unit paths have a single dimension). Behind
    /// an [`Arc`] so a candidate array and a decomposition that select the
    /// variable share it instead of copying it.
    pub histogram: Arc<HistogramNd>,
    /// Where the distribution came from.
    pub source: VariableSource,
    /// A unit variable's cost distribution — `histogram.marginal_1d(0)`, or
    /// a fallback's own — held from construction, so the readers that ask
    /// for it per search node or per query edge borrow it. The tables share
    /// variables across epochs, and with them this.
    unit: Option<Histogram1D>,
}

impl InstantiatedVariable {
    /// A variable over `path` during `interval`. Every variable is built
    /// here — fitted or decoded — so a unit variable always carries its
    /// marginal.
    pub fn new(
        path: Path,
        interval: IntervalId,
        histogram: HistogramNd,
        source: VariableSource,
    ) -> Self {
        let unit = if path.is_unit() {
            histogram.marginal_1d(0).ok()
        } else {
            None
        };
        InstantiatedVariable {
            path,
            interval,
            histogram: Arc::new(histogram),
            source,
            unit,
        }
    }

    /// The speed-limit fallback of `edge`: it lends `unit` itself, bit for
    /// bit, and its joint is derived from it. A fallback holds at every
    /// interval; its `interval` is `IntervalId(0)` and nothing reads it.
    pub fn speed_limit(edge: EdgeId, unit: Histogram1D) -> Self {
        InstantiatedVariable {
            path: Path::unit(edge),
            interval: IntervalId(0),
            histogram: Arc::new(HistogramNd::from_histogram1d(&unit)),
            source: VariableSource::SpeedLimit,
            unit: Some(unit),
        }
    }

    /// The cost distribution of a unit variable's edge; `None` for a
    /// variable of higher rank.
    pub fn unit_marginal(&self) -> Option<&Histogram1D> {
        self.unit.as_ref()
    }

    /// The rank of the variable: the cardinality of its path.
    pub fn rank(&self) -> usize {
        self.path.cardinality()
    }

    /// `true` when the variable describes a single edge.
    pub fn is_unit(&self) -> bool {
        self.path.is_unit()
    }

    /// The smallest possible total cost of traversing the variable's path.
    pub fn min_total(&self) -> f64 {
        self.histogram.min_total()
    }

    /// The largest possible total cost of traversing the variable's path.
    pub fn max_total(&self) -> f64 {
        self.histogram.max_total()
    }

    /// The marginal cost distribution of the `dim`-th edge of the path.
    pub fn edge_marginal(&self, dim: usize) -> Option<Histogram1D> {
        self.histogram.marginal_1d(dim).ok()
    }

    /// Entropy of the joint distribution (`H(C_P)`).
    pub fn entropy(&self) -> f64 {
        self.histogram.entropy()
    }

    /// Approximate storage used by this variable, in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.histogram.storage_bytes() + self.path.cardinality() * 4 + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_hist::{AutoConfig, Bucket};

    fn two_edge_variable() -> InstantiatedVariable {
        let samples: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![30.0 + (i % 5) as f64, 50.0 + (i % 7) as f64])
            .collect();
        InstantiatedVariable::new(
            Path::from_edges_unchecked(vec![EdgeId(0), EdgeId(1)]),
            IntervalId(16),
            HistogramNd::from_samples(&samples, &AutoConfig::default()).unwrap(),
            VariableSource::Trajectories { count: 100 },
        )
    }

    #[test]
    fn rank_and_unit_flags() {
        let v = two_edge_variable();
        assert_eq!(v.rank(), 2);
        assert!(!v.is_unit());
        let h = Histogram1D::from_entries(vec![(Bucket::new(10.0, 20.0).unwrap(), 1.0)]).unwrap();
        let unit = InstantiatedVariable::speed_limit(EdgeId(3), h.clone());
        assert_eq!(unit.rank(), 1);
        assert!(unit.is_unit());
        assert_eq!(unit.path, Path::unit(EdgeId(3)));
        assert_eq!(unit.source, VariableSource::SpeedLimit);
        assert_eq!(
            unit.unit_marginal(),
            Some(&h),
            "lends the distribution it was given"
        );
        assert_eq!(unit.unit_marginal(), unit.edge_marginal(0).as_ref());
        assert!(v.unit_marginal().is_none(), "only unit variables carry one");
    }

    #[test]
    fn totals_bound_the_samples() {
        let v = two_edge_variable();
        assert!(v.min_total() >= 80.0 - 1.0);
        assert!(v.max_total() <= 30.0 + 4.0 + 50.0 + 6.0 + 5.0);
        assert!(v.min_total() < v.max_total());
    }

    #[test]
    fn marginals_and_entropy_available() {
        let v = two_edge_variable();
        assert!(v.edge_marginal(0).is_some());
        assert!(v.edge_marginal(1).is_some());
        assert!(v.edge_marginal(2).is_none());
        assert!(v.entropy() >= 0.0);
        assert!(v.storage_bytes() > 0);
    }
}
