//! The hybrid graph `G = (V, E, W_P)` (§3).

use crate::config::HybridConfig;
use crate::error::CoreError;
use crate::weights::{PathWeightFunction, WeightStats, WeightView};
use pathcost_hist::Histogram1D;
use pathcost_roadnet::{Path, RoadNetwork};
use pathcost_traj::{RegimeId, Timestamp, TrajectoryStore};
use std::sync::Arc;

/// A road network together with an instantiated path weight function.
///
/// This is the paper's hybrid graph: the topology stays an ordinary directed
/// graph, but weights are associated with *paths* (joint distributions over
/// the costs of their edges) rather than with single edges.
///
/// Everything but the network reference sits behind an [`Arc`], so a
/// live-update epoch ([`crate::weights::WeightUpdate`]) is shared between the
/// ingestor that produced it and the graph serving it, and binding a graph to
/// a regime ([`Self::for_regime`]) copies nothing.
pub struct HybridGraph<'a> {
    net: &'a RoadNetwork,
    weights: Arc<PathWeightFunction>,
    /// What estimation reads: the all-traffic view, unless
    /// [`Self::for_regime`] bound another.
    view: Arc<WeightView>,
    config: Arc<HybridConfig>,
}

// Compile-time Send + Sync audit: the serving layer (`pathcost-service`)
// shares one immutable hybrid graph behind an `Arc` across a scoped worker
// pool, so the graph and everything reachable from it must be thread-safe.
// A field that introduces interior mutability (`Cell`, `Rc`, raw pointers)
// would fail this block at compile time rather than at the service layer.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HybridGraph<'static>>();
    assert_send_sync::<PathWeightFunction>();
    assert_send_sync::<HybridConfig>();
    assert_send_sync::<RoadNetwork>();
    assert_send_sync::<Histogram1D>();
    assert_send_sync::<Path>();
};

impl<'a> HybridGraph<'a> {
    /// Instantiates the hybrid graph from a trajectory store.
    pub fn build(
        net: &'a RoadNetwork,
        store: &TrajectoryStore,
        config: HybridConfig,
    ) -> Result<Self, CoreError> {
        Self::build_with_exclusions(net, store, config, &[])
    }

    /// Instantiates the hybrid graph while withholding the weights of every
    /// path that contains one of the `excluded` (path, interval) pairs — the
    /// held-out evaluation protocol of §5.2.2.
    pub fn build_with_exclusions(
        net: &'a RoadNetwork,
        store: &TrajectoryStore,
        config: HybridConfig,
        excluded: &[(pathcost_roadnet::Path, crate::interval::IntervalId)],
    ) -> Result<Self, CoreError> {
        let weights =
            PathWeightFunction::instantiate_with_exclusions(net, store, &config, excluded)?;
        Ok(Self::from_parts(net, weights, config))
    }

    /// Wraps an already-instantiated weight function — owned or already
    /// behind an `Arc` (a published live-update epoch shares its allocation).
    pub fn from_parts(
        net: &'a RoadNetwork,
        weights: impl Into<Arc<PathWeightFunction>>,
        config: HybridConfig,
    ) -> Self {
        Self::bound(net, weights.into(), RegimeId::ALL_TRAFFIC, Arc::new(config))
    }

    /// This graph over another epoch of its weight function.
    pub fn with_weights(&self, weights: Arc<PathWeightFunction>) -> Self {
        Self::bound(
            self.net,
            weights,
            RegimeId::ALL_TRAFFIC,
            self.config.clone(),
        )
    }

    /// This graph as a query under `regime` reads it: estimators built on
    /// the result resolve every variable through the regime's fallback
    /// ladder ([`PathWeightFunction::view`]). Three `Arc` bumps.
    pub fn for_regime(&self, regime: RegimeId) -> Self {
        Self::bound(self.net, self.weights.clone(), regime, self.config.clone())
    }

    fn bound(
        net: &'a RoadNetwork,
        weights: Arc<PathWeightFunction>,
        regime: RegimeId,
        config: Arc<HybridConfig>,
    ) -> Self {
        HybridGraph {
            net,
            view: weights.view(regime).clone(),
            weights,
            config,
        }
    }

    /// The underlying road network. The returned reference carries the
    /// graph's *borrow* lifetime `'a`, not the receiver's, so holders of a
    /// temporary graph handle (e.g. an epoch snapshot) can keep the network
    /// reference after the handle is gone — the live-update subsystem builds
    /// replacement graphs from it.
    pub fn network(&self) -> &'a RoadNetwork {
        self.net
    }

    /// The instantiated path weight function `W_P`.
    pub fn weights(&self) -> &PathWeightFunction {
        &self.weights
    }

    /// The view of the weight function this graph estimates against.
    pub fn view(&self) -> &WeightView {
        &self.view
    }

    /// The configuration the graph was built with.
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    /// Instantiation statistics (variable counts by rank, coverage, memory).
    pub fn stats(&self) -> WeightStats {
        self.weights.stats()
    }

    /// Convenience: estimate the cost distribution of `path` at `departure`
    /// using the proposed OD method (optimal / coarsest decomposition).
    pub fn estimate(&self, path: &Path, departure: Timestamp) -> Result<Histogram1D, CoreError> {
        use crate::estimator::{CostEstimator, OdEstimator};
        OdEstimator::new(self).estimate(path, departure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_traj::DatasetPreset;

    #[test]
    fn build_and_estimate_round_trip() {
        let (net, store) = DatasetPreset::tiny(61).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        assert!(graph.stats().total_variables() > 0);
        assert_eq!(graph.network().edge_count(), net.edge_count());

        let (query, _) = store.frequent_paths(3, 10, None)[0].clone();
        let departure = store.occurrences_on(&query)[0].entry_time;
        let hist = graph.estimate(&query, departure).unwrap();
        assert!((hist.probs().iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(hist.mean() > 0.0);
    }

    #[test]
    fn from_parts_reuses_a_weight_function() {
        let (net, store) = DatasetPreset::tiny(62).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let weights = crate::weights::PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        let count = weights.stats().total_variables();
        let graph = HybridGraph::from_parts(&net, weights, cfg);
        assert_eq!(graph.stats().total_variables(), count);
    }
}
