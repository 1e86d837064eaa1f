//! Incremental "path + another edge" estimation (§4.3).
//!
//! Stochastic routing algorithms explore candidate paths by repeatedly
//! extending an existing path with one more edge, and the paper notes that a
//! cost estimation method must support this *incremental property* so the work
//! done for the existing path can be reused. Two layers implement it here:
//!
//! * [`PartialEstimate`] is the path-*less* core: an [`Arc`]-shared cost
//!   histogram plus the arrival-time window at the end of the edge chain it
//!   describes. Extending by an edge convolves in that edge's unit
//!   distribution at the (shifted) arrival interval. Because the histogram is
//!   behind an `Arc`, a routing search can hold one estimate per node of a
//!   parent-pointer tree without ever copying bucket arrays, and sharing an
//!   estimate (e.g. into a cache) is a reference-count bump.
//! * [`IncrementalEstimate`] pairs a `PartialEstimate` with the concrete
//!   [`Path`] it describes, validating adjacency and vertex-distinctness on
//!   every extension — the safe API for callers that need the materialised
//!   path (the DFS reference router, tests, examples). A full OD
//!   re-estimation can be requested at any time for the exact
//!   coarsest-decomposition result.

use crate::error::CoreError;
use crate::hybrid_graph::HybridGraph;
use pathcost_hist::convolution::{convolve_with_limit, convolve_with_scratch, ConvolveScratch};
use pathcost_hist::{HistError, Histogram1D};
use pathcost_roadnet::{EdgeId, Path};
use pathcost_traj::{TimeOfDay, Timestamp};
use std::sync::Arc;

/// A path-less incremental cost distribution: the `Arc`-shared histogram of
/// an edge chain together with the arrival-time window at its end.
///
/// `PartialEstimate` performs **no adjacency or vertex-distinctness
/// validation** — the caller guarantees that each extension edge follows the
/// chain (a routing search tracks visited vertices itself through its search
/// tree; [`IncrementalEstimate`] wraps this type with full [`Path`]
/// validation). Cloning is cheap: two machine words plus an `Arc` bump.
#[derive(Debug, Clone)]
pub struct PartialEstimate {
    histogram: Arc<Histogram1D>,
    /// Earliest and latest possible arrival time (seconds of day) at the end
    /// of the current edge chain.
    arrival_window: (f64, f64),
}

impl PartialEstimate {
    /// Starts an estimate from a single edge at `departure`.
    pub fn start(
        graph: &HybridGraph<'_>,
        edge: EdgeId,
        departure: Timestamp,
    ) -> Result<Self, CoreError> {
        let tod = departure.time_of_day();
        let interval = graph.weights().partition().interval_of(tod);
        let histogram = graph
            .view()
            .unit_histogram(edge, interval)
            .ok_or(CoreError::NoDistribution)?;
        let arrival_window = (
            tod.seconds() + histogram.min(),
            tod.seconds() + histogram.max(),
        );
        Ok(PartialEstimate {
            histogram: Arc::new(histogram),
            arrival_window,
        })
    }

    /// Wraps an already-estimated distribution anchored at `departure`.
    pub fn from_histogram(histogram: Arc<Histogram1D>, departure: Timestamp) -> Self {
        let tod = departure.time_of_day().seconds();
        let arrival_window = (tod + histogram.min(), tod + histogram.max());
        PartialEstimate {
            histogram,
            arrival_window,
        }
    }

    /// The cost distribution of the current chain.
    pub fn histogram(&self) -> &Histogram1D {
        &self.histogram
    }

    /// The shared handle to the distribution (an `Arc` bump to keep).
    pub fn histogram_arc(&self) -> &Arc<Histogram1D> {
        &self.histogram
    }

    /// Earliest and latest possible arrival (seconds of day) at the chain end.
    pub fn arrival_window(&self) -> (f64, f64) {
        self.arrival_window
    }

    /// Extends the chain with one more edge, convolving in that edge's unit
    /// distribution at the mid-window arrival interval. Uses this thread's
    /// convolution scratch buffers.
    pub fn extend(&self, graph: &HybridGraph<'_>, edge: EdgeId) -> Result<Self, CoreError> {
        self.extend_inner(graph, edge, |a, unit| convolve_with_limit(a, unit, 48))
    }

    /// As [`Self::extend`], threading caller-owned scratch buffers through the
    /// convolution so tight extension loops allocate only the result.
    pub fn extend_with_scratch(
        &self,
        graph: &HybridGraph<'_>,
        edge: EdgeId,
        scratch: &mut ConvolveScratch,
    ) -> Result<Self, CoreError> {
        self.extend_inner(graph, edge, |a, unit| {
            convolve_with_scratch(a, unit, 48, scratch)
        })
    }

    fn extend_inner(
        &self,
        graph: &HybridGraph<'_>,
        edge: EdgeId,
        convolve: impl FnOnce(&Histogram1D, &Histogram1D) -> Result<Histogram1D, HistError>,
    ) -> Result<Self, CoreError> {
        let mid_arrival = TimeOfDay::wrap(0.5 * (self.arrival_window.0 + self.arrival_window.1));
        let interval = graph.weights().partition().interval_of(mid_arrival);
        let unit = graph
            .view()
            .unit_histogram(edge, interval)
            .ok_or(CoreError::NoDistribution)?;
        let histogram = convolve(&self.histogram, &unit)?;
        let arrival_window = (
            (self.arrival_window.0 + unit.min()).min(86_400.0),
            (self.arrival_window.1 + unit.max()).min(86_400.0),
        );
        Ok(PartialEstimate {
            histogram: Arc::new(histogram),
            arrival_window,
        })
    }

    /// The probability of completing the current chain within `budget_s`
    /// seconds.
    pub fn prob_within(&self, budget_s: f64) -> f64 {
        self.histogram.prob_leq(budget_s)
    }
}

/// A cost distribution that can be extended edge by edge, carrying the
/// materialised [`Path`] it describes.
#[derive(Debug, Clone)]
pub struct IncrementalEstimate {
    path: Path,
    departure: Timestamp,
    partial: PartialEstimate,
}

impl IncrementalEstimate {
    /// Starts an incremental estimate from a single edge.
    pub fn start(
        graph: &HybridGraph<'_>,
        edge: EdgeId,
        departure: Timestamp,
    ) -> Result<Self, CoreError> {
        Ok(IncrementalEstimate {
            path: Path::unit(edge),
            departure,
            partial: PartialEstimate::start(graph, edge, departure)?,
        })
    }

    /// Starts from an existing path using the full OD estimator.
    pub fn from_path(
        graph: &HybridGraph<'_>,
        path: &Path,
        departure: Timestamp,
    ) -> Result<Self, CoreError> {
        let histogram = Arc::new(graph.estimate(path, departure)?);
        Ok(IncrementalEstimate {
            path: path.clone(),
            departure,
            partial: PartialEstimate::from_histogram(histogram, departure),
        })
    }

    /// The current path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The departure time the estimate is anchored at.
    pub fn departure(&self) -> Timestamp {
        self.departure
    }

    /// The cost distribution of the current path.
    pub fn histogram(&self) -> &Histogram1D {
        self.partial.histogram()
    }

    /// The shared handle to the distribution. Callers that store the
    /// histogram (the serving layer's cache, a route result) clone this `Arc`
    /// instead of the bucket arrays.
    pub fn histogram_arc(&self) -> &Arc<Histogram1D> {
        self.partial.histogram_arc()
    }

    /// The path-less estimate backing this one.
    pub fn partial(&self) -> &PartialEstimate {
        &self.partial
    }

    /// Extends the estimate with one more edge ("path + another edge"),
    /// returning a new estimate and leaving `self` untouched so a routing
    /// search can branch. Uses this thread's convolution scratch buffers.
    pub fn extend(&self, graph: &HybridGraph<'_>, edge: EdgeId) -> Result<Self, CoreError> {
        let path = self.path.extend(edge, graph.network())?;
        Ok(IncrementalEstimate {
            path,
            departure: self.departure,
            partial: self.partial.extend(graph, edge)?,
        })
    }

    /// Re-estimates the current path with the exact OD method, replacing the
    /// incrementally maintained distribution.
    pub fn refine(&mut self, graph: &HybridGraph<'_>) -> Result<(), CoreError> {
        let histogram = Arc::new(graph.estimate(&self.path, self.departure)?);
        self.partial = PartialEstimate::from_histogram(histogram, self.departure);
        Ok(())
    }

    /// The probability of completing the current path within `budget_s` seconds.
    pub fn prob_within(&self, budget_s: f64) -> f64 {
        self.partial.prob_within(budget_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HybridConfig;
    use pathcost_traj::DatasetPreset;

    fn fixture() -> (
        pathcost_roadnet::RoadNetwork,
        pathcost_traj::TrajectoryStore,
        HybridConfig,
    ) {
        let (net, store) = DatasetPreset::tiny(81).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        (net, store, cfg)
    }

    #[test]
    fn extension_matches_path_and_grows_cost() {
        let (net, store, cfg) = fixture();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let (query, _) = store.frequent_paths(4, 10, None)[0].clone();
        let departure = store.occurrences_on(&query)[0].entry_time;

        let mut inc = IncrementalEstimate::start(&graph, query.edges()[0], departure).unwrap();
        let mut means = vec![inc.histogram().mean()];
        for &edge in &query.edges()[1..] {
            inc = inc.extend(&graph, edge).unwrap();
            means.push(inc.histogram().mean());
        }
        assert_eq!(inc.path(), &query);
        for w in means.windows(2) {
            assert!(
                w[1] > w[0],
                "adding an edge must increase the expected cost"
            );
        }
        assert!((inc.histogram().probs().iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn incremental_mean_is_close_to_the_od_estimate() {
        let (net, store, cfg) = fixture();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let (query, _) = store.frequent_paths(4, 10, None)[0].clone();
        let departure = store.occurrences_on(&query)[0].entry_time;

        let mut inc = IncrementalEstimate::start(&graph, query.edges()[0], departure).unwrap();
        for &edge in &query.edges()[1..] {
            inc = inc.extend(&graph, edge).unwrap();
        }
        let od = graph.estimate(&query, departure).unwrap();
        let rel = (inc.histogram().mean() - od.mean()).abs() / od.mean();
        assert!(
            rel < 0.35,
            "incremental {} vs OD {}",
            inc.histogram().mean(),
            od.mean()
        );

        // Refining should reproduce the OD estimate exactly.
        inc.refine(&graph).unwrap();
        assert!((inc.histogram().mean() - od.mean()).abs() < 1e-9);
    }

    #[test]
    fn from_path_and_prob_within_are_consistent() {
        let (net, store, cfg) = fixture();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let (query, _) = store.frequent_paths(3, 10, None)[0].clone();
        let departure = store.occurrences_on(&query)[0].entry_time;
        let inc = IncrementalEstimate::from_path(&graph, &query, departure).unwrap();
        assert_eq!(inc.departure(), departure);
        assert!(inc.prob_within(0.0) < 1e-9);
        assert!((inc.prob_within(f64::MAX) - 1.0).abs() < 1e-9);
        let mid = inc.histogram().quantile(0.5);
        let p = inc.prob_within(mid);
        assert!((p - 0.5).abs() < 0.1);
    }

    #[test]
    fn extending_with_non_adjacent_edge_fails() {
        let (net, store, cfg) = fixture();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let (query, _) = store.frequent_paths(3, 10, None)[0].clone();
        let departure = store.occurrences_on(&query)[0].entry_time;
        let inc = IncrementalEstimate::start(&graph, query.edges()[0], departure).unwrap();
        // An edge that does not follow the first edge must be rejected.
        let bad = net
            .edges()
            .iter()
            .find(|e| !net.edges_adjacent(query.edges()[0], e.id) && e.id != query.edges()[0])
            .unwrap()
            .id;
        assert!(inc.extend(&graph, bad).is_err());
    }

    #[test]
    fn partial_estimate_tracks_incremental_and_shares_storage() {
        let (net, store, cfg) = fixture();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let (query, _) = store.frequent_paths(4, 10, None)[0].clone();
        let departure = store.occurrences_on(&query)[0].entry_time;

        // The path-less chain reproduces IncrementalEstimate bit for bit.
        let mut inc = IncrementalEstimate::start(&graph, query.edges()[0], departure).unwrap();
        let mut partial = PartialEstimate::start(&graph, query.edges()[0], departure).unwrap();
        for &edge in &query.edges()[1..] {
            inc = inc.extend(&graph, edge).unwrap();
            partial = partial.extend(&graph, edge).unwrap();
        }
        assert_eq!(inc.histogram(), partial.histogram());
        assert_eq!(inc.partial().arrival_window(), partial.arrival_window());

        // Cloning shares the histogram allocation instead of copying it.
        let snapshot = partial.clone();
        assert!(Arc::ptr_eq(
            snapshot.histogram_arc(),
            partial.histogram_arc()
        ));
        let kept = inc.histogram_arc().clone();
        assert!(Arc::ptr_eq(&kept, inc.histogram_arc()));
    }
}
