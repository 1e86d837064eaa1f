//! Incremental "path + another edge" estimation (§4.3).
//!
//! Stochastic routing algorithms explore candidate paths by repeatedly
//! extending an existing path with one more edge, and the paper notes that a
//! cost estimation method must support this *incremental property* so the work
//! done for the existing path can be reused. What is reused is a *chain*: the
//! cost histogram of an edge sequence plus the arrival-time window at its
//! end. The rule that grows one lives here once —
//!
//! * [`chain_start`]: the first edge contributes its unit distribution in the
//!   interval of the departure time;
//! * [`chain_extension`]: a further edge contributes its unit distribution in
//!   the interval of the arrival window's midpoint, convolved in and
//!   coarsened to 48 buckets, and the window advances by that unit's support
//!   (clamped at midnight)
//!
//! — and is written against *where the histogram is kept*, not against a
//! histogram type: the unit distribution is lent by the graph's
//! [`WeightView`](crate::weights::WeightView), and the caller's closure
//! convolves it into whatever storage it owns. The best-first router keeps
//! its chains as spans of one flat arena and extends them without
//! allocating; the two types below keep one [`Histogram1D`] per chain:
//!
//! * [`PartialEstimate`] is the path-*less* chain: an [`Arc`]-shared cost
//!   histogram plus the arrival window.
//! * [`IncrementalEstimate`] pairs a `PartialEstimate` with the concrete
//!   [`Path`] it describes, validating adjacency and vertex-distinctness on
//!   every extension — the safe API for callers that need the materialised
//!   path (the DFS reference router, tests, examples). A full OD
//!   re-estimation can be requested at any time for the exact
//!   coarsest-decomposition result.

use crate::error::CoreError;
use crate::hybrid_graph::HybridGraph;
use pathcost_hist::convolution::convolve_with_limit;
use pathcost_hist::{HistError, Histogram1D};
use pathcost_roadnet::{EdgeId, Path};
use pathcost_traj::{TimeOfDay, Timestamp};
use std::sync::Arc;

/// Earliest and latest possible arrival time (seconds of day) at the end of
/// an edge chain.
pub type ArrivalWindow = (f64, f64);

/// Buckets a chain's histogram keeps after an extension.
const EXTENSION_BUCKETS: usize = 48;

/// The first link of a chain departing at `departure`: the unit distribution
/// of `edge` during the departure's interval, lent by the graph's view, and
/// the arrival window at the edge's end.
pub fn chain_start<'g>(
    graph: &'g HybridGraph<'_>,
    edge: EdgeId,
    departure: Timestamp,
) -> Result<(&'g Histogram1D, ArrivalWindow), CoreError> {
    let tod = departure.time_of_day();
    let unit = unit_at(graph, edge, tod)?;
    let window = (tod.seconds() + unit.min(), tod.seconds() + unit.max());
    Ok((unit, window))
}

/// The unit distribution of `edge` during the interval `at` falls in.
fn unit_at<'g>(
    graph: &'g HybridGraph<'_>,
    edge: EdgeId,
    at: TimeOfDay,
) -> Result<&'g Histogram1D, CoreError> {
    let interval = graph.weights().partition().interval_of(at);
    let (unit, _) = graph
        .view()
        .unit(edge, interval)
        .ok_or(CoreError::NoDistribution)?;
    Ok(unit)
}

/// Extends the chain arriving within `window` by `edge`: `convolve` receives
/// the edge's unit distribution during the interval of the window's midpoint
/// and the bucket limit of the result, and folds the unit into the chain's
/// histogram wherever the caller keeps it. Returns what `convolve` produced
/// and the arrival window at the end of `edge`.
pub fn chain_extension<'g, T>(
    graph: &'g HybridGraph<'_>,
    edge: EdgeId,
    window: ArrivalWindow,
    convolve: impl FnOnce(&'g Histogram1D, usize) -> Result<T, HistError>,
) -> Result<(T, ArrivalWindow), CoreError> {
    let mid_arrival = TimeOfDay::wrap(0.5 * (window.0 + window.1));
    let unit = unit_at(graph, edge, mid_arrival)?;
    let extended = convolve(unit, EXTENSION_BUCKETS)?;
    let window = (
        (window.0 + unit.min()).min(86_400.0),
        (window.1 + unit.max()).min(86_400.0),
    );
    Ok((extended, window))
}

/// A path-less incremental cost distribution: the `Arc`-shared histogram of
/// an edge chain together with the arrival-time window at its end.
///
/// `PartialEstimate` performs **no adjacency or vertex-distinctness
/// validation** — the caller guarantees that each extension edge follows the
/// chain ([`IncrementalEstimate`] wraps this type with full [`Path`]
/// validation). Cloning is cheap: two machine words plus an `Arc` bump.
#[derive(Debug, Clone)]
pub struct PartialEstimate {
    histogram: Arc<Histogram1D>,
    arrival_window: ArrivalWindow,
}

impl PartialEstimate {
    /// Starts an estimate from a single edge at `departure`.
    pub fn start(
        graph: &HybridGraph<'_>,
        edge: EdgeId,
        departure: Timestamp,
    ) -> Result<Self, CoreError> {
        let (unit, arrival_window) = chain_start(graph, edge, departure)?;
        Ok(PartialEstimate {
            histogram: Arc::new(unit.clone()),
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
    pub fn arrival_window(&self) -> ArrivalWindow {
        self.arrival_window
    }

    /// Extends the chain with one more edge ([`chain_extension`]). Uses this
    /// thread's convolution scratch buffers.
    pub fn extend(&self, graph: &HybridGraph<'_>, edge: EdgeId) -> Result<Self, CoreError> {
        let (histogram, arrival_window) =
            chain_extension(graph, edge, self.arrival_window, |unit, limit| {
                convolve_with_limit(&self.histogram, unit, limit)
            })?;
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

    /// Grows `edges` from `departure` twice — as a chain of arena spans, the
    /// way the best-first router does, and as a chain of `PartialEstimate`s —
    /// and checks histogram and arrival window agree bit for bit after every
    /// edge. Returns the arrival window at the end.
    fn assert_arena_chain_matches(
        graph: &HybridGraph<'_>,
        edges: &[EdgeId],
        departure: Timestamp,
    ) -> ArrivalWindow {
        use pathcost_hist::{ConvolveScratch, HistogramArena};
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut arena = HistogramArena::new();
        let mut scratch = ConvolveScratch::new();
        // Something in front, so spans do not start at offset zero.
        arena.push(&Histogram1D::uniform(1.0, 2.0).unwrap());

        let (unit, mut window) = chain_start(graph, edges[0], departure).unwrap();
        let mut span = arena.push(unit);
        let mut partial = PartialEstimate::start(graph, edges[0], departure).unwrap();
        for (i, &edge) in edges.iter().enumerate() {
            if i > 0 {
                (span, window) = chain_extension(graph, edge, window, |unit, limit| {
                    arena.push_convolved(span, unit, limit, &mut scratch)
                })
                .unwrap();
                partial = partial.extend(graph, edge).unwrap();
            }
            let h = partial.histogram();
            let bounds = |bs: &[pathcost_hist::Bucket]| {
                bits(&bs.iter().flat_map(|b| [b.lo, b.hi]).collect::<Vec<_>>())
            };
            assert_eq!(bounds(arena.buckets(span)), bounds(h.buckets()), "edge {i}");
            assert_eq!(bits(arena.probs(span)), bits(h.probs()), "edge {i}");
            assert_eq!(
                bits(arena.cumulative_probs(span)),
                bits(h.cumulative_probs()),
                "edge {i}"
            );
            let expected = partial.arrival_window();
            assert_eq!(
                (window.0.to_bits(), window.1.to_bits()),
                (expected.0.to_bits(), expected.1.to_bits()),
                "edge {i}"
            );
        }
        window
    }

    #[test]
    fn arena_chains_match_partial_estimates_across_intervals_and_midnight() {
        let (net, store, cfg) = fixture();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let partition = graph.weights().partition().clone();
        let (query, _) = store.frequent_paths(4, 10, None)[0].clone();
        let edges = query.edges();

        // Where the data is: trajectory-derived units all the way.
        let busy = store.occurrences_on(&query)[0].entry_time;
        assert_arena_chain_matches(&graph, edges, busy);

        // Ten seconds before an α boundary: the first edge is read in one
        // interval, a later one in the next.
        let boundary = partition
            .range(partition.interval_of(busy.time_of_day()))
            .end;
        let before = Timestamp(boundary - 10.0);
        let end = assert_arena_chain_matches(&graph, edges, before);
        assert_ne!(
            partition.interval_of(before.time_of_day()),
            partition.interval_of(TimeOfDay::wrap(0.5 * (end.0 + end.1))),
            "the chain must cross the interval boundary"
        );

        // Half a minute before midnight: the window clamps at 86 400 s.
        let late = Timestamp(86_400.0 - 30.0);
        let end = assert_arena_chain_matches(&graph, edges, late);
        assert_eq!(end.1, 86_400.0, "the late bound must clamp");
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
