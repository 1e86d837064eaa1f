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
//! allocating; a caller holding one [`Histogram1D`] per chain passes
//! [`convolve_with_limit`](pathcost_hist::convolution::convolve_with_limit).
//! The rule carries no path: adjacency and vertex-distinctness are the
//! caller's to check.

use crate::error::CoreError;
use crate::hybrid_graph::HybridGraph;
use pathcost_hist::{HistError, Histogram1D};
use pathcost_roadnet::EdgeId;
use pathcost_traj::{TimeOfDay, Timestamp};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HybridConfig;
    use pathcost_hist::convolution::convolve_with_limit;
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

    /// Grows `edges` from `departure` one [`Histogram1D`] per link, returning
    /// every link's histogram and arrival window.
    fn histogram_chain(
        graph: &HybridGraph<'_>,
        edges: &[EdgeId],
        departure: Timestamp,
    ) -> Vec<(Histogram1D, ArrivalWindow)> {
        let (unit, window) = chain_start(graph, edges[0], departure).unwrap();
        let mut chain = vec![(unit.clone(), window)];
        for &edge in &edges[1..] {
            let (histogram, window) = chain.last().unwrap();
            let next = chain_extension(graph, edge, *window, |unit, limit| {
                convolve_with_limit(histogram, unit, limit)
            })
            .unwrap();
            chain.push(next);
        }
        chain
    }

    #[test]
    fn extension_grows_cost() {
        let (net, store, cfg) = fixture();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let (query, _) = store.frequent_paths(4, 10, None)[0].clone();
        let departure = store.occurrences_on(&query)[0].entry_time;

        let chain = histogram_chain(&graph, query.edges(), departure);
        for w in chain.windows(2) {
            assert!(
                w[1].0.mean() > w[0].0.mean(),
                "adding an edge must increase the expected cost"
            );
        }
        let (last, _) = chain.last().unwrap();
        assert!((last.probs().iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn incremental_mean_is_close_to_the_od_estimate() {
        let (net, store, cfg) = fixture();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let (query, _) = store.frequent_paths(4, 10, None)[0].clone();
        let departure = store.occurrences_on(&query)[0].entry_time;

        let (incremental, _) = histogram_chain(&graph, query.edges(), departure)
            .pop()
            .unwrap();
        let od = graph.estimate(&query, departure).unwrap();
        let rel = (incremental.mean() - od.mean()).abs() / od.mean();
        assert!(
            rel < 0.35,
            "incremental {} vs OD {}",
            incremental.mean(),
            od.mean()
        );
    }

    /// Grows `edges` from `departure` twice — as a chain of arena spans, the
    /// way the best-first router does, and as a chain of `Histogram1D`s —
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

        let expected = histogram_chain(graph, edges, departure);
        let (unit, mut window) = chain_start(graph, edges[0], departure).unwrap();
        let mut span = arena.push(unit);
        for (i, &edge) in edges.iter().enumerate() {
            if i > 0 {
                (span, window) = chain_extension(graph, edge, window, |unit, limit| {
                    arena.push_convolved(span, unit, limit, &mut scratch)
                })
                .unwrap();
            }
            let (h, expected_window) = &expected[i];
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
            assert_eq!(
                (window.0.to_bits(), window.1.to_bits()),
                (expected_window.0.to_bits(), expected_window.1.to_bits()),
                "edge {i}"
            );
        }
        window
    }

    #[test]
    fn arena_chains_match_histogram_chains_across_intervals_and_midnight() {
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
}
