//! Spatio-temporally relevant variables and the candidate array (§4.1.3).
//!
//! Given a query path `P` and a departure time `t`, estimation starts by
//! collecting the instantiated random variables that are
//!
//! * **spatially relevant** — their path is a sub-path of `P`, and
//! * **temporally relevant** — their interval overlaps the (uncertain) time at
//!   which the traveller reaches the variable's first edge, computed with the
//!   shift-and-enlarge procedure (Equation 3).
//!
//! The surviving variables are organised into a two-dimensional *candidate
//! array*: one row per edge of the query path, each row holding the relevant
//! variables whose path starts at that edge, ordered by rank (Table 1).
//!
//! A row holds its variables by reference: a cell is the query position it
//! starts at, an [`Arc`] of the weight view's variable (or of the edge's
//! speed-limit fallback, where no unit variable is relevant) and where it
//! came from — building a row copies nothing. Every trajectory-derived
//! variable the array reads is recorded once, as its position in the view.
//!
//! The array also records each position's temporal **footprint**
//! ([`PositionFootprint`]): the intervals at which a variable starting there
//! can be selected (those overlapping `UI_k`) and the intervals its unit
//! probes looked up. A variable key outside the footprint of every position
//! its path occurs at is never consulted, so instantiating or deleting it
//! leaves the array — and the estimate — unchanged; the serving layer's
//! cache invalidation rests on this.

use crate::error::CoreError;
use crate::hybrid_graph::HybridGraph;
use crate::interval::{DayPartition, IntervalId};
use crate::variable::InstantiatedVariable;
use pathcost_roadnet::Path;
use pathcost_traj::{TimeInterval, TimeOfDay, Timestamp};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

/// Where a selected variable came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CandidateSource {
    /// A trajectory-derived variable of the weight view (by position).
    Instantiated(usize),
    /// The speed-limit-derived unit fallback for an edge.
    UnitFallback,
}

/// A spatio-temporally relevant variable positioned on the query path.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectedVariable {
    /// Edge offset within the query path at which this variable's path starts.
    pub start: usize,
    /// The variable, shared with the weight view (or the fallback table) it
    /// was selected from; its path is the query slice `start..end()`.
    pub var: Arc<InstantiatedVariable>,
    /// Origin of the variable.
    pub source: CandidateSource,
}

impl SelectedVariable {
    /// Rank of the variable (cardinality of its path).
    pub fn rank(&self) -> usize {
        self.var.rank()
    }

    /// The last query-path position covered by this variable (exclusive).
    pub fn end(&self) -> usize {
        self.start + self.rank()
    }
}

/// The temporal footprint of one query position `k`: every interval at which
/// the build could consult a variable key whose path starts at `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionFootprint {
    /// The ids of the intervals whose range overlaps `UI_k` by a positive
    /// length — the relevance scan's own `overlap > 0` test, so exactly the
    /// intervals a variable starting at `k` can be selected at. Empty where
    /// `UI_k` has shrunk to nothing at the midnight clamp.
    pub overlapping: Range<u16>,
    /// The interval of each unit probe made at `k`: the shift-and-enlarge
    /// probe (every position but the last) and the probe of a row without a
    /// relevant unit variable. Kept apart from the range because at the
    /// midnight clamp a probe's midpoint wraps to interval 0, outside it.
    pub probes: [Option<IntervalId>; 2],
}

impl PositionFootprint {
    /// `true` when a variable key at `interval` whose path starts at this
    /// position could have been consulted: the interval overlaps `UI_k`, or
    /// the key is a unit (`unit`) and a probe looked the interval up.
    pub fn admits(&self, interval: IntervalId, unit: bool) -> bool {
        self.overlapping.contains(&interval.0) || (unit && self.probes.contains(&Some(interval)))
    }

    /// The footprint in four bytes, keeping a probe only where the range
    /// does not already admit it (see [`PackedFootprint`]).
    pub fn packed(&self) -> PackedFootprint {
        let range = &self.overlapping;
        let mut strays = (self.probes.iter().flatten())
            .map(|probe| probe.0)
            .filter(|probe| !range.contains(probe));
        let (first, second) = (strays.next(), strays.next());
        let Some(first) = first else {
            return if range.is_empty() {
                PackedFootprint::NOTHING
            } else {
                PackedFootprint {
                    from: range.start,
                    to: range.end,
                }
            };
        };
        if range.is_empty() && second.is_none_or(|second| second == first) {
            return PackedFootprint {
                from: first,
                to: first,
            };
        }
        // A probe outside a non-empty range, or two distinct probes at an
        // empty one: `build` makes neither. Widening the range over them
        // admits a superset, which can only evict more, never less.
        let ends = (!range.is_empty()).then(|| [range.start, range.end - 1]);
        let ids = [Some(first), second].into_iter().flatten();
        let ids = ids.chain(ends.into_iter().flatten());
        let (lo, hi) = ids.fold((u16::MAX, 0), |(lo, hi), id| (lo.min(id), hi.max(id)));
        PackedFootprint {
            from: lo,
            to: hi + 1,
        }
    }
}

/// A [`PositionFootprint`] as a cache entry keeps it, in four bytes: it
/// [`admits`](Self::admits) what the footprint admits, without the probes
/// the range already admits.
///
/// A probe looks up the interval that holds the midpoint of `UI_k`. Where
/// the window has a positive length, that interval overlaps it by a positive
/// length, so the range already holds every probe made there. Only where
/// `UI_k` clamped at midnight — an empty range — does a probe fall outside
/// it, and both probes then look up the midpoint of the same empty window
/// (which wraps to interval 0). So a packed footprint is the range where
/// that is not empty, and otherwise the one interval its probes looked up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedFootprint {
    /// With `to`: the range `from..to` when `from < to`; an empty range and
    /// a unit probe of interval `from` when `from == to`; nothing at all
    /// when `from > to`.
    from: u16,
    to: u16,
}

impl PackedFootprint {
    /// Admits no key: an empty range where no probe was made.
    const NOTHING: PackedFootprint = PackedFootprint { from: 1, to: 0 };

    /// [`PositionFootprint::admits`] of the footprint this was packed from.
    pub fn admits(&self, interval: IntervalId, unit: bool) -> bool {
        let id = interval.0;
        if self.from < self.to {
            (self.from..self.to).contains(&id)
        } else {
            unit && self.from == id && self.from == self.to
        }
    }
}

/// The ids of the intervals of `partition` whose range overlaps `window` by
/// a positive length. The set is one contiguous run, so only the ids around
/// the window's ends are tested (their neighbours too, which absorbs any
/// rounding in `interval_of`).
fn overlapping_ids(partition: &DayPartition, window: &TimeInterval) -> Range<u16> {
    let first = partition.interval_of(TimeOfDay(window.start)).0;
    let last = partition.interval_of(TimeOfDay(window.end)).0;
    let around = first.saturating_sub(1)..=(last + 1).min(partition.interval_count() - 1);
    let mut ids = around.filter(|&id| partition.range(IntervalId(id)).overlap(window) > 0.0);
    match ids.next() {
        Some(start) => start..ids.next_back().unwrap_or(start) + 1,
        None => 0..0,
    }
}

/// The two-dimensional candidate array of §4.1.3.
#[derive(Debug, Clone)]
pub struct CandidateArray {
    /// `rows[k]` holds the relevant variables whose path starts at edge `k` of
    /// the query path, sorted by increasing rank. Every row contains at least
    /// a unit variable (possibly the speed-limit fallback).
    pub rows: Vec<Vec<SelectedVariable>>,
    /// The shift-and-enlarged departure interval `UI_k` (in seconds of the
    /// day) for each edge position.
    pub updated_intervals: Vec<TimeInterval>,
    /// The view positions of the *trajectory-derived* unit variables read
    /// while building the array (shift-and-enlarge probes and the unit probe
    /// of a row without a relevant unit variable), sorted and deduplicated.
    /// Together with the decomposition's instantiated components these are
    /// exactly the weight-function histograms the final estimate depends on
    /// — the dependency set the serving layer's targeted cache invalidation
    /// tracks. Speed-limit fallbacks are excluded: they never change.
    pub trajectory_unit_reads: Vec<usize>,
    /// Each position's temporal footprint, parallel to `rows`: which keys
    /// the build could have consulted there, whether or not it read them.
    pub footprints: Vec<PositionFootprint>,
}

impl CandidateArray {
    /// Builds the candidate array for `query` departing at `departure`.
    ///
    /// `rank_cap` restricts the maximum rank of considered variables (the
    /// OD-x baselines); `None` considers every rank, and a cap of 0, which
    /// would admit no variable, is refused. A row holds at most one variable
    /// per rank, in increasing rank, and starts with a unit variable, so its
    /// last variable under a cap of 1 is its unit variable and under a cap of
    /// 2 its rank-2 variable where one is relevant: the coarsest decomposition
    /// is then the LB baseline's unit chain and the HP baseline's pairwise
    /// chain.
    pub fn build(
        graph: &HybridGraph<'_>,
        query: &Path,
        departure: Timestamp,
        rank_cap: Option<usize>,
    ) -> Result<CandidateArray, CoreError> {
        if rank_cap == Some(0) {
            return Err(CoreError::InvalidConfig("a rank cap must be at least 1"));
        }
        let wp = graph.view();
        let partition = graph.weights().partition();
        let n = query.cardinality();
        for &e in query.edges() {
            if !graph.network().contains_edge(e) {
                return Err(CoreError::UnknownEdge(e));
            }
        }

        // Shift-and-enlarge: UI_1 = [t, t]; UI_{k+1} = SAE(UI_k, V_{e_k}).
        let depart_tod = departure.time_of_day().seconds();
        let mut updated_intervals = Vec::with_capacity(n);
        let mut footprints = Vec::with_capacity(n);
        let mut trajectory_unit_reads = Vec::new();
        let mut lo = depart_tod;
        let mut hi = depart_tod;
        for (k, &edge) in query.edges().iter().enumerate() {
            let window = TimeInterval::new(lo, (hi.max(lo + 1e-6)).min(86_400.0));
            footprints.push(PositionFootprint {
                overlapping: overlapping_ids(partition, &window),
                probes: [None, None],
            });
            updated_intervals.push(window);
            if k + 1 == n {
                break;
            }
            // The unit variable used for the shift is the one whose interval
            // best overlaps the current arrival window.
            let probe_interval = partition.interval_of(TimeOfDay::wrap(0.5 * (lo + hi)));
            footprints[k].probes[0] = Some(probe_interval);
            let (unit, read) = wp
                .unit(edge, probe_interval)
                .ok_or(CoreError::NoDistribution)?;
            trajectory_unit_reads.extend(read);
            lo = (lo + unit.min()).min(86_400.0);
            hi = (hi + unit.max()).min(86_400.0);
        }

        // Candidate rows.
        let mut rows: Vec<Vec<SelectedVariable>> = vec![Vec::new(); n];
        // Per rank, the best `(overlap, variable)` of the row being built.
        const NONE: (f64, usize) = (f64::NEG_INFINITY, usize::MAX);
        let mut best: Vec<(f64, usize)> = Vec::new();
        for (k, &edge) in query.edges().iter().enumerate() {
            let window = &updated_intervals[k];
            // Spatially relevant instantiated variables starting at edge k.
            // A variable's path is checked against the query slice, so a row
            // holds one sub-path per rank; for each keep the interval with
            // the largest overlap with UI_k.
            best.clear();
            best.resize(n - k + 1, NONE);
            for &vi in wp.variables_starting_with(edge) {
                let var = wp.variable(vi);
                if let Some(cap) = rank_cap {
                    if var.rank() > cap {
                        continue;
                    }
                }
                if var.rank() > n - k {
                    continue;
                }
                if query.edges()[k..k + var.rank()] != *var.path.edges() {
                    continue;
                }
                let overlap = partition.range(var.interval).overlap(window);
                if overlap <= 0.0 {
                    continue;
                }
                let entry = &mut best[var.rank()];
                if overlap > entry.0 {
                    *entry = (overlap, vi);
                }
            }
            // Guarantee a unit variable in every row: the one the view lends
            // at the window's midpoint — the speed-limit fallback, unless the
            // window has shrunk to nothing (clamped at midnight), where a
            // trajectory-derived unit overlaps it by zero.
            if best[1].1 == NONE.1 {
                let probe_interval =
                    partition.interval_of(TimeOfDay::wrap(0.5 * (window.start + window.end)));
                footprints[k].probes[1] = Some(probe_interval);
                let (var, read) = wp
                    .unit_variable(edge, probe_interval)
                    .ok_or(CoreError::NoDistribution)?;
                trajectory_unit_reads.extend(read);
                rows[k].push(SelectedVariable {
                    start: k,
                    var: var.clone(),
                    source: read
                        .map_or(CandidateSource::UnitFallback, CandidateSource::Instantiated),
                });
            }
            for &(_, vi) in best.iter().filter(|slot| slot.1 != NONE.1) {
                rows[k].push(SelectedVariable {
                    start: k,
                    var: wp.variables()[vi].clone(),
                    source: CandidateSource::Instantiated(vi),
                });
            }
        }
        trajectory_unit_reads.sort_unstable();
        trajectory_unit_reads.dedup();

        Ok(CandidateArray {
            rows,
            updated_intervals,
            trajectory_unit_reads,
            footprints,
        })
    }

    /// The number of rows (the query path cardinality).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the array has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HybridConfig;
    use crate::hybrid_graph::HybridGraph;
    use pathcost_traj::DatasetPreset;

    fn graph_and_query() -> (
        pathcost_roadnet::RoadNetwork,
        pathcost_traj::TrajectoryStore,
        HybridConfig,
        Path,
        Timestamp,
    ) {
        let (net, store) = DatasetPreset::tiny(31).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        // Use a path that actually carries traffic: the most frequent 4-edge path.
        let frequent = store.frequent_paths(4, 10, None);
        let (query, _) = frequent
            .first()
            .expect("tiny preset has frequent paths")
            .clone();
        let occ = store.occurrences_on(&query);
        let departure = occ[0].entry_time;
        (net, store, cfg, query, departure)
    }

    /// Checks that every cell of `array` holds what its source names: the
    /// view's variable `i`, shared, exactly when it says `Instantiated(i)`,
    /// and otherwise the edge's speed-limit fallback, shared — and that the
    /// recorded reads are sorted view positions of trajectory-derived units.
    fn assert_cells_name_what_they_hold(graph: &HybridGraph<'_>, array: &CandidateArray) {
        let view = graph.view();
        for v in array.rows.iter().flatten() {
            match v.source {
                CandidateSource::Instantiated(i) => {
                    assert!(
                        Arc::ptr_eq(&v.var, &view.variables()[i]),
                        "cell holds variable {i}"
                    );
                }
                CandidateSource::UnitFallback => {
                    let edge = v.var.path.first_edge();
                    assert!(Arc::ptr_eq(
                        &v.var,
                        &graph.weights().fallback_units()[edge.index()]
                    ));
                    assert_eq!(v.var.source, crate::variable::VariableSource::SpeedLimit);
                }
            }
        }
        let reads = &array.trajectory_unit_reads;
        assert!(
            reads.windows(2).all(|w| w[0] < w[1]),
            "sorted, deduplicated"
        );
        assert!(reads.iter().all(|&i| view.variable(i).is_unit()));
    }

    /// LB being OD-1 and HP being OD-2 rests on this row shape: one variable
    /// per rank, in increasing rank, a unit variable first.
    #[test]
    fn every_row_has_a_unit_variable_and_is_sorted() {
        let (net, store, cfg, query, departure) = graph_and_query();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let array = CandidateArray::build(&graph, &query, departure, None).unwrap();
        assert_eq!(array.len(), query.cardinality());
        for (k, row) in array.rows.iter().enumerate() {
            assert!(!row.is_empty());
            assert_eq!(row[0].rank(), 1, "row {k} must start with a unit variable");
            for w in row.windows(2) {
                assert!(w[0].rank() <= w[1].rank());
                assert_ne!(w[0].rank(), w[1].rank(), "one sub-path per rank");
            }
            for v in row {
                assert_eq!(v.start, k);
                // Spatial relevance: the variable's path matches the query at k.
                assert_eq!(&query.edges()[k..k + v.rank()], v.var.path.edges());
            }
        }
        assert_cells_name_what_they_hold(&graph, &array);
        assert!(
            array.rows.iter().flatten().any(|v| v.rank() > 1),
            "the fixture path carries higher-rank variables"
        );
    }

    #[test]
    fn updated_intervals_are_monotonically_widening_and_shifting() {
        let (net, store, cfg, query, departure) = graph_and_query();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let array = CandidateArray::build(&graph, &query, departure, None).unwrap();
        let uis = &array.updated_intervals;
        assert_eq!(uis.len(), query.cardinality());
        assert!((uis[0].start - departure.time_of_day().seconds()).abs() < 1e-6);
        for w in uis.windows(2) {
            assert!(w[1].start >= w[0].start, "windows must shift forward");
            assert!(
                w[1].duration() >= w[0].duration() - 1e-9,
                "windows must not shrink"
            );
        }
    }

    #[test]
    fn rank_cap_limits_candidates() {
        let (net, store, cfg, query, departure) = graph_and_query();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let capped = CandidateArray::build(&graph, &query, departure, Some(1)).unwrap();
        for row in &capped.rows {
            assert!(row.iter().all(|v| v.rank() == 1));
        }
        let uncapped = CandidateArray::build(&graph, &query, departure, None).unwrap();
        for (capped, uncapped) in capped.rows.iter().zip(&uncapped.rows) {
            assert!(uncapped.len() >= capped.len());
        }
        assert!(matches!(
            CandidateArray::build(&graph, &query, departure, Some(0)),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn unknown_edges_are_rejected() {
        let (net, store, cfg, _, departure) = graph_and_query();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let bogus = Path::from_edges_unchecked(vec![pathcost_roadnet::EdgeId(999_999)]);
        assert!(matches!(
            CandidateArray::build(&graph, &bogus, departure, None),
            Err(CoreError::UnknownEdge(_))
        ));
    }

    /// The footprint recorded at every position equals what a brute-force
    /// reading of the build finds: the range is `partition.all()` filtered
    /// by the relevance scan's own overlap test, and the probes are the
    /// intervals a re-run of the shift-and-enlarge recurrence looks up (the
    /// row probe only where no unit variable overlaps the window). Random
    /// departures on the frequent paths and the longest trip, plus ones half
    /// a minute before midnight, where the windows clamp at 86 400 s, admit
    /// no interval and the probes wrap to interval 0.
    #[test]
    fn footprints_match_a_brute_force_scan_and_the_probes_made() {
        use rand::{Rng, SeedableRng};
        let (net, store, cfg, _, _) = graph_and_query();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let (view, partition) = (graph.view(), graph.weights().partition());
        let longest = store
            .matched()
            .iter()
            .map(|m| m.path.clone())
            .max_by_key(|path| path.cardinality())
            .unwrap();
        let mut paths: Vec<Path> = store
            .frequent_paths(3, 5, None)
            .into_iter()
            .map(|(path, _)| path)
            .take(6)
            .collect();
        paths.push(longest.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(54);
        let mut departures: Vec<(Path, Timestamp)> = paths
            .iter()
            .flat_map(|path| {
                let draws: Vec<f64> = (0..12).map(|_| rng.gen_range(0.0..86_400.0)).collect();
                draws.into_iter().map(move |t| (path.clone(), Timestamp(t)))
            })
            .collect();
        departures.push((longest.clone(), Timestamp(86_400.0 - 30.0)));
        departures.push((longest, Timestamp(86_400.0 - 1.0)));

        let mut wrapped = 0;
        for (path, departure) in &departures {
            let array = CandidateArray::build(&graph, path, *departure, None).unwrap();
            assert_eq!(array.footprints.len(), path.cardinality());
            let mut lo = departure.time_of_day().seconds();
            let mut hi = lo;
            for (k, (&edge, footprint)) in path.edges().iter().zip(&array.footprints).enumerate() {
                let window = &array.updated_intervals[k];
                let brute: Vec<u16> = partition
                    .all()
                    .filter(|&id| partition.range(id).overlap(window) > 0.0)
                    .map(|id| id.0)
                    .collect();
                assert_eq!(
                    footprint.overlapping.clone().collect::<Vec<_>>(),
                    brute,
                    "range at position {k} of a {departure:?} departure"
                );
                let shift_probe = (k + 1 < path.cardinality()).then(|| {
                    let probe = partition.interval_of(TimeOfDay::wrap(0.5 * (lo + hi)));
                    let (unit, _) = view.unit(edge, probe).unwrap();
                    lo = (lo + unit.min()).min(86_400.0);
                    hi = (hi + unit.max()).min(86_400.0);
                    probe
                });
                let unit_overlaps = view.variables_starting_with(edge).iter().any(|&i| {
                    let var = view.variable(i);
                    var.is_unit() && partition.range(var.interval).overlap(window) > 0.0
                });
                let row_probe = (!unit_overlaps).then(|| {
                    partition.interval_of(TimeOfDay::wrap(0.5 * (window.start + window.end)))
                });
                assert_eq!(footprint.probes, [shift_probe, row_probe], "position {k}");
                if footprint.overlapping.is_empty() && row_probe == Some(IntervalId(0)) {
                    wrapped += 1;
                }
            }
        }
        assert!(
            wrapped > 0,
            "some window must clamp at midnight and wrap its probe"
        );
    }

    /// A packed footprint admits exactly what the footprint it was packed
    /// from admits — every interval, unit or not — on every position of the
    /// frequent paths and the longest trip at random departures and half a
    /// minute before midnight, where the probes wrap outside an empty range.
    /// Footprints `build` never makes pack to a range that admits more.
    #[test]
    fn packed_footprints_admit_what_the_footprints_do() {
        use rand::{Rng, SeedableRng};
        assert_eq!(std::mem::size_of::<PackedFootprint>(), 4);
        let (net, store, cfg, _, _) = graph_and_query();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let partition = graph.weights().partition();
        let longest = store
            .matched()
            .iter()
            .map(|m| m.path.clone())
            .max_by_key(|path| path.cardinality())
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let mut departures = vec![(longest, Timestamp(86_400.0 - 30.0))];
        for (path, _) in store.frequent_paths(3, 5, None).into_iter().take(6) {
            for _ in 0..12 {
                departures.push((path.clone(), Timestamp(rng.gen_range(0.0..86_400.0))));
            }
        }
        let same = |footprint: &PositionFootprint| {
            let packed = footprint.packed();
            partition.all().all(|id| {
                [false, true]
                    .into_iter()
                    .all(|unit| packed.admits(id, unit) == footprint.admits(id, unit))
            })
        };
        let mut wrapped = 0;
        for (path, departure) in &departures {
            let array = CandidateArray::build(&graph, path, *departure, None).unwrap();
            for (k, footprint) in array.footprints.iter().enumerate() {
                assert!(
                    same(footprint),
                    "position {k} of {departure:?}: {footprint:?}"
                );
                wrapped += usize::from(footprint.overlapping.is_empty());
            }
        }
        assert!(wrapped > 0, "some window must clamp at midnight");

        let hand = |overlapping: Range<u16>, probes: [Option<u16>; 2]| PositionFootprint {
            overlapping,
            probes: probes.map(|probe| probe.map(IntervalId)),
        };
        for exact in [
            hand(3..5, [Some(3), Some(4)]),
            hand(0..0, [None, Some(0)]),
            hand(0..0, [Some(7), Some(7)]),
            hand(0..0, [None, None]),
        ] {
            assert!(same(&exact), "{exact:?}");
        }
        for widened in [hand(3..5, [Some(9), None]), hand(0..0, [Some(2), Some(6)])] {
            let packed = widened.packed();
            for id in partition.all() {
                for unit in [false, true] {
                    assert!(!widened.admits(id, unit) || packed.admits(id, unit));
                }
            }
        }
    }

    #[test]
    fn departures_in_dead_hours_still_produce_candidates() {
        let (net, store, cfg, query, _) = graph_and_query();
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        // At 03:00 there is typically no data, so rows contain fallbacks.
        // Half a minute before midnight, on the longest trip of the store,
        // the windows clamp at 86 400 s and shrink to zero width: no variable
        // overlaps them, and a row takes the unit the view lends at midnight.
        let longest = store
            .matched()
            .iter()
            .map(|m| &m.path)
            .max_by_key(|path| path.cardinality())
            .unwrap();
        for (path, departure) in [
            (&query, Timestamp::from_day_hms(0, 3, 0, 0)),
            (&query, Timestamp(86_400.0 - 30.0)),
            (longest, Timestamp(86_400.0 - 30.0)),
        ] {
            let array = CandidateArray::build(&graph, path, departure, None).unwrap();
            assert_eq!(array.len(), path.cardinality());
            for row in &array.rows {
                assert!(!row.is_empty());
            }
            assert_cells_name_what_they_hold(&graph, &array);
            if path == longest {
                let last = array.updated_intervals.last().unwrap();
                assert_eq!((last.start, last.duration()), (86_400.0, 0.0));
            }
        }
    }
}
