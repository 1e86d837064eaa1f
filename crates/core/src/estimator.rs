//! Path cost distribution estimators.
//!
//! The evaluation (§5.2.2) compares:
//!
//! * **OD** — the paper's proposal: coarsest decomposition over the full
//!   candidate array ([`OdEstimator`] with no rank cap),
//! * **OD-x** — OD restricted to instantiated variables of rank ≤ x
//!   ([`OdEstimator::with_rank_cap`]),
//! * **LB** — the legacy baseline: edge-granularity convolution with
//!   arrival-time shifting, which is OD-1,
//! * **HP** — pairwise joint distributions of adjacent edges \[10\], which is
//!   OD-2,
//! * **RD** — a random (non-coarsest) decomposition ([`RdEstimator`]),
//! * **GT** — the accuracy-optimal baseline computed directly from ≥ β
//!   qualified trajectories ([`GroundTruthEstimator`]), used as ground truth.
//!
//! LB and HP need no estimator of their own because of the shape of a
//! candidate row ([`CandidateArray::build`]): at most one variable per rank,
//! in increasing rank, the first a unit variable. Under a cap of 1 a row is
//! its unit variable alone, so the coarsest decomposition convolves the
//! units edge by edge. Under a cap of 2 a row's last variable is its rank-2
//! variable where one is relevant and its unit variable otherwise — the pair
//! HP takes.

use crate::candidate::{CandidateArray, CandidateSource, PositionFootprint};
use crate::decomposition::Decomposition;
use crate::error::CoreError;
use crate::hybrid_graph::HybridGraph;
use crate::joint::{cost_entries_with_limit, DEFAULT_STATE_BUCKETS};
use pathcost_hist::auto::auto_histogram;
use pathcost_hist::Histogram1D;
use pathcost_roadnet::{Path, RoadNetwork};
use pathcost_traj::{Timestamp, TrajectoryStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock breakdown of one estimation call (Figure 17's OI / JC / MC).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EstimateBreakdown {
    /// Seconds spent identifying the optimal decomposition (candidate array +
    /// Algorithm 1) — "OI".
    pub decomposition_s: f64,
    /// Seconds spent computing the joint distribution along the chain — "JC".
    pub joint_s: f64,
    /// Seconds spent deriving the marginal cost distribution — "MC".
    pub marginal_s: f64,
}

impl EstimateBreakdown {
    /// Total estimation time in seconds.
    pub fn total_s(&self) -> f64 {
        self.decomposition_s + self.joint_s + self.marginal_s
    }
}

/// A method that estimates the cost distribution of a path at a departure time.
pub trait CostEstimator {
    /// Estimates the travel cost distribution of `path` departing at `departure`.
    fn estimate(&self, path: &Path, departure: Timestamp) -> Result<Histogram1D, CoreError> {
        self.estimate_with_breakdown(path, departure)
            .map(|(h, _)| h)
    }

    /// As [`Self::estimate`], returning the distribution behind a shared
    /// [`Arc`] handle. The default wraps a fresh estimate; estimators backed
    /// by a store of already-shared histograms (e.g. a serving-layer cache)
    /// override this so repeated estimates of the same path are
    /// allocation-free reference bumps. Routing searches, which evaluate and
    /// retain many candidate distributions, call this form.
    fn estimate_arc(
        &self,
        path: &Path,
        departure: Timestamp,
    ) -> Result<Arc<Histogram1D>, CoreError> {
        self.estimate(path, departure).map(Arc::new)
    }

    /// Estimates the distribution and reports the per-phase time breakdown.
    fn estimate_with_breakdown(
        &self,
        path: &Path,
        departure: Timestamp,
    ) -> Result<(Histogram1D, EstimateBreakdown), CoreError>;

    /// The `H_DE` entropy of the decomposition this estimator would use
    /// (Figure 15). Estimators that do not build decompositions may return `None`.
    fn decomposition_entropy(&self, _path: &Path, _departure: Timestamp) -> Option<f64> {
        None
    }
}

/// One estimation's full output: the distribution, the decomposition it came
/// from, the trajectory-derived weight-function variables it read, and the
/// per-phase timing. Produced by [`OdEstimator::estimate_with_artifacts`] for
/// callers — the serving layer's cache — that need more than the histogram.
#[derive(Debug, Clone)]
pub struct EstimateArtifacts {
    /// The estimated cost distribution.
    pub histogram: Histogram1D,
    /// The decomposition the distribution was derived from.
    pub decomposition: Decomposition,
    /// The position, in the weight view the estimation read
    /// ([`HybridGraph::view`]), of every trajectory-derived variable whose
    /// histogram it read — the unit probes of the candidate array plus the
    /// instantiated components of the decomposition — sorted and
    /// deduplicated. If none of these variables changes, re-running the
    /// estimation yields a bit-identical histogram — unless a variable is
    /// instantiated or deleted at a key inside [`Self::footprints`], which
    /// can change candidate *selection*.
    pub dependencies: Vec<usize>,
    /// The candidate array's per-position temporal footprints
    /// ([`CandidateArray::footprints`]): a variable key whose path occurs at
    /// no position whose footprint admits its interval was never consulted,
    /// so instantiating or deleting it leaves this estimate bit-identical.
    pub footprints: Vec<PositionFootprint>,
    /// Wall-clock phase breakdown (Figure 17's OI / JC / MC).
    pub breakdown: EstimateBreakdown,
}

/// Shared implementation: build a candidate array, pick a decomposition,
/// derive the cost distribution. Returns the decomposition, dependency set
/// and timing alongside the histogram so callers (e.g. the serving layer)
/// can inspect them without replicating this pipeline.
fn estimate_via_decomposition<F>(
    graph: &HybridGraph<'_>,
    path: &Path,
    departure: Timestamp,
    rank_cap: Option<usize>,
    pick: F,
) -> Result<EstimateArtifacts, CoreError>
where
    F: FnOnce(&CandidateArray) -> Decomposition,
{
    let start = Instant::now();
    let array = CandidateArray::build(graph, path, departure, rank_cap)?;
    let decomposition = pick(&array);
    let oi = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let entries = cost_entries_with_limit(&decomposition, DEFAULT_STATE_BUCKETS)?;
    let jc = start.elapsed().as_secs_f64();

    // MC (Figure 17): re-arranging the final hyper-bucket sums into the
    // disjoint marginal cost distribution. The chain walk above deliberately
    // stops at the overlapping entries so this phase is timed on real work
    // instead of re-running the rearrangement a second time.
    let start = Instant::now();
    let hist = Histogram1D::from_overlapping(&entries)?;
    let mc = start.elapsed().as_secs_f64();

    let mut dependencies = array.trajectory_unit_reads;
    dependencies.extend(
        decomposition
            .components()
            .iter()
            .filter_map(|c| match c.source {
                CandidateSource::Instantiated(index) => Some(index),
                CandidateSource::UnitFallback => None,
            }),
    );
    dependencies.sort_unstable();
    dependencies.dedup();

    Ok(EstimateArtifacts {
        histogram: hist,
        decomposition,
        dependencies,
        footprints: array.footprints,
        breakdown: EstimateBreakdown {
            decomposition_s: oi,
            joint_s: jc,
            marginal_s: mc,
        },
    })
}

/// The paper's proposed estimator: optimal (coarsest) decomposition.
pub struct OdEstimator<'g, 'n> {
    graph: &'g HybridGraph<'n>,
    rank_cap: Option<usize>,
}

impl<'g, 'n> OdEstimator<'g, 'n> {
    /// OD with the full candidate array.
    pub fn new(graph: &'g HybridGraph<'n>) -> Self {
        OdEstimator {
            graph,
            rank_cap: None,
        }
    }

    /// OD-x: only instantiated variables of rank ≤ `cap` are considered
    /// (OD-1 is the LB baseline, OD-2 the HP baseline). Under a cap of 0
    /// every estimate fails with [`CoreError::InvalidConfig`].
    pub fn with_rank_cap(graph: &'g HybridGraph<'n>, cap: usize) -> Self {
        OdEstimator {
            graph,
            rank_cap: Some(cap),
        }
    }

    /// Estimates the distribution — the same pipeline as
    /// [`CostEstimator::estimate`] — and returns it with the coarsest
    /// decomposition it was derived from (the serving layer caches its
    /// component count as the query's depth) and the trajectory-derived
    /// variables it read, the dependency set the serving layer's targeted
    /// cache invalidation is built on.
    pub fn estimate_with_artifacts(
        &self,
        path: &Path,
        departure: Timestamp,
    ) -> Result<EstimateArtifacts, CoreError> {
        estimate_via_decomposition(self.graph, path, departure, self.rank_cap, |array| {
            Decomposition::coarsest(array)
        })
    }
}

impl CostEstimator for OdEstimator<'_, '_> {
    fn estimate_with_breakdown(
        &self,
        path: &Path,
        departure: Timestamp,
    ) -> Result<(Histogram1D, EstimateBreakdown), CoreError> {
        estimate_via_decomposition(self.graph, path, departure, self.rank_cap, |array| {
            Decomposition::coarsest(array)
        })
        .map(|a| (a.histogram, a.breakdown))
    }

    fn decomposition_entropy(&self, path: &Path, departure: Timestamp) -> Option<f64> {
        let array = CandidateArray::build(self.graph, path, departure, self.rank_cap).ok()?;
        Some(Decomposition::coarsest(&array).entropy_hde())
    }
}

/// The RD baseline: a randomly chosen valid decomposition.
pub struct RdEstimator<'g, 'n> {
    graph: &'g HybridGraph<'n>,
    seed: u64,
}

impl<'g, 'n> RdEstimator<'g, 'n> {
    /// Creates the random-decomposition estimator with a deterministic seed.
    pub fn new(graph: &'g HybridGraph<'n>, seed: u64) -> Self {
        RdEstimator { graph, seed }
    }
}

impl CostEstimator for RdEstimator<'_, '_> {
    fn estimate_with_breakdown(
        &self,
        path: &Path,
        departure: Timestamp,
    ) -> Result<(Histogram1D, EstimateBreakdown), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ path.cardinality() as u64);
        estimate_via_decomposition(self.graph, path, departure, None, |array| {
            Decomposition::random(array, &mut rng)
        })
        .map(|a| (a.histogram, a.breakdown))
    }

    fn decomposition_entropy(&self, path: &Path, departure: Timestamp) -> Option<f64> {
        let array = CandidateArray::build(self.graph, path, departure, None).ok()?;
        let mut rng = StdRng::seed_from_u64(self.seed ^ path.cardinality() as u64);
        Some(Decomposition::random(&array, &mut rng).entropy_hde())
    }
}

/// The accuracy-optimal baseline (§2.2): the distribution computed directly
/// from the qualified trajectories of the query path itself. Fails with
/// [`CoreError::NoDistribution`] when fewer than β qualified trajectories
/// exist — the sparseness situation the hybrid graph is designed for.
pub struct GroundTruthEstimator<'a> {
    net: &'a RoadNetwork,
    store: &'a TrajectoryStore,
    config: crate::config::HybridConfig,
    partition: crate::interval::DayPartition,
}

impl<'a> GroundTruthEstimator<'a> {
    /// Creates the ground-truth estimator.
    pub fn new(
        net: &'a RoadNetwork,
        store: &'a TrajectoryStore,
        config: crate::config::HybridConfig,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let partition = crate::interval::DayPartition::new(config.alpha_minutes)?;
        Ok(GroundTruthEstimator {
            net,
            store,
            config,
            partition,
        })
    }

    /// The qualified total-cost samples for `path` at `departure`.
    pub fn qualified_samples(&self, path: &Path, departure: Timestamp) -> Vec<f64> {
        let interval = self
            .partition
            .range(self.partition.interval_of(departure.time_of_day()));
        self.store
            .qualified_total_costs(self.net, path, &interval, self.config.cost_kind)
    }
}

impl CostEstimator for GroundTruthEstimator<'_> {
    fn estimate_with_breakdown(
        &self,
        path: &Path,
        departure: Timestamp,
    ) -> Result<(Histogram1D, EstimateBreakdown), CoreError> {
        let start = Instant::now();
        let samples = self.qualified_samples(path, departure);
        if samples.len() < self.config.beta {
            return Err(CoreError::NoDistribution);
        }
        let hist = auto_histogram(&samples, &self.config.auto)?;
        let elapsed = start.elapsed().as_secs_f64();
        Ok((
            hist,
            EstimateBreakdown {
                decomposition_s: 0.0,
                joint_s: elapsed,
                marginal_s: 0.0,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HybridConfig;
    use pathcost_hist::divergence::kl_divergence_histograms;
    use pathcost_traj::DatasetPreset;

    struct Fixture {
        net: pathcost_roadnet::RoadNetwork,
        store: pathcost_traj::TrajectoryStore,
        cfg: HybridConfig,
        query: Path,
        departure: Timestamp,
    }

    fn fixture() -> Fixture {
        // A denser-than-default tiny dataset so at least one frequent path
        // reaches β qualified trajectories within a single departure interval.
        let mut preset = DatasetPreset::tiny(71);
        preset.simulation.trips = 600;
        let net = preset.build_network();
        let out = preset.simulate(&net).unwrap();
        let store = pathcost_traj::TrajectoryStore::from_ground_truth(&out);
        let cfg = HybridConfig {
            beta: 12,
            ..HybridConfig::default()
        };
        let mut frequent = store.frequent_paths(5, 12, None);
        if frequent.is_empty() {
            frequent = store.frequent_paths(3, 12, None);
        }
        // Pick a (path, departure) pair whose departure interval is dense
        // enough for the accuracy-optimal ground truth (≥ β qualified
        // trajectories), falling back to the first occurrence of the first
        // frequent path.
        let partition = crate::interval::DayPartition::new(cfg.alpha_minutes).unwrap();
        let dense = frequent.iter().find_map(|(path, _)| {
            store.occurrences_on(path).into_iter().find_map(|occ| {
                let interval = partition.range(partition.interval_of(occ.entry_time.time_of_day()));
                (store.qualified(path, &interval).len() >= cfg.beta)
                    .then_some((path.clone(), occ.entry_time))
            })
        });
        let (query, departure) = dense.unwrap_or_else(|| {
            let (query, _) = frequent[0].clone();
            let departure = store.occurrences_on(&query)[0].entry_time;
            (query, departure)
        });
        Fixture {
            net,
            store,
            cfg,
            query,
            departure,
        }
    }

    #[test]
    fn all_estimators_produce_normalised_distributions() {
        let f = fixture();
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        let od = OdEstimator::new(&graph);
        let od2 = OdEstimator::with_rank_cap(&graph, 2);
        let lb = OdEstimator::with_rank_cap(&graph, 1);
        let rd = RdEstimator::new(&graph, 7);
        let estimators: [(&str, &dyn CostEstimator); 4] =
            [("OD", &od), ("OD-2", &od2), ("LB", &lb), ("RD", &rd)];
        for (name, est) in estimators {
            let (hist, breakdown) = est
                .estimate_with_breakdown(&f.query, f.departure)
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert!(
                (hist.probs().iter().sum::<f64>() - 1.0).abs() < 1e-6,
                "{name}"
            );
            assert!(hist.mean() > 0.0);
            assert!(breakdown.total_s() >= 0.0);
        }
    }

    #[test]
    fn ground_truth_estimator_matches_raw_samples() {
        let f = fixture();
        let gt = GroundTruthEstimator::new(&f.net, &f.store, f.cfg.clone()).unwrap();
        let samples = gt.qualified_samples(&f.query, f.departure);
        assert!(samples.len() >= f.cfg.beta, "fixture path must be dense");
        let hist = gt.estimate(&f.query, f.departure).unwrap();
        let sample_mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            (hist.mean() - sample_mean).abs() / sample_mean < 0.1,
            "GT mean {} vs sample mean {sample_mean}",
            hist.mean()
        );
    }

    #[test]
    fn ground_truth_fails_on_sparse_paths() {
        let f = fixture();
        let gt = GroundTruthEstimator::new(&f.net, &f.store, f.cfg.clone()).unwrap();
        // Departing at 03:00 there are (almost) no qualified trajectories.
        let sparse_departure = Timestamp::from_day_hms(0, 3, 1, 0);
        let result = gt.estimate(&f.query, sparse_departure);
        if let Ok(h) = result {
            // In the unlikely case data exists, it is still a valid histogram.
            assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn od_is_at_least_as_accurate_as_lb_against_ground_truth() {
        // The paper's central claim (Figure 14): OD tracks the ground truth
        // better than the independence-assuming convolution baseline.
        // A denser tiny dataset so the accuracy-optimal ground truth has a
        // meaningful number of samples per interval.
        let mut preset = DatasetPreset::tiny(72);
        preset.simulation.trips = 800;
        let net = preset.build_network();
        let out = preset.simulate(&net).unwrap();
        let store = pathcost_traj::TrajectoryStore::from_ground_truth(&out);
        let cfg = HybridConfig {
            beta: 25,
            ..HybridConfig::default()
        };
        let graph = HybridGraph::build(&net, &store, cfg.clone()).unwrap();
        let gt = GroundTruthEstimator::new(&net, &store, cfg.clone()).unwrap();
        let od = OdEstimator::new(&graph);
        let lb = OdEstimator::with_rank_cap(&graph, 1);

        // Evaluate on paths that are dense during the morning-peak interval,
        // so the accuracy-optimal ground truth is available.
        let partition = crate::interval::DayPartition::new(cfg.alpha_minutes).unwrap();
        let morning =
            partition.range(partition.interval_of(pathcost_traj::TimeOfDay::from_hms(8, 0, 0)));
        let mut od_total = 0.0;
        let mut lb_total = 0.0;
        let mut evaluated = 0;
        for (query, _) in store
            .frequent_paths(4, cfg.beta, Some(&morning))
            .into_iter()
            .take(10)
        {
            let Some(occ) = store.qualified(&query, &morning).into_iter().next() else {
                continue;
            };
            let departure = occ.entry_time;
            let Ok(truth) = gt.estimate(&query, departure) else {
                continue;
            };
            let Ok(od_hist) = od.estimate(&query, departure) else {
                continue;
            };
            let Ok(lb_hist) = lb.estimate(&query, departure) else {
                continue;
            };
            od_total += kl_divergence_histograms(&truth, &od_hist);
            lb_total += kl_divergence_histograms(&truth, &lb_hist);
            evaluated += 1;
        }
        assert!(evaluated >= 1, "need at least one dense path to compare");
        // At these short cardinalities OD and LB are close (the paper's gap
        // opens up as paths get longer — reproduced by the Figure 14 harness);
        // here we only require that OD is not materially worse on average.
        assert!(
            od_total <= lb_total * 1.3 + 0.2,
            "OD KL {od_total} should not be materially worse than LB KL {lb_total}"
        );
    }

    #[test]
    fn decomposition_entropy_ordering_matches_theorem3() {
        let f = fixture();
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        let od = OdEstimator::new(&graph);
        let lb = OdEstimator::with_rank_cap(&graph, 1);
        let h_od = od.decomposition_entropy(&f.query, f.departure).unwrap();
        let h_lb = lb.decomposition_entropy(&f.query, f.departure).unwrap();
        assert!(h_od <= h_lb + 1e-9, "OD H_DE {h_od} vs LB {h_lb}");
    }

    #[test]
    fn breakdown_components_are_non_negative_and_sum() {
        let f = fixture();
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        let od = OdEstimator::new(&graph);
        let (_, b) = od.estimate_with_breakdown(&f.query, f.departure).unwrap();
        assert!(b.decomposition_s >= 0.0 && b.joint_s >= 0.0 && b.marginal_s >= 0.0);
        assert!((b.total_s() - (b.decomposition_s + b.joint_s + b.marginal_s)).abs() < 1e-12);
    }
}
