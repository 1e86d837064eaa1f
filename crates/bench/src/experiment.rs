//! Shared experiment setup: datasets, query-path selection and the held-out
//! ground-truth protocol of §5.2.2.

use pathcost_core::{DayPartition, HybridConfig, IntervalId};
use pathcost_hist::auto::auto_histogram;
use pathcost_hist::Histogram1D;
use pathcost_roadnet::{Path, RoadNetwork};
use pathcost_traj::{CostKind, DatasetPreset, TimeOfDay, Timestamp, TrajectoryStore};
use std::collections::HashSet;

/// How large an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced trip counts; every figure completes in seconds. Default for the
    /// `figures` binary and for CI.
    Quick,
    /// The presets' own sizes ([`DatasetPreset::aalborg_like`],
    /// [`DatasetPreset::beijing_like`]), which Quick shrinks in [`Dataset::d1`]
    /// and [`Dataset::d2`].
    Full,
}

impl Scale {
    /// Reads the scale flags among `args`: `--full` selects Full, `--quick`
    /// (or no flag) Quick. Arguments not starting with `--` are left to the
    /// caller; any other flag is returned as the error, so a misspelt
    /// `--full` cannot quietly run at Quick scale.
    pub fn from_args(args: &[String]) -> Result<Scale, String> {
        let mut scale = Scale::Quick;
        for flag in args.iter().filter(|a| a.starts_with("--")) {
            match flag.as_str() {
                "--full" => scale = Scale::Full,
                "--quick" => {}
                _ => return Err(flag.clone()),
            }
        }
        Ok(scale)
    }
}

/// A materialised dataset: a road network plus an indexed trajectory store.
pub struct Dataset {
    /// Display name ("D1", "D2").
    pub name: String,
    /// The synthetic road network.
    pub net: RoadNetwork,
    /// Map-matched (ground-truth aligned) trajectories.
    pub store: TrajectoryStore,
}

impl Dataset {
    /// Builds a dataset from a preset.
    pub fn build(preset: &DatasetPreset) -> Dataset {
        let net = preset.build_network();
        let out = preset
            .simulate(&net)
            .expect("simulation of a preset succeeds");
        let store = TrajectoryStore::from_ground_truth(&out);
        Dataset {
            name: preset.name.clone(),
            net,
            store,
        }
    }

    /// The Aalborg-like dataset D1.
    pub fn d1(scale: Scale, seed: u64) -> Dataset {
        let mut preset = DatasetPreset::aalborg_like(seed);
        if scale == Scale::Quick {
            preset.network.rows = 14;
            preset.network.cols = 14;
            preset.simulation.trips = 2_500;
            preset.simulation.days = 40;
        }
        Dataset::build(&preset)
    }

    /// The Beijing-like dataset D2.
    pub fn d2(scale: Scale, seed: u64) -> Dataset {
        let mut preset = DatasetPreset::beijing_like(seed);
        if scale == Scale::Quick {
            preset.network.rows = 6;
            preset.network.cols = 18;
            preset.simulation.trips = 3_500;
            preset.simulation.days = 60;
        }
        Dataset::build(&preset)
    }

    /// Both datasets.
    pub fn both(scale: Scale, seed: u64) -> Vec<Dataset> {
        vec![Dataset::d1(scale, seed), Dataset::d2(scale, seed)]
    }

    /// A dataset restricted to the first `fraction` of its trajectories
    /// (the 25% / 50% / 75% / 100% sweeps of Figures 10, 12 and 17).
    pub fn fraction(&self, fraction: f64) -> Dataset {
        Dataset {
            name: format!("{}@{:.0}%", self.name, fraction * 100.0),
            net: self.net.clone(),
            store: self.store.subset(fraction),
        }
    }
}

/// One evaluation query: a path, a departure time and its held-out ground
/// truth distribution.
#[derive(Debug, Clone)]
pub struct EvalQuery {
    /// The query path.
    pub path: Path,
    /// Departure time used for the query.
    pub departure: Timestamp,
    /// Ground-truth cost samples (total travel times of the qualified
    /// trajectories).
    pub gt_samples: Vec<f64>,
    /// Ground-truth distribution (Auto histogram over `gt_samples`).
    pub ground_truth: Histogram1D,
}

/// A set of evaluation queries plus the weight-function exclusions that make
/// them "unlucky" queries (no instantiated variable covers the whole path), so
/// estimators face the sparseness the paper describes.
pub struct HoldoutSet {
    /// The evaluation queries.
    pub queries: Vec<EvalQuery>,
    /// (path, interval) pairs to withhold when instantiating the hybrid graph:
    /// every candidate path containing a held-out query path during its
    /// interval is skipped, so the query's own joint distribution is never
    /// available and must be reconstructed from shorter sub-paths.
    ///
    /// The paper removes the held-out *trajectories* from its (much larger)
    /// datasets; at this repository's laptop scale that would also strip the
    /// sub-path evidence the estimators are supposed to work from, so the
    /// exclusion is applied at the weight level instead (see [`make_holdout`]).
    pub exclusions: Vec<(Path, IntervalId)>,
}

/// Builds the held-out evaluation protocol of §5.2.2 ("Accuracy Evaluation
/// with Ground Truth"): select up to `max_paths` paths of the given
/// cardinality with at least `cfg.beta` qualified trajectories during a
/// commute-time interval, compute their ground-truth distributions, and record
/// the weight-function exclusions that hide those paths from the estimators.
pub fn make_holdout(
    dataset: &Dataset,
    cfg: &HybridConfig,
    cardinality: usize,
    max_paths: usize,
) -> HoldoutSet {
    let partition = DayPartition::new(cfg.alpha_minutes).expect("valid alpha");
    // Search the commute windows (morning first, then evening) for dense paths.
    let mut candidate_intervals = Vec::new();
    for hour_min in [(8u32, 0u32), (7, 30), (8, 30), (17, 0), (16, 30), (17, 30)] {
        let id = partition.interval_of(TimeOfDay::from_hms(hour_min.0, hour_min.1, 0));
        if !candidate_intervals.contains(&id) {
            candidate_intervals.push(id);
        }
    }

    let mut queries: Vec<EvalQuery> = Vec::new();
    let mut exclusions: Vec<(Path, IntervalId)> = Vec::new();
    let mut seen_paths: HashSet<Path> = HashSet::new();
    for interval_id in candidate_intervals {
        if queries.len() >= max_paths {
            break;
        }
        let window = partition.range(interval_id);
        for (path, _) in dataset
            .store
            .frequent_paths(cardinality, cfg.beta, Some(&window))
        {
            if queries.len() >= max_paths {
                break;
            }
            if seen_paths.contains(&path) {
                continue;
            }
            let occurrences = dataset.store.qualified(&path, &window);
            if occurrences.len() < cfg.beta {
                continue;
            }
            let samples = dataset.store.qualified_total_costs(
                &dataset.net,
                &path,
                &window,
                CostKind::TravelTime,
            );
            let Ok(ground_truth) = auto_histogram(&samples, &cfg.auto) else {
                continue;
            };
            let departure = occurrences[0].entry_time;
            exclusions.push((path.clone(), interval_id));
            seen_paths.insert(path.clone());
            queries.push(EvalQuery {
                path,
                departure,
                gt_samples: samples,
                ground_truth,
            });
        }
    }

    HoldoutSet {
        queries,
        exclusions,
    }
}

/// Selects random query paths of a given cardinality by walking the network
/// from random dense starting edges (used by the "without ground truth"
/// experiments, Figures 15 and 16, where paths need not carry many
/// trajectories).
pub fn random_query_paths(
    dataset: &Dataset,
    cardinality: usize,
    count: usize,
    seed: u64,
) -> Vec<(Path, Timestamp)> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let net = &dataset.net;
    let covered = dataset.store.covered_edges();
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0;
    while out.len() < count && attempts < count * 200 {
        attempts += 1;
        // Start from a random position inside a random trajectory so query
        // paths run through travelled corridors (the paper samples its query
        // paths from the road network its trajectories cover), then continue
        // as a random walk preferring covered edges.
        let m = dataset
            .store
            .get(rng.gen_range(0..dataset.store.len().max(1)))
            .expect("store is non-empty");
        let start_pos = rng.gen_range(0..m.path.cardinality());
        let mut edges: Vec<pathcost_roadnet::EdgeId> = Vec::with_capacity(cardinality);
        let mut visited: HashSet<pathcost_roadnet::VertexId> = HashSet::new();
        visited.insert(net.edge(m.path.edges()[start_pos]).unwrap().from);
        for &e in &m.path.edges()[start_pos..] {
            if edges.len() >= cardinality {
                break;
            }
            let to = net.edge(e).unwrap().to;
            if visited.contains(&to) {
                break;
            }
            visited.insert(to);
            edges.push(e);
        }
        while edges.len() < cardinality {
            let last = *edges.last().expect("at least one edge");
            let options: Vec<_> = net
                .successors(last)
                .iter()
                .copied()
                .filter(|&e| !visited.contains(&net.edge(e).unwrap().to))
                .collect();
            if options.is_empty() {
                break;
            }
            // Prefer covered successors when any exist.
            let preferred: Vec<_> = options
                .iter()
                .copied()
                .filter(|e| covered.contains(e))
                .collect();
            let pool = if preferred.is_empty() {
                &options
            } else {
                &preferred
            };
            let next = pool[rng.gen_range(0..pool.len())];
            visited.insert(net.edge(next).unwrap().to);
            edges.push(next);
        }
        if edges.len() == cardinality {
            if let Ok(path) = Path::new(net, edges) {
                let hour = rng.gen_range(6..22);
                let minute = rng.gen_range(0..60);
                out.push((path, Timestamp::from_day_hms(0, hour, minute, 0)));
            }
        }
    }
    out
}

/// Source-destination pairs for the routing experiment (Figure 18).
pub fn random_od_pairs(
    dataset: &Dataset,
    count: usize,
    seed: u64,
) -> Vec<(pathcost_roadnet::VertexId, pathcost_roadnet::VertexId)> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let n = dataset.net.vertex_count() as u32;
    let mut pairs = Vec::with_capacity(count);
    let mut attempts = 0;
    while pairs.len() < count && attempts < count * 100 {
        attempts += 1;
        let a = pathcost_roadnet::VertexId(rng.gen_range(0..n));
        let b = pathcost_roadnet::VertexId(rng.gen_range(0..n));
        if a == b {
            continue;
        }
        if pathcost_roadnet::search::fastest_path(&dataset.net, a, b).is_some() {
            pairs.push((a, b));
        }
    }
    pairs
}

/// The default hybrid configuration used across the experiments. Quick-scale
/// datasets carry less traffic per path, so β is scaled down to keep the
/// number of instantiated variables comparable to the paper's setting.
pub fn experiment_config(scale: Scale) -> HybridConfig {
    match scale {
        Scale::Quick => HybridConfig {
            beta: 15,
            ..HybridConfig::default()
        },
        Scale::Full => HybridConfig::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        let preset = DatasetPreset::tiny(5);
        Dataset::build(&preset)
    }

    #[test]
    fn dataset_fraction_shrinks_the_store() {
        let d = tiny_dataset();
        let half = d.fraction(0.5);
        assert!(half.store.len() <= d.store.len());
        assert!(half.name.contains("50%"));
    }

    #[test]
    fn holdout_excludes_the_ground_truth_trajectories() {
        // A denser tiny dataset so single intervals reach the beta threshold.
        let mut preset = DatasetPreset::tiny(5);
        preset.simulation.trips = 800;
        let d = Dataset::build(&preset);
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let holdout = make_holdout(&d, &cfg, 3, 5);
        assert!(
            !holdout.queries.is_empty(),
            "tiny dataset should yield holdout paths"
        );
        assert_eq!(holdout.exclusions.len(), holdout.queries.len());
        // The excluded query path must not be instantiated by a graph built
        // with the exclusions, even though the data would support it.
        let graph = pathcost_core::HybridGraph::build_with_exclusions(
            &d.net,
            &d.store,
            cfg.clone(),
            &holdout.exclusions,
        )
        .unwrap();
        for (path, interval) in &holdout.exclusions {
            assert!(graph.weights().get(path, *interval).is_none());
        }
        for q in &holdout.queries {
            assert!(q.gt_samples.len() >= cfg.beta);
            assert!((q.ground_truth.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert_eq!(q.path.cardinality(), 3);
        }
    }

    #[test]
    fn random_query_paths_have_requested_cardinality() {
        let d = tiny_dataset();
        let paths = random_query_paths(&d, 6, 10, 3);
        assert!(!paths.is_empty());
        for (p, t) in &paths {
            assert_eq!(p.cardinality(), 6);
            assert!(t.time_of_day().hours() >= 6);
        }
    }

    #[test]
    fn od_pairs_are_routable() {
        let d = tiny_dataset();
        let pairs = random_od_pairs(&d, 5, 7);
        assert_eq!(pairs.len(), 5);
        for (a, b) in pairs {
            assert!(pathcost_roadnet::search::fastest_path(&d.net, a, b).is_some());
        }
    }

    #[test]
    fn scale_parsing() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(Scale::from_args(&args(&["--full"])), Ok(Scale::Full));
        assert_eq!(Scale::from_args(&args(&["fig3"])), Ok(Scale::Quick));
        assert_eq!(
            Scale::from_args(&args(&["--quick", "fig3"])),
            Ok(Scale::Quick)
        );
        assert_eq!(
            Scale::from_args(&args(&["--Full", "fig14"])),
            Err("--Full".to_string())
        );
        assert_eq!(
            Scale::from_args(&args(&["fig5", "--fulll"])),
            Err("--fulll".to_string())
        );
        assert_eq!(experiment_config(Scale::Quick).beta, 15);
        assert_eq!(experiment_config(Scale::Full).beta, 30);
    }
}
