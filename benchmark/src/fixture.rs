//! The fixtures the benchmark serves: `city40` and the `smoke` miniature.
//!
//! A fixture is fully determined by its [`Preset`]; the run seed never
//! reaches it. Building one is the first part of `setup_s`, so each part is
//! timed here.

use pathcost_core::{DayPartition, HybridConfig, HybridGraph, PathWeightFunction};
use pathcost_roadnet::{GeneratorConfig, NetworkKind, RoadNetwork};
use pathcost_service::{QueryEngine, ServiceConfig};
use pathcost_traj::{MatchedTrajectory, SimulationConfig, TrafficSimulator, TrajectoryStore};
use std::sync::Arc;
use std::time::Instant;

/// Everything that sizes a fixture and the pools the workloads draw from.
#[derive(Debug, Clone, Copy)]
pub struct Preset {
    pub name: &'static str,
    pub grid: usize,
    pub trips: usize,
    pub days: u32,
    pub hotspot_pairs: usize,
    /// Trips (in arrival order) the served graph is built from; the rest is
    /// the live stream of the ingest phases.
    pub base_trips: usize,
    /// β of the hybrid graph (`HybridConfig::default()` on `city40`).
    pub beta: usize,
    /// Distinct keys of the `warm_zipf` pool.
    pub warm_keys: usize,
    /// Query sub-path lengths of the estimate/prob workloads.
    pub key_edges: (usize, usize),
    /// Popular paths the `route_batch` envelopes draw from.
    pub batch_paths: usize,
    /// Origin–destination pairs of `route_batch`.
    pub od_pairs: usize,
    /// Fastest-path cardinality accepted for an OD pair.
    pub od_edges: (usize, usize),
    /// Rows per ingest batch.
    pub ingest_rows: usize,
    /// Evaluation paths of `kl_to_truth_mean` (minimum the fixture must yield).
    pub eval_paths: usize,
    /// Evaluation path cardinalities.
    pub eval_edges: &'static [usize],
}

/// The 1 600-vertex fixture every reported number is defined over.
pub const CITY40: Preset = Preset {
    name: "city40",
    grid: 40,
    trips: 10_000,
    days: 30,
    hotspot_pairs: 40,
    base_trips: 9_000,
    beta: 30,
    warm_keys: 2_000,
    key_edges: (8, 40),
    batch_paths: 256,
    od_pairs: 64,
    od_edges: (8, 20),
    ingest_rows: 10,
    eval_paths: 200,
    eval_edges: &[8, 12, 16, 20],
};

/// A miniature with the same shape, for `smoke`: schema and oracle only.
pub const SMOKE: Preset = Preset {
    name: "smoke",
    grid: 10,
    trips: 1_200,
    days: 10,
    hotspot_pairs: 8,
    base_trips: 1_000,
    beta: 10,
    warm_keys: 200,
    key_edges: (3, 12),
    batch_paths: 32,
    od_pairs: 8,
    od_edges: (3, 12),
    ingest_rows: 5,
    eval_paths: 5,
    eval_edges: &[7, 8],
};

/// Seeds of the fixture itself. Fixed: parent and change must serve the
/// same city whatever `--seed` says.
const NETWORK_SEED: u64 = 40;
const SIMULATION_SEED: u64 = 41;

impl Preset {
    pub fn hybrid_config(&self) -> HybridConfig {
        HybridConfig {
            beta: self.beta,
            ..HybridConfig::default()
        }
    }

    pub fn partition(&self) -> DayPartition {
        DayPartition::new(self.hybrid_config().alpha_minutes).expect("the default α is valid")
    }
}

/// The generated city and its trips, split into the served base and the
/// live stream.
pub struct Fixture {
    pub preset: Preset,
    pub net: RoadNetwork,
    pub base_rows: Vec<MatchedTrajectory>,
    pub live_rows: Vec<MatchedTrajectory>,
    pub generate_s: f64,
    pub simulate_s: f64,
}

impl Fixture {
    pub fn build(preset: Preset) -> Fixture {
        let started = Instant::now();
        let net = GeneratorConfig {
            kind: NetworkKind::Grid,
            rows: preset.grid,
            cols: preset.grid,
            spacing_m: 250.0,
            drop_probability: 0.04,
            seed: NETWORK_SEED,
        }
        .generate();
        let generate_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let simulation = SimulationConfig {
            trips: preset.trips,
            days: preset.days,
            hotspot_pairs: preset.hotspot_pairs,
            hotspot_fraction: 0.7,
            seed: SIMULATION_SEED,
            // The benchmark serves the ground-truth matches; raw GPS points
            // are never read, so emit as few as the simulator allows.
            sampling_interval_s: 3_600.0,
            ..SimulationConfig::default()
        };
        let mut rows = TrafficSimulator::new(&net, simulation)
            .expect("the fixture's simulation config is valid")
            .run()
            .expect("the fixture's network is connected")
            .ground_truth;
        // Arrival order: the served base is what had arrived first.
        rows.sort_by(|a, b| {
            a.departure()
                .0
                .total_cmp(&b.departure().0)
                .then(a.id.cmp(&b.id))
        });
        let live_rows = rows.split_off(preset.base_trips.min(rows.len()));
        let simulate_s = started.elapsed().as_secs_f64();
        Fixture {
            preset,
            net,
            base_rows: rows,
            live_rows,
            generate_s,
            simulate_s,
        }
    }

    pub fn base_store(&self) -> TrajectoryStore {
        TrajectoryStore::new(self.base_rows.clone())
    }

    /// Instantiates the weight function over the base trips.
    pub fn instantiate(&self) -> (PathWeightFunction, f64) {
        let started = Instant::now();
        let weights = PathWeightFunction::instantiate(
            &self.net,
            &self.base_store(),
            &self.preset.hybrid_config(),
        )
        .expect("the fixture instantiates");
        (weights, started.elapsed().as_secs_f64())
    }

    /// A query engine over `weights` with the default service configuration.
    pub fn engine(&self, weights: impl Into<Arc<PathWeightFunction>>) -> QueryEngine<'_> {
        let graph = HybridGraph::from_parts(&self.net, weights, self.preset.hybrid_config());
        QueryEngine::new(Arc::new(graph), ServiceConfig::default())
    }
}
