//! Traffic and GPS simulation.
//!
//! The paper's evaluation uses two proprietary GPS collections (Aalborg 2007–08
//! at 1 Hz, Beijing 2012 at ≥ 0.2 Hz). This simulator is the stand-in: it
//! samples trips over a road network, traverses each trip with per-edge travel
//! times that are
//!
//! * **time-varying** (a [`CongestionProfile`] with morning/evening peaks),
//! * **dependent across adjacent edges** (a per-trip factor plus an AR(1)
//!   latent congestion factor along the path — the dependency the hybrid graph
//!   is designed to capture and the legacy baseline ignores),
//! * **multi-modal** (random signal/incident delays add a second mode), and
//!
//! then emits noisy GPS records along the traversal at a configurable sampling
//! rate. Popular origin–destination pairs concentrate many trajectories on the
//! same paths (so that ground-truth distributions exist for evaluation) while
//! the long tail of random trips reproduces the sparseness of Figure 3.

use crate::error::TrajError;
use crate::gps::{GpsRecord, Trajectory};
use crate::profile::CongestionProfile;
use crate::time::{TimeOfDay, Timestamp};
use pathcost_roadnet::search::fastest_path;
use pathcost_roadnet::{Path, Point, RoadNetwork, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of a simulated GPS dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Number of trips (trajectories) to generate.
    pub trips: usize,
    /// Number of simulated days the trips are spread over.
    pub days: u32,
    /// GPS sampling interval in seconds (1.0 ≈ the Aalborg 1 Hz data,
    /// 5.0 ≈ the Beijing ≥ 0.2 Hz data).
    pub sampling_interval_s: f64,
    /// Standard deviation of the GPS position noise in metres.
    pub gps_noise_m: f64,
    /// Seed for all randomness (trip sampling, traversal, noise).
    pub seed: u64,
    /// Deterministic time-of-day congestion profile.
    pub profile: CongestionProfile,
    /// AR(1) coefficient of the latent congestion factor along a trip;
    /// larger values mean stronger dependence between adjacent edges.
    pub edge_correlation: f64,
    /// Standard deviation of the per-trip speed factor (driver/vehicle effect),
    /// shared by every edge of the trip.
    pub trip_factor_std: f64,
    /// Probability that an edge traversal suffers an extra stop delay
    /// (signal / incident), producing multi-modal costs.
    pub incident_probability: f64,
    /// Range of the extra stop delay in seconds.
    pub incident_delay_s: (f64, f64),
    /// Number of popular origin–destination pairs.
    pub hotspot_pairs: usize,
    /// Fraction of trips that use a popular pair instead of a random one.
    pub hotspot_fraction: f64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            trips: 2_000,
            days: 30,
            sampling_interval_s: 1.0,
            gps_noise_m: 4.0,
            seed: 42,
            profile: CongestionProfile::default(),
            edge_correlation: 0.7,
            trip_factor_std: 0.18,
            incident_probability: 0.10,
            incident_delay_s: (15.0, 75.0),
            hotspot_pairs: 16,
            hotspot_fraction: 0.75,
        }
    }
}

/// A trajectory aligned to the road network: the path it followed and the
/// per-edge entry times and travel times.
///
/// This is the output of map matching (§2.1, "the path of trajectory `T`"),
/// and also what the simulator knows as ground truth. It holds only what was
/// observed: an edge's average speed is its length over its travel time,
/// derived where the emission model reads it
/// ([`per_edge_costs_into`](crate::costs::per_edge_costs_into)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchedTrajectory {
    /// Identifier shared with the raw [`Trajectory`].
    pub id: u64,
    /// The path of the trajectory.
    pub path: Path,
    /// Entry time into each edge of the path.
    pub entry_times: Vec<Timestamp>,
    /// Travel time spent on each edge of the path, in seconds.
    pub travel_times: Vec<f64>,
    /// The traffic regime this trajectory was observed under; the default
    /// [`RegimeId::ALL_TRAFFIC`](crate::regime::RegimeId::ALL_TRAFFIC) means
    /// "no contextual label" and reproduces the paper's single-weight-function
    /// behaviour (see [`crate::regime`]).
    pub regime: crate::regime::RegimeId,
}

impl MatchedTrajectory {
    /// Creates a matched trajectory, validating that the per-edge vectors all
    /// have the same length as the path.
    pub fn new(
        id: u64,
        path: Path,
        entry_times: Vec<Timestamp>,
        travel_times: Vec<f64>,
    ) -> Result<Self, TrajError> {
        let n = path.cardinality();
        if entry_times.len() != n || travel_times.len() != n {
            return Err(TrajError::InvalidConfig(
                "per-edge vectors must match the path cardinality",
            ));
        }
        Ok(MatchedTrajectory {
            id,
            path,
            entry_times,
            travel_times,
            regime: crate::regime::RegimeId::ALL_TRAFFIC,
        })
    }

    /// The same trajectory tagged with `regime`.
    pub fn with_regime(mut self, regime: crate::regime::RegimeId) -> Self {
        self.regime = regime;
        self
    }

    /// Departure time (entry into the first edge).
    pub fn departure(&self) -> Timestamp {
        self.entry_times[0]
    }

    /// Total travel time over the whole path, in seconds.
    pub fn total_travel_time_s(&self) -> f64 {
        self.travel_times.iter().sum()
    }
}

/// The product of a simulation run: the raw GPS trajectories plus the
/// ground-truth network alignment of each.
#[derive(Debug, Clone)]
pub struct SimulationOutput {
    /// Raw GPS trajectories (what a real deployment would collect).
    pub trajectories: Vec<Trajectory>,
    /// Ground-truth alignment of each trajectory (same order, same ids).
    pub ground_truth: Vec<MatchedTrajectory>,
}

/// The traffic simulator.
pub struct TrafficSimulator<'a> {
    net: &'a RoadNetwork,
    cfg: SimulationConfig,
    /// Static per-edge speed bias in `(0, 1]`, modelling edges that are
    /// systematically slower than their posted limit.
    edge_bias: Vec<f64>,
}

impl<'a> TrafficSimulator<'a> {
    /// Creates a simulator for the given network and configuration.
    pub fn new(net: &'a RoadNetwork, cfg: SimulationConfig) -> Result<Self, TrajError> {
        if cfg.trips == 0 {
            return Err(TrajError::InvalidConfig("trips must be positive"));
        }
        if cfg.days == 0 {
            return Err(TrajError::InvalidConfig("days must be positive"));
        }
        if !(cfg.sampling_interval_s.is_finite() && cfg.sampling_interval_s > 0.0) {
            return Err(TrajError::InvalidConfig(
                "sampling interval must be positive and finite",
            ));
        }
        if !(0.0..1.0).contains(&cfg.edge_correlation) {
            return Err(TrajError::InvalidConfig(
                "edge correlation must be in [0, 1)",
            ));
        }
        let (delay_lo, delay_hi) = cfg.incident_delay_s;
        if !(delay_lo.is_finite()
            && delay_hi.is_finite()
            && 0.0 <= delay_lo
            && delay_lo <= delay_hi)
        {
            return Err(TrajError::InvalidConfig(
                "incident delay range must be finite, non-negative and ordered",
            ));
        }
        if !(0.0..=1.0).contains(&cfg.incident_probability) {
            return Err(TrajError::InvalidConfig(
                "incident probability must be in [0, 1]",
            ));
        }
        if !(0.0..=1.0).contains(&cfg.hotspot_fraction) {
            return Err(TrajError::InvalidConfig(
                "hotspot fraction must be in [0, 1]",
            ));
        }
        for spread in [cfg.trip_factor_std, cfg.gps_noise_m] {
            if !(spread.is_finite() && spread >= 0.0) {
                return Err(TrajError::InvalidConfig(
                    "trip factor spread and GPS noise must be finite and non-negative",
                ));
            }
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xE1CE_BA5E);
        let edge_bias = (0..net.edge_count())
            .map(|_| rng.gen_range(0.82..1.0))
            .collect();
        Ok(TrafficSimulator {
            net,
            cfg,
            edge_bias,
        })
    }

    /// The configuration this simulator runs with.
    pub fn config(&self) -> &SimulationConfig {
        &self.cfg
    }

    /// Runs the simulation, producing GPS trajectories and their ground truth.
    pub fn run(&self) -> Result<SimulationOutput, TrajError> {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let hotspots = self.pick_hotspot_pairs(&mut rng);
        // The network is immutable and most trips travel between the same few
        // hotspot pairs, so their routes are searched once here instead of
        // once per trip. `fastest_path` draws nothing from `rng`, so the trip
        // stream is the one a search per trip produces, bit for bit. The
        // random trips' searches (one each, expanding each vertex once) are
        // still most of `run`'s time on a large network; traversal and GPS
        // emission are a small share.
        let hotspot_paths: Vec<Option<Path>> = hotspots
            .iter()
            .map(|&(from, to)| fastest_path(self.net, from, to))
            .collect();
        let mut trajectories = Vec::with_capacity(self.cfg.trips);
        let mut ground_truth = Vec::with_capacity(self.cfg.trips);

        // Trajectory ids are seed-prefixed so trips simulated under
        // different seeds get disjoint id ranges: the TrajectoryStore
        // deduplicates by id (first occurrence wins), and purely sequential
        // ids would make a merge of two independently simulated datasets
        // silently discard the second one. Within one run ids stay
        // sequential from the prefix (trips are bounded far below 2^40).
        let mut id = self.cfg.seed.wrapping_shl(40);
        let mut attempts = 0usize;
        let max_attempts = self.cfg.trips * 20;
        while trajectories.len() < self.cfg.trips && attempts < max_attempts {
            attempts += 1;
            let searched;
            let path = match self.pick_trip(hotspots.len(), &mut rng) {
                Trip::Hotspot(pair) => hotspot_paths[pair].as_ref(),
                Trip::Random(from, to) => {
                    searched = fastest_path(self.net, from, to);
                    searched.as_ref()
                }
            };
            let Some(path) = path.filter(|p| p.cardinality() >= 2) else {
                continue;
            };
            let departure = self.pick_departure(&mut rng);
            let matched = self.traverse(id, path, departure, &mut rng);
            let trajectory = self.emit_gps(&matched, &mut rng)?;
            trajectories.push(trajectory);
            ground_truth.push(matched);
            id += 1;
        }
        if trajectories.is_empty() {
            return Err(TrajError::NoRoute);
        }
        Ok(SimulationOutput {
            trajectories,
            ground_truth,
        })
    }

    /// Samples the per-edge travel times of one trip along `path`, starting at
    /// `departure`. This is where time variation, inter-edge dependence and
    /// multi-modality are injected.
    pub fn traverse(
        &self,
        id: u64,
        path: &Path,
        departure: Timestamp,
        rng: &mut StdRng,
    ) -> MatchedTrajectory {
        let n = path.cardinality();
        let mut entry_times = Vec::with_capacity(n);
        let mut travel_times = Vec::with_capacity(n);

        // Per-trip (driver/vehicle) factor, shared by every edge: the main
        // source of positive correlation between the edges of one traversal.
        let trip_factor = (1.0 + sample_normal(rng, 0.0, self.cfg.trip_factor_std)).clamp(0.7, 1.6);
        // Latent local congestion factor, AR(1) along the path.
        let mut latent = 1.0 + sample_normal(rng, 0.0, 0.15);
        let rho = self.cfg.edge_correlation;

        let mut now = departure;
        for &eid in path.edges() {
            let edge = self.net.edge(eid).expect("path edges exist in the network");
            let tod = now.time_of_day();
            let base = self.cfg.profile.expected_time_s(
                edge.length_m,
                edge.speed_limit_kmh,
                edge.category,
                tod,
            ) / self.edge_bias[eid.index()];

            latent = rho * latent + (1.0 - rho) * (1.0 + sample_normal(rng, 0.0, 0.15));
            let latent_clamped = latent.clamp(0.6, 1.8);

            let mut time_s = base * trip_factor * latent_clamped;
            // Signal / incident delays produce the second mode of Figure 1(b).
            // Their probability scales with the latent congestion factor, so
            // that stop-and-go conditions cluster along a trip — another source
            // of the inter-edge dependence the hybrid graph captures.
            let incident_p =
                (self.cfg.incident_probability * latent_clamped * latent_clamped).min(0.9);
            if rng.gen::<f64>() < incident_p {
                time_s += rng.gen_range(self.cfg.incident_delay_s.0..=self.cfg.incident_delay_s.1)
                    * latent_clamped;
            }
            // Never faster than 120% of the speed limit.
            let min_time = edge.length_m / (edge.speed_limit_kmh / 3.6 * 1.2);
            let time_s = time_s.max(min_time);

            entry_times.push(now);
            travel_times.push(time_s);
            now = now.plus(time_s);
        }

        MatchedTrajectory {
            id,
            path: path.clone(),
            entry_times,
            travel_times,
            regime: crate::regime::RegimeId::ALL_TRAFFIC,
        }
    }

    /// Emits noisy GPS records along a traversal at the configured sampling rate.
    pub fn emit_gps(
        &self,
        matched: &MatchedTrajectory,
        rng: &mut StdRng,
    ) -> Result<Trajectory, TrajError> {
        let mut records = Vec::new();
        let start = matched.departure();
        let total = matched.total_travel_time_s();
        let interval = self.cfg.sampling_interval_s;
        let noise = self.cfg.gps_noise_m;

        let mut t = 0.0;
        while t <= total {
            let pos = self.position_at(matched, t);
            records.push(GpsRecord {
                location: jitter(pos, noise, rng),
                time: start.plus(t),
            });
            t += interval;
        }
        // Always include the arrival instant so the last edge's exit is observed.
        if records.len() < 2 || (total - (t - interval)) > 1e-6 {
            let pos = self.position_at(matched, total);
            records.push(GpsRecord {
                location: jitter(pos, noise, rng),
                time: start.plus(total.max(interval * 0.5)),
            });
        }
        Trajectory::new(matched.id, records)
    }

    /// The planar position of the vehicle `elapsed` seconds after departure.
    fn position_at(&self, matched: &MatchedTrajectory, elapsed: f64) -> Point {
        let mut remaining = elapsed;
        for (i, &eid) in matched.path.edges().iter().enumerate() {
            let dt = matched.travel_times[i];
            let edge = self.net.edge(eid).expect("edge exists");
            if remaining <= dt || i + 1 == matched.path.cardinality() {
                let frac = if dt > 0.0 {
                    (remaining / dt).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                return edge.geometry.point_at(frac);
            }
            remaining -= dt;
        }
        let last = self
            .net
            .edge(matched.path.last_edge())
            .expect("edge exists");
        last.geometry.point_at(1.0)
    }

    fn pick_hotspot_pairs(&self, rng: &mut StdRng) -> Vec<(VertexId, VertexId)> {
        let n = self.net.vertex_count() as u32;
        let mut pairs = Vec::with_capacity(self.cfg.hotspot_pairs);
        let mut guard = 0;
        while pairs.len() < self.cfg.hotspot_pairs && guard < self.cfg.hotspot_pairs * 50 {
            guard += 1;
            let a = VertexId(rng.gen_range(0..n));
            let b = VertexId(rng.gen_range(0..n));
            if a == b {
                continue;
            }
            let da = self.net.vertex(a).expect("vertex").location;
            let db = self.net.vertex(b).expect("vertex").location;
            // Popular commutes are medium-to-long trips.
            if da.distance(&db) < 800.0 {
                continue;
            }
            pairs.push((a, b));
        }
        pairs
    }

    /// Draws the next trip's origin–destination choice: one of the
    /// `hotspots` popular pairs (by index) or a uniformly random pair.
    fn pick_trip(&self, hotspots: usize, rng: &mut StdRng) -> Trip {
        let n = self.net.vertex_count() as u32;
        if hotspots > 0 && rng.gen::<f64>() < self.cfg.hotspot_fraction {
            Trip::Hotspot(rng.gen_range(0..hotspots))
        } else {
            Trip::Random(VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)))
        }
    }

    fn pick_departure(&self, rng: &mut StdRng) -> Timestamp {
        let day = rng.gen_range(0..self.cfg.days);
        let r: f64 = rng.gen();
        let tod_s = if r < 0.45 {
            // Morning commute around 08:00.
            sample_normal(rng, 8.0 * 3600.0, 2_400.0)
        } else if r < 0.75 {
            // Evening commute around 17:00.
            sample_normal(rng, 17.0 * 3600.0, 2_700.0)
        } else {
            // Uniform across the day.
            rng.gen_range(5.0 * 3600.0..23.0 * 3600.0)
        };
        let tod_s = tod_s.clamp(0.0, 86_399.0);
        Timestamp::new(day, TimeOfDay(tod_s))
    }
}

/// Where one simulated trip travels.
enum Trip {
    /// Index into the run's hotspot pairs (and their precomputed routes).
    Hotspot(usize),
    /// A uniformly random origin–destination pair, searched on demand.
    Random(VertexId, VertexId),
}

/// Box–Muller sample from `N(mean, std²)`.
fn sample_normal(rng: &mut StdRng, mean: f64, std: f64) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen();
    mean + std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn jitter(p: Point, noise: f64, rng: &mut StdRng) -> Point {
    Point::new(
        p.x + sample_normal(rng, 0.0, noise),
        p.y + sample_normal(rng, 0.0, noise),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_roadnet::GeneratorConfig;

    fn small_sim_output() -> (RoadNetwork, SimulationOutput) {
        let net = GeneratorConfig::tiny(3).generate();
        let cfg = SimulationConfig {
            trips: 60,
            days: 5,
            ..SimulationConfig::default()
        };
        let sim = TrafficSimulator::new(&net, cfg).unwrap();
        let out = sim.run().unwrap();
        (net, out)
    }

    #[test]
    fn config_validation() {
        let net = GeneratorConfig::tiny(1).generate();
        type Edit = fn(&mut SimulationConfig);
        let rejected: [(&str, Edit); 19] = [
            ("no trips", |c| c.trips = 0),
            ("no days", |c| c.days = 0),
            ("zero sampling", |c| c.sampling_interval_s = 0.0),
            ("NaN sampling", |c| c.sampling_interval_s = f64::NAN),
            ("∞ sampling", |c| c.sampling_interval_s = f64::INFINITY),
            ("correlation > 1", |c| c.edge_correlation = 1.2),
            ("reversed delay", |c| c.incident_delay_s = (75.0, 15.0)),
            ("NaN delay", |c| c.incident_delay_s = (f64::NAN, 15.0)),
            ("∞ delay", |c| c.incident_delay_s = (15.0, f64::INFINITY)),
            ("negative delay", |c| c.incident_delay_s = (-5.0, 15.0)),
            ("incident p < 0", |c| c.incident_probability = -0.1),
            ("incident p > 1", |c| c.incident_probability = 1.5),
            ("NaN incident p", |c| c.incident_probability = f64::NAN),
            ("hotspot share > 1", |c| c.hotspot_fraction = 2.0),
            ("hotspot share < 0", |c| c.hotspot_fraction = -0.5),
            ("NaN trip factor", |c| c.trip_factor_std = f64::NAN),
            ("negative trip factor", |c| c.trip_factor_std = -0.1),
            ("negative GPS noise", |c| c.gps_noise_m = -1.0),
            ("∞ GPS noise", |c| c.gps_noise_m = f64::INFINITY),
        ];
        for (case, edit) in rejected {
            let mut cfg = SimulationConfig::default();
            edit(&mut cfg);
            assert!(
                matches!(
                    TrafficSimulator::new(&net, cfg),
                    Err(TrajError::InvalidConfig(_))
                ),
                "{case}"
            );
        }

        // The edges of every range are accepted, and a degenerate delay
        // range runs.
        let edges = SimulationConfig {
            trips: 50,
            incident_probability: 1.0,
            incident_delay_s: (30.0, 30.0),
            hotspot_fraction: 0.0,
            trip_factor_std: 0.0,
            gps_noise_m: 0.0,
            ..Default::default()
        };
        assert!(TrafficSimulator::new(&net, edges).unwrap().run().is_ok());
        // Every preset, and the acceptance benchmark's fixture (70 % hotspot
        // trips, hourly GPS samples).
        let presets = [
            crate::DatasetPreset::aalborg_like(1).simulation,
            crate::DatasetPreset::beijing_like(1).simulation,
            crate::DatasetPreset::tiny(1).simulation,
            SimulationConfig {
                hotspot_fraction: 0.7,
                sampling_interval_s: 3_600.0,
                ..Default::default()
            },
        ];
        for cfg in presets {
            assert!(TrafficSimulator::new(&net, cfg).is_ok());
        }
    }

    #[test]
    fn run_produces_requested_trip_count() {
        let (_, out) = small_sim_output();
        assert_eq!(out.trajectories.len(), 60);
        assert_eq!(out.ground_truth.len(), 60);
        for (t, g) in out.trajectories.iter().zip(&out.ground_truth) {
            assert_eq!(t.id, g.id);
        }
    }

    #[test]
    fn ground_truth_paths_are_valid_and_times_positive() {
        let (net, out) = small_sim_output();
        for g in &out.ground_truth {
            // Re-validating the path against the network must succeed.
            assert!(Path::new(&net, g.path.edges().to_vec()).is_ok());
            assert_eq!(g.travel_times.len(), g.path.cardinality());
            assert!(g.travel_times.iter().all(|&t| t > 0.0));
            // Entry times strictly increase along the path.
            for w in g.entry_times.windows(2) {
                assert!(w[1].seconds() > w[0].seconds());
            }
        }
    }

    #[test]
    fn gps_records_cover_the_trip_duration() {
        let (_, out) = small_sim_output();
        for (t, g) in out.trajectories.iter().zip(&out.ground_truth) {
            assert!(t.len() >= 2);
            let gps_duration = t.duration_s();
            let true_duration = g.total_travel_time_s();
            assert!(
                (gps_duration - true_duration).abs() < self_tolerance(true_duration),
                "gps {gps_duration} vs truth {true_duration}"
            );
        }
    }

    fn self_tolerance(duration: f64) -> f64 {
        (duration * 0.05).max(5.0)
    }

    #[test]
    fn same_seed_reproduces_identical_output() {
        let net = GeneratorConfig::tiny(4).generate();
        let cfg = SimulationConfig {
            trips: 20,
            days: 2,
            ..Default::default()
        };
        let a = TrafficSimulator::new(&net, cfg.clone())
            .unwrap()
            .run()
            .unwrap();
        let b = TrafficSimulator::new(&net, cfg).unwrap().run().unwrap();
        assert_eq!(a.ground_truth.len(), b.ground_truth.len());
        for (x, y) in a.ground_truth.iter().zip(&b.ground_truth) {
            assert_eq!(x.path, y.path);
            assert_eq!(x.travel_times, y.travel_times);
        }
    }

    #[test]
    fn peak_departures_are_slower_than_off_peak_for_the_same_path() {
        let net = GeneratorConfig::tiny(5).generate();
        let cfg = SimulationConfig {
            trips: 1,
            incident_probability: 0.0,
            ..Default::default()
        };
        let sim = TrafficSimulator::new(&net, cfg).unwrap();
        let path = fastest_path(&net, VertexId(0), VertexId(24)).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut peak_total = 0.0;
        let mut night_total = 0.0;
        for _ in 0..40 {
            peak_total += sim
                .traverse(0, &path, Timestamp::from_day_hms(0, 8, 0, 0), &mut rng)
                .total_travel_time_s();
            night_total += sim
                .traverse(0, &path, Timestamp::from_day_hms(0, 3, 0, 0), &mut rng)
                .total_travel_time_s();
        }
        assert!(
            peak_total > night_total * 1.2,
            "peak {peak_total} should clearly exceed night {night_total}"
        );
    }

    #[test]
    fn adjacent_edge_costs_are_positively_correlated() {
        // The dependence the hybrid graph exploits: over many traversals of the
        // same two-edge stretch at the same time of day, the two edge costs
        // must be positively correlated (violating the LB independence assumption).
        let net = GeneratorConfig::tiny(6).generate();
        let sim = TrafficSimulator::new(&net, SimulationConfig::default()).unwrap();
        let path = fastest_path(&net, VertexId(0), VertexId(12)).unwrap();
        assert!(path.cardinality() >= 2);
        let mut rng = StdRng::seed_from_u64(77);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..800 {
            let m = sim.traverse(0, &path, Timestamp::from_day_hms(0, 8, 0, 0), &mut rng);
            xs.push(m.travel_times[0]);
            ys.push(m.travel_times[1]);
        }
        let corr = pearson(&xs, &ys);
        assert!(corr > 0.1, "expected positive correlation, got {corr}");
    }

    fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
        cov / (vx.sqrt() * vy.sqrt()).max(1e-12)
    }

    #[test]
    fn matched_trajectory_validation() {
        let net = GeneratorConfig::tiny(1).generate();
        let path = fastest_path(&net, VertexId(0), VertexId(2)).unwrap();
        let err = MatchedTrajectory::new(
            0,
            path.clone(),
            vec![Timestamp(0.0)],
            vec![10.0; path.cardinality()],
        );
        assert!(err.is_err());
        let ok = MatchedTrajectory::new(
            0,
            path.clone(),
            vec![Timestamp(0.0); path.cardinality()],
            vec![10.0; path.cardinality()],
        );
        assert!(ok.is_ok());
        assert!(
            (ok.unwrap().total_travel_time_s() - 10.0 * path.cardinality() as f64).abs() < 1e-9
        );
    }
    /// FNV-1a over every bit of a run's ground truth — trajectory ids, edge
    /// ids, `to_bits` of every entry time, travel time and speed (the edge's
    /// length over its travel time) — with the trip count.
    fn ground_truth_digest(net: &RoadNetwork, cfg: SimulationConfig) -> (u64, usize) {
        let out = TrafficSimulator::new(net, cfg).unwrap().run().unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for g in &out.ground_truth {
            eat(g.id);
            eat(g.path.cardinality() as u64);
            for (i, e) in g.path.edges().iter().enumerate() {
                eat(u64::from(e.0));
                eat(g.entry_times[i].0.to_bits());
                eat(g.travel_times[i].to_bits());
                let length = net.edge(*e).expect("ground-truth edges exist").length_m;
                eat((length / g.travel_times[i]).to_bits());
            }
        }
        (h, out.ground_truth.len())
    }

    /// Digests captured at the parent of PR 20 (one edge-Dijkstra per trip):
    /// searching the hotspot routes once must not move one bit of any trip.
    #[test]
    fn ground_truth_matches_the_pre_pr20_golden_digest() {
        let tiny = crate::DatasetPreset::tiny(3);
        assert_eq!(
            ground_truth_digest(&tiny.build_network(), tiny.simulation),
            (0xf943_9738_a104_4181, 200),
            "tiny(3)"
        );
        let grid = GeneratorConfig {
            rows: 12,
            cols: 12,
            ..GeneratorConfig::tiny(12)
        }
        .generate();
        let cfg = SimulationConfig {
            trips: 2_000,
            hotspot_pairs: 8,
            seed: 20,
            ..SimulationConfig::default()
        };
        assert_eq!(
            ground_truth_digest(&grid, cfg),
            (0xdaef_30b7_860f_ab02, 2_000),
            "12x12 grid, 2 000 trips, 8 hotspot pairs"
        );
    }
}
