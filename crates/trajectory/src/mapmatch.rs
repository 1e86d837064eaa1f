//! HMM map matching.
//!
//! The paper map-matches its GPS collections with the hidden-Markov-model
//! approach of Newson & Krumm \[16\]. This module implements that family of
//! matcher: for each GPS record a set of candidate edges is collected by
//! proximity; emission probabilities decay with the snapping distance;
//! transition probabilities prefer staying on the same edge or moving to a
//! nearby successor; Viterbi decoding selects the most likely edge sequence,
//! which is then compressed into the trajectory's path and annotated with
//! per-edge entry times and travel times.

use crate::error::TrajError;
use crate::gps::Trajectory;
use crate::simulator::MatchedTrajectory;
use pathcost_roadnet::{EdgeId, Path, RoadNetwork};
use serde::{Deserialize, Serialize};

/// Configuration of the HMM map matcher.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapMatchConfig {
    /// Radius (metres) within which edges are considered candidates for a record.
    pub candidate_radius_m: f64,
    /// Standard deviation (metres) of the GPS error model used for emissions.
    pub gps_sigma_m: f64,
    /// Log-probability penalty for transitioning to a successor edge
    /// (staying on the same edge costs nothing).
    pub hop_penalty: f64,
    /// Maximum number of successor hops considered between consecutive records.
    pub max_hops: usize,
}

impl Default for MapMatchConfig {
    fn default() -> Self {
        MapMatchConfig {
            candidate_radius_m: 60.0,
            gps_sigma_m: 8.0,
            hop_penalty: 1.2,
            max_hops: 3,
        }
    }
}

/// Hidden-Markov-model map matcher.
pub struct HmmMapMatcher<'a> {
    net: &'a RoadNetwork,
    cfg: MapMatchConfig,
}

impl<'a> HmmMapMatcher<'a> {
    /// Creates a matcher for the given network, refusing a config under
    /// which a score could be NaN — a GPS sigma that is not positive with a
    /// normal square (a record on its edge would score `0 / 0`), a hop
    /// penalty or candidate radius that is not finite — or under which
    /// decoding has nothing to go on: a hop penalty that is not positive, or
    /// a negative radius. At a zero penalty every candidate within
    /// `max_hops` of the previous state scores alike, the reverse twin of a
    /// two-way road included (it lies on the same line, at the same
    /// distance), so Viterbi picks among equally likely sequences that turn
    /// back and forth and compress into no valid path: on noise-free GPS
    /// over `DatasetPreset::tiny(7)` it matched 1 trip in 200, against 200
    /// at any positive penalty tried.
    pub fn new(net: &'a RoadNetwork, cfg: MapMatchConfig) -> Result<Self, TrajError> {
        if !(cfg.gps_sigma_m > 0.0 && (cfg.gps_sigma_m * cfg.gps_sigma_m).is_normal()) {
            return Err(TrajError::InvalidConfig(
                "GPS sigma must be positive with a normal square",
            ));
        }
        if !(cfg.hop_penalty.is_finite() && cfg.hop_penalty > 0.0) {
            return Err(TrajError::InvalidConfig(
                "hop penalty must be finite and positive",
            ));
        }
        if !(cfg.candidate_radius_m.is_finite() && cfg.candidate_radius_m >= 0.0) {
            return Err(TrajError::InvalidConfig(
                "candidate radius must be finite and non-negative",
            ));
        }
        Ok(HmmMapMatcher { net, cfg })
    }

    /// Map-matches one trajectory, returning its path and per-edge timing.
    pub fn match_trajectory(&self, traj: &Trajectory) -> Result<MatchedTrajectory, TrajError> {
        let records = traj.records();
        // Candidate edges per record.
        let mut candidates: Vec<Vec<(EdgeId, f64)>> = Vec::with_capacity(records.len());
        for rec in records {
            let cands = self.candidates_near(&rec.location);
            if cands.is_empty() {
                return Err(TrajError::NoMatch);
            }
            candidates.push(cands);
        }

        // Viterbi over candidate edges.
        let sigma2 = self.cfg.gps_sigma_m * self.cfg.gps_sigma_m;
        let emission = |dist: f64| -> f64 { -0.5 * dist * dist / sigma2 };

        let mut scores: Vec<f64> = candidates[0].iter().map(|&(_, d)| emission(d)).collect();
        let mut backptr: Vec<Vec<usize>> = Vec::with_capacity(records.len());
        backptr.push(vec![0; candidates[0].len()]);

        for t in 1..records.len() {
            let mut new_scores = vec![f64::NEG_INFINITY; candidates[t].len()];
            let mut new_back = vec![0usize; candidates[t].len()];
            for (j, &(edge_j, dist_j)) in candidates[t].iter().enumerate() {
                for (i, &(edge_i, _)) in candidates[t - 1].iter().enumerate() {
                    if scores[i] == f64::NEG_INFINITY {
                        continue;
                    }
                    let Some(hops) = self.hop_distance(edge_i, edge_j) else {
                        continue;
                    };
                    let score = scores[i] + emission(dist_j) - self.cfg.hop_penalty * hops as f64;
                    if score > new_scores[j] {
                        new_scores[j] = score;
                        new_back[j] = i;
                    }
                }
            }
            // If every transition was impossible, restart from emissions alone
            // (robustness against outlier fixes) rather than failing the trip.
            if new_scores.iter().all(|&s| s == f64::NEG_INFINITY) {
                for (j, &(_, dist_j)) in candidates[t].iter().enumerate() {
                    new_scores[j] = emission(dist_j);
                    new_back[j] = 0;
                }
            }
            scores = new_scores;
            backptr.push(new_back);
        }

        // Backtrack the best state sequence.
        let mut best_idx = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
            .map(|(i, _)| i)
            .ok_or(TrajError::NoMatch)?;
        let mut state_edges = vec![EdgeId(0); records.len()];
        for t in (0..records.len()).rev() {
            state_edges[t] = candidates[t][best_idx].0;
            best_idx = backptr[t][best_idx];
        }

        self.states_to_matched(traj, &state_edges)
    }

    /// Map-matches a batch of trajectories, silently dropping the ones that
    /// cannot be matched and returning the successes.
    pub fn match_all(&self, trajs: &[Trajectory]) -> Vec<MatchedTrajectory> {
        trajs
            .iter()
            .filter_map(|t| self.match_trajectory(t).ok())
            .collect()
    }

    /// Candidate edges within the configured radius of `p`, with distances.
    fn candidates_near(&self, p: &pathcost_roadnet::Point) -> Vec<(EdgeId, f64)> {
        let mut cands: Vec<(EdgeId, f64)> = self
            .net
            .edges()
            .iter()
            .filter_map(|e| {
                let d = e.geometry.distance_to(p);
                (d <= self.cfg.candidate_radius_m).then_some((e.id, d))
            })
            .collect();
        cands.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
        cands.truncate(8);
        cands
    }

    /// Number of successor hops from `from` to `to` (0 when equal), or `None`
    /// when `to` is not reachable within the configured hop budget.
    fn hop_distance(&self, from: EdgeId, to: EdgeId) -> Option<usize> {
        if from == to {
            return Some(0);
        }
        let mut frontier = vec![from];
        for hop in 1..=self.cfg.max_hops {
            let mut next = Vec::new();
            for &e in &frontier {
                for &succ in self.net.successors(e) {
                    if succ == to {
                        return Some(hop);
                    }
                    next.push(succ);
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        None
    }

    /// Compresses the per-record edge states into a path with per-edge timing.
    fn states_to_matched(
        &self,
        traj: &Trajectory,
        states: &[EdgeId],
    ) -> Result<MatchedTrajectory, TrajError> {
        let records = traj.records();
        // Compress consecutive duplicates, remembering the first record index
        // observed on each edge.
        let mut edges: Vec<EdgeId> = Vec::new();
        let mut first_record: Vec<usize> = Vec::new();
        for (i, &e) in states.iter().enumerate() {
            if edges.last() != Some(&e) {
                // Drop immediate backtracking (A, B, A) which GPS noise can cause.
                if edges.len() >= 2 && edges[edges.len() - 2] == e {
                    continue;
                }
                edges.push(e);
                first_record.push(i);
            }
        }
        // Bridge small gaps where consecutive matched edges are not adjacent by
        // inserting the intermediate successors when a unique short bridge exists.
        let mut bridged: Vec<EdgeId> = Vec::with_capacity(edges.len());
        let mut bridged_first: Vec<usize> = Vec::with_capacity(edges.len());
        for (idx, &e) in edges.iter().enumerate() {
            if let Some(&prev) = bridged.last() {
                if !self.net.edges_adjacent(prev, e) {
                    if let Some(bridge) = self.bridge(prev, e) {
                        for b in bridge {
                            bridged.push(b);
                            bridged_first.push(first_record[idx]);
                        }
                    }
                }
            }
            bridged.push(e);
            bridged_first.push(first_record[idx]);
        }

        let path = Path::new(self.net, bridged.clone()).map_err(|_| TrajError::NoMatch)?;

        // Entry time per edge: time of the first record matched to it (bridged
        // edges inherit the following edge's first record time); travel time:
        // difference to the next edge's entry (last edge runs to the last record).
        let n = path.cardinality();
        let mut entry_times = Vec::with_capacity(n);
        for i in 0..n {
            entry_times.push(records[bridged_first[i]].time);
        }
        let mut travel_times = Vec::with_capacity(n);
        for i in 0..n {
            let end = if i + 1 < n {
                entry_times[i + 1]
            } else {
                records[records.len() - 1].time
            };
            travel_times.push((end.minus(entry_times[i])).max(0.5));
        }
        MatchedTrajectory::new(traj.id, path, entry_times, travel_times)
    }

    /// A short sequence of edges connecting `from` to `to` exclusively
    /// (excluding both endpoints), when one exists within the hop budget.
    fn bridge(&self, from: EdgeId, to: EdgeId) -> Option<Vec<EdgeId>> {
        // Breadth-first search over successors up to max_hops, tracking parents.
        let mut frontier = vec![from];
        let mut parent: std::collections::HashMap<EdgeId, EdgeId> =
            std::collections::HashMap::new();
        for _ in 0..self.cfg.max_hops {
            let mut next = Vec::new();
            for &e in &frontier {
                for &succ in self.net.successors(e) {
                    if parent.contains_key(&succ) || succ == from {
                        continue;
                    }
                    parent.insert(succ, e);
                    if succ == to {
                        // Reconstruct the chain strictly between from and to.
                        let mut chain = Vec::new();
                        let mut cur = *parent.get(&to).expect("just inserted");
                        while cur != from {
                            chain.push(cur);
                            cur = *parent.get(&cur).expect("parent chain");
                        }
                        chain.reverse();
                        return Some(chain);
                    }
                    next.push(succ);
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{SimulationConfig, TrafficSimulator};
    use pathcost_roadnet::GeneratorConfig;

    #[test]
    fn recovers_simulated_paths_with_high_edge_accuracy() {
        let net = GeneratorConfig::tiny(8).generate();
        let cfg = SimulationConfig {
            trips: 30,
            days: 3,
            gps_noise_m: 3.0,
            ..SimulationConfig::default()
        };
        let sim = TrafficSimulator::new(&net, cfg).unwrap();
        let out = sim.run().unwrap();
        let matcher = HmmMapMatcher::new(&net, MapMatchConfig::default()).unwrap();

        let mut correct = 0usize;
        let mut total = 0usize;
        for (traj, truth) in out.trajectories.iter().zip(&out.ground_truth) {
            let Ok(matched) = matcher.match_trajectory(traj) else {
                continue;
            };
            total += truth.path.cardinality();
            correct += truth
                .path
                .edges()
                .iter()
                .filter(|e| matched.path.contains_edge(**e))
                .count();
        }
        assert!(total > 0);
        let accuracy = correct as f64 / total as f64;
        assert!(
            accuracy > 0.8,
            "expected >80% of true edges recovered, got {accuracy:.2}"
        );
    }

    #[test]
    fn matched_travel_times_are_close_to_ground_truth_totals() {
        let net = GeneratorConfig::tiny(9).generate();
        let cfg = SimulationConfig {
            trips: 20,
            days: 2,
            gps_noise_m: 3.0,
            ..SimulationConfig::default()
        };
        let sim = TrafficSimulator::new(&net, cfg).unwrap();
        let out = sim.run().unwrap();
        let matcher = HmmMapMatcher::new(&net, MapMatchConfig::default()).unwrap();
        for (traj, truth) in out.trajectories.iter().zip(&out.ground_truth) {
            if let Ok(matched) = matcher.match_trajectory(traj) {
                let rel = (matched.total_travel_time_s() - truth.total_travel_time_s()).abs()
                    / truth.total_travel_time_s();
                assert!(rel < 0.2, "total time off by {rel:.2}");
            }
        }
    }

    #[test]
    fn far_away_records_fail_to_match() {
        let net = GeneratorConfig::tiny(1).generate();
        let matcher = HmmMapMatcher::new(&net, MapMatchConfig::default()).unwrap();
        let traj = Trajectory::new(
            1,
            vec![
                crate::gps::GpsRecord {
                    location: pathcost_roadnet::Point::new(1.0e6, 1.0e6),
                    time: crate::time::Timestamp(0.0),
                },
                crate::gps::GpsRecord {
                    location: pathcost_roadnet::Point::new(1.0e6, 1.0e6 + 10.0),
                    time: crate::time::Timestamp(10.0),
                },
            ],
        )
        .unwrap();
        assert_eq!(
            matcher.match_trajectory(&traj).unwrap_err(),
            TrajError::NoMatch
        );
    }

    #[test]
    fn match_all_drops_unmatchable_trajectories() {
        let net = GeneratorConfig::tiny(2).generate();
        let cfg = SimulationConfig {
            trips: 5,
            days: 1,
            ..SimulationConfig::default()
        };
        let sim = TrafficSimulator::new(&net, cfg).unwrap();
        let mut out = sim.run().unwrap();
        // Add a garbage trajectory far away from the network.
        out.trajectories.push(
            Trajectory::new(
                999,
                vec![
                    crate::gps::GpsRecord {
                        location: pathcost_roadnet::Point::new(9.0e6, 9.0e6),
                        time: crate::time::Timestamp(0.0),
                    },
                    crate::gps::GpsRecord {
                        location: pathcost_roadnet::Point::new(9.0e6, 9.0e6 + 5.0),
                        time: crate::time::Timestamp(5.0),
                    },
                ],
            )
            .unwrap(),
        );
        let matcher = HmmMapMatcher::new(&net, MapMatchConfig::default()).unwrap();
        let matched = matcher.match_all(&out.trajectories);
        assert!(matched.len() >= 4);
        assert!(matched.len() < out.trajectories.len());
    }

    #[test]
    fn configs_that_could_score_nan_are_refused() {
        let preset = crate::DatasetPreset::tiny(7);
        let net = preset.build_network();
        let sigma = |gps_sigma_m| MapMatchConfig {
            gps_sigma_m,
            ..MapMatchConfig::default()
        };
        let hop = |hop_penalty| MapMatchConfig {
            hop_penalty,
            ..MapMatchConfig::default()
        };
        let radius = |candidate_radius_m| MapMatchConfig {
            candidate_radius_m,
            ..MapMatchConfig::default()
        };
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let bad = [
            sigma(0.0),
            sigma(-8.0),
            sigma(1e-200), // its square underflows to 0
            sigma(nan),
            sigma(inf),
            hop(-1.0),
            hop(0.0),
            hop(nan),
            hop(inf),
            radius(-1.0),
            radius(nan),
            radius(inf),
        ];
        for cfg in bad {
            assert!(
                matches!(
                    HmmMapMatcher::new(&net, cfg.clone()),
                    Err(TrajError::InvalidConfig(_))
                ),
                "{cfg:?} accepted"
            );
        }
        // Zero is a valid candidate radius.
        assert!(HmmMapMatcher::new(&net, radius(0.0)).is_ok());
        // Noise-free GPS puts records on their edges (distance 0), which a
        // zero sigma scored as NaN; a valid sigma matches every trip.
        let mut noise_free = preset.simulation;
        noise_free.gps_noise_m = 0.0;
        let out = TrafficSimulator::new(&net, noise_free)
            .unwrap()
            .run()
            .unwrap();
        let matcher = HmmMapMatcher::new(&net, MapMatchConfig::default()).unwrap();
        for traj in &out.trajectories {
            matcher.match_trajectory(traj).unwrap();
        }
    }

    #[test]
    fn any_positive_hop_penalty_matches_noise_free_trips_to_their_truth() {
        let preset = crate::DatasetPreset::tiny(7);
        let net = preset.build_network();
        let mut noise_free = preset.simulation;
        noise_free.gps_noise_m = 0.0;
        let out = TrafficSimulator::new(&net, noise_free)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(out.trajectories.len(), 200);
        for hop_penalty in [1e-9, MapMatchConfig::default().hop_penalty] {
            let cfg = MapMatchConfig {
                hop_penalty,
                ..MapMatchConfig::default()
            };
            let matcher = HmmMapMatcher::new(&net, cfg).unwrap();
            for (traj, truth) in out.trajectories.iter().zip(&out.ground_truth) {
                let matched = matcher.match_trajectory(traj).unwrap();
                assert_eq!(
                    matched.path, truth.path,
                    "trip {} at {hop_penalty}",
                    traj.id
                );
            }
        }
    }
}
