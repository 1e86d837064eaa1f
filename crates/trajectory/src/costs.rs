//! Travel-cost extraction from matched trajectories.
//!
//! The paper considers two time-varying, uncertain travel costs: travel time
//! and greenhouse-gas (GHG) emissions. Travel time on a path is the difference
//! between the last and first GPS record on the path; emissions are derived
//! from the speed profile and road grades using a vehicular environmental
//! impact model. This module provides both, operating on
//! [`MatchedTrajectory`] occurrences. A row stores no speeds: an edge's
//! average speed is its length over its travel time, derived here, the one
//! place the emission model reads it.

use crate::simulator::MatchedTrajectory;
use pathcost_roadnet::{Path, RoadNetwork};
use serde::{Deserialize, Serialize};

/// Which travel cost to extract from a trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CostKind {
    /// Travel time in seconds.
    TravelTime,
    /// Greenhouse-gas emissions in grams of CO₂-equivalent.
    Emissions,
}

/// A simplified VT-micro-style emission model: grams of CO₂-equivalent for
/// traversing `length_m` metres at an average speed of `speed_mps` on a road
/// with the given grade.
///
/// The shape follows the well-known U-curve of emission-per-kilometre versus
/// speed (high at crawling speeds, minimal around 60–70 km/h, rising again at
/// motorway speeds) plus a grade surcharge; the absolute calibration is
/// unimportant for the paper's experiments, which only need a second uncertain
/// cost that varies with the speed profile.
pub fn emission_grams(speed_mps: f64, length_m: f64, grade: f64) -> f64 {
    let speed_kmh = (speed_mps * 3.6).max(3.0);
    let km = length_m / 1000.0;
    // Grams per km: idle-dominated term + aerodynamic term, minimum near 65 km/h.
    let per_km = 1_300.0 / speed_kmh + 0.018 * speed_kmh * speed_kmh + 60.0;
    let grade_surcharge = 1.0 + (grade.max(-0.06) * 8.0);
    (per_km * km * grade_surcharge).max(0.0)
}

/// Extracts the per-edge costs of one occurrence of `path` inside a matched
/// trajectory, starting at edge offset `offset`.
///
/// Returns `None` if the path does not fit at that offset.
pub fn per_edge_costs(
    matched: &MatchedTrajectory,
    net: &RoadNetwork,
    path: &Path,
    offset: usize,
    kind: CostKind,
) -> Option<Vec<f64>> {
    let mut costs = Vec::with_capacity(path.cardinality());
    per_edge_costs_into(matched, net, path, offset, kind, &mut costs).then_some(costs)
}

/// [`per_edge_costs`] appended to `out`, one cost per edge of `path`, with
/// no allocation of its own. Returns `false`, and leaves `out` as it was,
/// where [`per_edge_costs`] returns `None`.
pub fn per_edge_costs_into(
    matched: &MatchedTrajectory,
    net: &RoadNetwork,
    path: &Path,
    offset: usize,
    kind: CostKind,
    out: &mut Vec<f64>,
) -> bool {
    let k = path.cardinality();
    if offset + k > matched.path.cardinality() {
        return false;
    }
    if &matched.path.edges()[offset..offset + k] != path.edges() {
        return false;
    }
    let start = out.len();
    for idx in offset..offset + k {
        let cost = match kind {
            CostKind::TravelTime => matched.travel_times[idx],
            CostKind::Emissions => {
                let Ok(edge) = net.edge(matched.path.edges()[idx]) else {
                    out.truncate(start);
                    return false;
                };
                let speed_mps = edge.length_m / matched.travel_times[idx];
                emission_grams(speed_mps, edge.length_m, edge.grade)
            }
        };
        out.push(cost);
    }
    true
}

/// The total cost of one occurrence of `path` inside a matched trajectory.
pub fn total_cost(
    matched: &MatchedTrajectory,
    net: &RoadNetwork,
    path: &Path,
    offset: usize,
    kind: CostKind,
) -> Option<f64> {
    per_edge_costs(matched, net, path, offset, kind).map(|v| v.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{SimulationConfig, TrafficSimulator};
    use pathcost_roadnet::GeneratorConfig;

    #[test]
    fn emission_curve_has_a_minimum_at_moderate_speed() {
        let slow = emission_grams(10.0 / 3.6, 1000.0, 0.0);
        let moderate = emission_grams(65.0 / 3.6, 1000.0, 0.0);
        let fast = emission_grams(130.0 / 3.6, 1000.0, 0.0);
        assert!(moderate < slow, "crawling should emit more than cruising");
        assert!(
            moderate < fast,
            "motorway speed should emit more than cruising"
        );
        assert!(moderate > 0.0);
    }

    #[test]
    fn uphill_emits_more_than_flat() {
        let flat = emission_grams(50.0 / 3.6, 1000.0, 0.0);
        let uphill = emission_grams(50.0 / 3.6, 1000.0, 0.04);
        assert!(uphill > flat);
    }

    #[test]
    fn per_edge_costs_match_travel_times_for_exact_occurrence() {
        let net = GeneratorConfig::tiny(3).generate();
        let sim = TrafficSimulator::new(
            &net,
            SimulationConfig {
                trips: 10,
                days: 1,
                ..SimulationConfig::default()
            },
        )
        .unwrap();
        let out = sim.run().unwrap();
        let m = &out.ground_truth[0];
        // The full path at offset 0.
        let costs = per_edge_costs(m, &net, &m.path, 0, CostKind::TravelTime).unwrap();
        assert_eq!(costs, m.travel_times);
        let total = total_cost(m, &net, &m.path, 0, CostKind::TravelTime).unwrap();
        assert!((total - m.total_travel_time_s()).abs() < 1e-9);
        // A sub-path somewhere in the middle.
        if m.path.cardinality() >= 3 {
            let sub = m.path.slice(1, 2).unwrap();
            let sub_costs = per_edge_costs(m, &net, &sub, 1, CostKind::TravelTime).unwrap();
            assert_eq!(sub_costs, &m.travel_times[1..3]);
        }
        // Mismatched offset returns None.
        if m.path.cardinality() >= 2 {
            let sub = m.path.slice(1, 1).unwrap();
            assert!(per_edge_costs(m, &net, &sub, 0, CostKind::TravelTime).is_none());
        }
        assert!(per_edge_costs(m, &net, &m.path, 5_000, CostKind::TravelTime).is_none());
    }

    #[test]
    fn per_edge_costs_into_appends_what_per_edge_costs_returns() {
        let net = GeneratorConfig::tiny(3).generate();
        let sim = TrafficSimulator::new(
            &net,
            SimulationConfig {
                trips: 10,
                days: 1,
                ..SimulationConfig::default()
            },
        )
        .unwrap();
        let out = sim.run().unwrap();
        for kind in [CostKind::TravelTime, CostKind::Emissions] {
            let mut flat = vec![-1.0];
            for m in &out.ground_truth {
                let sub = m.path.slice(0, m.path.cardinality().min(3)).unwrap();
                for (path, offset) in [(&m.path, 0), (&sub, 0), (&sub, 1), (&m.path, 5_000)] {
                    let before = flat.clone();
                    let appended = per_edge_costs_into(m, &net, path, offset, kind, &mut flat);
                    match per_edge_costs(m, &net, path, offset, kind) {
                        Some(costs) => {
                            assert!(appended);
                            assert_eq!(flat, [before, costs].concat());
                        }
                        None => assert!(!appended && flat == before, "out untouched"),
                    }
                }
            }
        }
    }

    #[test]
    fn emission_costs_are_positive_and_respond_to_speed() {
        let net = GeneratorConfig::tiny(4).generate();
        let sim = TrafficSimulator::new(
            &net,
            SimulationConfig {
                trips: 5,
                days: 1,
                ..SimulationConfig::default()
            },
        )
        .unwrap();
        let out = sim.run().unwrap();
        let m = &out.ground_truth[0];
        let emissions = per_edge_costs(m, &net, &m.path, 0, CostKind::Emissions).unwrap();
        assert_eq!(emissions.len(), m.path.cardinality());
        assert!(emissions.iter().all(|&e| e > 0.0));
    }

    #[test]
    fn emissions_read_the_speed_derived_from_length_and_travel_time() {
        let preset = crate::DatasetPreset::tiny(5);
        let net = preset.build_network();
        let out = preset.simulate(&net).unwrap();
        let mut edges = 0;
        for m in &out.ground_truth {
            let emissions = per_edge_costs(m, &net, &m.path, 0, CostKind::Emissions).unwrap();
            for (i, (&e, &grams)) in m.path.edges().iter().zip(&emissions).enumerate() {
                let edge = net.edge(e).unwrap();
                let expected =
                    emission_grams(edge.length_m / m.travel_times[i], edge.length_m, edge.grade);
                assert_eq!(
                    grams.to_bits(),
                    expected.to_bits(),
                    "trip {} edge {i}",
                    m.id
                );
                edges += 1;
            }
        }
        assert!(edges > out.ground_truth.len());
    }
}
