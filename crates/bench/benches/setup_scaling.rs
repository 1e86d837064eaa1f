//! Set-up scaling: what it costs to build a served fixture, part by part, as
//! the road network grows.
//!
//! The acceptance benchmark (`benchmark/`) books network generation, trip
//! simulation and weight-function instantiation under one `setup_s`; this row
//! times the three separately on the benchmark's 40×40 / 10 000-trip city and
//! on the same traffic over a 100×100 grid — the size ROADMAP's routing
//! question waits on. One shot per part (seconds, printed): the parts take
//! seconds to minutes, so there is nothing for a sampling harness to average.
//! `-- --test` (the CI bench smoke) runs the 40×40 size only.

use pathcost_core::{HybridConfig, PathWeightFunction};
use pathcost_roadnet::{GeneratorConfig, NetworkKind};
use pathcost_traj::{SimulationConfig, TrafficSimulator, TrajectoryStore};
use std::time::Instant;

/// The `city40` recipe of `benchmark/src/fixture.rs` at a given grid size.
fn time_setup(grid: usize) {
    let started = Instant::now();
    let net = GeneratorConfig {
        kind: NetworkKind::Grid,
        rows: grid,
        cols: grid,
        spacing_m: 250.0,
        drop_probability: 0.04,
        seed: 40,
    }
    .generate();
    let generate_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let simulation = SimulationConfig {
        trips: 10_000,
        days: 30,
        hotspot_pairs: 40,
        hotspot_fraction: 0.7,
        seed: 41,
        sampling_interval_s: 3_600.0,
        ..SimulationConfig::default()
    };
    let trips = TrafficSimulator::new(&net, simulation)
        .expect("the simulation config is valid")
        .run()
        .expect("the grid is connected")
        .ground_truth;
    let simulate_s = started.elapsed().as_secs_f64();
    assert_eq!(trips.len(), 10_000);

    let store = TrajectoryStore::new(trips);
    let started = Instant::now();
    let weights = PathWeightFunction::instantiate(&net, &store, &HybridConfig::default())
        .expect("the fixture instantiates");
    let instantiate_s = started.elapsed().as_secs_f64();

    println!(
        "{:<9} {:>8} {:>9} {:>10.3} {:>10.3} {:>12.3}",
        format!("{grid}x{grid}"),
        net.vertex_count(),
        weights.variables().len(),
        generate_s,
        simulate_s,
        instantiate_s
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    println!("\n== setup_scaling: 10 000 trips, 40 hotspot pairs (seconds, one shot) ==");
    println!(
        "{:<9} {:>8} {:>9} {:>10} {:>10} {:>12}",
        "grid", "vertices", "variables", "generate", "simulate", "instantiate"
    );
    time_setup(40);
    if !smoke {
        time_setup(100);
    }
}
