//! # pathcost-core
//!
//! The hybrid graph of Dai, Yang, Guo, Jensen and Hu, *Path Cost Distribution
//! Estimation Using Trajectory Data* (PVLDB 10(3), 2016).
//!
//! The crate instantiates a **path weight function** `W_P : Paths × T → RV`
//! from map-matched trajectories: unit paths and frequently travelled non-unit
//! paths get multi-dimensional histograms describing the *joint* distribution
//! of their per-edge travel costs (§3). Given a query path and a departure
//! time it then
//!
//! 1. collects the spatio-temporally relevant instantiated variables into a
//!    candidate array ([`candidate`]),
//! 2. identifies the coarsest decomposition (Algorithm 1, [`decomposition`]),
//! 3. estimates the joint distribution along the decomposition chain (Eq. 2)
//!    and marginalises it into the univariate cost distribution (§4.2,
//!    [`joint`]).
//!
//! The baselines of the paper's evaluation (RD, OD-x — LB is OD-1 and HP is
//! OD-2 — and the accuracy-optimal ground truth) are provided alongside the
//! proposed OD estimator in [`estimator`]. Instantiation and re-derivation fan out on
//! [`exec`], the one fork–join executor (the query engine's batches run on
//! the same type).
//!
//! ```no_run
//! use pathcost_core::{config::HybridConfig, hybrid_graph::HybridGraph};
//! use pathcost_traj::DatasetPreset;
//!
//! let (net, store) = DatasetPreset::tiny(7).materialise().unwrap();
//! let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
//! let (path, _) = store.frequent_paths(4, 30, None)[0].clone();
//! let departure = store.occurrences_on(&path)[0].entry_time;
//! let distribution = graph.estimate(&path, departure).unwrap();
//! println!("P(travel time ≤ 10 min) = {}", distribution.prob_leq(600.0));
//! ```

pub mod bounded;
pub mod candidate;
pub mod config;
pub mod decomposition;
pub mod error;
pub mod estimator;
pub mod exec;
pub mod hybrid_graph;
pub mod incremental;
pub mod interval;
pub mod joint;
pub mod variable;
pub mod weights;

pub use bounded::BoundedMap;
pub use candidate::{
    CandidateArray, CandidateSource, PackedFootprint, PositionFootprint, SelectedVariable,
};
pub use config::HybridConfig;
pub use decomposition::Decomposition;
pub use error::CoreError;
pub use estimator::{
    CostEstimator, EstimateArtifacts, EstimateBreakdown, GroundTruthEstimator, OdEstimator,
    RdEstimator,
};
pub use hybrid_graph::HybridGraph;
pub use incremental::{chain_extension, chain_start, ArrivalWindow};
pub use interval::{DayPartition, IntervalId};
pub use pathcost_traj::{mix_regime, RegimeClassifier, RegimeId, RegimeSchema};
pub use variable::{InstantiatedVariable, VariableSource};
pub use weights::{
    dirty_keys_by_regime, PathWeightFunction, RegimeVariableKey, VariableKey, WeightStats,
    WeightUpdate,
};
