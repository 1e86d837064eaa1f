//! `kl_to_truth_mean`: the paper's accuracy property (Figs 13–14) on the
//! benchmark's fixture.
//!
//! Evaluation paths and their ground truth come from
//! `pathcost_bench::experiment::make_holdout` — paths with at least β
//! qualified trajectories in one commute-time α-interval, the ground truth
//! being the Auto histogram over those trajectories' total costs. Every
//! evaluation path is longer than the highest instantiated rank, so no
//! variable covers it whole and the protocol's weight exclusions are empty:
//! the estimator has to reconstruct each distribution from sub-paths of the
//! graph as served. Nothing here depends on `--seed`; the value repeats
//! exactly until the estimator or the histogram kernels change.

use crate::fixture::Fixture;
use pathcost_bench::experiment::make_holdout;
use pathcost_bench::Dataset;
use pathcost_core::{CostEstimator, OdEstimator};
use pathcost_hist::kl_divergence_histograms;
use pathcost_service::QueryEngine;

/// Mean `KL(ground truth ‖ OD estimate)` over the evaluation paths and how
/// many there were; an error when the fixture yields fewer than the preset
/// demands or an estimate fails.
pub fn kl_to_truth(fixture: &Fixture, reference: &QueryEngine<'_>) -> Result<(f64, usize), String> {
    let preset = &fixture.preset;
    let config = preset.hybrid_config();
    let dataset = Dataset {
        name: preset.name.to_string(),
        net: fixture.net.clone(),
        store: fixture.base_store(),
    };
    let graph = reference.graph();
    let estimator = OdEstimator::new(&graph);
    let per_cardinality = preset.eval_paths.div_ceil(preset.eval_edges.len());
    let mut total = 0.0;
    let mut paths = 0usize;
    for &cardinality in preset.eval_edges {
        assert!(
            cardinality > config.max_rank,
            "evaluation paths must exceed the instantiated ranks"
        );
        let holdout = make_holdout(&dataset, &config, cardinality, per_cardinality);
        for query in &holdout.queries {
            let estimate = estimator
                .estimate(&query.path, query.departure)
                .map_err(|e| format!("estimate failed on an evaluation path: {e}"))?;
            total += kl_divergence_histograms(&query.ground_truth, &estimate);
            paths += 1;
        }
    }
    if paths < preset.eval_paths {
        return Err(format!(
            "fixture yields {paths} evaluation paths, {} required",
            preset.eval_paths
        ));
    }
    Ok((total / paths as f64, paths))
}
