//! Accuracy figures: the single-path comparison (Figure 13), KL divergence
//! against the held-out ground truth as the query cardinality grows
//! (Figure 14) and the decomposition-entropy comparison for long paths
//! without ground truth (Figure 15).

use crate::experiment::{experiment_config, make_holdout, random_query_paths, Dataset, Scale};
use crate::figures::FigureOutput;
use pathcost_core::{
    CostEstimator, HpEstimator, HybridGraph, LbEstimator, OdEstimator, RdEstimator,
};
use pathcost_hist::divergence::kl_divergence_histograms;

/// Figure 13: the estimated distributions of OD, LB, HP and RD on one dense
/// held-out path, next to the ground truth.
pub fn fig13_single_path(dataset: &Dataset, scale: Scale) -> FigureOutput {
    let cfg = experiment_config(scale);
    let cardinality = if scale == Scale::Quick { 4 } else { 8 };
    let holdout = make_holdout(dataset, &cfg, cardinality, 5);
    let mut rows = Vec::new();
    let Some(query) = holdout.queries.first() else {
        return FigureOutput {
            id: "Figure 13".to_string(),
            title: "Accuracy on a particular path (no dense path found)".to_string(),
            rows,
        };
    };
    let graph =
        HybridGraph::build_with_exclusions(&dataset.net, &dataset.store, cfg, &holdout.exclusions)
            .expect("hybrid graph builds");
    rows.push(format!(
        "query path {} departing {} ({} ground-truth samples)",
        query.path,
        query.departure.time_of_day(),
        query.gt_samples.len()
    ));
    rows.push(format!(
        "  GT   mean={:>7.1}s  p10={:>7.1}  p90={:>7.1}",
        query.ground_truth.mean(),
        query.ground_truth.quantile(0.1),
        query.ground_truth.quantile(0.9)
    ));
    let od = OdEstimator::new(&graph);
    let lb = LbEstimator::new(&graph);
    let hp = HpEstimator::new(&graph);
    let rd = RdEstimator::new(&graph, 17);
    let estimators: Vec<&dyn CostEstimator> = vec![&od, &lb, &hp, &rd];
    for est in estimators {
        match est.estimate(&query.path, query.departure) {
            Ok(hist) => rows.push(format!(
                "  {:<4} mean={:>7.1}s  p10={:>7.1}  p90={:>7.1}  KL(GT, est)={:.3}  buckets={}",
                est.name(),
                hist.mean(),
                hist.quantile(0.1),
                hist.quantile(0.9),
                kl_divergence_histograms(&query.ground_truth, &hist),
                hist.bucket_count()
            )),
            Err(e) => rows.push(format!("  {:<4} failed: {e}", est.name())),
        }
    }
    FigureOutput {
        id: "Figure 13".to_string(),
        title: format!(
            "Accuracy comparison on a particular path ({})",
            dataset.name
        ),
        rows,
    }
}

/// Figure 14: mean KL divergence from the held-out ground truth for OD, LB,
/// RD and HP as the query-path cardinality grows.
pub fn fig14_kl_vs_cardinality(dataset: &Dataset, scale: Scale) -> FigureOutput {
    let cfg = experiment_config(scale);
    let (cards, paths_per_card) = if scale == Scale::Quick {
        (vec![3usize, 4, 5, 6], 25usize)
    } else {
        (vec![5usize, 10, 15, 20], 100usize)
    };
    let mut rows = vec![format!(
        "{:>5} {:>8} {:>8} {:>8} {:>8} {:>7}",
        "|P|", "OD", "RD", "HP", "LB", "#paths"
    )];
    for card in cards {
        let holdout = make_holdout(dataset, &cfg, card, paths_per_card);
        if holdout.queries.is_empty() {
            rows.push(format!("{card:>5}  (no dense paths of this cardinality)"));
            continue;
        }
        let graph = HybridGraph::build_with_exclusions(
            &dataset.net,
            &dataset.store,
            cfg.clone(),
            &holdout.exclusions,
        )
        .expect("hybrid graph builds");
        let od = OdEstimator::new(&graph);
        let rd = RdEstimator::new(&graph, 23);
        let hp = HpEstimator::new(&graph);
        let lb = LbEstimator::new(&graph);
        let estimators: Vec<&dyn CostEstimator> = vec![&od, &rd, &hp, &lb];
        let mut sums = vec![0.0f64; estimators.len()];
        let mut n = 0usize;
        for q in &holdout.queries {
            let mut divergences = Vec::with_capacity(estimators.len());
            for est in &estimators {
                match est.estimate(&q.path, q.departure) {
                    Ok(hist) => divergences.push(kl_divergence_histograms(&q.ground_truth, &hist)),
                    Err(_) => break,
                }
            }
            if divergences.len() == estimators.len() {
                for (s, d) in sums.iter_mut().zip(&divergences) {
                    *s += d;
                }
                n += 1;
            }
        }
        if n == 0 {
            rows.push(format!("{card:>5}  (estimation failed on all paths)"));
            continue;
        }
        rows.push(format!(
            "{:>5} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>7}",
            card,
            sums[0] / n as f64,
            sums[1] / n as f64,
            sums[2] / n as f64,
            sums[3] / n as f64,
            n
        ));
    }
    FigureOutput {
        id: "Figure 14".to_string(),
        title: format!(
            "KL divergence vs ground truth by query cardinality ({})",
            dataset.name
        ),
        rows,
    }
}

/// Figure 15: mean decomposition entropy `H_DE` for long query paths without
/// ground truth (smaller is better; OD should be lowest).
pub fn fig15_entropy(dataset: &Dataset, scale: Scale) -> FigureOutput {
    let cfg = experiment_config(scale);
    let (cards, paths_per_card) = if scale == Scale::Quick {
        (vec![10usize, 20, 30], 30usize)
    } else {
        (vec![20usize, 40, 60, 80, 100], 200usize)
    };
    let graph = HybridGraph::build(&dataset.net, &dataset.store, cfg).expect("hybrid graph builds");
    let od = OdEstimator::new(&graph);
    let hp = HpEstimator::new(&graph);
    let rd = RdEstimator::new(&graph, 31);
    let lb = LbEstimator::new(&graph);
    let estimators: Vec<&dyn CostEstimator> = vec![&od, &hp, &rd, &lb];
    let mut rows = vec![format!(
        "{:>5} {:>8} {:>8} {:>8} {:>8} {:>7}",
        "|P|", "OD", "HP", "RD", "LB", "#paths"
    )];
    for card in cards {
        let queries = random_query_paths(dataset, card, paths_per_card, 1000 + card as u64);
        if queries.is_empty() {
            rows.push(format!("{card:>5}  (no random paths of this cardinality)"));
            continue;
        }
        let mut sums = vec![0.0f64; estimators.len()];
        let mut n = 0usize;
        for (path, departure) in &queries {
            let mut values = Vec::with_capacity(estimators.len());
            for est in &estimators {
                match est.decomposition_entropy(path, *departure) {
                    Some(h) => values.push(h),
                    None => break,
                }
            }
            if values.len() == estimators.len() {
                for (s, v) in sums.iter_mut().zip(&values) {
                    *s += v;
                }
                n += 1;
            }
        }
        if n == 0 {
            rows.push(format!("{card:>5}  (entropy unavailable)"));
            continue;
        }
        rows.push(format!(
            "{:>5} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>7}",
            card,
            sums[0] / n as f64,
            sums[1] / n as f64,
            sums[2] / n as f64,
            sums[3] / n as f64,
            n
        ));
    }
    FigureOutput {
        id: "Figure 15".to_string(),
        title: format!(
            "Decomposition entropy H_DE for long paths ({})",
            dataset.name
        ),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_traj::DatasetPreset;

    #[test]
    fn fig13_lists_all_estimators() {
        // Seed 16 has a dense held-out path at |P| = 4 (seed 17 has none), so
        // the ground truth and every estimator get a row of their own.
        let d = Dataset::build(&DatasetPreset::tiny(16));
        let out = fig13_single_path(&d, Scale::Quick);
        let text = out.render();
        for name in ["GT", "OD", "LB", "HP", "RD"] {
            let row = format!("  {name:<4} mean=");
            assert!(
                out.rows.iter().any(|r| r.starts_with(&row)),
                "missing {name}: {text}"
            );
        }
    }

    #[test]
    fn fig15_renders_a_header_and_at_least_one_row() {
        let d = Dataset::build(&DatasetPreset::tiny(17));
        let out = fig15_entropy(&d, Scale::Quick);
        assert!(out.rows.len() > 1);
    }
}
