//! Data-analysis figures: sparseness (Figure 3), the independence-assumption
//! study (Figure 4) and the bucket-count selection example (Figure 5).

use crate::experiment::{make_holdout, Dataset, Scale};
use crate::figures::FigureOutput;
use pathcost_core::{CostEstimator, DayPartition, HybridGraph, OdEstimator};
use pathcost_hist::auto::{auto_histogram, cross_validated_errors, AutoConfig};
use pathcost_hist::divergence::kl_divergence_histograms;
use pathcost_hist::RawDistribution;
use pathcost_traj::{CostKind, TimeOfDay};

/// Figure 3: maximum number of trajectories that occurred on any path, by path
/// cardinality, for both datasets (no time constraint).
pub fn fig3_sparseness(datasets: &[Dataset], max_cardinality: usize) -> FigureOutput {
    let mut rows = vec![format!("{:>6} {:>12} {:>12}", "|P|", "D1 max", "D2 max")];
    let curves: Vec<Vec<usize>> = datasets
        .iter()
        .map(|d| d.store.max_occurrences_by_cardinality(max_cardinality))
        .collect();
    for k in 0..max_cardinality {
        let d1 = curves.first().map(|c| c[k]).unwrap_or(0);
        let d2 = curves.get(1).map(|c| c[k]).unwrap_or(0);
        rows.push(format!("{:>6} {:>12} {:>12}", k + 1, d1, d2));
    }
    FigureOutput {
        id: "Figure 3".to_string(),
        title: "Data sparseness: max #trajectories on any path vs |P|".to_string(),
        rows,
    }
}

/// Figure 4(a): distribution of KL(D_GT, D_LB) over dense 2-edge paths during
/// the morning peak; Figure 4(b): mean KL(D_GT, D_LB) as the path cardinality
/// grows. Both demonstrate that the independence assumption of the legacy
/// model does not hold.
pub fn fig4_independence(dataset: &Dataset, scale: Scale) -> FigureOutput {
    let cfg = crate::experiment::experiment_config(scale);
    let mut rows = Vec::new();

    // (a) 2-edge paths: bucket the KL divergences.
    let holdout = make_holdout(
        dataset,
        &cfg,
        2,
        if scale == Scale::Quick { 60 } else { 500 },
    );
    let graph = HybridGraph::build_with_exclusions(
        &dataset.net,
        &dataset.store,
        cfg.clone(),
        &holdout.exclusions,
    )
    .expect("hybrid graph builds");
    let lb = OdEstimator::with_rank_cap(&graph, 1);
    let mut divergences = Vec::new();
    for q in &holdout.queries {
        if let Ok(est) = lb.estimate(&q.path, q.departure) {
            divergences.push(kl_divergence_histograms(&q.ground_truth, &est));
        }
    }
    let buckets = [(0.0, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, f64::INFINITY)];
    rows.push(format!(
        "(a) KL(D_GT, D_LB) over {} two-edge paths ({})",
        divergences.len(),
        dataset.name
    ));
    for (lo, hi) in buckets {
        let share = divergences.iter().filter(|&&d| d >= lo && d < hi).count() as f64
            / divergences.len().max(1) as f64;
        let label = if hi.is_finite() {
            format!("[{lo:.1},{hi:.1})")
        } else {
            format!(">={lo:.1}")
        };
        rows.push(format!("  {:>10}  {:>6.1}%", label, share * 100.0));
    }

    // (b) KL vs cardinality.
    rows.push("(b) mean KL(D_GT, D_LB) vs |P|".to_string());
    let cards = if scale == Scale::Quick {
        vec![2, 3, 4, 5]
    } else {
        vec![2, 5, 10, 15, 20]
    };
    for card in cards {
        let holdout = make_holdout(dataset, &cfg, card, 30);
        if holdout.queries.is_empty() {
            rows.push(format!("  |P|={card:>2}  (no dense paths)"));
            continue;
        }
        let graph = HybridGraph::build_with_exclusions(
            &dataset.net,
            &dataset.store,
            cfg.clone(),
            &holdout.exclusions,
        )
        .expect("hybrid graph builds");
        let lb = OdEstimator::with_rank_cap(&graph, 1);
        let mut total = 0.0;
        let mut n = 0usize;
        for q in &holdout.queries {
            if let Ok(est) = lb.estimate(&q.path, q.departure) {
                total += kl_divergence_histograms(&q.ground_truth, &est);
                n += 1;
            }
        }
        rows.push(format!(
            "  |P|={card:>2}  mean KL = {:.3}  ({} paths)",
            total / n.max(1) as f64,
            n
        ));
    }

    FigureOutput {
        id: "Figure 4".to_string(),
        title: format!(
            "Independence assumption check on {} (convolution vs ground truth)",
            dataset.name
        ),
        rows,
    }
}

/// Figure 5: the Auto bucket-count selection on one dense path — the error
/// profile `E_b` versus `b` and the chosen histogram versus the raw data.
pub fn fig5_bucket_selection(dataset: &Dataset, scale: Scale) -> FigureOutput {
    let cfg = crate::experiment::experiment_config(scale);
    let partition = DayPartition::new(cfg.alpha_minutes).expect("valid alpha");
    let peak = partition.range(partition.interval_of(TimeOfDay::from_hms(8, 0, 0)));
    let frequent = dataset.store.frequent_paths(3, cfg.beta, Some(&peak));
    let mut rows = Vec::new();
    let Some((path, count)) = frequent.first() else {
        return FigureOutput {
            id: "Figure 5".to_string(),
            title: "Bucket-count selection (no dense path found)".to_string(),
            rows,
        };
    };
    let samples =
        dataset
            .store
            .qualified_total_costs(&dataset.net, path, &peak, CostKind::TravelTime);
    rows.push(format!(
        "path {} with {} qualified trajectories in {}",
        path, count, peak
    ));

    let auto_cfg = AutoConfig::default();
    let errors = cross_validated_errors(&samples, auto_cfg.max_buckets, &auto_cfg)
        .expect("cross-validation succeeds");
    rows.push("(a) E_b vs b".to_string());
    for (i, e) in errors.iter().enumerate() {
        rows.push(format!("  b={:>2}  E_b={:.6}", i + 1, e));
    }

    let hist = auto_histogram(&samples, &auto_cfg).expect("auto histogram");
    let raw = RawDistribution::from_samples(&samples, 1.0).expect("raw distribution");
    rows.push(format!(
        "(b) Auto selected {} buckets over {} raw values; KL(raw, Auto) = {:.4}",
        hist.bucket_count(),
        raw.distinct_count(),
        pathcost_hist::divergence::kl_divergence_from_raw(&raw, &hist, 1.0),
    ));
    for (b, p) in hist.buckets().iter().zip(hist.probs()) {
        rows.push(format!("  [{:>7.1}, {:>7.1})  {:.3}", b.lo, b.hi, p));
    }

    FigureOutput {
        id: "Figure 5".to_string(),
        title: format!("Identifying the number of buckets ({})", dataset.name),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_traj::DatasetPreset;

    fn tiny() -> Dataset {
        Dataset::build(&DatasetPreset::tiny(9))
    }

    #[test]
    fn fig3_rows_cover_all_cardinalities_and_decrease() {
        let d = tiny();
        let out = fig3_sparseness(std::slice::from_ref(&d), 8);
        assert_eq!(out.rows.len(), 9); // header + 8 cardinalities
        assert!(out.render().contains("Figure 3"));
    }

    #[test]
    fn fig4_produces_histogram_and_trend() {
        let d = tiny();
        let out = fig4_independence(&d, Scale::Quick);
        assert!(out.rows.iter().any(|r| r.contains("(a)")));
        assert!(out.rows.iter().any(|r| r.contains("(b)")));
    }

    #[test]
    fn fig5_reports_error_profile() {
        // Figure 5 needs a path dense in the morning-peak interval; triple the
        // tiny preset's trips so one reliably exists.
        let d = Dataset::build(&DatasetPreset::tiny(9).with_trip_factor(3.0));
        let out = fig5_bucket_selection(&d, Scale::Quick);
        assert!(out.rows.iter().any(|r| r.contains("E_b")));
    }
}
