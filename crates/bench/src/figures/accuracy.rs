//! Accuracy figures: the single-path comparison (Figure 13), KL divergence
//! against the held-out ground truth as the query cardinality grows
//! (Figure 14) and the decomposition-entropy comparison for long paths
//! without ground truth (Figure 15).

use crate::experiment::{experiment_config, make_holdout, random_query_paths, Dataset, Scale};
use crate::figures::FigureOutput;
use pathcost_core::{CostEstimator, HybridGraph, OdEstimator, RdEstimator};
use pathcost_hist::divergence::kl_divergence_histograms;

/// Figure 13: the estimated distributions of OD, LB, HP and RD on one dense
/// held-out path, next to the ground truth. LB is OD-1 and HP is OD-2.
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
    let lb = OdEstimator::with_rank_cap(&graph, 1);
    let hp = OdEstimator::with_rank_cap(&graph, 2);
    let rd = RdEstimator::new(&graph, 17);
    let estimators: [(&str, &dyn CostEstimator); 4] =
        [("OD", &od), ("LB", &lb), ("HP", &hp), ("RD", &rd)];
    for (name, est) in estimators {
        match est.estimate(&query.path, query.departure) {
            Ok(hist) => rows.push(format!(
                "  {:<4} mean={:>7.1}s  p10={:>7.1}  p90={:>7.1}  KL(GT, est)={:.3}  buckets={}",
                name,
                hist.mean(),
                hist.quantile(0.1),
                hist.quantile(0.9),
                kl_divergence_histograms(&query.ground_truth, &hist),
                hist.bucket_count()
            )),
            Err(e) => rows.push(format!("  {name:<4} failed: {e}")),
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

/// The per-estimator means of Figures 14 and 15, by query cardinality.
struct MeansByCardinality {
    /// The estimator of each column, in order.
    columns: [&'static str; 4],
    /// Per cardinality, each column's mean over the queries every estimator
    /// answered, or why no query was answered by all of them.
    rows: Vec<(usize, Result<ColumnMeans, &'static str>)>,
}

/// One cardinality's column means.
struct ColumnMeans {
    /// One mean per column.
    means: Vec<f64>,
    /// The number of queries averaged.
    paths: usize,
}

impl MeansByCardinality {
    /// The figure's rows: a header, then the means of each cardinality with
    /// `precision` decimals.
    fn render(&self, precision: usize) -> Vec<String> {
        let [a, b, c, d] = self.columns;
        let mut rows = vec![format!(
            "{:>5} {a:>8} {b:>8} {c:>8} {d:>8} {:>7}",
            "|P|", "#paths"
        )];
        for (card, row) in &self.rows {
            rows.push(match row {
                Ok(row) => {
                    let means: String = row
                        .means
                        .iter()
                        .map(|mean| format!(" {mean:>8.precision$}"))
                        .collect();
                    format!("{card:>5}{means} {:>7}", row.paths)
                }
                Err(reason) => format!("{card:>5}  ({reason})"),
            });
        }
        rows
    }
}

/// Each column's mean over the queries where `value` gives every column a
/// value; `None` when no query does.
fn column_means<Q>(
    queries: &[Q],
    columns: usize,
    mut value: impl FnMut(&Q, usize) -> Option<f64>,
) -> Option<ColumnMeans> {
    let mut sums = vec![0.0f64; columns];
    let mut paths = 0usize;
    let answered = queries.iter().filter_map(|q| {
        (0..columns)
            .map(|c| value(q, c))
            .collect::<Option<Vec<f64>>>()
    });
    for values in answered {
        for (s, v) in sums.iter_mut().zip(&values) {
            *s += v;
        }
        paths += 1;
    }
    (paths > 0).then(|| ColumnMeans {
        means: sums.iter().map(|s| s / paths as f64).collect(),
        paths,
    })
}

/// Figure 14's numbers: mean KL divergence from the held-out ground truth
/// for OD, RD, HP (OD-2) and LB (OD-1) at each query-path cardinality.
fn fig14_kl_means(dataset: &Dataset, scale: Scale) -> MeansByCardinality {
    let cfg = experiment_config(scale);
    let (cards, paths_per_card) = if scale == Scale::Quick {
        (vec![3usize, 4, 5, 6], 25usize)
    } else {
        (vec![5usize, 10, 15, 20], 100usize)
    };
    let mut rows = Vec::new();
    for card in cards {
        let holdout = make_holdout(dataset, &cfg, card, paths_per_card);
        if holdout.queries.is_empty() {
            rows.push((card, Err("no dense paths of this cardinality")));
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
        let hp = OdEstimator::with_rank_cap(&graph, 2);
        let lb = OdEstimator::with_rank_cap(&graph, 1);
        let estimators: [&dyn CostEstimator; 4] = [&od, &rd, &hp, &lb];
        let means = column_means(&holdout.queries, estimators.len(), |q, c| {
            let hist = estimators[c].estimate(&q.path, q.departure).ok()?;
            Some(kl_divergence_histograms(&q.ground_truth, &hist))
        });
        rows.push((card, means.ok_or("estimation failed on all paths")));
    }
    MeansByCardinality {
        columns: ["OD", "RD", "HP", "LB"],
        rows,
    }
}

/// Figure 14: mean KL divergence from the held-out ground truth for OD, LB,
/// RD and HP as the query-path cardinality grows.
pub fn fig14_kl_vs_cardinality(dataset: &Dataset, scale: Scale) -> FigureOutput {
    FigureOutput {
        id: "Figure 14".to_string(),
        title: format!(
            "KL divergence vs ground truth by query cardinality ({})",
            dataset.name
        ),
        rows: fig14_kl_means(dataset, scale).render(3),
    }
}

/// Figure 15's numbers: mean decomposition entropy `H_DE` of OD, HP (OD-2),
/// RD and LB (OD-1) on random long query paths, by cardinality.
fn fig15_entropy_means(dataset: &Dataset, scale: Scale) -> MeansByCardinality {
    let cfg = experiment_config(scale);
    let (cards, paths_per_card) = if scale == Scale::Quick {
        (vec![10usize, 20, 30], 30usize)
    } else {
        (vec![20usize, 40, 60, 80, 100], 200usize)
    };
    let graph = HybridGraph::build(&dataset.net, &dataset.store, cfg).expect("hybrid graph builds");
    let od = OdEstimator::new(&graph);
    let hp = OdEstimator::with_rank_cap(&graph, 2);
    let rd = RdEstimator::new(&graph, 31);
    let lb = OdEstimator::with_rank_cap(&graph, 1);
    let estimators: [&dyn CostEstimator; 4] = [&od, &hp, &rd, &lb];
    let mut rows = Vec::new();
    for card in cards {
        let queries = random_query_paths(dataset, card, paths_per_card, 1000 + card as u64);
        if queries.is_empty() {
            rows.push((card, Err("no random paths of this cardinality")));
            continue;
        }
        let means = column_means(&queries, estimators.len(), |(path, departure), c| {
            estimators[c].decomposition_entropy(path, *departure)
        });
        rows.push((card, means.ok_or("entropy unavailable")));
    }
    MeansByCardinality {
        columns: ["OD", "HP", "RD", "LB"],
        rows,
    }
}

/// Figure 15: mean decomposition entropy `H_DE` for long query paths without
/// ground truth (smaller is better; OD should be lowest).
pub fn fig15_entropy(dataset: &Dataset, scale: Scale) -> FigureOutput {
    FigureOutput {
        id: "Figure 15".to_string(),
        title: format!(
            "Decomposition entropy H_DE for long paths ({})",
            dataset.name
        ),
        rows: fig15_entropy_means(dataset, scale).render(2),
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

    /// The means of the named columns at every cardinality of `figure`.
    fn means_of<const N: usize>(
        figure: &MeansByCardinality,
        names: [&str; N],
    ) -> Vec<(usize, [f64; N])> {
        let column = |name| figure.columns.iter().position(|&c| c == name).unwrap();
        figure
            .rows
            .iter()
            .map(|(card, row)| {
                let row = row
                    .as_ref()
                    .unwrap_or_else(|reason| panic!("|P| {card}: {reason}"));
                (*card, names.map(|name| row.means[column(name)]))
            })
            .collect()
    }

    /// The paper's Figure 14 and 15 claims as rank-cap statements, on the
    /// Quick datasets the `figures` binary uses: raising the cap never raises
    /// the mean KL (OD ≤ OD-2 ≤ OD-1 at every |P| of Fig 14), and lifting a
    /// cap of 1 never raises the mean H_DE (OD ≤ OD-1 at every |P| of Fig
    /// 15). HP is OD-2 and LB is OD-1.
    ///
    /// Not claimed, and not to be tuned into holding: H_DE of OD ≤ OD-2
    /// fails at D2 |P| 10 (0.232844 vs 0.205393), and H_DE of OD-2 ≤ OD-1
    /// fails at D1 |P| 10 and D2 |P| 30.
    #[test]
    fn rank_caps_order_fig14_kl_and_fig15_entropy() {
        for dataset in Dataset::both(Scale::Quick, 2016) {
            let kl = means_of(&fig14_kl_means(&dataset, Scale::Quick), ["OD", "HP", "LB"]);
            assert_eq!(kl.len(), 4);
            for (card, [od, od2, od1]) in kl {
                assert!(
                    od <= od2 && od2 <= od1,
                    "{} |P| {card}: KL OD {od}, OD-2 {od2}, OD-1 {od1}",
                    dataset.name
                );
            }
            let entropy = means_of(&fig15_entropy_means(&dataset, Scale::Quick), ["OD", "LB"]);
            assert_eq!(entropy.len(), 3);
            for (card, [od, od1]) in entropy {
                assert!(
                    od <= od1,
                    "{} |P| {card}: H_DE OD {od}, OD-1 {od1}",
                    dataset.name
                );
            }
        }
    }

    #[test]
    fn fig15_renders_a_header_and_at_least_one_row() {
        let d = Dataset::build(&DatasetPreset::tiny(17));
        let out = fig15_entropy(&d, Scale::Quick);
        assert!(out.rows.len() > 1);
    }
}
