//! Efficiency figures: estimation run-time versus query cardinality
//! (Figure 16), the OI/JC/MC run-time breakdown versus dataset size
//! (Figure 17) and stochastic-routing run-times (Figure 18).

use crate::experiment::{experiment_config, random_od_pairs, random_query_paths, Dataset, Scale};
use crate::figures::FigureOutput;
use pathcost_core::{CostEstimator, EstimateBreakdown, HybridGraph, OdEstimator, RdEstimator};
use pathcost_routing::{BestFirstRouter, RouterConfig};
use pathcost_traj::Timestamp;
use std::time::Instant;

/// Figure 16: mean estimation run-time per query path versus cardinality, for
/// OD, RD, HP, LB and the rank-capped OD-2/3/4 variants. HP is OD-2 and LB is
/// OD-1, so the HP and OD-2 columns time the same estimator; both are kept
/// because the paper plots both.
pub fn fig16_runtime(dataset: &Dataset, scale: Scale) -> FigureOutput {
    let cfg = experiment_config(scale);
    let (cards, per_card) = if scale == Scale::Quick {
        (vec![10usize, 20, 30], 20usize)
    } else {
        (vec![20usize, 40, 60, 80, 100], 100usize)
    };
    let graph = HybridGraph::build(&dataset.net, &dataset.store, cfg).expect("hybrid graph builds");
    let od = OdEstimator::new(&graph);
    let rd = RdEstimator::new(&graph, 5);
    let hp = OdEstimator::with_rank_cap(&graph, 2);
    let lb = OdEstimator::with_rank_cap(&graph, 1);
    let od2 = OdEstimator::with_rank_cap(&graph, 2);
    let od3 = OdEstimator::with_rank_cap(&graph, 3);
    let od4 = OdEstimator::with_rank_cap(&graph, 4);
    let estimators: Vec<&dyn CostEstimator> = vec![&od, &rd, &hp, &lb, &od2, &od3, &od4];

    let mut rows = vec![format!(
        "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "|P|", "OD", "RD", "HP", "LB", "OD-2", "OD-3", "OD-4"
    )];
    for card in cards {
        let queries = random_query_paths(dataset, card, per_card, 2_000 + card as u64);
        if queries.is_empty() {
            rows.push(format!("{card:>5}  (no query paths)"));
            continue;
        }
        let mut means = Vec::with_capacity(estimators.len());
        for est in &estimators {
            let start = Instant::now();
            let mut ok = 0usize;
            for (path, departure) in &queries {
                if est.estimate(path, *departure).is_ok() {
                    ok += 1;
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            means.push(elapsed / ok.max(1) as f64 * 1_000.0);
        }
        rows.push(format!(
            "{:>5} {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.2}ms",
            card, means[0], means[1], means[2], means[3], means[4], means[5], means[6]
        ));
    }
    FigureOutput {
        id: "Figure 16".to_string(),
        title: format!("Estimation run-time per query path ({})", dataset.name),
        rows,
    }
}

/// Figure 17: OI (decomposition identification), JC (joint computation) and
/// MC (marginal derivation) run-times for |P| ≈ 20 queries, as the dataset
/// grows.
pub fn fig17_breakdown(dataset: &Dataset, scale: Scale) -> FigureOutput {
    let cfg = experiment_config(scale);
    let fractions = [0.25, 0.5, 0.75, 1.0];
    let card = 20usize;
    let per_fraction = if scale == Scale::Quick { 20 } else { 100 };
    let mut rows = vec![format!(
        "{:>10} {:>10} {:>10} {:>10}",
        "dataset", "OI", "JC", "MC"
    )];
    for &fraction in &fractions {
        let subset = dataset.fraction(fraction);
        let graph = HybridGraph::build(&subset.net, &subset.store, cfg.clone())
            .expect("hybrid graph builds");
        let od = OdEstimator::new(&graph);
        let queries = random_query_paths(&subset, card, per_fraction, 3_000);
        let mut total = EstimateBreakdown::default();
        let mut n = 0usize;
        for (path, departure) in &queries {
            if let Ok((_, b)) = od.estimate_with_breakdown(path, *departure) {
                total.decomposition_s += b.decomposition_s;
                total.joint_s += b.joint_s;
                total.marginal_s += b.marginal_s;
                n += 1;
            }
        }
        let n = n.max(1) as f64;
        rows.push(format!(
            "{:>10} {:>8.2}ms {:>8.2}ms {:>8.2}ms",
            subset.name,
            total.decomposition_s / n * 1_000.0,
            total.joint_s / n * 1_000.0,
            total.marginal_s / n * 1_000.0
        ));
    }
    FigureOutput {
        id: "Figure 17".to_string(),
        title: format!(
            "Run-time breakdown of OD (|P| = {card}) vs dataset size ({})",
            dataset.name
        ),
        rows,
    }
}

/// Figure 18: average stochastic-routing time with the LB (OD-1), HP (OD-2)
/// and OD estimators for three travel-time budgets. The paper runs its DFS
/// probabilistic path query; this runs the best-first search that answers
/// the same query, the one the serving layer uses.
pub fn fig18_routing(dataset: &Dataset, scale: Scale) -> FigureOutput {
    let cfg = experiment_config(scale);
    let pairs = random_od_pairs(dataset, if scale == Scale::Quick { 15 } else { 100 }, 4_000);
    let graph = HybridGraph::build(&dataset.net, &dataset.store, cfg).expect("hybrid graph builds");
    let router = BestFirstRouter::new(
        &graph,
        RouterConfig {
            max_expansions: 4_000,
            max_candidates: 24,
            max_path_edges: 80,
        },
    )
    .expect("valid router config");
    let lb = OdEstimator::with_rank_cap(&graph, 1);
    let hp = OdEstimator::with_rank_cap(&graph, 2);
    let od = OdEstimator::new(&graph);
    let estimators: Vec<&dyn CostEstimator> = vec![&lb, &hp, &od];
    let budgets_min = [10.0, 20.0, 30.0];
    let departure = Timestamp::from_day_hms(0, 8, 0, 0);

    let mut rows = vec![format!(
        "{:>8} {:>12} {:>12} {:>12}",
        "budget", "LB", "HP", "OD"
    )];
    for budget_min in budgets_min {
        let mut times = Vec::with_capacity(estimators.len());
        for est in &estimators {
            let start = Instant::now();
            let mut solved = 0usize;
            for &(a, b) in &pairs {
                if let Ok(Some(_)) = router.route(*est, a, b, departure, budget_min * 60.0) {
                    solved += 1;
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            times.push((elapsed / pairs.len().max(1) as f64 * 1_000.0, solved));
        }
        rows.push(format!(
            "{:>7}m {:>10.1}ms {:>10.1}ms {:>10.1}ms   (solved {}/{}/{} of {})",
            budget_min,
            times[0].0,
            times[1].0,
            times[2].0,
            times[0].1,
            times[1].1,
            times[2].1,
            pairs.len()
        ));
    }
    FigureOutput {
        id: "Figure 18".to_string(),
        title: format!("Stochastic routing time by estimator ({})", dataset.name),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_traj::DatasetPreset;

    fn tiny() -> Dataset {
        Dataset::build(&DatasetPreset::tiny(19))
    }

    #[test]
    fn fig16_has_a_row_per_cardinality() {
        let d = tiny();
        let out = fig16_runtime(&d, Scale::Quick);
        assert!(out.rows.len() >= 2);
        assert!(out.rows[0].contains("OD-4"));
    }

    #[test]
    fn fig17_reports_three_phases() {
        let d = tiny();
        let out = fig17_breakdown(&d, Scale::Quick);
        assert!(out.rows[0].contains("OI"));
        assert_eq!(out.rows.len(), 5);
    }

    #[test]
    fn fig18_every_estimator_routes_at_the_loosest_budget() {
        let d = tiny();
        let out = fig18_routing(&d, Scale::Quick);
        assert_eq!(out.rows.len(), 4);
        // "(solved lb/hp/od of n)" on the 30-minute row.
        let solved = out.rows[3].split("(solved ").nth(1).unwrap();
        let counts: Vec<usize> = solved
            .split(" of ")
            .next()
            .unwrap()
            .split('/')
            .map(|n| n.parse().unwrap())
            .collect();
        assert_eq!(counts.len(), 3);
        assert!(counts.iter().all(|&n| n >= 1), "{}", out.rows[3]);
    }
}
