//! Joint-distribution estimation and the derivation of the path cost
//! distribution (§4.1.2 and §4.2).
//!
//! Given a decomposition `DE = (P₁, …, P_k)` of the query path, Equation 2
//! estimates the joint distribution of the query path's edge costs as
//!
//! ```text
//! p̂(C_P) = Π p(C_{P_i}) / Π p(C_{P_i ∩ P_{i−1}})
//! ```
//!
//! i.e. adjacent components are combined through the conditional distribution
//! of each component's *new* edges given its overlap with the previous one.
//! Because the final deliverable is the univariate cost distribution (the
//! distribution of the *sum* of all edge costs), the implementation never
//! materialises the full `n`-dimensional joint: it walks the decomposition
//! left to right keeping a compact state — the joint distribution of
//! (cost accumulated so far, costs of the edges shared with the next
//! component) — which is exactly what Equation 2's chain structure requires.
//! Each hyper-bucket of the final state is then turned into a cost bucket by
//! summing bounds and the overlapping buckets are re-arranged (§4.2).

use crate::decomposition::Decomposition;
use crate::error::CoreError;
use pathcost_hist::{Bucket, Histogram1D};

/// Maximum number of accumulated-sum buckets kept per overlap cell while
/// walking the decomposition. Larger values increase accuracy and run time.
pub const DEFAULT_STATE_BUCKETS: usize = 24;

/// One partial state while walking the decomposition chain.
#[derive(Debug, Clone)]
struct ChainState {
    /// Buckets of the edges shared with the *next* component, expressed in the
    /// current component's axes (empty when the next component does not overlap).
    overlap: Vec<Bucket>,
    /// Bucket of the total cost accumulated over all edges processed so far.
    sum: Bucket,
    /// Probability of this state.
    prob: f64,
}

/// Walks the decomposition chain and returns the final accumulated-sum
/// hyper-bucket entries — the (possibly overlapping) `(bucket, probability)`
/// pairs of §4.2 *before* the marginal rearrangement. Keeping this separate
/// from [`cost_histogram_with_limit`] lets the estimators time the joint
/// computation (JC) and the marginalisation (MC) as genuinely distinct
/// phases instead of re-running the rearrangement to observe it.
pub fn cost_entries_with_limit(
    decomposition: &Decomposition,
    max_state_buckets: usize,
) -> Result<Vec<(Bucket, f64)>, CoreError> {
    let comps = decomposition.components();
    if comps.is_empty() {
        return Err(CoreError::NoDistribution);
    }

    // Initial states from the first component.
    let overlap_with_next = decomposition.overlap_len(0);
    let first = &comps[0];
    let mut states: Vec<ChainState> = first
        .histogram
        .iter_cells()
        .map(|(buckets, prob)| {
            let sum = fold_sum(&buckets, 0, buckets.len());
            let overlap_start = buckets.len() - overlap_with_next;
            ChainState {
                overlap: buckets[overlap_start..].to_vec(),
                sum,
                prob,
            }
        })
        .collect();
    states = merge_states(states, max_state_buckets);

    for (i, comp) in comps.iter().enumerate().skip(1) {
        let overlap_prev = decomposition.overlap_len(i - 1);
        let overlap_next = decomposition.overlap_len(i);
        let rank = comp.rank();
        let cells: Vec<(Vec<Bucket>, f64)> = comp.histogram.iter_cells().collect();

        let mut next_states: Vec<ChainState> = Vec::with_capacity(states.len() * 4);
        for state in &states {
            // Conditional weight of each cell given that the shared edges fall
            // inside the state's overlap region (uniform-within-bucket mass).
            let mut weights: Vec<f64> = Vec::with_capacity(cells.len());
            let mut denom = 0.0;
            for (buckets, prob) in &cells {
                let mut frac = 1.0;
                for (bucket, overlap) in buckets.iter().zip(&state.overlap).take(overlap_prev) {
                    frac *= bucket.fraction_within(overlap);
                    if frac == 0.0 {
                        break;
                    }
                }
                let w = prob * frac;
                weights.push(w);
                denom += w;
            }
            // If the state's overlap region is incompatible with every cell of
            // this component (disjoint supports, e.g. fallback vs trajectory
            // data), fall back to the unconditional distribution.
            let use_unconditional = denom <= 1e-300;
            let denom = if use_unconditional { 1.0 } else { denom };

            for ((buckets, prob), w) in cells.iter().zip(&weights) {
                let p_cond = if use_unconditional { *prob } else { *w / denom };
                if p_cond <= 0.0 {
                    continue;
                }
                // The new edges of this component are the ones after the
                // overlap with the previous component.
                let new_sum = if overlap_prev < rank {
                    state.sum.sum(&fold_sum(buckets, overlap_prev, rank))
                } else {
                    state.sum
                };
                let overlap_start = rank - overlap_next;
                next_states.push(ChainState {
                    overlap: buckets[overlap_start..].to_vec(),
                    sum: new_sum,
                    prob: state.prob * p_cond,
                });
            }
        }
        states = merge_states(next_states, max_state_buckets);
        if states.is_empty() {
            return Err(CoreError::NoDistribution);
        }
    }

    Ok(states.into_iter().map(|s| (s.sum, s.prob)).collect())
}

/// Derives the query path's cost distribution from a decomposition, keeping at
/// most `max_state_buckets` accumulated-sum buckets per overlap cell.
pub fn cost_histogram_with_limit(
    decomposition: &Decomposition,
    max_state_buckets: usize,
) -> Result<Histogram1D, CoreError> {
    let entries = cost_entries_with_limit(decomposition, max_state_buckets)?;
    Histogram1D::from_overlapping(&entries).map_err(CoreError::from)
}

/// Derives the query path's cost distribution with the default state budget.
pub fn cost_histogram(decomposition: &Decomposition) -> Result<Histogram1D, CoreError> {
    cost_histogram_with_limit(decomposition, DEFAULT_STATE_BUCKETS)
}

/// Sums the bucket bounds of dimensions `[from, to)` of a hyper-bucket.
fn fold_sum(buckets: &[Bucket], from: usize, to: usize) -> Bucket {
    debug_assert!(from < to && to <= buckets.len());
    let mut acc = buckets[from];
    for b in &buckets[from + 1..to] {
        acc = acc.sum(b);
    }
    acc
}

/// Bounds the number of states by grouping them by overlap cell and coarsening
/// the accumulated-sum distribution within each group. Groups come out in
/// the order their overlap cell was first seen, so the state order — and with
/// it every later floating-point sum over the states — is a function of the
/// input alone.
fn merge_states(states: Vec<ChainState>, max_state_buckets: usize) -> Vec<ChainState> {
    use std::collections::hash_map::{Entry, HashMap};
    if states.is_empty() {
        return states;
    }
    // Group by the exact identity of the overlap buckets (they come from the
    // same component's axes, so bit-exact comparison is appropriate).
    type OverlapKey = Vec<(u64, u64)>;
    /// One overlap cell and the `(sum bucket, probability)` entries seen in it.
    type Group = (Vec<Bucket>, Vec<(Bucket, f64)>);
    let mut slots: HashMap<OverlapKey, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for s in states {
        let key: OverlapKey = s
            .overlap
            .iter()
            .map(|b| (b.lo.to_bits(), b.hi.to_bits()))
            .collect();
        let slot = match slots.entry(key) {
            Entry::Occupied(seen) => *seen.get(),
            Entry::Vacant(new) => {
                groups.push((s.overlap, Vec::new()));
                *new.insert(groups.len() - 1)
            }
        };
        groups[slot].1.push((s.sum, s.prob));
    }
    let mut merged = Vec::new();
    for (overlap, entries) in groups {
        let total: f64 = entries.iter().map(|&(_, p)| p).sum();
        if total <= 0.0 {
            continue;
        }
        if entries.len() <= max_state_buckets {
            for (sum, prob) in entries {
                merged.push(ChainState {
                    overlap: overlap.clone(),
                    sum,
                    prob,
                });
            }
            continue;
        }
        // Too many sum buckets for this overlap cell: re-bucket them.
        if let Ok(hist) = Histogram1D::from_overlapping(&entries) {
            let coarse = hist.coarsen(max_state_buckets);
            for (bucket, prob) in coarse.buckets().iter().zip(coarse.probs()) {
                merged.push(ChainState {
                    overlap: overlap.clone(),
                    sum: *bucket,
                    prob: prob * total,
                });
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::CandidateArray;
    use crate::config::HybridConfig;
    use crate::hybrid_graph::HybridGraph;
    use pathcost_traj::{CostKind, DatasetPreset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        net: pathcost_roadnet::RoadNetwork,
        store: pathcost_traj::TrajectoryStore,
        query: pathcost_roadnet::Path,
        departure: pathcost_traj::Timestamp,
        graph_cfg: HybridConfig,
    }

    fn fixture() -> Fixture {
        // Denser than the default tiny preset so the departure interval of the
        // chosen query path holds enough qualified trajectories.
        let mut preset = DatasetPreset::tiny(51);
        preset.simulation.trips = 600;
        let net = preset.build_network();
        let out = preset.simulate(&net).unwrap();
        let store = pathcost_traj::TrajectoryStore::from_ground_truth(&out);
        let graph_cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let frequent = store.frequent_paths(4, 10, None);
        // Prefer a (path, departure) whose departure interval holds enough
        // qualified trajectories for interval-local comparisons.
        let partition = crate::interval::DayPartition::new(graph_cfg.alpha_minutes).unwrap();
        let dense = frequent.iter().find_map(|(path, _)| {
            store.occurrences_on(path).into_iter().find_map(|occ| {
                let interval = partition.range(partition.interval_of(occ.entry_time.time_of_day()));
                (store.qualified(path, &interval).len() >= graph_cfg.beta)
                    .then_some((path.clone(), occ.entry_time))
            })
        });
        let (query, departure) = dense.unwrap_or_else(|| {
            let (query, _) = frequent[0].clone();
            let departure = store.occurrences_on(&query)[0].entry_time;
            (query, departure)
        });
        Fixture {
            net,
            store,
            query,
            departure,
            graph_cfg,
        }
    }

    fn decomposition(f: &Fixture, kind: &str) -> Decomposition {
        let graph = HybridGraph::build(&f.net, &f.store, f.graph_cfg.clone()).unwrap();
        let array = CandidateArray::build(&graph, &f.query, f.departure, None).unwrap();
        match kind {
            "coarsest" => Decomposition::coarsest(&array),
            "legacy" => Decomposition::legacy(&array),
            "pairwise" => Decomposition::pairwise(&array),
            _ => {
                let mut rng = StdRng::seed_from_u64(3);
                Decomposition::random(&array, &mut rng)
            }
        }
    }

    #[test]
    fn cost_histogram_is_normalised_for_every_decomposition_kind() {
        let f = fixture();
        for kind in ["coarsest", "legacy", "pairwise", "random"] {
            let d = decomposition(&f, kind);
            let h = cost_histogram(&d).unwrap();
            let total: f64 = h.probs().iter().sum();
            assert!((total - 1.0).abs() < 1e-6, "{kind}: mass {total}");
            assert!(h.mean() > 0.0, "{kind}: mean must be positive");
            assert!(h.min() >= 0.0);
        }
    }

    #[test]
    fn estimated_mean_is_close_to_empirical_mean() {
        let f = fixture();
        let d = decomposition(&f, "coarsest");
        let h = cost_histogram(&d).unwrap();
        // Empirical ground truth from the store, restricted to the departure's
        // α-interval — the estimate is interval-local, so comparing against
        // the whole day would mix distinct traffic regimes.
        let partition = crate::interval::DayPartition::new(f.graph_cfg.alpha_minutes).unwrap();
        let interval = partition.range(partition.interval_of(f.departure.time_of_day()));
        let totals =
            f.store
                .qualified_total_costs(&f.net, &f.query, &interval, CostKind::TravelTime);
        let empirical_mean: f64 = totals.iter().sum::<f64>() / totals.len() as f64;
        let rel = (h.mean() - empirical_mean).abs() / empirical_mean;
        assert!(
            rel < 0.35,
            "estimated mean {} vs empirical {empirical_mean}",
            h.mean()
        );
    }

    #[test]
    fn support_bounds_are_consistent_with_components() {
        let f = fixture();
        let d = decomposition(&f, "coarsest");
        let h = cost_histogram(&d).unwrap();
        // The minimum possible total cost cannot be below the sum over
        // components of their new-edge minima (a loose sanity bound: zero).
        assert!(h.min() >= 0.0);
        assert!(h.max() > h.min());
    }

    #[test]
    fn state_budget_controls_bucket_count_but_not_mass() {
        let f = fixture();
        let d = decomposition(&f, "coarsest");
        let fine = cost_histogram_with_limit(&d, 48).unwrap();
        let coarse = cost_histogram_with_limit(&d, 4).unwrap();
        assert!((fine.probs().iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!((coarse.probs().iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(
            (fine.mean() - coarse.mean()).abs() / fine.mean() < 0.2,
            "means should stay close: {} vs {}",
            fine.mean(),
            coarse.mean()
        );
    }

    #[test]
    fn legacy_equals_convolution_of_unit_marginals() {
        // With a purely unit decomposition the chain reduces to convolution.
        let f = fixture();
        let d = decomposition(&f, "legacy");
        let chain = cost_histogram(&d).unwrap();
        let unit_hists: Vec<Histogram1D> = d
            .components()
            .iter()
            .map(|c| c.histogram.marginal_1d(0).unwrap())
            .collect();
        let conv = pathcost_hist::convolution::convolve_many_with_limit(&unit_hists, 64).unwrap();
        assert!(
            (chain.mean() - conv.mean()).abs() / conv.mean() < 0.05,
            "chain {} vs convolution {}",
            chain.mean(),
            conv.mean()
        );
    }

    #[test]
    fn estimates_are_bit_reproducible_within_and_across_graphs() {
        use crate::estimator::{CostEstimator, OdEstimator};
        let f = fixture();
        let graph = HybridGraph::build(&f.net, &f.store, f.graph_cfg.clone()).unwrap();
        let rebuilt = HybridGraph::build(&f.net, &f.store, f.graph_cfg.clone()).unwrap();
        // Whole trips: long enough that the chain walks several overlapping
        // components and merges states from more than one overlap cell.
        let mut queries = 0;
        let mut multi_component = 0;
        for m in f
            .store
            .matched()
            .iter()
            .filter(|m| m.path.cardinality() >= 8)
        {
            let departure = m.entry_times[0];
            let od = OdEstimator::new(&graph);
            let first = od.estimate(&m.path, departure).unwrap();
            let again = od.estimate(&m.path, departure).unwrap();
            let other = OdEstimator::new(&rebuilt)
                .estimate(&m.path, departure)
                .unwrap();
            assert_eq!(first, again, "same graph, second evaluation");
            assert_eq!(first, other, "independently built graph");
            let array = CandidateArray::build(&graph, &m.path, departure, None).unwrap();
            multi_component += usize::from(Decomposition::coarsest(&array).len() > 2);
            queries += 1;
            if queries == 60 {
                break;
            }
        }
        assert!(queries >= 20, "only {queries} long trips in the fixture");
        assert!(
            multi_component >= 10,
            "only {multi_component} chained queries"
        );
    }

    #[test]
    fn empty_decomposition_is_rejected() {
        let f = fixture();
        let d = decomposition(&f, "coarsest");
        // Construct an artificial empty decomposition via the public API is not
        // possible; instead check that a single-component decomposition works
        // and produces the component's own cost distribution.
        if d.len() == 1 {
            let h = cost_histogram(&d).unwrap();
            assert!(h.bucket_count() >= 1);
        }
    }
}
