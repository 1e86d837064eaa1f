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
//!
//! # State layout
//!
//! A state is one `(accumulated-sum bucket, probability)` pair; what it
//! shares with the next component is not stored per state but per *overlap
//! group*: the states whose shared edges fall in the same buckets lie
//! contiguously in one flat array, and the group remembers one cell of the
//! component that produced it, from whose index key the shared buckets are
//! read off the component's axes. Walking a component therefore costs
//!
//! * once per component: the sum of every cell's new-edge buckets and the
//!   dense id of every cell's overlap with the next component;
//! * once per overlap group: per-dimension tables of how much of each axis
//!   bucket lies within the group's shared buckets, the conditional weight of
//!   every cell from them, and the division by their sum;
//! * per state: one `(sum, probability)` pair emitted per cell of positive
//!   conditional weight, slotted by the cell's overlap id —
//!
//! `O(groups · cells + states · live cells)` instead of the
//! `O(states · cells · dims)` bucket intersections (and one allocation per
//! emitted state) of the straight-line walk, which survives as the test-only
//! `reference` module; the two agree bit for bit. An overlap group that
//! outgrows the state budget is re-bucketed by [`pathcost_hist::rebucket`].
//! All working memory is a per-thread scratch, so a steady-state walk
//! allocates only the entries it returns.

use crate::decomposition::Decomposition;
use crate::error::CoreError;
use pathcost_hist::{rebucket, Bucket, Histogram1D, HistogramNd, RebucketScratch};
use std::cell::RefCell;

/// Maximum number of accumulated-sum buckets kept per overlap cell while
/// walking the decomposition. Larger values increase accuracy and run time.
pub const DEFAULT_STATE_BUCKETS: usize = 24;

const NIL: u32 = u32::MAX;

/// Working memory of the chain walk (see the module docs for the layout).
#[derive(Default)]
struct ChainScratch {
    /// The merged states, the states of one overlap group contiguous.
    states: Vec<(Bucket, f64)>,
    /// One `(cell, end)` per overlap group, in first-seen order: a cell of
    /// the component walked last whose overlap buckets the group's states
    /// share, and the end of the group's range in `states`.
    groups: Vec<(u32, u32)>,
    /// Per cell of the current component: the sum of its new-edge buckets
    /// (empty when the component adds no edge).
    new_sum: Vec<Bucket>,
    /// Per cell: dense id of its overlap with the next component.
    next_id: Vec<u32>,
    /// Cell order scratch of the id assignment.
    order: Vec<u32>,
    /// Per overlap group: the fraction of every axis bucket of the shared
    /// dimensions within the group's bucket, the axes back to back.
    fractions: Vec<f64>,
    /// Per overlap group: every cell's weight, then `(cell, conditional
    /// probability, slot)` of the cells with a positive one.
    weights: Vec<f64>,
    live: Vec<(u32, f64, u32)>,
    /// Emitted states in emission order and the slot of each; `slot_of` maps
    /// an overlap id to its slot (first-seen order, `NIL` until seen) and
    /// `slots` holds each slot's `(first cell, state count)`.
    emitted: Vec<(Bucket, f64)>,
    emitted_slot: Vec<u32>,
    slot_of: Vec<u32>,
    slots: Vec<(u32, u32)>,
    /// The emitted states grouped by slot, emission order kept within one.
    sorted: Vec<(Bucket, f64)>,
    rebucket: RebucketScratch,
}

impl ChainScratch {
    /// Tabulates what the walk reads of every cell of `hist`, a component
    /// sharing its first `overlap_prev` edges with the previous component and
    /// its last `overlap_next` with the next.
    fn index_component(&mut self, hist: &HistogramNd, overlap_prev: usize, overlap_next: usize) {
        let (axes, cells, rank) = (hist.axes(), hist.cells(), hist.dims());
        debug_assert!(overlap_prev <= rank && overlap_next <= rank);
        self.new_sum.clear();
        if overlap_prev < rank {
            self.new_sum.extend(cells.iter().map(|(key, _)| {
                let mut acc = axes[overlap_prev][key[overlap_prev] as usize];
                for d in overlap_prev + 1..rank {
                    acc = acc.sum(&axes[d][key[d] as usize]);
                }
                acc
            }));
        }
        // Equal key suffixes get equal ids: sort the cells by suffix and
        // number the runs.
        let suffix = |cell: u32| &cells[cell as usize].0[rank - overlap_next..];
        self.next_id.clear();
        self.next_id.resize(cells.len(), 0);
        let mut ids = 1;
        if overlap_next > 0 {
            self.order.clear();
            self.order.extend(0..cells.len() as u32);
            self.order
                .sort_unstable_by(|&a, &b| suffix(a).cmp(suffix(b)));
            for w in self.order.windows(2) {
                ids += u32::from(suffix(w[0]) != suffix(w[1]));
                self.next_id[w[1] as usize] = ids - 1;
            }
        }
        self.slot_of.clear();
        self.slot_of.resize(ids as usize, NIL);
    }

    /// The slot of the overlap group `cell` emits into, opened on first use.
    fn slot(&mut self, cell: u32) -> u32 {
        let slot = &mut self.slot_of[self.next_id[cell as usize] as usize];
        if *slot == NIL {
            *slot = self.slots.len() as u32;
            self.slots.push((cell, 0));
        }
        *slot
    }

    /// Emits the states of the first component: one per cell.
    fn seed(&mut self, first: &HistogramNd) {
        for (cell, &(_, prob)) in first.cells().iter().enumerate() {
            let slot = self.slot(cell as u32);
            self.slots[slot as usize].1 += 1;
            self.emitted.push((self.new_sum[cell], prob));
            self.emitted_slot.push(slot);
        }
    }

    /// Chains `comp`, indexed by [`Self::index_component`], onto the states
    /// left by `prev`: every state times the conditional distribution of
    /// `comp`'s cells given the `overlap_prev` edges the two share.
    fn extend(&mut self, prev: &HistogramNd, comp: &HistogramNd, overlap_prev: usize) {
        let (axes, cells) = (comp.axes(), comp.cells());
        let shared_from = prev.dims() - overlap_prev;
        let mut start = 0usize;
        for g in 0..self.groups.len() {
            let (rep, end) = self.groups[g];
            // Conditional weight of each cell given that the shared edges fall
            // inside the group's overlap region (uniform-within-bucket mass).
            let rep_key = &prev.cells()[rep as usize].0[shared_from..];
            self.fractions.clear();
            for (d, &index) in rep_key.iter().enumerate() {
                let overlap = prev.axes()[shared_from + d][index as usize];
                self.fractions
                    .extend(axes[d].iter().map(|b| b.fraction_within(&overlap)));
            }
            self.weights.clear();
            let mut denom = 0.0;
            for (key, prob) in cells {
                let mut frac = 1.0;
                let mut table = 0;
                for (d, &index) in key[..overlap_prev].iter().enumerate() {
                    frac *= self.fractions[table + index as usize];
                    if frac == 0.0 {
                        break;
                    }
                    table += axes[d].len();
                }
                let w = prob * frac;
                self.weights.push(w);
                denom += w;
            }
            // If the group's overlap region is incompatible with every cell of
            // this component (disjoint supports, e.g. fallback vs trajectory
            // data), fall back to the unconditional distribution.
            let use_unconditional = denom <= 1e-300;
            self.live.clear();
            for (cell, (_, prob)) in cells.iter().enumerate() {
                let p_cond = if use_unconditional {
                    *prob
                } else {
                    self.weights[cell] / denom
                };
                if p_cond <= 0.0 {
                    continue;
                }
                // Every state of the group emits this same cell sequence, so
                // opening the slots here keeps them in first-emission order.
                let slot = self.slot(cell as u32);
                self.slots[slot as usize].1 += end - start as u32;
                self.live.push((cell as u32, p_cond, slot));
            }
            for &(sum, prob) in &self.states[start..end as usize] {
                for &(cell, p_cond, slot) in &self.live {
                    // The new edges of this component are the ones after the
                    // overlap with the previous component.
                    let new_sum = match self.new_sum.get(cell as usize) {
                        Some(added) => sum.sum(added),
                        None => sum,
                    };
                    self.emitted.push((new_sum, prob * p_cond));
                    self.emitted_slot.push(slot);
                }
            }
            start = end as usize;
        }
    }

    /// Bounds the number of states: groups the emitted ones by overlap slot
    /// and coarsens the accumulated-sum distribution of every group that
    /// outgrew `max_state_buckets`. Groups come out in the order their
    /// overlap cell was first seen, so the state order — and with it every
    /// later floating-point sum over the states — is a function of the input
    /// alone.
    fn merge(&mut self, max_state_buckets: usize) {
        // A counting sort by slot: each slot's count becomes the cursor its
        // states are written at, which ends up at the end of its range.
        let mut cursor = 0u32;
        for slot in &mut self.slots {
            cursor += std::mem::replace(&mut slot.1, cursor);
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.emitted);
        for (&entry, &slot) in self.emitted.iter().zip(&self.emitted_slot) {
            let at = &mut self.slots[slot as usize].1;
            self.sorted[*at as usize] = entry;
            *at += 1;
        }
        self.emitted.clear();
        self.emitted_slot.clear();
        self.states.clear();
        self.groups.clear();
        let mut start = 0usize;
        for &(cell, end) in &self.slots {
            let entries = &self.sorted[start..end as usize];
            start = end as usize;
            let total: f64 = entries.iter().map(|&(_, p)| p).sum();
            if total <= 0.0 {
                continue;
            }
            let before = self.states.len();
            if entries.len() <= max_state_buckets {
                self.states.extend_from_slice(entries);
            } else if let Ok(coarse) = rebucket(entries, max_state_buckets, &mut self.rebucket) {
                // Too many sum buckets for this overlap cell: re-bucketed.
                self.states
                    .extend(coarse.iter().map(|&(bucket, prob)| (bucket, prob * total)));
            }
            if self.states.len() > before {
                self.groups.push((cell, self.states.len() as u32));
            }
        }
        self.slots.clear();
    }
}

thread_local! {
    static SCRATCH: RefCell<ChainScratch> = RefCell::new(ChainScratch::default());
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
    SCRATCH.with(|cell| {
        cost_entries_with_scratch(decomposition, max_state_buckets, &mut cell.borrow_mut())
    })
}

/// [`cost_entries_with_limit`] on caller-provided working memory.
fn cost_entries_with_scratch(
    decomposition: &Decomposition,
    max_state_buckets: usize,
    scratch: &mut ChainScratch,
) -> Result<Vec<(Bucket, f64)>, CoreError> {
    let comps = decomposition.components();
    if comps.is_empty() {
        return Err(CoreError::NoDistribution);
    }
    for (i, comp) in comps.iter().enumerate() {
        let overlap_prev = if i == 0 {
            0
        } else {
            decomposition.overlap_len(i - 1)
        };
        let hist = &comp.var.histogram;
        scratch.index_component(hist, overlap_prev, decomposition.overlap_len(i));
        if i == 0 {
            scratch.seed(hist);
        } else {
            scratch.extend(&comps[i - 1].var.histogram, hist, overlap_prev);
        }
        scratch.merge(max_state_buckets);
        if i > 0 && scratch.states.is_empty() {
            return Err(CoreError::NoDistribution);
        }
    }
    Ok(scratch.states.clone())
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

#[cfg(test)]
mod reference;

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
        // LB and HP are the coarsest decompositions under caps of 1 and 2.
        let cap = match kind {
            "legacy" => Some(1),
            "pairwise" => Some(2),
            _ => None,
        };
        let array = CandidateArray::build(&graph, &f.query, f.departure, cap).unwrap();
        match kind {
            "random" => {
                let mut rng = StdRng::seed_from_u64(3);
                Decomposition::random(&array, &mut rng)
            }
            _ => Decomposition::coarsest(&array),
        }
    }

    #[test]
    fn cost_histogram_is_normalised_for_every_decomposition_kind() {
        let f = fixture();
        for kind in ["coarsest", "legacy", "pairwise", "random"] {
            let d = decomposition(&f, kind);
            let h = cost_histogram_with_limit(&d, DEFAULT_STATE_BUCKETS).unwrap();
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
        let h = cost_histogram_with_limit(&d, DEFAULT_STATE_BUCKETS).unwrap();
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
        let h = cost_histogram_with_limit(&d, DEFAULT_STATE_BUCKETS).unwrap();
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
        let chain = cost_histogram_with_limit(&d, DEFAULT_STATE_BUCKETS).unwrap();
        let unit_hists: Vec<Histogram1D> = d
            .components()
            .iter()
            .map(|c| c.var.edge_marginal(0).unwrap())
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
            let h = cost_histogram_with_limit(&d, DEFAULT_STATE_BUCKETS).unwrap();
            assert!(h.bucket_count() >= 1);
        }
    }
}
