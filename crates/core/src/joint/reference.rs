//! The straight-line chain walk the kernel in [`super`] replaced, kept for
//! tests only: every state carries its own overlap buckets, the conditional
//! weight vector is recomputed per state, states are grouped through a hash
//! map keyed by the overlap's bit patterns, and an oversized group is
//! re-bucketed through two [`Histogram1D`] builds. The kernel must reproduce
//! its output bit for bit — see the tests at the bottom.

use crate::decomposition::Decomposition;
use crate::error::CoreError;
use pathcost_hist::{Bucket, Histogram1D};

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
        .var
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
        let cells: Vec<(Vec<Bucket>, f64)> = comp.var.histogram.iter_cells().collect();

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
    use crate::candidate::{CandidateArray, CandidateSource, SelectedVariable};
    use crate::config::HybridConfig;
    use crate::estimator::{CostEstimator, OdEstimator};
    use crate::hybrid_graph::HybridGraph;
    use crate::interval::IntervalId;
    use crate::joint::{self, ChainScratch};
    use crate::variable::{InstantiatedVariable, VariableSource};
    use pathcost_hist::HistogramNd;
    use pathcost_roadnet::{EdgeId, Path};
    use pathcost_traj::DatasetPreset;
    use proptest::prelude::*;

    /// Every bit of a walk's outcome (an error by its text).
    fn bits(outcome: Result<Vec<(Bucket, f64)>, CoreError>) -> Result<Vec<u64>, String> {
        outcome
            .map(|entries| {
                entries
                    .iter()
                    .flat_map(|&(b, p)| [b.lo, b.hi, p])
                    .map(f64::to_bits)
                    .collect()
            })
            .map_err(|e| format!("{e:?}"))
    }

    /// Draws from a pool of uniform `[0, 1)` numbers, wrapping around.
    struct Draws<'a> {
        pool: &'a [f64],
        at: usize,
    }

    impl Draws<'_> {
        fn unit(&mut self) -> f64 {
            self.at += 1;
            self.pool[self.at % self.pool.len()]
        }

        fn below(&mut self, n: usize) -> usize {
            ((self.unit() * n as f64) as usize).min(n - 1)
        }
    }

    /// A sorted disjoint axis of `buckets` buckets somewhere above `base`.
    fn axis(draws: &mut Draws<'_>, base: f64, buckets: usize) -> Vec<Bucket> {
        let mut lo = base + draws.unit() * 10.0;
        (0..buckets)
            .map(|_| {
                let hi = lo + 1.0 + draws.unit() * 12.0;
                let bucket = Bucket::new(lo, hi).unwrap();
                // Mostly contiguous, sometimes a gap.
                lo = hi + if draws.unit() < 0.2 { 3.0 } else { 0.0 };
                bucket
            })
            .collect()
    }

    /// A component over `axes` holding about `fill` of the cross product of
    /// its axes (at least one cell), every cell for which `zero` holds with
    /// mass `0.0`. Masses are not normalised: the walk does not rely on a
    /// unit total.
    fn component(
        draws: &mut Draws<'_>,
        start: usize,
        axes: Vec<Vec<Bucket>>,
        fill: f64,
        zero: impl Fn(&[u32]) -> bool,
    ) -> SelectedVariable {
        let mut keys: Vec<Vec<u32>> = vec![Vec::new()];
        for axis in &axes {
            keys = keys
                .iter()
                .flat_map(|key| {
                    (0..axis.len() as u32).map(move |i| {
                        let mut key = key.clone();
                        key.push(i);
                        key
                    })
                })
                .collect();
        }
        let keep = draws.below(keys.len());
        let cells: Vec<(Vec<u32>, f64)> = keys
            .into_iter()
            .enumerate()
            .filter_map(|(i, key)| {
                if i != keep && draws.unit() >= fill {
                    return None;
                }
                let mass = if zero(&key) { 0.0 } else { 0.01 + draws.unit() };
                Some((key, mass / 8.0))
            })
            .collect();
        let rank = axes.len();
        let var = InstantiatedVariable::new(
            Path::from_edges_unchecked((start..start + rank).map(|e| EdgeId(e as u32)).collect()),
            IntervalId(0),
            HistogramNd::from_raw_parts(axes, cells).unwrap(),
            VariableSource::Trajectories { count: 0 },
        );
        SelectedVariable {
            start,
            var: std::sync::Arc::new(var),
            source: CandidateSource::Instantiated(0),
        }
    }

    const KINDS: usize = 7;

    /// Shapes `pool` into a decomposition of the given kind — one kind per
    /// branch of the walk — and the state budget to walk it under:
    ///
    /// 0. a single component;
    /// 1. a run of components sharing no edge — a pure convolution;
    /// 2. an ordinary chain of overlapping components of rank 1–4;
    /// 3. a chain with a component wholly inside its predecessor's tail
    ///    (`overlap_prev == rank`: it adds no edge, only re-weights);
    /// 4. a chain whose second component's shared axes lie far above the
    ///    first's — no cell is compatible with any state, `denom ≤ 1e-300`,
    ///    the unconditional fallback;
    /// 5. a first component of exactly 24 or 25 cells in one overlap group
    ///    under a budget of 24 — the last group kept as it is and the first
    ///    one re-bucketed — followed by an ordinary chain;
    /// 6. a first component one of whose overlap groups holds only zero-mass
    ///    cells, and zero-mass cells further down the chain.
    fn decomposition(kind: usize, pool: &[f64]) -> (Decomposition, usize) {
        let mut draws = Draws { pool, at: 0 };
        let d = &mut draws;
        // Every edge has a base cost its axes sit above, so two components'
        // axes for a shared edge overlap the way two fits of one edge do.
        let base = |edge: usize| 20.0 + 9.0 * (edge % 5) as f64;
        let axes_over =
            |d: &mut Draws<'_>, start: usize, rank: usize, shift: f64| -> Vec<Vec<Bucket>> {
                (start..start + rank)
                    .map(|edge| {
                        let buckets = 1 + d.below(if rank >= 3 { 3 } else { 5 });
                        axis(d, base(edge) + shift, buckets)
                    })
                    .collect()
            };
        let never = |_: &[u32]| false;
        let mut comps: Vec<SelectedVariable> = Vec::new();
        let mut budget = [24, 3, 1][d.below(3)];
        let chain =
            |d: &mut Draws<'_>, comps: &mut Vec<SelectedVariable>, more: usize, zeros: bool| {
                for _ in 0..more {
                    let prev = comps.last().unwrap();
                    let rank = 1 + d.below(4);
                    // Shares 0..rank−1 edges with the previous component, so it
                    // always adds at least one.
                    let overlap = d.below(rank.min(prev.rank() + 1));
                    let start = prev.end() - overlap;
                    let axes = axes_over(d, start, rank, 0.0);
                    let dead = d.below(3) as u32;
                    comps.push(component(d, start, axes, 0.7, |key| {
                        zeros && key[0] == dead
                    }));
                }
            };
        match kind {
            0 => {
                let rank = 1 + d.below(4);
                let axes = axes_over(d, 0, rank, 0.0);
                comps.push(component(d, 0, axes, 0.8, never));
            }
            1 => {
                for _ in 0..2 + d.below(12) {
                    let start = comps.last().map_or(0, SelectedVariable::end);
                    let rank = 1 + d.below(2);
                    let axes = axes_over(d, start, rank, 0.0);
                    comps.push(component(d, start, axes, 0.9, never));
                }
            }
            3 => {
                let axes = axes_over(d, 0, 3, 0.0);
                comps.push(component(d, 0, axes, 0.8, never));
                let rank = 1 + d.below(2);
                let axes = axes_over(d, 3 - rank, rank, 0.0);
                comps.push(component(d, 3 - rank, axes, 0.9, never));
                let more = d.below(4);
                chain(d, &mut comps, more, false);
            }
            4 => {
                let axes = axes_over(d, 0, 2, 0.0);
                comps.push(component(d, 0, axes, 0.8, never));
                let axes = axes_over(d, 1, 2, 10_000.0);
                comps.push(component(d, 1, axes, 0.8, never));
                let more = d.below(3);
                chain(d, &mut comps, more, false);
            }
            5 => {
                budget = 24;
                let cells = 24 + d.below(2);
                let axes = vec![axis(d, base(0), cells)];
                comps.push(component(d, 0, axes, 1.0, never));
                let axes = axes_over(d, 1, 2, 0.0);
                comps.push(component(d, 1, axes, 0.8, never));
                let more = d.below(4);
                chain(d, &mut comps, more, false);
            }
            6 => {
                let axes = axes_over(d, 0, 2, 0.0);
                let dead = d.below(axes[1].len()) as u32;
                comps.push(component(d, 0, axes, 1.0, |key| key[1] == dead));
                let axes = axes_over(d, 1, 2, 0.0);
                comps.push(component(d, 1, axes, 0.8, never));
                let more = 1 + d.below(4);
                chain(d, &mut comps, more, true);
            }
            _ => {
                let axes = axes_over(d, 0, 2, 0.0);
                comps.push(component(d, 0, axes, 0.8, never));
                let more = 1 + d.below(8);
                chain(d, &mut comps, more, false);
            }
        }
        let query_len = comps.last().unwrap().end();
        (Decomposition::assemble(comps, query_len), budget)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(420))]

        #[test]
        fn kernel_is_bit_identical_to_the_straight_line_walk(
            kind in 0usize..KINDS,
            pool in prop::collection::vec(0.0f64..1.0, 997..998),
        ) {
            let (d, budget) = decomposition(kind, &pool);

            // The decomposition really is of its kind.
            let comps = d.components();
            match kind {
                0 => prop_assert_eq!(d.len(), 1),
                1 => prop_assert!((0..d.len()).all(|i| d.overlap_len(i) == 0)),
                3 => prop_assert_eq!(d.overlap_len(0), comps[1].rank()),
                4 => {
                    let top = comps[0].var.histogram.axes()[1].last().unwrap().hi;
                    prop_assert!(comps[1].var.histogram.axes()[0][0].lo > top);
                }
                5 => {
                    prop_assert_eq!(d.overlap_len(0), 0);
                    let cells = comps[0].var.histogram.cell_count();
                    prop_assert!(cells == budget || cells == budget + 1);
                }
                6 => {
                    let cells = comps[0].var.histogram.cells();
                    let dead = cells.iter().find(|(_, p)| *p == 0.0).unwrap().0[1];
                    prop_assert!(cells.iter().all(|(key, p)| (key[1] == dead) == (*p == 0.0)));
                }
                _ => {}
            }

            let expected = bits(cost_entries_with_limit(&d, budget));
            prop_assert_eq!(&bits(joint::cost_entries_with_limit(&d, budget)), &expected);
            // A fresh scratch and the long-lived thread-local one agree.
            let fresh = joint::cost_entries_with_scratch(&d, budget, &mut ChainScratch::default());
            prop_assert_eq!(&bits(fresh), &expected);
        }
    }

    /// The Fig 17 corridor: a 30-edge walk on an 8×8 grid that 80 trips
    /// drive end to end in the same α-interval, so every sub-path up to the
    /// rank cap is instantiated. Returns the legacy decomposition (the
    /// coarsest under a cap of 1) of its 20-edge prefix (a run of unit
    /// components, a pure convolution) and the coarsest decomposition of the
    /// whole corridor (rank-6 components overlapping by five edges: every
    /// overlap group re-weighted and most of them re-bucketed).
    fn corridor_decompositions() -> (Decomposition, Decomposition) {
        use pathcost_roadnet::{GeneratorConfig, VertexId};
        use pathcost_traj::{MatchedTrajectory, Timestamp, TrajectoryStore};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const EDGES: usize = 30;
        let net = GeneratorConfig {
            rows: 8,
            cols: 8,
            ..GeneratorConfig::tiny(2017)
        }
        .generate();
        // A walk from the first vertex that never revisits one.
        let to = |e| net.edge(e).unwrap().to;
        let mut visited = vec![VertexId(0)];
        let mut edges = Vec::with_capacity(EDGES);
        while edges.len() < EDGES {
            let at = visited[visited.len() - 1];
            let mut out = net.out_edges(at).iter().copied();
            let next = out.find(|&e| !visited.contains(&to(e))).unwrap();
            visited.push(to(next));
            edges.push(next);
        }
        let corridor = Path::new(&net, edges).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let rows: Vec<MatchedTrajectory> = (0..80u32)
            .map(|day| {
                // Per-edge times of 15–25 s sharing a congestion factor.
                let congestion: f64 = rng.gen_range(0.8..1.4);
                let times: Vec<f64> = (0..EDGES)
                    .map(|e| ((15 + e % 11) as f64 * congestion + rng.gen_range(0.0..6.0)).round())
                    .collect();
                let mut clock = Timestamp::from_day_hms(day, 8, 2, 0).0;
                let entries = times
                    .iter()
                    .map(|t| {
                        let entry = Timestamp(clock);
                        clock += t;
                        entry
                    })
                    .collect();
                MatchedTrajectory::new(u64::from(day), corridor.clone(), entries, times).unwrap()
            })
            .collect();
        let store = TrajectoryStore::new(rows);
        let graph = HybridGraph::build(&net, &store, HybridConfig::default()).unwrap();
        let departure = Timestamp::from_day_hms(3, 8, 2, 0);

        let prefix = Path::new(&net, corridor.edges()[..20].to_vec()).unwrap();
        let array = CandidateArray::build(&graph, &prefix, departure, Some(1)).unwrap();
        let unit_run = Decomposition::coarsest(&array);
        let array = CandidateArray::build(&graph, &corridor, departure, None).unwrap();
        (unit_run, Decomposition::coarsest(&array))
    }

    #[test]
    fn kernel_is_bit_identical_to_the_straight_line_walk_on_the_fig17_corridor() {
        let (unit_run, overlapping) = corridor_decompositions();
        assert_eq!(unit_run.ranks(), [1; 20]);
        assert_eq!(overlapping.ranks(), [6; 25]);
        for d in [&unit_run, &overlapping] {
            let budget = joint::DEFAULT_STATE_BUCKETS;
            let expected = bits(cost_entries_with_limit(d, budget));
            assert!(expected.is_ok());
            assert_eq!(bits(joint::cost_entries_with_limit(d, budget)), expected);
        }
    }

    /// FNV-1a over every bit of `OdEstimator::estimate` on whole trips of a
    /// preset store (bucket count, bounds and masses; `u64::MAX` for an
    /// error), with the number of trips digested and of those whose coarsest
    /// decomposition chains more than two components.
    fn estimate_digest(preset: &DatasetPreset, beta: usize, trips: usize) -> (u64, usize, usize) {
        let (net, store) = preset.materialise().unwrap();
        let cfg = HybridConfig {
            beta,
            ..HybridConfig::default()
        };
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let od = OdEstimator::new(&graph);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let (mut pairs, mut chained) = (0, 0);
        for m in store
            .matched()
            .iter()
            .filter(|m| m.path.cardinality() >= 6)
            .take(trips)
        {
            let departure = m.entry_times[0];
            match od.estimate(&m.path, departure) {
                Ok(hist) => {
                    eat(hist.bucket_count() as u64);
                    for (b, p) in hist.buckets().iter().zip(hist.probs()) {
                        eat(b.lo.to_bits());
                        eat(b.hi.to_bits());
                        eat(p.to_bits());
                    }
                }
                Err(_) => eat(u64::MAX),
            }
            // The same chain under a tight state budget, so most overlap
            // groups are rebucketed.
            let array = CandidateArray::build(&graph, &m.path, departure, None).unwrap();
            let coarsest = Decomposition::coarsest(&array);
            for (b, p) in joint::cost_entries_with_limit(&coarsest, 5).unwrap() {
                eat(b.lo.to_bits());
                eat(b.hi.to_bits());
                eat(p.to_bits());
            }
            chained += usize::from(coarsest.len() > 2);
            pairs += 1;
        }
        (h, pairs, chained)
    }

    /// Digests captured at the parent of PR 14 (the per-state chain walk with
    /// its `HashMap` merge and `Histogram1D` rebuckets).
    #[test]
    fn estimates_match_the_pre_pr14_golden_digest() {
        let mut dense = DatasetPreset::tiny(51);
        dense.simulation.trips = 600;
        assert_eq!(
            estimate_digest(&dense, 10, 150),
            (0x598a_557a_6a15_f1fe, 150, 91),
            "600-trip tiny(51)"
        );
        assert_eq!(
            estimate_digest(&DatasetPreset::tiny(31), 10, 150),
            (0xfe85_fe88_1dae_fec4, 143, 130),
            "tiny(31)"
        );
    }

    /// Two threads walking the same decompositions at the same time, each
    /// through its own thread-local scratch, agree with a fresh-scratch walk.
    #[test]
    fn concurrent_walks_through_the_thread_local_scratch_agree() {
        let mut dense = DatasetPreset::tiny(51);
        dense.simulation.trips = 600;
        let (net, store) = dense.materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let graph = HybridGraph::build(&net, &store, cfg).unwrap();
        let decompositions: Vec<Decomposition> = store
            .matched()
            .iter()
            .filter(|m| m.path.cardinality() >= 8)
            .take(40)
            .map(|m| {
                let array = CandidateArray::build(&graph, &m.path, m.entry_times[0], None).unwrap();
                Decomposition::coarsest(&array)
            })
            .collect();
        let expected: Vec<_> = decompositions
            .iter()
            .map(|d| {
                bits(joint::cost_entries_with_scratch(
                    d,
                    6,
                    &mut ChainScratch::default(),
                ))
            })
            .collect();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|worker| {
                    let (decompositions, barrier) = (&decompositions, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        // Opposite orders, so the two scratches see different
                        // histories while they run side by side.
                        let mut walked: Vec<_> = (0..decompositions.len())
                            .map(|i| {
                                if worker == 0 {
                                    i
                                } else {
                                    decompositions.len() - 1 - i
                                }
                            })
                            .map(|i| {
                                (
                                    i,
                                    bits(joint::cost_entries_with_limit(&decompositions[i], 6)),
                                )
                            })
                            .collect();
                        walked.sort_by_key(|(i, _)| *i);
                        walked.into_iter().map(|(_, b)| b).collect::<Vec<_>>()
                    })
                })
                .collect();
            for worker in workers {
                assert_eq!(worker.join().expect("walker panicked"), expected);
            }
        });
    }
}
