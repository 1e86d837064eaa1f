//! Equivalence property tests: the optimised histogram kernels (sweep-line
//! rearrangement, scratch-buffered convolution with its point-mass fast path,
//! tournament-tree coarsening, the scratch rebucket that chains the two,
//! binary-search CDF evaluation) against the naive reference implementations
//! in `support/hist_naive.rs` — the exact pre-optimisation code, kept as test
//! code only. Where the arithmetic is reassociated (sweep accumulation, CDF
//! differencing) equivalence is asserted within `1e-12` total variation;
//! where the operation sequence is identical (coarsening merge order,
//! `prob_leq`, `quantile`, `pdf_at`) it is asserted bit-for-bit.

use pathcost::hist::convolution::{
    convolve_many_with_limit, convolve_many_with_scratch, convolve_with_limit,
};
use pathcost::hist::{rebucket, Bucket, ConvolveScratch, Histogram1D, RebucketScratch};
use proptest::prelude::*;

#[path = "support/hist_naive.rs"]
mod naive;

/// `(start, width, mass)` triples convertible into overlapping buckets.
fn overlapping_triples() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    prop::collection::vec((0.0f64..400.0, 0.5f64..60.0, 0.01f64..1.0), 1..20)
}

fn to_entries(triples: &[(f64, f64, f64)]) -> Vec<(Bucket, f64)> {
    triples
        .iter()
        .map(|&(lo, width, mass)| (Bucket::new(lo, lo + width).unwrap(), mass))
        .collect()
}

fn histogram(triples: &[(f64, f64, f64)]) -> Histogram1D {
    Histogram1D::from_overlapping(&to_entries(triples)).unwrap()
}

/// Total variation distance computed over the union of both bucket grids.
fn total_variation(a: &Histogram1D, b: &Histogram1D) -> f64 {
    let mut cuts: Vec<f64> = a
        .buckets()
        .iter()
        .chain(b.buckets())
        .flat_map(|bk| [bk.lo, bk.hi])
        .collect();
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let mut tv = 0.0;
    for w in cuts.windows(2) {
        tv += (a.prob_within(w[0], w[1]) - b.prob_within(w[0], w[1])).abs();
    }
    0.5 * tv
}

/// A single-bucket histogram degenerate enough to trigger the point-mass
/// convolution fast path.
fn point_mass_at(value: f64) -> Histogram1D {
    let width = value.abs().max(1.0) * 1e-15;
    Histogram1D::from_entries(vec![(Bucket::new(value, value + width).unwrap(), 1.0)]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sweep_rearrangement_matches_naive(triples in overlapping_triples()) {
        let entries = to_entries(&triples);
        let fast = Histogram1D::from_overlapping(&entries).unwrap();
        let reference = naive::from_overlapping(&entries).unwrap();
        prop_assert!((fast.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let tv = total_variation(&fast, &reference);
        prop_assert!(tv < 1e-12, "total variation {tv}");
    }

    #[test]
    fn pairwise_convolution_matches_naive(
        a in overlapping_triples(),
        b in overlapping_triples(),
        max_buckets in 1usize..80,
    ) {
        let (ha, hb) = (histogram(&a), histogram(&b));
        let fast = convolve_with_limit(&ha, &hb, max_buckets).unwrap();
        let reference = naive::convolve_with_limit(&ha, &hb, max_buckets).unwrap();
        prop_assert!(fast.bucket_count() <= max_buckets.max(1));
        prop_assert_eq!(fast.bucket_count(), reference.bucket_count());
        let tv = total_variation(&fast, &reference);
        prop_assert!(tv < 1e-12, "total variation {tv}");
    }

    #[test]
    fn fold_convolution_matches_naive_and_scratch_is_identical(
        triples in prop::collection::vec((0.0f64..200.0, 0.5f64..30.0, 0.01f64..1.0), 2..6),
        extra in overlapping_triples(),
    ) {
        // A few distinct operand histograms derived from the generated triples.
        let mut hists: Vec<Histogram1D> = triples
            .chunks(2)
            .map(histogram)
            .collect();
        hists.push(histogram(&extra));
        let fast = convolve_many_with_limit(&hists, 48).unwrap();
        let reference = naive::convolve_many_with_limit(&hists, 48).unwrap();
        let tv = total_variation(&fast, &reference);
        prop_assert!(tv < 1e-12, "total variation {tv}");
        // The scratch-threaded fold is the same code path as the
        // thread-local one: bit-for-bit identical.
        let mut scratch = ConvolveScratch::new();
        let threaded = convolve_many_with_scratch(&hists, 48, &mut scratch).unwrap();
        prop_assert_eq!(&fast, &threaded);
        // Scratch reuse must not leak state between folds.
        let again = convolve_many_with_scratch(&hists, 48, &mut scratch).unwrap();
        prop_assert_eq!(&fast, &again);
    }

    #[test]
    fn point_mass_fast_path_matches_naive(
        a in overlapping_triples(),
        value in 1.0f64..400.0,
    ) {
        let ha = histogram(&a);
        let pm = point_mass_at(value);
        for (lhs, rhs) in [(&ha, &pm), (&pm, &ha)] {
            let fast = convolve_with_limit(lhs, rhs, 64).unwrap();
            let reference = naive::convolve_with_limit(lhs, rhs, 64).unwrap();
            let tv = total_variation(&fast, &reference);
            prop_assert!(tv < 1e-12, "total variation {tv}");
            // A point-mass convolution is a pure shift.
            prop_assert!((fast.mean() - (ha.mean() + value)).abs() < 1e-6);
        }
    }

    #[test]
    fn degenerate_and_capped_inputs_match_naive(
        lo in 0.0f64..200.0,
        width in 0.5f64..40.0,
        b in overlapping_triples(),
    ) {
        // Single-bucket operand.
        let single = Histogram1D::uniform(lo, lo + width).unwrap();
        let hb = histogram(&b);
        let fast = convolve_with_limit(&single, &hb, 64).unwrap();
        let reference = naive::convolve_with_limit(&single, &hb, 64).unwrap();
        prop_assert!(total_variation(&fast, &reference) < 1e-12);
        // Max-bucket cap of one: everything collapses to the full support.
        let capped = convolve_with_limit(&single, &hb, 1).unwrap();
        let capped_ref = naive::convolve_with_limit(&single, &hb, 1).unwrap();
        prop_assert_eq!(capped.bucket_count(), 1);
        prop_assert!((capped.min() - capped_ref.min()).abs() < 1e-9);
        prop_assert!((capped.max() - capped_ref.max()).abs() < 1e-9);
        prop_assert!((capped.probs()[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn binary_search_cdf_matches_linear_scans(
        triples in overlapping_triples(),
        probes in prop::collection::vec(-50.0f64..500.0, 1..40),
        qs in prop::collection::vec(0.0f64..1.0, 1..40),
    ) {
        let h = histogram(&triples);
        for &x in &probes {
            // Identical accumulation order: bit-for-bit equal.
            prop_assert_eq!(h.prob_leq(x), naive::prob_leq(&h, x));
            prop_assert_eq!(h.pdf_at(x), naive::pdf_at(&h, x));
        }
        for &q in &qs {
            prop_assert_eq!(h.quantile(q), naive::quantile(&h, q));
        }
        prop_assert_eq!(h.quantile(0.0), naive::quantile(&h, 0.0));
        prop_assert_eq!(h.quantile(1.0), naive::quantile(&h, 1.0));
        // prob_within is a CDF difference now: equal within rounding.
        for pair in probes.windows(2) {
            let (lo, hi) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
            let diff = (h.prob_within(lo, hi) - naive::prob_within(&h, lo, hi)).abs();
            prop_assert!(diff < 1e-12, "prob_within({lo}, {hi}) diff {diff}");
        }
    }

    #[test]
    fn heap_coarsen_matches_naive_greedy(
        triples in prop::collection::vec((0.0f64..400.0, 0.5f64..60.0, 0.01f64..1.0), 4..24),
        max_buckets in 1usize..16,
    ) {
        let h = histogram(&triples);
        let fast = h.coarsen(max_buckets);
        let reference = naive::coarsen(&h, max_buckets);
        // Same greedy merge sequence: identical boundaries, bit for bit.
        prop_assert_eq!(fast.bucket_count(), reference.bucket_count());
        for (bf, br) in fast.buckets().iter().zip(reference.buckets()) {
            prop_assert_eq!(bf.lo.to_bits(), br.lo.to_bits());
            prop_assert_eq!(bf.hi.to_bits(), br.hi.to_bits());
        }
        // The naive path re-normalises once more; probabilities agree to
        // rounding.
        for (pf, pr) in fast.probs().iter().zip(reference.probs()) {
            prop_assert!((pf - pr).abs() < 1e-12);
        }
    }
    #[test]
    fn tournament_coarsen_matches_naive_on_ties_zeros_and_every_cap(
        n in 2usize..513,
        cap in 0usize..4,
        picks in prop::collection::vec((0usize..6, 0.001f64..1.0), 512..513),
    ) {
        // Contiguous unit buckets whose masses come in runs of exactly equal
        // values (the leftmost-smallest tie-break decides the merge order),
        // with exact zeros in between; not normalised, so nothing rounds
        // before the merges start.
        let masses: Vec<f64> = picks[..n]
            .iter()
            .map(|&(kind, u)| [0.0, 0.015625, 0.015625, 0.03125, 0.25, u][kind])
            .collect();
        prop_assume!(masses.iter().any(|&m| m > 0.0));
        let buckets: Vec<Bucket> = (0..n)
            .map(|i| Bucket::new(i as f64, i as f64 + 1.0).unwrap())
            .collect();
        let h = Histogram1D::from_raw_parts(buckets, masses).unwrap();
        let max_buckets = [1, 24, n - 1, n][cap];
        let fast = h.coarsen(max_buckets);
        let reference = naive::coarsen(&h, max_buckets);
        prop_assert_eq!(fast.bucket_count(), n.min(max_buckets.max(1)));
        if max_buckets >= n {
            // Nothing to merge: both hand the histogram back untouched.
            prop_assert_eq!(&fast, &h);
            prop_assert_eq!(&reference, &h);
            return Ok(());
        }
        // The naive path normalises what it merged; the same division over
        // the fast path's masses must land on the same bits — bounds, masses
        // and cumulative masses.
        let renormalised = Histogram1D::from_entries(
            fast.buckets().iter().copied().zip(fast.probs().iter().copied()).collect(),
        )
        .unwrap();
        prop_assert_eq!(&renormalised, &reference);
        prop_assert_eq!(renormalised.cumulative_probs(), reference.cumulative_probs());
    }

    #[test]
    fn scratch_rebucket_matches_rearrange_then_coarsen(
        boxes in prop::collection::vec((0u32..40, 1u32..12, 0usize..4, 0.01f64..1.0), 1..140),
        max_buckets in 0usize..40,
    ) {
        // Whole-number bounds, so cut points coincide; every fourth bound is
        // nudged by less than the sweep's merge tolerance, and some masses
        // are exact zeros.
        let entries: Vec<(Bucket, f64)> = boxes
            .iter()
            .map(|&(lo, width, kind, mass)| {
                let lo = f64::from(lo) + if kind == 1 { 3e-13 } else { 0.0 };
                let mass = if kind == 2 { 0.0 } else { mass };
                (Bucket::new(lo, lo + f64::from(width)).unwrap(), mass)
            })
            .collect();
        let expected = Histogram1D::from_overlapping(&entries).map(|h| h.coarsen(max_buckets));
        // A scratch that has seen another input first.
        let mut scratch = RebucketScratch::default();
        let decoy: Vec<(Bucket, f64)> = entries.iter().rev().copied().collect();
        let _ = rebucket(&decoy, 3, &mut scratch);
        match (rebucket(&entries, max_buckets, &mut scratch), expected) {
            (Ok(fast), Ok(reference)) => {
                let fast: Vec<[u64; 3]> = fast
                    .iter()
                    .map(|&(b, p)| [b.lo, b.hi, p].map(f64::to_bits))
                    .collect();
                let reference: Vec<[u64; 3]> = reference
                    .buckets()
                    .iter()
                    .zip(reference.probs())
                    .map(|(b, &p)| [b.lo, b.hi, p].map(f64::to_bits))
                    .collect();
                prop_assert_eq!(fast, reference);
            }
            (Err(fast), Err(reference)) => prop_assert_eq!(fast, reference),
            (fast, reference) => prop_assert!(false, "{:?} vs {:?}", fast.map(<[_]>::len), reference),
        }
    }
}
