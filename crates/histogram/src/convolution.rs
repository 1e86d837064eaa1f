//! Convolution of independent cost histograms.
//!
//! The legacy graph model (§2.3) estimates a path's cost distribution as the
//! convolution `⊙` of its edges' cost distributions under an independence
//! assumption. Each pair of buckets contributes a summed bucket whose mass is
//! the product of the bucket probabilities; because both inputs are already
//! sorted and disjoint, the overlapping products are flattened by the
//! sweep-line kernel of the crate-private `sweep` module (two density events per product,
//! one sort, one pass) and coarsened in place — no `O(Bₐ·B_b)` entry vector,
//! no quadratic rearrangement, no re-allocating coarsen.
//!
//! All buffers live in a [`ConvolveScratch`]; the scratch-free entry points
//! reuse a thread-local one, so steady-state convolution allocates only the
//! final [`Histogram1D`]. Callers convolving in a loop can thread their own
//! scratch through the `*_with_scratch` variants.
//!
//! The kernel itself is slice-shaped: it reads `(buckets, masses)` operand
//! slices and leaves the disjoint coarsened product in the scratch, from
//! where one normalisation routine lays it out either as a fresh
//! [`Histogram1D`] ([`convolve_with_scratch`]) or at the end of a
//! [`crate::HistogramArena`] (`push_convolved`, the routing search's
//! per-node extension, which allocates nothing) — the same bits either way.

use crate::bucket::Bucket;
use crate::error::HistError;
use crate::histogram1d::Histogram1D;
use crate::sweep::{self, RebucketScratch};
use std::cell::RefCell;

/// Default cap on the number of buckets of intermediate convolution results.
///
/// Without a cap the bucket count grows multiplicatively with the number of
/// convolved histograms.
pub const DEFAULT_MAX_BUCKETS: usize = 64;

/// Reusable buffers for the convolution kernel: the sweep's density events,
/// disjoint output entries and coarsening state, and the fold accumulator of
/// [`convolve_many_with_scratch`].
#[derive(Debug, Default)]
pub struct ConvolveScratch {
    sweep: RebucketScratch,
    acc_buckets: Vec<Bucket>,
    acc_probs: Vec<f64>,
}

impl ConvolveScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        ConvolveScratch::default()
    }

    /// Convolves the operand slices, coarsening to `max_buckets`, and returns
    /// the disjoint sorted *unnormalised* product, which stays in the scratch.
    pub(crate) fn convolve(
        &mut self,
        a: (&[Bucket], &[f64]),
        b: (&[Bucket], &[f64]),
        max_buckets: usize,
    ) -> Result<&[(Bucket, f64)], HistError> {
        convolve_core(a, b, max_buckets, &mut self.sweep)?;
        Ok(&self.sweep.entries)
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<ConvolveScratch> = RefCell::new(ConvolveScratch::new());
}

fn with_thread_scratch<R>(f: impl FnOnce(&mut ConvolveScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// If the histogram slice is a point mass — a single bucket of negligible
/// width — the location (lower bound) and mass of that bucket.
fn point_mass_of(buckets: &[Bucket], probs: &[f64]) -> Option<(f64, f64)> {
    match buckets {
        [b] if b.width() <= (b.lo.abs() + b.hi.abs()).max(1.0) * 1e-14 => Some((b.lo, probs[0])),
        _ => None,
    }
}

/// The sweep-line convolution kernel over raw `(buckets, masses)` operand
/// slices. Writes the disjoint, coarsened, unnormalised result into
/// `scratch.entries`.
fn convolve_core(
    a: (&[Bucket], &[f64]),
    b: (&[Bucket], &[f64]),
    max_buckets: usize,
    scratch: &mut RebucketScratch,
) -> Result<(), HistError> {
    let (a_buckets, a_probs) = a;
    let (b_buckets, b_probs) = b;
    let RebucketScratch {
        events,
        entries,
        coarsen,
    } = scratch;
    if a_buckets.is_empty() || b_buckets.is_empty() {
        return Err(HistError::EmptyInput);
    }
    // Point-mass fast path: convolving with a degenerate bucket is a pure
    // shift — no bucket product, no sweep.
    let shifted = match point_mass_of(b_buckets, b_probs) {
        Some((offset, mass)) => Some((a_buckets, a_probs, offset, mass)),
        None => point_mass_of(a_buckets, a_probs)
            .map(|(offset, mass)| (b_buckets, b_probs, offset, mass)),
    };
    if let Some((buckets, probs, offset, mass)) = shifted {
        entries.clear();
        entries.extend(buckets.iter().zip(probs).map(|(b, &p)| {
            (
                Bucket::new_unchecked(b.lo + offset, b.hi + offset),
                p * mass,
            )
        }));
        sweep::coarsen_entries_in_place(entries, max_buckets, coarsen);
        return Ok(());
    }
    events.clear();
    for (ba, &pa) in a_buckets.iter().zip(a_probs) {
        for (bb, &pb) in b_buckets.iter().zip(b_probs) {
            sweep::push_box(events, ba.lo + bb.lo, ba.hi + bb.hi, pa * pb);
        }
    }
    sweep::sweep_into(events, entries);
    if entries.is_empty() {
        return Err(HistError::EmptyInput);
    }
    sweep::coarsen_entries_in_place(entries, max_buckets, coarsen);
    Ok(())
}

/// Convolves two independent cost histograms.
pub fn convolve(a: &Histogram1D, b: &Histogram1D) -> Result<Histogram1D, HistError> {
    convolve_with_limit(a, b, DEFAULT_MAX_BUCKETS)
}

/// Convolves two independent cost histograms, coarsening the result to at most
/// `max_buckets` buckets. Uses this thread's scratch buffers.
pub fn convolve_with_limit(
    a: &Histogram1D,
    b: &Histogram1D,
    max_buckets: usize,
) -> Result<Histogram1D, HistError> {
    with_thread_scratch(|scratch| convolve_with_scratch(a, b, max_buckets, scratch))
}

/// As [`convolve_with_limit`], with caller-provided scratch buffers.
pub fn convolve_with_scratch(
    a: &Histogram1D,
    b: &Histogram1D,
    max_buckets: usize,
    scratch: &mut ConvolveScratch,
) -> Result<Histogram1D, HistError> {
    let product = scratch.convolve(
        (a.buckets(), a.probs()),
        (b.buckets(), b.probs()),
        max_buckets,
    )?;
    Histogram1D::from_disjoint_entries(product)
}

/// Convolves a sequence of independent cost histograms (left to right).
///
/// Returns an error when the slice is empty.
pub fn convolve_many(histograms: &[Histogram1D]) -> Result<Histogram1D, HistError> {
    convolve_many_with_limit(histograms, DEFAULT_MAX_BUCKETS)
}

/// Convolves a sequence of histograms, coarsening intermediates to
/// `max_buckets` buckets. Uses this thread's scratch buffers.
pub fn convolve_many_with_limit(
    histograms: &[Histogram1D],
    max_buckets: usize,
) -> Result<Histogram1D, HistError> {
    with_thread_scratch(|scratch| convolve_many_with_scratch(histograms, max_buckets, scratch))
}

/// As [`convolve_many_with_limit`], with caller-provided scratch buffers.
///
/// The fold accumulates into the scratch instead of cloning the first
/// histogram, and every intermediate result stays in reused buffers; only the
/// final histogram is allocated.
pub fn convolve_many_with_scratch(
    histograms: &[Histogram1D],
    max_buckets: usize,
    scratch: &mut ConvolveScratch,
) -> Result<Histogram1D, HistError> {
    let (first, rest) = histograms.split_first().ok_or(HistError::EmptyInput)?;
    if rest.is_empty() {
        return Ok(first.clone());
    }
    let ConvolveScratch {
        sweep,
        acc_buckets,
        acc_probs,
    } = scratch;
    acc_buckets.clear();
    acc_buckets.extend_from_slice(first.buckets());
    acc_probs.clear();
    acc_probs.extend_from_slice(first.probs());
    for h in rest {
        convolve_core(
            (acc_buckets, acc_probs),
            (h.buckets(), h.probs()),
            max_buckets,
            sweep,
        )?;
        let entries = &sweep.entries;
        let total: f64 = entries.iter().map(|&(_, m)| m).sum();
        if total <= 0.0 {
            return Err(HistError::InvalidProbability(total));
        }
        acc_buckets.clear();
        acc_probs.clear();
        for &(b, m) in entries.iter() {
            acc_buckets.push(b);
            acc_probs.push(m / total);
        }
    }
    Histogram1D::from_disjoint_parts(acc_buckets, acc_probs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: f64, hi: f64) -> Bucket {
        Bucket::new(lo, hi).unwrap()
    }

    #[test]
    fn convolution_mass_sums_to_one() {
        let a =
            Histogram1D::from_entries(vec![(b(10.0, 20.0), 0.5), (b(20.0, 40.0), 0.5)]).unwrap();
        let c =
            Histogram1D::from_entries(vec![(b(5.0, 15.0), 0.25), (b(15.0, 25.0), 0.75)]).unwrap();
        let conv = convolve(&a, &c).unwrap();
        assert!((conv.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn convolution_mean_is_additive() {
        let a =
            Histogram1D::from_entries(vec![(b(10.0, 20.0), 0.3), (b(20.0, 40.0), 0.7)]).unwrap();
        let c = Histogram1D::from_entries(vec![(b(0.0, 10.0), 0.6), (b(10.0, 30.0), 0.4)]).unwrap();
        let conv = convolve(&a, &c).unwrap();
        assert!(
            (conv.mean() - (a.mean() + c.mean())).abs() < 1e-6,
            "mean of sum must equal sum of means: {} vs {}",
            conv.mean(),
            a.mean() + c.mean()
        );
    }

    #[test]
    fn convolution_support_is_minkowski_sum() {
        let a = Histogram1D::uniform(10.0, 20.0).unwrap();
        let c = Histogram1D::uniform(5.0, 8.0).unwrap();
        let conv = convolve(&a, &c).unwrap();
        assert!((conv.min() - 15.0).abs() < 1e-9);
        assert!((conv.max() - 28.0).abs() < 1e-9);
    }

    #[test]
    fn convolving_point_masses_adds_values() {
        let a = Histogram1D::point_mass(30.0, 1.0).unwrap();
        let c = Histogram1D::point_mass(12.0, 1.0).unwrap();
        let conv = convolve(&a, &c).unwrap();
        assert!(conv.buckets()[0].contains(42.5));
        assert!((conv.probs()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn convolve_many_matches_pairwise() {
        let a = Histogram1D::uniform(0.0, 10.0).unwrap();
        let c = Histogram1D::uniform(5.0, 10.0).unwrap();
        let d = Histogram1D::uniform(1.0, 2.0).unwrap();
        let step = convolve(&convolve(&a, &c).unwrap(), &d).unwrap();
        let many = convolve_many(&[a, c, d]).unwrap();
        assert!((step.mean() - many.mean()).abs() < 1e-6);
        assert!((step.min() - many.min()).abs() < 1e-9);
        assert!((step.max() - many.max()).abs() < 1e-9);
    }

    #[test]
    fn convolve_many_rejects_empty() {
        assert!(convolve_many(&[]).is_err());
    }

    #[test]
    fn limit_caps_bucket_count() {
        let hs: Vec<Histogram1D> = (0..8)
            .map(|i| {
                Histogram1D::from_entries(vec![
                    (b(10.0 + i as f64, 20.0 + i as f64), 0.4),
                    (b(30.0 + i as f64, 50.0 + i as f64), 0.6),
                ])
                .unwrap()
            })
            .collect();
        let conv = convolve_many_with_limit(&hs, 16).unwrap();
        assert!(conv.bucket_count() <= 16);
        assert!((conv.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
