//! One-dimensional histograms.
//!
//! A histogram approximates a raw cost distribution as a set of
//! `⟨bucket, probability⟩` pairs whose probabilities sum to one (§3.1).
//! Probability mass is uniformly distributed *within* each bucket, which is
//! the semantics the paper relies on when re-arranging overlapping buckets
//! into disjoint ones (§4.2, Figure 7).

use crate::bucket::Bucket;
use crate::error::HistError;
use crate::raw::RawDistribution;
use crate::sweep;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A one-dimensional histogram: disjoint, sorted buckets with probabilities
/// summing to one.
///
/// Internal layout: `buckets` is a flat array of `(lo, hi)` bound pairs
/// (kept as [`Bucket`]s so [`Self::buckets`] stays a free slice view),
/// `probs` the aligned per-bucket masses, and `cum` the precomputed
/// cumulative probabilities (`cum[i] = probs[0] + … + probs[i]`, summed left
/// to right exactly like the old linear scans did). Every CDF-shaped query —
/// [`Self::prob_leq`], [`Self::prob_within`], [`Self::quantile`],
/// [`Self::pdf_at`] — binary-searches these arrays instead of scanning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram1D {
    buckets: Vec<Bucket>,
    probs: Vec<f64>,
    /// Derived data, deliberately excluded from any wire format: a payload
    /// cannot carry a `cum` inconsistent with `probs`, and pre-existing
    /// serialized histograms stay decodable. If the vendored serde shim is
    /// ever swapped for the real crate, deserialization must rebuild this
    /// through [`Self::assemble`] (e.g. a `#[serde(from = ...)]` wrapper).
    #[serde(skip)]
    cum: Vec<f64>,
}

impl Histogram1D {
    /// Assembles a histogram from buckets and probabilities that are already
    /// sorted, disjoint and normalised, building the cumulative array.
    fn assemble(buckets: Vec<Bucket>, probs: Vec<f64>) -> Self {
        let mut cum = Vec::with_capacity(probs.len());
        let mut acc = 0.0f64;
        for &p in &probs {
            acc += p;
            cum.push(acc);
        }
        Histogram1D {
            buckets,
            probs,
            cum,
        }
    }

    /// Copies out sorted disjoint `(bucket, probability)` entries as they are.
    fn from_entry_slice(entries: &[(Bucket, f64)]) -> Self {
        let buckets = entries.iter().map(|&(b, _)| b).collect();
        let probs = entries.iter().map(|&(_, p)| p).collect();
        Histogram1D::assemble(buckets, probs)
    }

    /// Builds a histogram from disjoint sorted `(bucket, mass)` entries
    /// produced by the sweep/coarsen kernels, normalising the masses.
    /// Skips the sorting and overlap validation of [`Self::from_entries`] —
    /// callers guarantee both by construction.
    pub(crate) fn from_disjoint_entries(entries: &[(Bucket, f64)]) -> Result<Self, HistError> {
        let n = entries.len();
        let (mut buckets, mut probs, mut cum) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        append_normalised(entries, (&mut buckets, &mut probs, &mut cum))?;
        Ok(Histogram1D {
            buckets,
            probs,
            cum,
        })
    }

    /// As [`Self::from_disjoint_entries`], from parallel bucket/mass slices.
    pub(crate) fn from_disjoint_parts(
        buckets: &[Bucket],
        masses: &[f64],
    ) -> Result<Self, HistError> {
        if buckets.is_empty() {
            return Err(HistError::EmptyInput);
        }
        let total: f64 = masses.iter().sum();
        if total <= 0.0 {
            return Err(HistError::InvalidProbability(total));
        }
        let probs = masses.iter().map(|&m| m / total).collect();
        Ok(Histogram1D::assemble(buckets.to_vec(), probs))
    }

    /// Copies out a histogram whose sorted disjoint buckets, normalised
    /// masses and cumulative masses a kernel already laid out (see
    /// [`partition_into`]).
    pub(crate) fn from_normalised_parts(buckets: &[Bucket], probs: &[f64], cum: &[f64]) -> Self {
        Histogram1D {
            buckets: buckets.to_vec(),
            probs: probs.to_vec(),
            cum: cum.to_vec(),
        }
    }

    /// Restores a histogram from buckets and probabilities captured from an
    /// existing histogram (e.g. a persisted snapshot), **without**
    /// re-normalising the probabilities, so the restored histogram is
    /// bit-identical to the one that was serialized.
    ///
    /// Validates shape only (aligned non-empty slices, finite non-negative
    /// probabilities, sorted non-overlapping buckets); callers are expected to
    /// pass data that originally came out of [`Self::buckets`] /
    /// [`Self::probs`]. The cumulative array is rebuilt left to right, exactly
    /// as every other constructor does.
    pub fn from_raw_parts(buckets: Vec<Bucket>, probs: Vec<f64>) -> Result<Self, HistError> {
        if buckets.is_empty() {
            return Err(HistError::EmptyInput);
        }
        if buckets.len() != probs.len() {
            return Err(HistError::DimensionMismatch {
                expected: buckets.len(),
                actual: probs.len(),
            });
        }
        for &p in &probs {
            if !p.is_finite() || p < 0.0 {
                return Err(HistError::InvalidProbability(p));
            }
        }
        for w in buckets.windows(2) {
            // Same float-noise tolerance as `from_entries`: anything it
            // accepted at construction time must round-trip through here.
            let tolerance = 1e-9 * w[0].width().max(w[1].width()).max(1.0);
            if w[0].overlap(&w[1]) > tolerance {
                return Err(HistError::EmptyBucket {
                    lo: w[1].lo,
                    hi: w[0].hi,
                });
            }
        }
        Ok(Histogram1D::assemble(buckets, probs))
    }

    /// Creates a histogram from disjoint `(bucket, probability)` entries.
    ///
    /// Entries are sorted by bucket lower bound and probabilities are
    /// normalised to sum to one. Returns an error if the entries are empty,
    /// contain invalid probabilities, or overlap.
    pub fn from_entries(mut entries: Vec<(Bucket, f64)>) -> Result<Self, HistError> {
        if entries.is_empty() {
            return Err(HistError::EmptyInput);
        }
        for &(_, p) in &entries {
            if !p.is_finite() || p < 0.0 {
                return Err(HistError::InvalidProbability(p));
            }
        }
        entries.sort_by(|a, b| a.0.lo.partial_cmp(&b.0.lo).expect("finite bounds"));
        for w in entries.windows(2) {
            // Tolerate sub-nanometre overlaps caused by floating point noise in
            // boundary arithmetic; reject anything materially overlapping.
            let tolerance = 1e-9 * w[0].0.width().max(w[1].0.width()).max(1.0);
            if w[0].0.overlap(&w[1].0) > tolerance {
                return Err(HistError::EmptyBucket {
                    lo: w[1].0.lo,
                    hi: w[0].0.hi,
                });
            }
        }
        let total: f64 = entries.iter().map(|&(_, p)| p).sum();
        if total <= 0.0 {
            return Err(HistError::InvalidProbability(total));
        }
        let buckets = entries.iter().map(|&(b, _)| b).collect();
        let probs = entries.iter().map(|&(_, p)| p / total).collect();
        Ok(Histogram1D::assemble(buckets, probs))
    }

    /// Creates a histogram from possibly *overlapping* `(bucket, probability)`
    /// pairs by re-arranging them into disjoint buckets with adjusted
    /// probabilities — the procedure of §4.2 (Figure 7).
    ///
    /// All bucket boundaries are collected, the real line is partitioned into
    /// elementary intervals, and each original bucket contributes mass to an
    /// elementary interval in proportion to the overlap fraction (uniform
    /// within-bucket density). Zero-mass elementary intervals are dropped and
    /// adjacent intervals are *not* merged, so the resulting boundaries are
    /// exactly the union of the input boundaries, matching the paper's worked
    /// example.
    pub fn from_overlapping(entries: &[(Bucket, f64)]) -> Result<Self, HistError> {
        sweep::with_local_buffers(|scratch| {
            sweep::rearrange(entries, scratch)?;
            Ok(Histogram1D::from_entry_slice(&scratch.entries))
        })
    }

    /// A histogram that puts all mass on the interval `[value, value + width)`.
    pub fn point_mass(value: f64, width: f64) -> Result<Self, HistError> {
        let b = Bucket::new(value, value + width.max(f64::EPSILON))?;
        Histogram1D::from_entries(vec![(b, 1.0)])
    }

    /// A single-bucket histogram uniform on `[lo, hi)`.
    pub fn uniform(lo: f64, hi: f64) -> Result<Self, HistError> {
        Histogram1D::from_entries(vec![(Bucket::new(lo, hi)?, 1.0)])
    }

    /// Builds a histogram from a raw distribution and explicit bucket
    /// boundaries over the raw values.
    ///
    /// `boundaries` are indices into `raw.values()` marking the first value of
    /// each bucket; the caller typically obtains them from
    /// [`crate::voptimal::voptimal_boundaries`].
    pub fn from_raw_with_boundaries(
        raw: &RawDistribution,
        boundaries: &[usize],
    ) -> Result<Self, HistError> {
        let values = raw.values();
        let step = bucket_step(values, &mut Vec::new());
        let (mut buckets, mut probs, mut cum) = (Vec::new(), Vec::new(), Vec::new());
        partition_into(
            (values, raw.probs()),
            boundaries,
            step,
            (&mut buckets, &mut probs, &mut cum),
        )?;
        Ok(Histogram1D {
            buckets,
            probs,
            cum,
        })
    }

    /// The buckets, sorted and disjoint.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Per-bucket probabilities (aligned with [`Self::buckets`]).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Smallest representable cost (lower bound of the first bucket).
    pub fn min(&self) -> f64 {
        self.buckets[0].lo
    }

    /// Largest representable cost (upper bound of the last bucket).
    pub fn max(&self) -> f64 {
        self.buckets.last().expect("non-empty").hi
    }

    /// Mean cost under the uniform-within-bucket assumption.
    pub fn mean(&self) -> f64 {
        self.buckets
            .iter()
            .zip(&self.probs)
            .map(|(b, p)| b.midpoint() * p)
            .sum()
    }

    /// Variance of the cost under the uniform-within-bucket assumption.
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        self.buckets
            .iter()
            .zip(&self.probs)
            .map(|(b, p)| {
                let within = b.width() * b.width() / 12.0;
                let centre = b.midpoint() - mean;
                p * (within + centre * centre)
            })
            .sum()
    }

    /// Cumulative probabilities, aligned with [`Self::buckets`]:
    /// `cumulative_probs()[i] = P(cost < buckets()[i].hi)`.
    pub fn cumulative_probs(&self) -> &[f64] {
        &self.cum
    }

    /// Probability density at `x` (uniform within each bucket).
    pub fn pdf_at(&self, x: f64) -> f64 {
        let idx = bucket_index_above(&self.buckets, x);
        match self.buckets.get(idx) {
            Some(b) if b.contains(x) => self.probs[idx] / b.width(),
            _ => 0.0,
        }
    }

    /// `P(cost ≤ x)`, by binary search over the cumulative array.
    pub fn prob_leq(&self, x: f64) -> f64 {
        prob_leq_of(&self.buckets, &self.probs, &self.cum, x)
    }

    /// `P(lo ≤ cost < hi)`, as the CDF difference of the window bounds.
    pub fn prob_within(&self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        (self.prob_leq(hi) - self.prob_leq(lo)).max(0.0)
    }

    /// The probability mass assigned to the bucket containing `x`,
    /// rescaled to a window of width `resolution` around `x`
    /// (used by the cross-validation error of §3.1).
    pub fn prob_at_resolution(&self, x: f64, resolution: f64) -> f64 {
        self.pdf_at(x) * resolution
    }

    /// The `q`-quantile (`q` in `[0, 1]`) under uniform-within-bucket
    /// semantics, by binary search over the cumulative array.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let idx = self.cum.partition_point(|&c| c < q);
        let Some(b) = self.buckets.get(idx) else {
            return self.max();
        };
        let p = self.probs[idx];
        if p <= 0.0 {
            return b.lo;
        }
        let acc = if idx == 0 { 0.0 } else { self.cum[idx - 1] };
        let frac = (q - acc) / p;
        b.lo + frac * b.width()
    }

    /// Draws a random cost value from the histogram.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        self.quantile(u)
    }

    /// Discrete Shannon entropy (natural log) over the bucket probabilities.
    pub fn entropy(&self) -> f64 {
        crate::divergence::entropy_of_probs(&self.probs)
    }

    /// Approximate storage in bytes (one `(lo, hi, prob)` triple per bucket),
    /// used for the Figure 11(c) space-saving comparison and the Figure 12
    /// memory accounting.
    pub fn storage_bytes(&self) -> usize {
        self.buckets.len() * 3 * std::mem::size_of::<f64>()
    }

    /// Shifts every bucket by a constant offset (used when composing
    /// deterministic delays with uncertain costs).
    pub fn shift(&self, offset: f64) -> Histogram1D {
        let buckets = self
            .buckets
            .iter()
            .map(|b| Bucket::new_unchecked(b.lo + offset, b.hi + offset))
            .collect();
        // Shifting changes no probability, so the cumulative array carries over.
        Histogram1D {
            buckets,
            probs: self.probs.clone(),
            cum: self.cum.clone(),
        }
    }

    /// Coarsens the histogram to at most `max_buckets` buckets by greedily
    /// merging adjacent buckets with the smallest combined probability
    /// (tournament tree, `O(n log n)`; same merge sequence as the naive rescan).
    ///
    /// Convolving many histograms multiplies bucket counts; the legacy
    /// baseline uses this to keep intermediate results bounded.
    pub fn coarsen(&self, max_buckets: usize) -> Histogram1D {
        let max_buckets = max_buckets.max(1);
        if self.buckets.len() <= max_buckets {
            return self.clone();
        }
        sweep::with_local_buffers(|scratch| {
            let sweep::RebucketScratch {
                entries, coarsen, ..
            } = scratch;
            entries.clear();
            entries.extend(self.buckets.iter().copied().zip(self.probs.iter().copied()));
            sweep::coarsen_entries_in_place(entries, max_buckets, coarsen);
            Histogram1D::from_entry_slice(entries)
        })
    }
}

/// Normalises the disjoint sorted `(bucket, mass)` entries a sweep/coarsen
/// kernel produced and appends them — bounds, probabilities and cumulative
/// probabilities, the latter summed left to right from zero — to the three
/// arrays of a histogram layout: a fresh [`Histogram1D`]'s, or the end of a
/// [`crate::HistogramArena`]. Nothing is appended on an error.
pub(crate) fn append_normalised(
    entries: &[(Bucket, f64)],
    (buckets, probs, cum): (&mut Vec<Bucket>, &mut Vec<f64>, &mut Vec<f64>),
) -> Result<(), HistError> {
    if entries.is_empty() {
        return Err(HistError::EmptyInput);
    }
    let total: f64 = entries.iter().map(|&(_, m)| m).sum();
    if total <= 0.0 {
        return Err(HistError::InvalidProbability(total));
    }
    let mut acc = 0.0f64;
    for &(b, m) in entries {
        let p = m / total;
        acc += p;
        buckets.push(b);
        probs.push(p);
        cum.push(acc);
    }
    Ok(())
}

/// Index of the first bucket whose upper bound exceeds `x`, i.e. the bucket
/// containing `x` when one does.
#[inline]
fn bucket_index_above(buckets: &[Bucket], x: f64) -> usize {
    buckets.partition_point(|b| b.hi <= x)
}

/// `P(cost ≤ x)` of the histogram laid out in `(buckets, probs, cum)`, by
/// binary search over the cumulative array.
#[inline]
pub(crate) fn prob_leq_of(buckets: &[Bucket], probs: &[f64], cum: &[f64], x: f64) -> f64 {
    cdf_at_index(buckets, probs, cum, bucket_index_above(buckets, x), x)
}

/// `P(cost ≤ x)` of the histogram laid out in `(buckets, probs, cum)` — the
/// arrays of a [`Histogram1D`], a span of a [`crate::HistogramArena`], or the
/// Auto fit kernel's scratch copy of one — given `idx`, the index of the
/// first bucket whose upper bound exceeds `x` (the bucket containing `x` when
/// one does).
#[inline]
pub(crate) fn cdf_at_index(
    buckets: &[Bucket],
    probs: &[f64],
    cum: &[f64],
    idx: usize,
    x: f64,
) -> f64 {
    let mut acc = if idx == 0 { 0.0 } else { cum[idx - 1] };
    if let Some(b) = buckets.get(idx) {
        if x > b.lo {
            acc += probs[idx] * (x - b.lo) / b.width();
        }
    }
    acc.min(1.0)
}

/// Lays out the histogram that groups the raw distribution `(values, probs)`
/// into the buckets starting at the value indices `boundaries`, writing its
/// bucket bounds, normalised masses and cumulative masses into `out`
/// (cleared first). `step` is [`bucket_step`] of `values`.
pub(crate) fn partition_into(
    (values, probs): (&[f64], &[f64]),
    boundaries: &[usize],
    step: f64,
    (buckets, masses, cum): (&mut Vec<Bucket>, &mut Vec<f64>, &mut Vec<f64>),
) -> Result<(), HistError> {
    if boundaries.is_empty() || boundaries[0] != 0 {
        return Err(HistError::ZeroBuckets);
    }
    let n = values.len();
    buckets.clear();
    masses.clear();
    cum.clear();
    // Bucket upper bound: one resolution step past the last value assigned
    // to the bucket, clamped to the next bucket's first value so buckets
    // stay disjoint. Extending only to the last *contained* value (rather
    // than to the next bucket's start) keeps empty gaps between modes out
    // of every bucket, which matters for density-based error metrics.
    for (i, &start) in boundaries.iter().enumerate() {
        let end = if i + 1 < boundaries.len() {
            boundaries[i + 1]
        } else {
            n
        };
        if start >= end || end > n {
            return Err(HistError::ZeroBuckets);
        }
        let lo = values[start];
        let mut hi = values[end - 1] + step;
        if end < n {
            hi = hi.min(values[end]);
        }
        let mass: f64 = probs[start..end].iter().sum();
        if !mass.is_finite() || mass < 0.0 {
            return Err(HistError::InvalidProbability(mass));
        }
        buckets.push(Bucket::new_unchecked(lo, hi));
        masses.push(mass);
    }
    // Values increase strictly and every upper bound is clamped to the next
    // lower bound, so the buckets are sorted and disjoint by construction.
    let total: f64 = masses.iter().sum();
    if total <= 0.0 {
        return Err(HistError::InvalidProbability(total));
    }
    let mut acc = 0.0f64;
    for m in masses.iter_mut() {
        *m /= total;
        acc += *m;
        cum.push(acc);
    }
    Ok(())
}

/// A sensible bucket step for the final bucket of a raw distribution: the
/// median gap between consecutive distinct values, or 1.0 when there is only
/// one value. `gaps` is working space.
pub(crate) fn bucket_step(values: &[f64], gaps: &mut Vec<f64>) -> f64 {
    if values.len() < 2 {
        return 1.0;
    }
    gaps.clear();
    gaps.extend(values.windows(2).map(|w| w[1] - w[0]));
    let mid = gaps.len() / 2;
    let (_, median, _) =
        gaps.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("finite gaps"));
    median.max(1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn b(lo: f64, hi: f64) -> Bucket {
        Bucket::new(lo, hi).unwrap()
    }

    #[test]
    fn from_entries_normalises_and_sorts() {
        let h = Histogram1D::from_entries(vec![(b(10.0, 20.0), 2.0), (b(0.0, 10.0), 2.0)]).unwrap();
        assert_eq!(h.bucket_count(), 2);
        assert_eq!(h.buckets()[0].lo, 0.0);
        assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((h.probs()[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_entries_rejects_overlap_and_empty() {
        assert!(Histogram1D::from_entries(vec![]).is_err());
        assert!(Histogram1D::from_entries(vec![(b(0.0, 10.0), 0.5), (b(5.0, 15.0), 0.5)]).is_err());
        assert!(Histogram1D::from_entries(vec![(b(0.0, 1.0), -0.5)]).is_err());
    }

    #[test]
    fn rearrangement_matches_paper_figure7() {
        // The second table of Figure 7: overlapping buckets
        // [40,70):0.30, [50,90):0.25, [60,90):0.20, [70,110):0.25
        // The final cost distribution (third table) is
        // [40,50):0.1000 [50,60):0.1625 [60,70):0.2292 [70,90):0.3833 [90,110):0.1250
        let h = Histogram1D::from_overlapping(&[
            (b(40.0, 70.0), 0.30),
            (b(50.0, 90.0), 0.25),
            (b(60.0, 90.0), 0.20),
            (b(70.0, 110.0), 0.25),
        ])
        .unwrap();
        let expect = [
            (40.0, 50.0, 0.1),
            (50.0, 60.0, 0.1625),
            (60.0, 70.0, 0.229166666),
            (70.0, 90.0, 0.383333333),
            (90.0, 110.0, 0.125),
        ];
        assert_eq!(h.bucket_count(), expect.len());
        for (i, &(lo, hi, p)) in expect.iter().enumerate() {
            assert!((h.buckets()[i].lo - lo).abs() < 1e-9, "bucket {i} lo");
            assert!((h.buckets()[i].hi - hi).abs() < 1e-9, "bucket {i} hi");
            assert!(
                (h.probs()[i] - p).abs() < 1e-6,
                "bucket {i} prob {}",
                h.probs()[i]
            );
        }
        assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prob_leq_and_within() {
        let h = Histogram1D::from_entries(vec![(b(0.0, 10.0), 0.5), (b(10.0, 30.0), 0.5)]).unwrap();
        assert!((h.prob_leq(10.0) - 0.5).abs() < 1e-12);
        assert!((h.prob_leq(5.0) - 0.25).abs() < 1e-12);
        assert!((h.prob_leq(20.0) - 0.75).abs() < 1e-12);
        assert_eq!(h.prob_leq(-1.0), 0.0);
        assert!((h.prob_leq(100.0) - 1.0).abs() < 1e-12);
        assert!((h.prob_within(5.0, 15.0) - 0.375).abs() < 1e-12);
        assert_eq!(h.prob_within(10.0, 10.0), 0.0);
    }

    #[test]
    fn mean_variance_quantile() {
        let h = Histogram1D::uniform(0.0, 10.0).unwrap();
        assert!((h.mean() - 5.0).abs() < 1e-12);
        assert!((h.variance() - 100.0 / 12.0).abs() < 1e-9);
        assert!((h.quantile(0.5) - 5.0).abs() < 1e-12);
        assert!((h.quantile(0.0) - 0.0).abs() < 1e-12);
        assert!((h.quantile(1.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn pdf_and_resolution_probability() {
        let h = Histogram1D::from_entries(vec![(b(0.0, 10.0), 0.8), (b(10.0, 20.0), 0.2)]).unwrap();
        assert!((h.pdf_at(5.0) - 0.08).abs() < 1e-12);
        assert!((h.pdf_at(15.0) - 0.02).abs() < 1e-12);
        assert_eq!(h.pdf_at(25.0), 0.0);
        assert!((h.prob_at_resolution(5.0, 1.0) - 0.08).abs() < 1e-12);
    }

    #[test]
    fn sampling_stays_in_support_and_tracks_mean() {
        let h =
            Histogram1D::from_entries(vec![(b(10.0, 20.0), 0.3), (b(40.0, 60.0), 0.7)]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut sum = 0.0;
        let n = 5000;
        for _ in 0..n {
            let x = h.sample(&mut rng);
            assert!((10.0..60.0).contains(&x));
            sum += x;
        }
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - h.mean()).abs() < 1.0,
            "sample mean {sample_mean}"
        );
    }

    #[test]
    fn from_raw_with_boundaries_buckets_mass() {
        let raw = RawDistribution::from_samples(&[10.0, 11.0, 12.0, 30.0, 31.0], 1.0).unwrap();
        let h = Histogram1D::from_raw_with_boundaries(&raw, &[0, 3]).unwrap();
        assert_eq!(h.bucket_count(), 2);
        assert!((h.probs()[0] - 0.6).abs() < 1e-12);
        assert!((h.probs()[1] - 0.4).abs() < 1e-12);
        assert!(h.buckets()[0].contains(12.0));
        assert!(h.buckets()[1].contains(31.0));
        // Invalid boundaries rejected.
        assert!(Histogram1D::from_raw_with_boundaries(&raw, &[]).is_err());
        assert!(Histogram1D::from_raw_with_boundaries(&raw, &[1, 3]).is_err());
        assert!(Histogram1D::from_raw_with_boundaries(&raw, &[0, 9]).is_err());
    }

    #[test]
    fn point_mass_and_shift() {
        let h = Histogram1D::point_mass(60.0, 1.0).unwrap();
        assert!((h.mean() - 60.5).abs() < 1e-9);
        let shifted = h.shift(10.0);
        assert!((shifted.mean() - 70.5).abs() < 1e-9);
        assert!((shifted.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coarsen_reduces_buckets_and_preserves_mass() {
        let h = Histogram1D::from_entries(vec![
            (b(0.0, 1.0), 0.1),
            (b(1.0, 2.0), 0.1),
            (b(2.0, 3.0), 0.3),
            (b(3.0, 4.0), 0.3),
            (b(4.0, 5.0), 0.2),
        ])
        .unwrap();
        let c = h.coarsen(3);
        assert_eq!(c.bucket_count(), 3);
        assert!((c.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(c.min(), 0.0);
        assert_eq!(c.max(), 5.0);
        // Mean should be approximately preserved by merging.
        assert!((c.mean() - h.mean()).abs() < 0.6);
        // No-op when already small enough.
        assert_eq!(h.coarsen(10), h);
    }

    #[test]
    fn from_raw_parts_round_trips_bit_identically() {
        // Probabilities that do NOT sum to one survive unchanged — the whole
        // point of the raw restore path: 0.1 + 0.2 ≠ 0.3 in binary, so a
        // normalising constructor would perturb the bits.
        let h = Histogram1D::from_entries(vec![
            (b(0.0, 10.0), 0.1),
            (b(10.0, 20.0), 0.2),
            (b(20.0, 40.0), 0.7),
        ])
        .unwrap();
        let back = Histogram1D::from_raw_parts(h.buckets().to_vec(), h.probs().to_vec()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.cumulative_probs(), h.cumulative_probs());
        // Shape violations are rejected.
        assert!(Histogram1D::from_raw_parts(vec![], vec![]).is_err());
        assert!(Histogram1D::from_raw_parts(vec![b(0.0, 1.0)], vec![0.5, 0.5]).is_err());
        assert!(Histogram1D::from_raw_parts(vec![b(0.0, 1.0)], vec![f64::NAN]).is_err());
        assert!(
            Histogram1D::from_raw_parts(vec![b(0.0, 10.0), b(5.0, 15.0)], vec![0.5, 0.5]).is_err()
        );
    }

    #[test]
    fn entropy_reflects_spread() {
        let concentrated = Histogram1D::from_entries(vec![(b(0.0, 1.0), 1.0)]).unwrap();
        let spread = Histogram1D::from_entries(vec![
            (b(0.0, 1.0), 0.25),
            (b(1.0, 2.0), 0.25),
            (b(2.0, 3.0), 0.25),
            (b(3.0, 4.0), 0.25),
        ])
        .unwrap();
        assert!(concentrated.entropy() < spread.entropy());
        assert!((spread.entropy() - (4.0f64).ln()).abs() < 1e-9);
    }
}
