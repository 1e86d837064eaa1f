//! Many histograms laid end to end in three flat arrays.
//!
//! A search that derives thousands of short-lived histograms from one another
//! (a routing frontier: "path + another edge", §4.3) pays more for three
//! `Vec`s and an `Arc` per [`Histogram1D`] than for the arithmetic. A
//! [`HistogramArena`] keeps the same three arrays — bucket bounds,
//! probabilities, cumulative probabilities — once, and a histogram is a
//! [`Span`] of them: appending allocates nothing once the arrays have grown,
//! dropping the newest one — or all of them — is a `truncate`.
//!
//! A span holds exactly the bits the corresponding [`Histogram1D`] would:
//! [`HistogramArena::push_convolved`] runs the kernel of
//! [`crate::convolution::convolve_with_scratch`] and lays the product out with
//! the routine `Histogram1D` construction uses, and
//! [`HistogramArena::prob_leq`] is the routine behind
//! [`Histogram1D::prob_leq`].

use crate::bucket::Bucket;
use crate::convolution::ConvolveScratch;
use crate::error::HistError;
use crate::histogram1d::{append_normalised, prob_leq_of, Histogram1D};
use std::ops::Range;

/// One histogram of a [`HistogramArena`]: where its buckets sit in the
/// arena's arrays. Only meaningful for the arena that handed it out, until
/// that arena is cleared or truncated below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    offset: u32,
    len: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.offset as usize..(self.offset + self.len) as usize
    }
}

/// Histograms stored back to back in one allocation per array.
#[derive(Debug, Default)]
pub struct HistogramArena {
    buckets: Vec<Bucket>,
    probs: Vec<f64>,
    cum: Vec<f64>,
}

impl HistogramArena {
    /// An empty arena; the arrays grow on first use and are then reused.
    pub fn new() -> Self {
        HistogramArena::default()
    }

    /// Drops every histogram, keeping the arrays' capacity up to
    /// `max_buckets` buckets and giving back what is beyond.
    pub fn clear_and_shrink_to(&mut self, max_buckets: usize) {
        self.truncate(0);
        self.buckets.shrink_to(max_buckets);
        self.probs.shrink_to(max_buckets);
        self.cum.shrink_to(max_buckets);
    }

    fn truncate(&mut self, buckets: usize) {
        self.buckets.truncate(buckets);
        self.probs.truncate(buckets);
        self.cum.truncate(buckets);
    }

    /// The span of everything appended since the arrays were `start` long.
    fn span_from(&self, start: usize) -> Span {
        let end = u32::try_from(self.buckets.len()).expect("fewer than 2^32 buckets in an arena");
        let len = u32::try_from(self.buckets.len() - start).expect("no longer than the arena");
        Span {
            offset: end - len,
            len,
        }
    }

    /// Appends a copy of `histogram`.
    pub fn push(&mut self, histogram: &Histogram1D) -> Span {
        let start = self.buckets.len();
        self.buckets.extend_from_slice(histogram.buckets());
        self.probs.extend_from_slice(histogram.probs());
        self.cum.extend_from_slice(histogram.cumulative_probs());
        self.span_from(start)
    }

    /// Appends the convolution of the stored histogram `a` with `b`,
    /// coarsened to at most `max_buckets` buckets — bit for bit the arrays of
    /// `convolve_with_scratch(a, b, max_buckets, scratch)`. Nothing is
    /// appended on an error.
    pub fn push_convolved(
        &mut self,
        a: Span,
        b: &Histogram1D,
        max_buckets: usize,
        scratch: &mut ConvolveScratch,
    ) -> Result<Span, HistError> {
        let product = scratch.convolve(
            (&self.buckets[a.range()], &self.probs[a.range()]),
            (b.buckets(), b.probs()),
            max_buckets,
        )?;
        let start = self.buckets.len();
        append_normalised(product, (&mut self.buckets, &mut self.probs, &mut self.cum))?;
        Ok(self.span_from(start))
    }

    /// Drops `newest`, which must be the histogram appended last.
    pub fn pop(&mut self, newest: Span) {
        assert_eq!(
            newest.range().end,
            self.buckets.len(),
            "only the newest histogram can be popped"
        );
        self.truncate(newest.offset as usize);
    }

    /// The buckets of `span`, sorted and disjoint.
    pub fn buckets(&self, span: Span) -> &[Bucket] {
        &self.buckets[span.range()]
    }

    /// The per-bucket probabilities of `span`.
    pub fn probs(&self, span: Span) -> &[f64] {
        &self.probs[span.range()]
    }

    /// The cumulative probabilities of `span`.
    pub fn cumulative_probs(&self, span: Span) -> &[f64] {
        &self.cum[span.range()]
    }

    /// Smallest representable cost of `span` ([`Histogram1D::min`]).
    pub fn min(&self, span: Span) -> f64 {
        self.buckets[span.offset as usize].lo
    }

    /// `P(cost ≤ x)` of `span` ([`Histogram1D::prob_leq`]).
    pub fn prob_leq(&self, span: Span, x: f64) -> f64 {
        let range = span.range();
        prob_leq_of(
            &self.buckets[range.clone()],
            &self.probs[range.clone()],
            &self.cum[range],
            x,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolution::convolve_with_scratch;
    use proptest::prelude::*;

    /// Disjoint sorted buckets from `(gap, width, mass)` triples; a width
    /// below 0.05 collapses the bucket to a point mass (a few ulps wide).
    fn histogram(triples: &[(f64, f64, f64)]) -> Histogram1D {
        let mut lo = 0.0;
        let entries = triples
            .iter()
            .map(|&(gap, width, mass)| {
                lo += gap;
                let width = if width < 0.05 {
                    lo.max(1.0) * 4e-15
                } else {
                    width
                };
                let bucket = Bucket::new(lo, lo + width).unwrap();
                lo += width;
                (bucket, mass)
            })
            .collect();
        Histogram1D::from_entries(entries).unwrap()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn bound_bits(buckets: &[Bucket]) -> Vec<(u64, u64)> {
        buckets
            .iter()
            .map(|b| (b.lo.to_bits(), b.hi.to_bits()))
            .collect()
    }

    /// The span holds the histogram's three arrays, bit for bit.
    fn assert_span_is(arena: &HistogramArena, span: Span, h: &Histogram1D) {
        assert_eq!(bound_bits(arena.buckets(span)), bound_bits(h.buckets()));
        assert_eq!(bits(arena.probs(span)), bits(h.probs()));
        assert_eq!(
            bits(arena.cumulative_probs(span)),
            bits(h.cumulative_probs())
        );
        assert_eq!(arena.min(span).to_bits(), h.min().to_bits());
    }

    fn operand() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
        prop::collection::vec((0.0f64..40.0, 0.0f64..30.0, 0.01f64..1.0), 1..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Slice CDF ≡ `Histogram1D::prob_leq`: below the support, inside
        /// every bucket, on every boundary, in every gap and above it.
        #[test]
        fn span_cdf_matches_prob_leq(
            filler in operand(),
            triples in operand(),
            inside in 0.0f64..1.0,
        ) {
            let h = histogram(&triples);
            let mut arena = HistogramArena::new();
            // Not at offset zero, so a span's cumulative array is its own.
            arena.push(&histogram(&filler));
            let span = arena.push(&h);
            assert_span_is(&arena, span, &h);
            let mut probes = vec![h.min() - 1.0, h.max() + 1.0, f64::MIN, f64::MAX];
            for b in h.buckets() {
                probes.extend([b.lo, b.hi, b.lo + inside * b.width(), b.hi + 1e-9]);
            }
            for x in probes {
                prop_assert_eq!(
                    (x, arena.prob_leq(span, x).to_bits()),
                    (x, h.prob_leq(x).to_bits())
                );
            }
        }

        /// Append-normalised convolution ≡ `convolve_with_scratch` on buckets,
        /// probs and cum — point masses, single buckets and products the
        /// limit coarsens included — and a chain of them ≡ the chain of
        /// histograms; a popped product leaves the arena as it was.
        #[test]
        fn push_convolved_matches_convolve_with_scratch(
            first in operand(),
            units in prop::collection::vec(operand(), 1..5),
            max_buckets in 1usize..60,
        ) {
            let mut scratch = ConvolveScratch::new();
            let mut arena = HistogramArena::new();
            let mut expected = histogram(&first);
            let mut span = arena.push(&expected);
            for unit in &units {
                let unit = histogram(unit);
                expected = convolve_with_scratch(&expected, &unit, max_buckets, &mut scratch).unwrap();
                let before = arena.buckets.len();
                let rejected = arena.push_convolved(span, &unit, max_buckets, &mut scratch).unwrap();
                arena.pop(rejected);
                prop_assert_eq!(arena.buckets.len(), before);
                span = arena.push_convolved(span, &unit, max_buckets, &mut scratch).unwrap();
                prop_assert!(arena.buckets(span).len() <= max_buckets);
                assert_span_is(&arena, span, &expected);
            }
        }
    }

    #[test]
    fn the_48_bucket_limit_is_reached_and_held() {
        // Twelve buckets by twelve: 144 products, far past the routing limit.
        let wide: Vec<(f64, f64, f64)> = (0..12)
            .map(|i| (1.0 + i as f64, 3.0, 0.1 + i as f64))
            .collect();
        let (a, b) = (histogram(&wide), histogram(&wide[..11]));
        let mut scratch = ConvolveScratch::new();
        let mut arena = HistogramArena::new();
        let span = arena.push(&a);
        let product = arena.push_convolved(span, &b, 48, &mut scratch).unwrap();
        assert_eq!(arena.buckets(product).len(), 48);
        let expected = convolve_with_scratch(&a, &b, 48, &mut scratch).unwrap();
        assert_span_is(&arena, product, &expected);
    }

    #[test]
    fn clearing_keeps_capacity_up_to_the_limit() {
        let mut arena = HistogramArena::new();
        let h = histogram(&[(1.0, 2.0, 0.5); 10]);
        for _ in 0..100 {
            arena.push(&h);
        }
        assert_eq!(arena.buckets.len(), 1_000);
        arena.clear_and_shrink_to(4_096);
        assert_eq!(arena.buckets.len(), 0);
        assert!(arena.buckets.capacity() >= 1_000);
        arena.clear_and_shrink_to(64);
        assert!(arena.buckets.capacity() < 1_000);
        let span = arena.push(&h);
        assert_span_is(&arena, span, &h);
    }

    #[test]
    #[should_panic(expected = "only the newest histogram")]
    fn popping_an_older_histogram_is_refused() {
        let mut arena = HistogramArena::new();
        let h = histogram(&[(1.0, 2.0, 0.5)]);
        let older = arena.push(&h);
        arena.push(&h);
        arena.pop(older);
    }
}
