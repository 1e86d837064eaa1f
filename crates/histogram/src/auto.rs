//! Self-tuning ("Auto") bucket-count selection (§3.1).
//!
//! The paper selects the number of buckets per dimension automatically: start
//! with `b = 1`, compute the cross-validated error `E_b`, increase `b`, and
//! stop as soon as the error no longer drops significantly; `b − 1` is chosen.
//! The error `E_b` is computed with f-fold cross validation: each fold is held
//! out, a V-Optimal histogram with `b` buckets is built from the remaining
//! folds, and the squared error between that histogram and the held-out fold's
//! raw distribution is averaged over the folds.
//!
//! # The fit kernel
//!
//! Fitting one column of samples — bucket-count selection plus the final
//! V-Optimal histogram — is the unit of work of weight-function instantiation
//! and of every live re-derivation, so it is built to touch the samples once:
//!
//! * the samples are validated, rounded to the working resolution and
//!   **sorted once**; the full-sample raw distribution (which fixes the
//!   candidate range and the final boundaries) is read off that array;
//! * every fold's training and held-out distribution is one linear pass over
//!   the same sorted array, filtered by each sample's fold tag — no per-fold
//!   copy, sort or [`RawDistribution`];
//! * each fold runs one V-Optimal dynamic program on flat reusable tables
//!   (`O(n²)` for the span errors plus `O(n² · b)` add-compares over the `n`
//!   distinct training values) that serves all candidate bucket counts, and
//!   each candidate is scored against the held-out fold in scratch arrays —
//!   no throw-away [`Histogram1D`] is built.
//!
//! All working memory lives in a [`FitScratch`]; the scratch-free entry points
//! reuse a thread-local one, so a steady-state fit allocates only what it
//! returns. Callers fitting in a loop (instantiation workers) thread their own
//! scratch through the `*_with_scratch` variants. Rounding, grouping, fold
//! assignment (same RNG draws in the same order) and every floating-point
//! expression follow the straight-line formulation retained in the
//! test-only `reference` module, which the kernel is property-tested against
//! bit for bit.

use crate::bucket::Bucket;
use crate::error::HistError;
use crate::histogram1d::{self, Histogram1D};
use crate::raw::{self, RawDistribution};
use crate::voptimal::{self, voptimal_histogram, VOptimalTables};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Configuration for the Auto bucket-count selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoConfig {
    /// Number of cross-validation folds (`f` in the paper). Default 5.
    pub folds: usize,
    /// Maximum number of buckets considered. Default 10 (the range explored in
    /// the paper's Figure 5).
    pub max_buckets: usize,
    /// Relative error improvement below which the search stops. Default 0.15,
    /// i.e. adding a bucket must reduce `E_b` by at least 15% to be kept.
    pub min_relative_improvement: f64,
    /// Resolution at which cost values are compared (seconds). Default 1.0.
    pub resolution: f64,
    /// RNG seed used to shuffle samples into folds (deterministic selection).
    pub seed: u64,
    /// Upper bound on the number of distinct values fed to the V-Optimal DP;
    /// wider-spread samples are grouped at a coarser resolution first. Keeps
    /// the `O(n²·b)` dynamic program bounded when instantiating tens of
    /// thousands of variables.
    pub max_distinct: usize,
    /// Upper bound on the number of samples used for cross-validated bucket
    /// selection (the final histogram still uses every sample).
    pub max_selection_samples: usize,
}

impl Default for AutoConfig {
    fn default() -> Self {
        AutoConfig {
            folds: 5,
            max_buckets: 10,
            min_relative_improvement: 0.15,
            resolution: 1.0,
            seed: 0x9E3779B97F4A7C15,
            max_distinct: 120,
            max_selection_samples: 400,
        }
    }
}

/// The outcome of a bucket-count selection: the chosen bucket count and the
/// cross-validated error profile `E_b` for each candidate `b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketSelection {
    /// The selected number of buckets.
    pub bucket_count: usize,
    /// `errors[b - 1]` is the cross-validated error `E_b`.
    pub errors: Vec<f64>,
}

/// The working resolution for a sample set: the configured resolution,
/// coarsened so that the number of distinct values stays below
/// `cfg.max_distinct` (bounds the V-Optimal dynamic program).
pub fn effective_resolution(samples: &[f64], cfg: &AutoConfig) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &s in samples {
        lo = lo.min(s);
        hi = hi.max(s);
    }
    if !lo.is_finite() || !hi.is_finite() || hi <= lo {
        return cfg.resolution.max(1e-9);
    }
    let span_based = (hi - lo) / cfg.max_distinct.max(2) as f64;
    cfg.resolution.max(span_based).max(1e-9)
}

/// Fold tag of a sample that the selection subsample left out.
const NOT_SELECTED: u32 = u32::MAX;

/// A raw distribution laid out in two parallel scratch vectors.
#[derive(Debug, Default)]
struct RawParts {
    values: Vec<f64>,
    probs: Vec<f64>,
}

impl RawParts {
    fn clear(&mut self) {
        self.values.clear();
        self.probs.clear();
    }

    /// Adds one rounded sample, scanning in increasing order: it joins the
    /// last distinct value or opens a new one (`probs` holds counts until
    /// [`Self::normalise`]).
    #[inline]
    fn push(&mut self, v: f64, resolution: f64) {
        match self.values.last() {
            Some(&first) if raw::same_value(first, v, resolution) => {
                *self.probs.last_mut().expect("aligned with values") += 1.0;
            }
            _ => {
                self.values.push(v);
                self.probs.push(1.0);
            }
        }
    }

    /// Turns the per-value counts into relative frequencies of `total` samples.
    fn normalise(&mut self, total: usize) {
        let total = total as f64;
        for p in &mut self.probs {
            *p /= total;
        }
    }
}

/// Reusable working memory of the Auto fit kernel: the sorted sample array,
/// the per-fold distributions, the V-Optimal tables and the candidate
/// histogram being scored. Buffers grow on first use and are then reused.
#[derive(Debug, Default)]
pub struct FitScratch {
    /// `(rounded sample, original index)`, sorted by value then index.
    sorted: Vec<(f64, u32)>,
    /// Working resolution of the prepared column.
    resolution: f64,
    /// Raw distribution of all samples.
    full: RawParts,
    /// Per original sample index: its cross-validation fold, or
    /// [`NOT_SELECTED`].
    fold_of: Vec<u32>,
    /// Shuffle buffers: the selection subsample and the fold order.
    subsample: Vec<usize>,
    order: Vec<usize>,
    training: RawParts,
    held_out: RawParts,
    tables: VOptimalTables,
    boundaries: Vec<usize>,
    gaps: Vec<f64>,
    /// The candidate (and, last, the final) histogram's arrays.
    buckets: Vec<Bucket>,
    probs: Vec<f64>,
    cum: Vec<f64>,
    errors: Vec<f64>,
}

impl FitScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        FitScratch::default()
    }

    /// Validates, rounds and sorts `samples` and derives their raw
    /// distribution — the one sort every later step reads from.
    fn prepare(&mut self, samples: &[f64], cfg: &AutoConfig) -> Result<(), HistError> {
        if samples.is_empty() {
            return Err(HistError::EmptyInput);
        }
        assert!(
            samples.len() < NOT_SELECTED as usize,
            "a column holds fewer than 2^32 samples"
        );
        let resolution = effective_resolution(samples, cfg);
        self.resolution = resolution;
        self.sorted.clear();
        for (i, &s) in samples.iter().enumerate() {
            self.sorted
                .push((raw::round_sample(s, resolution)?, i as u32));
        }
        self.sorted.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite values")
                .then(a.1.cmp(&b.1))
        });
        self.full.clear();
        for &(v, _) in &self.sorted {
            self.full.push(v, resolution);
        }
        self.full.normalise(samples.len());
        Ok(())
    }

    /// Cross-validated errors `E_b`, `b = 1..=max_b`, of the prepared column
    /// into `self.errors`.
    fn cross_validate(&mut self, max_b: usize, cfg: &AutoConfig) -> Result<(), HistError> {
        if cfg.folds < 2 {
            return Err(HistError::TooFewFolds(cfg.folds));
        }
        if max_b == 0 {
            return Err(HistError::ZeroBuckets);
        }
        let n = self.sorted.len();
        let resolution = self.resolution;

        // Subsample very large inputs for selection only; `fold_of` doubles
        // as the membership mask of the selection.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        self.fold_of.clear();
        let subsampled = n > cfg.max_selection_samples;
        let selected = if subsampled {
            self.subsample.clear();
            self.subsample.extend(0..n);
            self.subsample.shuffle(&mut rng);
            self.subsample.truncate(cfg.max_selection_samples);
            self.fold_of.resize(n, NOT_SELECTED);
            for &i in &self.subsample {
                self.fold_of[i] = 0;
            }
            cfg.max_selection_samples
        } else {
            self.fold_of.resize(n, 0);
            n
        };

        self.errors.clear();
        // When there are too few samples for f folds, fall back to the direct
        // V-Optimal error on the whole selection.
        if selected < cfg.folds * 2 {
            self.training.clear();
            for &(v, i) in &self.sorted {
                if self.fold_of[i as usize] != NOT_SELECTED {
                    self.training.push(v, resolution);
                }
            }
            self.training.normalise(selected);
            let (values, probs) = (&self.training.values, &self.training.probs);
            let levels = self.tables.solve(values, probs, max_b);
            for b in 1..=max_b {
                self.tables
                    .boundaries_into(b.min(levels), &mut self.boundaries);
                self.errors
                    .push(voptimal::partition_error(values, probs, &self.boundaries));
            }
            return Ok(());
        }

        // Deal the selection into folds: position `p` of a shuffled order
        // belongs to fold `p / fold_size`, the last fold taking the remainder.
        self.order.clear();
        self.order.extend(0..selected);
        self.order.shuffle(&mut rng);
        let fold_size = selected / cfg.folds;
        for (p, &i) in self.order.iter().enumerate() {
            let sample = if subsampled { self.subsample[i] } else { i };
            self.fold_of[sample] = (p / fold_size).min(cfg.folds - 1) as u32;
        }

        self.errors.resize(max_b, 0.0);
        for fold in 0..cfg.folds {
            let held_len = if fold + 1 == cfg.folds {
                selected - fold * fold_size
            } else {
                fold_size
            };
            if held_len == 0 || held_len == selected {
                continue;
            }
            self.training.clear();
            self.held_out.clear();
            for &(v, i) in &self.sorted {
                match self.fold_of[i as usize] {
                    NOT_SELECTED => {}
                    f if f as usize == fold => self.held_out.push(v, resolution),
                    _ => self.training.push(v, resolution),
                }
            }
            self.training.normalise(selected - held_len);
            self.held_out.normalise(held_len);

            let training = (&self.training.values[..], &self.training.probs[..]);
            let levels = self.tables.solve(training.0, training.1, max_b);
            let step = histogram1d::bucket_step(training.0, &mut self.gaps);
            let mut finest = 0.0;
            for b in 1..=levels {
                self.tables.boundaries_into(b, &mut self.boundaries);
                histogram1d::partition_into(
                    training,
                    &self.boundaries,
                    step,
                    (&mut self.buckets, &mut self.probs, &mut self.cum),
                )?;
                finest = squared_error_in(
                    (&self.buckets, &self.probs, &self.cum),
                    (&self.held_out.values, &self.held_out.probs),
                    resolution,
                );
                self.errors[b - 1] += finest;
            }
            // Bucket counts beyond the number of distinct training values
            // reuse the finest available histogram.
            for total in &mut self.errors[levels..max_b] {
                *total += finest;
            }
        }
        for total in &mut self.errors {
            *total /= cfg.folds as f64;
        }
        Ok(())
    }

    /// The Auto bucket count of the prepared column (its error profile stays
    /// in `self.errors`).
    fn select(&mut self, cfg: &AutoConfig) -> Result<usize, HistError> {
        let distinct = self.full.values.len();
        let max_b = cfg.max_buckets.max(1).min(distinct.max(1));
        self.cross_validate(max_b, cfg)?;
        Ok(knee(&self.errors, cfg))
    }

    /// Fits the prepared column's Auto histogram into the scratch arrays
    /// `(self.buckets, self.probs, self.cum)`.
    fn fit(&mut self, cfg: &AutoConfig) -> Result<(), HistError> {
        let bucket_count = self.select(cfg)?;
        let full = (&self.full.values[..], &self.full.probs[..]);
        let levels = self.tables.solve(full.0, full.1, bucket_count);
        self.tables.boundaries_into(levels, &mut self.boundaries);
        let step = histogram1d::bucket_step(full.0, &mut self.gaps);
        histogram1d::partition_into(
            full,
            &self.boundaries,
            step,
            (&mut self.buckets, &mut self.probs, &mut self.cum),
        )
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<FitScratch> = RefCell::new(FitScratch::new());
}

/// Runs `f` on this thread's shared [`FitScratch`].
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut FitScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// The knee rule over an error profile: the smallest `b` whose error is
/// within `min_relative_improvement` of the best achievable error, relative
/// to the error of a single bucket.
fn knee(errors: &[f64], cfg: &AutoConfig) -> usize {
    let e1 = errors[0];
    let e_min = errors.iter().copied().fold(f64::INFINITY, f64::min);
    let span = (e1 - e_min).max(0.0);
    if span > 1e-15 {
        for (i, &e) in errors.iter().enumerate() {
            if (e - e_min) / span <= cfg.min_relative_improvement {
                return i + 1;
            }
        }
    }
    1
}

/// Computes the cross-validated errors `E_b` for every `b` in `1..=max_b`
/// (the curve plotted in Figure 5(a)). Each fold runs a single V-Optimal
/// dynamic program that yields the boundaries for every candidate `b`.
pub fn cross_validated_errors(
    samples: &[f64],
    max_b: usize,
    cfg: &AutoConfig,
) -> Result<Vec<f64>, HistError> {
    with_thread_scratch(|scratch| {
        scratch.prepare(samples, cfg)?;
        scratch.cross_validate(max_b, cfg)?;
        Ok(scratch.errors.clone())
    })
}

/// The squared error `SE(H, D)` between a histogram and a raw distribution:
/// the sum over the raw distribution's cost values of the squared difference
/// between the probability the histogram assigns to the value and the raw
/// probability.
///
/// The probability the histogram assigns to a raw value `c` is measured over
/// that value's *Voronoi cell* (half-way to the neighbouring raw values, with
/// `resolution`-wide cells at the extremes), so the comparison is on the same
/// scale regardless of how coarsely the raw values are spaced.
pub fn squared_error(hist: &Histogram1D, raw: &RawDistribution, resolution: f64) -> f64 {
    squared_error_in(
        (hist.buckets(), hist.probs(), hist.cumulative_probs()),
        (raw.values(), raw.probs()),
        resolution,
    )
}

/// [`squared_error`] over borrowed histogram arrays `(buckets, probs, cum)`
/// and raw distribution arrays `(values, probs)`.
///
/// The Voronoi bounds increase with the raw values (rounding is monotone) and
/// each cell's lower bound is its predecessor's upper bound, so one cursor
/// walks the buckets and every bound's CDF is evaluated once.
fn squared_error_in(
    (buckets, masses, cum): (&[Bucket], &[f64], &[f64]),
    (values, probs): (&[f64], &[f64]),
    resolution: f64,
) -> f64 {
    let mut idx = 0;
    let mut cdf = |x: f64| {
        while idx < buckets.len() && buckets[idx].hi <= x {
            idx += 1;
        }
        histogram1d::cdf_at_index(buckets, masses, cum, idx, x)
    };
    let n = values.len();
    let mut total = 0.0;
    let mut lo = values[0] - 0.5 * resolution;
    let mut below = cdf(lo);
    for i in 0..n {
        let hi = if i + 1 == n {
            values[i] + 0.5 * resolution
        } else {
            0.5 * (values[i] + values[i + 1])
        };
        let above = cdf(hi);
        let h = if hi <= lo {
            0.0
        } else {
            (above - below).max(0.0)
        };
        let d = probs[i];
        total += (h - d) * (h - d);
        lo = hi;
        below = above;
    }
    total
}

/// Selects the bucket count automatically (the paper's "Auto" method).
///
/// The paper increases `b` until `E_b` stops dropping significantly and keeps
/// `b − 1`. Cross-validated error curves on sparse samples are not perfectly
/// monotone, so this implementation uses the equivalent but more robust *knee*
/// form of the rule: it evaluates `E_b` for every candidate `b` and keeps the
/// smallest `b` whose error is within `min_relative_improvement` of the best
/// achievable error (relative to the error of a single bucket). On smooth
/// error curves the two formulations pick the same bucket count.
pub fn select_bucket_count(
    samples: &[f64],
    cfg: &AutoConfig,
) -> Result<BucketSelection, HistError> {
    with_thread_scratch(|scratch| {
        scratch.prepare(samples, cfg)?;
        let bucket_count = scratch.select(cfg)?;
        Ok(BucketSelection {
            bucket_count,
            errors: scratch.errors.clone(),
        })
    })
}

/// Builds the Auto histogram: automatic bucket count + V-Optimal boundaries.
pub fn auto_histogram(samples: &[f64], cfg: &AutoConfig) -> Result<Histogram1D, HistError> {
    with_thread_scratch(|scratch| auto_histogram_with_scratch(samples, cfg, scratch))
}

/// As [`auto_histogram`], with caller-provided working memory.
pub fn auto_histogram_with_scratch(
    samples: &[f64],
    cfg: &AutoConfig,
    scratch: &mut FitScratch,
) -> Result<Histogram1D, HistError> {
    scratch.prepare(samples, cfg)?;
    scratch.fit(cfg)?;
    Ok(Histogram1D::from_normalised_parts(
        &scratch.buckets,
        &scratch.probs,
        &scratch.cum,
    ))
}

/// Builds the fixed-bucket `Sta-b` histogram used as a comparison point in
/// Figure 11.
pub fn static_histogram(
    samples: &[f64],
    b: usize,
    resolution: f64,
) -> Result<Histogram1D, HistError> {
    let raw = RawDistribution::from_samples(samples, resolution)?;
    voptimal_histogram(&raw, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A clearly bimodal sample set: two well-separated clusters.
    fn bimodal_samples(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    100.0 + rng.gen_range(-3.0..3.0)
                } else {
                    200.0 + rng.gen_range(-3.0..3.0)
                }
            })
            .collect()
    }

    #[test]
    fn cross_validated_error_decreases_initially() {
        let samples = bimodal_samples(200, 7);
        let cfg = AutoConfig::default();
        let errors = cross_validated_errors(&samples, 2, &cfg).unwrap();
        let (e1, e2) = (errors[0], errors[1]);
        assert!(
            e2 < e1,
            "two buckets must beat one on bimodal data ({e2} vs {e1})"
        );
    }

    #[test]
    fn auto_selects_more_than_one_bucket_on_bimodal_data() {
        let samples = bimodal_samples(300, 11);
        let selection = select_bucket_count(&samples, &AutoConfig::default()).unwrap();
        assert!(
            selection.bucket_count >= 2,
            "expected at least 2 buckets, got {}",
            selection.bucket_count
        );
        assert!(!selection.errors.is_empty());
    }

    #[test]
    fn auto_selects_one_bucket_for_degenerate_data() {
        let samples = vec![50.0; 100];
        let selection = select_bucket_count(&samples, &AutoConfig::default()).unwrap();
        assert_eq!(selection.bucket_count, 1);
    }

    #[test]
    fn auto_histogram_is_normalised_and_compact() {
        let samples = bimodal_samples(400, 3);
        let cfg = AutoConfig::default();
        let h = auto_histogram(&samples, &cfg).unwrap();
        assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(h.bucket_count() <= cfg.max_buckets);
        // Auto should use far fewer buckets than there are distinct values.
        let raw = RawDistribution::from_samples(&samples, 1.0).unwrap();
        assert!(h.bucket_count() < raw.distinct_count());
    }

    #[test]
    fn static_histogram_has_requested_bucket_count() {
        let samples = bimodal_samples(200, 5);
        let h3 = static_histogram(&samples, 3, 1.0).unwrap();
        let h4 = static_histogram(&samples, 4, 1.0).unwrap();
        assert_eq!(h3.bucket_count(), 3);
        assert_eq!(h4.bucket_count(), 4);
    }

    #[test]
    fn errors_rejected_for_bad_config() {
        let samples = bimodal_samples(50, 1);
        let cfg = AutoConfig {
            folds: 1,
            ..AutoConfig::default()
        };
        assert!(matches!(
            cross_validated_errors(&samples, 2, &cfg),
            Err(HistError::TooFewFolds(1))
        ));
        assert!(select_bucket_count(&[], &AutoConfig::default()).is_err());
        assert!(cross_validated_errors(&samples, 0, &AutoConfig::default()).is_err());
    }

    #[test]
    fn small_sample_fallback_still_works() {
        let samples = vec![10.0, 12.0, 20.0];
        let cfg = AutoConfig::default();
        let errors = cross_validated_errors(&samples, 2, &cfg).unwrap();
        assert!(errors.iter().all(|e| e.is_finite()));
        let sel = select_bucket_count(&samples, &cfg).unwrap();
        assert!(sel.bucket_count >= 1);
    }

    #[test]
    fn squared_error_improves_with_more_buckets() {
        // Splitting the two modes into separate buckets must not increase the
        // squared error against the raw distribution.
        let raw =
            RawDistribution::from_samples(&[10.0, 10.0, 11.0, 12.0, 20.0, 20.0, 21.0, 22.0], 1.0)
                .unwrap();
        let one = voptimal_histogram(&raw, 1).unwrap();
        let two = voptimal_histogram(&raw, 2).unwrap();
        let se_one = squared_error(&one, &raw, 1.0);
        let se_two = squared_error(&two, &raw, 1.0);
        assert!(se_two <= se_one + 1e-12, "{se_two} vs {se_one}");
    }
}
