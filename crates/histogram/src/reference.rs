//! The straight-line Auto / V-Optimal fit the kernel in [`crate::auto`]
//! replaced, kept for tests only: every step re-derives what it needs from the
//! samples (one [`RawDistribution::from_samples`] sort per use, one
//! [`Histogram1D`] per candidate bucketing, nested DP tables with the span
//! error recomputed per level). The kernel must reproduce its output bit for
//! bit — see the property tests at the bottom.

use crate::auto::{effective_resolution, AutoConfig, BucketSelection};
use crate::bucket::Bucket;
use crate::error::HistError;
use crate::histogram1d::Histogram1D;
use crate::multidim::{locate, HistogramNd};
use crate::raw::RawDistribution;
use crate::voptimal::partition_error;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn voptimal_boundaries_all(
    raw: &RawDistribution,
    max_b: usize,
) -> Result<Vec<Vec<usize>>, HistError> {
    if max_b == 0 {
        return Err(HistError::ZeroBuckets);
    }
    let probs = raw.probs();
    let values = raw.values();
    let n = probs.len();
    let b = max_b.min(n);

    let mut pw = vec![0.0f64; n + 1];
    let mut pv = vec![0.0f64; n + 1];
    let mut pvv = vec![0.0f64; n + 1];
    for i in 0..n {
        pw[i + 1] = pw[i] + probs[i];
        pv[i + 1] = pv[i] + probs[i] * values[i];
        pvv[i + 1] = pvv[i] + probs[i] * values[i] * values[i];
    }
    let sse = |i: usize, j: usize| -> f64 {
        let w = pw[j] - pw[i];
        if w <= 0.0 {
            return 0.0;
        }
        let sum_v = pv[j] - pv[i];
        let sum_vv = pvv[j] - pvv[i];
        (sum_vv - sum_v * sum_v / w).max(0.0)
    };

    let inf = f64::INFINITY;
    let mut dp = vec![vec![inf; n + 1]; b + 1];
    let mut choice = vec![vec![0usize; n + 1]; b + 1];
    dp[0][0] = 0.0;
    for k in 1..=b {
        for j in k..=n {
            for i in (k - 1)..j {
                if dp[k - 1][i] == inf {
                    continue;
                }
                let cost = dp[k - 1][i] + sse(i, j);
                if cost < dp[k][j] {
                    dp[k][j] = cost;
                    choice[k][j] = i;
                }
            }
        }
    }

    let mut all = Vec::with_capacity(b);
    for target in 1..=b {
        let mut boundaries = vec![0usize; target];
        let mut j = n;
        for k in (1..=target).rev() {
            let i = choice[k][j];
            boundaries[k - 1] = i;
            j = i;
        }
        all.push(boundaries);
    }
    Ok(all)
}

fn voptimal_boundaries(raw: &RawDistribution, b: usize) -> Result<Vec<usize>, HistError> {
    let mut all = voptimal_boundaries_all(raw, b)?;
    Ok(all.pop().expect("at least one bucket count requested"))
}

fn voptimal_error(raw: &RawDistribution, b: usize) -> Result<f64, HistError> {
    let boundaries = voptimal_boundaries(raw, b)?;
    // The error of a given partition is the old expression moved verbatim.
    Ok(partition_error(raw.values(), raw.probs(), &boundaries))
}

fn bucket_step(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 1.0;
    }
    let mut gaps: Vec<f64> = values.windows(2).map(|w| w[1] - w[0]).collect();
    gaps.sort_by(|a, b| a.partial_cmp(b).expect("finite gaps"));
    gaps[gaps.len() / 2].max(1e-6)
}

fn from_raw_with_boundaries(
    raw: &RawDistribution,
    boundaries: &[usize],
) -> Result<Histogram1D, HistError> {
    if boundaries.is_empty() || boundaries[0] != 0 {
        return Err(HistError::ZeroBuckets);
    }
    let values = raw.values();
    let probs = raw.probs();
    let n = values.len();
    let step = bucket_step(values);
    let mut entries = Vec::with_capacity(boundaries.len());
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
        entries.push((Bucket::new_unchecked(lo, hi), mass));
    }
    Histogram1D::from_entries(entries)
}

fn squared_error(hist: &Histogram1D, raw: &RawDistribution, resolution: f64) -> f64 {
    let values = raw.values();
    let probs = raw.probs();
    let n = values.len();
    let mut total = 0.0;
    for i in 0..n {
        let lo = if i == 0 {
            values[i] - 0.5 * resolution
        } else {
            0.5 * (values[i - 1] + values[i])
        };
        let hi = if i + 1 == n {
            values[i] + 0.5 * resolution
        } else {
            0.5 * (values[i] + values[i + 1])
        };
        let h = hist.prob_within(lo, hi);
        let d = probs[i];
        total += (h - d) * (h - d);
    }
    total
}

pub(crate) fn cross_validated_errors(
    samples: &[f64],
    max_b: usize,
    cfg: &AutoConfig,
) -> Result<Vec<f64>, HistError> {
    if samples.is_empty() {
        return Err(HistError::EmptyInput);
    }
    if cfg.folds < 2 {
        return Err(HistError::TooFewFolds(cfg.folds));
    }
    if max_b == 0 {
        return Err(HistError::ZeroBuckets);
    }
    let resolution = effective_resolution(samples, cfg);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let selection: Vec<f64> = if samples.len() > cfg.max_selection_samples {
        let mut idx: Vec<usize> = (0..samples.len()).collect();
        idx.shuffle(&mut rng);
        idx[..cfg.max_selection_samples]
            .iter()
            .map(|&i| samples[i])
            .collect()
    } else {
        samples.to_vec()
    };

    if selection.len() < cfg.folds * 2 {
        let raw = RawDistribution::from_samples(&selection, resolution)?;
        return (1..=max_b).map(|b| voptimal_error(&raw, b)).collect();
    }

    let mut indices: Vec<usize> = (0..selection.len()).collect();
    indices.shuffle(&mut rng);

    let fold_size = selection.len() / cfg.folds;
    let mut totals = vec![0.0f64; max_b];
    for fold in 0..cfg.folds {
        let start = fold * fold_size;
        let end = if fold + 1 == cfg.folds {
            selection.len()
        } else {
            start + fold_size
        };
        let held_out: Vec<f64> = indices[start..end].iter().map(|&i| selection[i]).collect();
        let training: Vec<f64> = indices[..start]
            .iter()
            .chain(indices[end..].iter())
            .map(|&i| selection[i])
            .collect();
        if held_out.is_empty() || training.is_empty() {
            continue;
        }
        let train_raw = RawDistribution::from_samples(&training, resolution)?;
        let held_raw = RawDistribution::from_samples(&held_out, resolution)?;
        let boundary_sets = voptimal_boundaries_all(&train_raw, max_b)?;
        for (b_index, boundaries) in boundary_sets.iter().enumerate() {
            let hist = from_raw_with_boundaries(&train_raw, boundaries)?;
            totals[b_index] += squared_error(&hist, &held_raw, resolution);
        }
        if boundary_sets.len() < max_b {
            let hist =
                from_raw_with_boundaries(&train_raw, &boundary_sets[boundary_sets.len() - 1])?;
            let reused = squared_error(&hist, &held_raw, resolution);
            for total in &mut totals[boundary_sets.len()..max_b] {
                *total += reused;
            }
        }
    }
    Ok(totals.into_iter().map(|t| t / cfg.folds as f64).collect())
}

pub(crate) fn select_bucket_count(
    samples: &[f64],
    cfg: &AutoConfig,
) -> Result<BucketSelection, HistError> {
    if samples.is_empty() {
        return Err(HistError::EmptyInput);
    }
    let resolution = effective_resolution(samples, cfg);
    let distinct = RawDistribution::from_samples(samples, resolution)?.distinct_count();
    let max_b = cfg.max_buckets.max(1).min(distinct.max(1));

    let errors = cross_validated_errors(samples, max_b, cfg)?;
    let e1 = errors[0];
    let e_min = errors.iter().copied().fold(f64::INFINITY, f64::min);
    let span = (e1 - e_min).max(0.0);
    let mut chosen = 1;
    if span > 1e-15 {
        for (i, &e) in errors.iter().enumerate() {
            if (e - e_min) / span <= cfg.min_relative_improvement {
                chosen = i + 1;
                break;
            }
        }
    }
    Ok(BucketSelection {
        bucket_count: chosen.max(1),
        errors,
    })
}

pub(crate) fn auto_histogram(samples: &[f64], cfg: &AutoConfig) -> Result<Histogram1D, HistError> {
    let selection = select_bucket_count(samples, cfg)?;
    let raw = RawDistribution::from_samples(samples, effective_resolution(samples, cfg))?;
    let boundaries = voptimal_boundaries(&raw, selection.bucket_count)?;
    from_raw_with_boundaries(&raw, &boundaries)
}

pub(crate) fn histogram_nd(
    samples: &[Vec<f64>],
    cfg: &AutoConfig,
) -> Result<HistogramNd, HistError> {
    let dims = samples[0].len();
    let mut axes: Vec<Vec<Bucket>> = Vec::with_capacity(dims);
    for d in 0..dims {
        let column: Vec<f64> = samples.iter().map(|s| s[d]).collect();
        axes.push(auto_histogram(&column, cfg)?.buckets().to_vec());
    }
    let mut counts: std::collections::HashMap<Vec<u32>, usize> = std::collections::HashMap::new();
    for sample in samples {
        let key = sample
            .iter()
            .zip(&axes)
            .map(|(&value, axis)| locate(axis, value) as u32)
            .collect();
        *counts.entry(key).or_insert(0) += 1;
    }
    let total = samples.len() as f64;
    let mut cells: Vec<(Vec<u32>, f64)> = counts
        .into_iter()
        .map(|(key, count)| (key, count as f64 / total))
        .collect();
    cells.sort_by(|a, b| a.0.cmp(&b.0));
    HistogramNd::from_raw_parts(axes, cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auto::{self, FitScratch};
    use proptest::prelude::*;

    /// Every bit of a histogram: bounds, masses, cumulative masses.
    fn bits(h: &Histogram1D) -> Vec<u64> {
        h.buckets()
            .iter()
            .flat_map(|b| [b.lo, b.hi])
            .chain(h.probs().iter().copied())
            .chain(h.cumulative_probs().iter().copied())
            .map(f64::to_bits)
            .collect()
    }

    fn float_bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    const KINDS: usize = 6;

    /// Shapes `pool` (uniform draws from `[0, 1)`) into a column of the given
    /// kind, one kind per branch of the fit:
    ///
    /// 0. all samples equal — one distinct value, one candidate bucket count;
    /// 1. fewer than `2 · folds` samples — the direct-error fallback;
    /// 2. more than `max_selection_samples` samples — the selection subsample;
    /// 3. a span wider than `max_distinct · resolution` — coarsened resolution;
    /// 4. a handful of distinct values, one of them seen once — some fold
    ///    trains on fewer distinct values than candidate bucket counts, so the
    ///    finest histogram is reused;
    /// 5. an ordinary column of 10–120 travel times.
    fn column(kind: usize, size: f64, pool: &[f64], cfg: &AutoConfig) -> Vec<f64> {
        let scaled = |lo: usize, hi: usize| lo + (size * (hi - lo) as f64) as usize;
        match kind {
            0 => vec![10.0 + (pool[0] * 300.0).floor(); scaled(1, 80)],
            1 => pool[..scaled(1, 2 * cfg.folds)]
                .iter()
                .map(|u| 20.0 + u * 40.0)
                .collect(),
            2 => pool[..scaled(cfg.max_selection_samples + 1, pool.len())]
                .iter()
                .map(|u| 30.0 + u * 50.0)
                .collect(),
            3 => pool[..scaled(12, 110)]
                .iter()
                .map(|u| 5.0 + u * 4000.0)
                .collect(),
            4 => {
                let common = 1 + (pool[0] * 5.0) as usize;
                let mut samples: Vec<f64> = pool[1..scaled(12, 70)]
                    .iter()
                    .map(|u| 40.0 + 7.0 * (u * common as f64).floor())
                    .collect();
                samples.push(40.0 + 7.0 * common as f64);
                samples
            }
            _ => pool[..scaled(10, 120)]
                .iter()
                .map(|u| 60.0 + u * 45.0)
                .collect(),
        }
    }

    fn config(folds: usize, narrow: usize, fine: usize) -> AutoConfig {
        AutoConfig {
            folds: [2, 3, 5][folds],
            max_buckets: [10, 4][narrow],
            resolution: [1.0, 0.5][fine],
            ..AutoConfig::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(240))]

        #[test]
        fn kernel_is_bit_identical_to_the_straight_line_fit(
            shape in (0usize..KINDS, 0.0f64..1.0),
            knobs in (0usize..3, 0usize..2, 0usize..2),
            pool in prop::collection::vec(0.0f64..1.0, 640..641),
        ) {
            let (kind, size) = shape;
            let cfg = config(knobs.0, knobs.1, knobs.2);
            let samples = column(kind, size, &pool, &cfg);

            // The column really is of its kind.
            let raw = RawDistribution::from_samples(&samples, effective_resolution(&samples, &cfg))
                .unwrap();
            match kind {
                0 => prop_assert_eq!(raw.distinct_count(), 1),
                1 => prop_assert!(samples.len() < 2 * cfg.folds),
                2 => prop_assert!(samples.len() > cfg.max_selection_samples),
                3 => prop_assert!(effective_resolution(&samples, &cfg) > cfg.resolution),
                4 => {
                    prop_assert!(samples.len() >= 2 * cfg.folds);
                    prop_assert!(raw.distinct_count() <= 6);
                    prop_assert!(raw.probs().contains(&(1.0 / samples.len() as f64)));
                }
                _ => {}
            }

            let expected = auto_histogram(&samples, &cfg).unwrap();
            let fitted = auto::auto_histogram(&samples, &cfg).unwrap();
            prop_assert_eq!(bits(&fitted), bits(&expected));
            // A fresh scratch and the long-lived thread-local one agree.
            let fresh =
                auto::auto_histogram_with_scratch(&samples, &cfg, &mut FitScratch::new()).unwrap();
            prop_assert_eq!(bits(&fresh), bits(&expected));

            let expected = select_bucket_count(&samples, &cfg).unwrap();
            let selected = auto::select_bucket_count(&samples, &cfg).unwrap();
            prop_assert_eq!(selected.bucket_count, expected.bucket_count);
            prop_assert_eq!(float_bits(&selected.errors), float_bits(&expected.errors));

            // An explicit candidate range, possibly beyond the distinct values.
            let expected = cross_validated_errors(&samples, 7, &cfg).unwrap();
            let errors = auto::cross_validated_errors(&samples, 7, &cfg).unwrap();
            prop_assert_eq!(float_bits(&errors), float_bits(&expected));
        }

        #[test]
        fn joint_fit_is_bit_identical_to_the_straight_line_fit(
            shape in (1usize..7, 10usize..90),
            knobs in (0usize..3, 0usize..2, 0usize..2),
            pool in prop::collection::vec(0.0f64..1.0, 540..541),
        ) {
            let (dims, rows) = shape;
            let cfg = config(knobs.0, knobs.1, knobs.2);
            // Correlated dimensions with different scales, as on a real path.
            let samples: Vec<Vec<f64>> = pool
                .chunks(dims)
                .take(rows)
                .map(|chunk| {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(d, u)| 15.0 * (d + 1) as f64 + (0.6 * u + 0.4 * chunk[0]) * 50.0)
                        .collect()
                })
                .collect();
            let expected = histogram_nd(&samples, &cfg).unwrap();
            let fitted = HistogramNd::from_samples(&samples, &cfg).unwrap();
            prop_assert_eq!(fitted.axes().len(), dims);
            for (axis, reference) in fitted.axes().iter().zip(expected.axes()) {
                let axis: Vec<u64> = axis.iter().flat_map(|b| [b.lo.to_bits(), b.hi.to_bits()]).collect();
                let reference: Vec<u64> =
                    reference.iter().flat_map(|b| [b.lo.to_bits(), b.hi.to_bits()]).collect();
                prop_assert_eq!(axis, reference);
            }
            prop_assert_eq!(fitted.cells().len(), expected.cells().len());
            for ((key, p), (ref_key, ref_p)) in fitted.cells().iter().zip(expected.cells()) {
                prop_assert_eq!(key, ref_key);
                prop_assert_eq!(p.to_bits(), ref_p.to_bits());
            }
        }
    }

    #[test]
    fn invalid_and_degenerate_inputs_fail_alike() {
        let cfg = AutoConfig::default();
        for samples in [
            &[][..],
            &[3.0, f64::NAN, 5.0],
            &[1.0, -2.0],
            &[f64::INFINITY],
        ] {
            // Compared by their text: `InvalidValue(NaN)` is not `==` itself.
            let expected = format!("{:?}", auto_histogram(samples, &cfg).unwrap_err());
            let actual = format!("{:?}", auto::auto_histogram(samples, &cfg).unwrap_err());
            assert_eq!(actual, expected);
        }
        let one_fold = AutoConfig { folds: 1, ..cfg };
        let samples = [10.0, 11.0, 30.0, 31.0];
        assert_eq!(
            auto::auto_histogram(&samples, &one_fold).unwrap_err(),
            auto_histogram(&samples, &one_fold).unwrap_err()
        );
    }
}
