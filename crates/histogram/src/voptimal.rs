//! V-Optimal histogram construction.
//!
//! Given a raw cost distribution and a bucket count `b`, V-Optimal \[12\]
//! chooses bucket boundaries that minimise the total squared error incurred by
//! approximating the raw distribution with per-bucket summaries. Because the
//! histograms here use *uniform-within-bucket* semantics over the cost axis,
//! the within-bucket error is measured as the probability-weighted variance of
//! the cost values assigned to the bucket: boundaries therefore end up at the
//! gaps between modes of the raw distribution, which is what makes the Auto
//! histograms track multi-modal travel-time data (Figure 5).
//!
//! The dynamic program lives in the crate-private `VOptimalTables`: flat,
//! reusable tables, the within-bucket error `sse(i, j)` of every span computed
//! once (`O(n²)` over the `n` distinct values) and then `O(n² · b)`
//! add-compares over it — one run yields the boundaries of every bucket count
//! up to `b`. The Auto fit (`crate::auto`) threads one set of tables through
//! all its folds; the functions below run it on a [`RawDistribution`].

use crate::error::HistError;
use crate::histogram1d::Histogram1D;
use crate::raw::RawDistribution;

/// Computes the V-Optimal bucket boundaries for `raw` with exactly `b` buckets.
///
/// The result contains the index of the first raw value of each bucket
/// (always starting with `0`) and is suitable for
/// [`Histogram1D::from_raw_with_boundaries`]. When `b` is at least the number
/// of distinct values every value gets its own bucket.
pub fn voptimal_boundaries(raw: &RawDistribution, b: usize) -> Result<Vec<usize>, HistError> {
    let mut all = voptimal_boundaries_all(raw, b)?;
    Ok(all.pop().expect("at least one bucket count requested"))
}

/// Computes the V-Optimal boundaries for every bucket count `1..=max_b` from a
/// single dynamic program — the boundary sets share the same DP table, so the
/// cross-validated bucket-count selection (§3.1) can evaluate all candidate
/// counts at the cost of one.
///
/// `result[b - 1]` holds the boundaries for `b` buckets (capped at the number
/// of distinct values).
pub fn voptimal_boundaries_all(
    raw: &RawDistribution,
    max_b: usize,
) -> Result<Vec<Vec<usize>>, HistError> {
    if max_b == 0 {
        return Err(HistError::ZeroBuckets);
    }
    let mut tables = VOptimalTables::default();
    let levels = tables.solve(raw.values(), raw.probs(), max_b);
    Ok((1..=levels)
        .map(|target| {
            let mut boundaries = Vec::with_capacity(target);
            tables.boundaries_into(target, &mut boundaries);
            boundaries
        })
        .collect())
}

/// The reusable tables of the V-Optimal dynamic program.
///
/// [`Self::solve`] fills them for one distribution; [`Self::boundaries_into`]
/// then recovers the optimal boundaries of any bucket count up to the solved
/// one. Buffers grow on first use and are reused afterwards. All tables are
/// row-major with a stride of `n + 1`.
#[derive(Debug, Default)]
pub(crate) struct VOptimalTables {
    /// Prefix sums of `p`, `p·v` and `p·v²` (length `n + 1`).
    pw: Vec<f64>,
    pv: Vec<f64>,
    pvv: Vec<f64>,
    /// `sse[i · (n + 1) + j]`: weighted within-bucket variance of grouping
    /// values `[i, j)` into one bucket, for `i < j` (other cells are stale).
    sse: Vec<f64>,
    /// `dp[k · (n + 1) + j]`: minimal error of covering the first `j` values
    /// with `k` buckets; `choice` holds the arg-min start of the last bucket.
    dp: Vec<f64>,
    choice: Vec<u32>,
    /// Number of values and bucket levels of the last [`Self::solve`].
    n: usize,
    levels: usize,
}

#[inline]
fn tri(j: usize) -> usize {
    j * (j - 1) / 2
}

impl VOptimalTables {
    /// Runs the dynamic program over `(values, probs)` for every bucket count
    /// up to `max_b` (capped at the number of values) and returns that cap.
    pub(crate) fn solve(&mut self, values: &[f64], probs: &[f64], max_b: usize) -> usize {
        let n = probs.len();
        let b = max_b.min(n);
        let stride = n + 1;
        self.n = n;
        self.levels = b;

        // Prefix sums for O(1) within-bucket weighted-variance queries.
        for sums in [&mut self.pw, &mut self.pv, &mut self.pvv] {
            sums.clear();
            sums.resize(stride, 0.0);
        }
        for i in 0..n {
            self.pw[i + 1] = self.pw[i] + probs[i];
            self.pv[i + 1] = self.pv[i] + probs[i] * values[i];
            self.pvv[i + 1] = self.pvv[i] + probs[i] * values[i] * values[i];
        }
        // Σ p v² − (Σ p v)² / Σ p over [i, j), once per span.
        self.sse.clear();
        self.sse.resize(n * stride / 2, 0.0);
        let (pw, pv, pvv) = (&self.pw[..stride], &self.pv[..stride], &self.pvv[..stride]);
        for j in 1..=n {
            let column = &mut self.sse[tri(j)..tri(j) + j];
            let starts = pw[..j].iter().zip(&pv[..j]).zip(&pvv[..j]);
            for (cell, ((w_i, v_i), vv_i)) in column.iter_mut().zip(starts) {
                let w = pw[j] - w_i;
                let sum_v = pv[j] - v_i;
                let sum_vv = pvv[j] - vv_i;
                let variance = (sum_vv - sum_v * sum_v / w).max(0.0);
                *cell = if w > 0.0 { variance } else { 0.0 };
            }
        }

        self.dp.clear();
        self.dp.resize((b + 1) * stride, f64::INFINITY);
        self.choice.clear();
        self.choice.resize((b + 1) * stride, 0);
        self.dp[0] = 0.0;
        for k in 1..=b {
            let (lower, upper) = self.dp.split_at_mut(k * stride);
            let prev = &lower[(k - 1) * stride..];
            let cur = &mut upper[..stride];
            let choice = &mut self.choice[k * stride..(k + 1) * stride];
            for j in k..=n {
                let column = &self.sse[tri(j)..tri(j) + j];
                let mut best = f64::INFINITY;
                let mut arg = 0usize;
                for (i, (reach, span)) in prev[..j].iter().zip(column).enumerate().skip(k - 1) {
                    let cost = reach + span;
                    if cost < best {
                        best = cost;
                        arg = i;
                    }
                }
                cur[j] = best;
                choice[j] = arg as u32;
            }
        }
        b
    }

    /// Writes the optimal boundaries for `target` buckets (the index of the
    /// first value of each bucket, starting with `0`) into `out`.
    pub(crate) fn boundaries_into(&self, target: usize, out: &mut Vec<usize>) {
        debug_assert!((1..=self.levels).contains(&target));
        let stride = self.n + 1;
        out.clear();
        out.resize(target, 0);
        let mut j = self.n;
        for k in (1..=target).rev() {
            let i = self.choice[k * stride + j] as usize;
            out[k - 1] = i;
            j = i;
        }
    }
}

/// Builds the V-Optimal histogram of `raw` with `b` buckets.
pub fn voptimal_histogram(raw: &RawDistribution, b: usize) -> Result<Histogram1D, HistError> {
    let boundaries = voptimal_boundaries(raw, b)?;
    Histogram1D::from_raw_with_boundaries(raw, &boundaries)
}

/// The total squared error between `raw` and its V-Optimal histogram with `b`
/// buckets (the quantity the DP minimises); exposed for tests and diagnostics.
pub fn voptimal_error(raw: &RawDistribution, b: usize) -> Result<f64, HistError> {
    let boundaries = voptimal_boundaries(raw, b)?;
    Ok(partition_error(raw.values(), raw.probs(), &boundaries))
}

/// The probability-weighted squared deviation of `values` from their bucket
/// means under the partition `boundaries`.
pub(crate) fn partition_error(values: &[f64], probs: &[f64], boundaries: &[usize]) -> f64 {
    let mut err = 0.0;
    for (i, &start) in boundaries.iter().enumerate() {
        let end = if i + 1 < boundaries.len() {
            boundaries[i + 1]
        } else {
            probs.len()
        };
        let weight: f64 = probs[start..end].iter().sum();
        if weight <= 0.0 {
            continue;
        }
        let mean: f64 = values[start..end]
            .iter()
            .zip(&probs[start..end])
            .map(|(v, p)| v * p)
            .sum::<f64>()
            / weight;
        err += values[start..end]
            .iter()
            .zip(&probs[start..end])
            .map(|(v, p)| p * (v - mean) * (v - mean))
            .sum::<f64>();
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(pairs: &[(f64, f64)]) -> RawDistribution {
        RawDistribution::from_pairs(pairs).unwrap()
    }

    #[test]
    fn one_bucket_covers_everything() {
        let r = raw(&[(10.0, 0.2), (20.0, 0.5), (30.0, 0.3)]);
        let bounds = voptimal_boundaries(&r, 1).unwrap();
        assert_eq!(bounds, vec![0]);
        let h = voptimal_histogram(&r, 1).unwrap();
        assert_eq!(h.bucket_count(), 1);
        assert!((h.probs()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn enough_buckets_isolates_every_value() {
        let r = raw(&[(10.0, 0.2), (20.0, 0.5), (30.0, 0.3)]);
        let bounds = voptimal_boundaries(&r, 3).unwrap();
        assert_eq!(bounds, vec![0, 1, 2]);
        assert_eq!(voptimal_error(&r, 3).unwrap(), 0.0);
        // Asking for more buckets than values degrades gracefully.
        let bounds = voptimal_boundaries(&r, 10).unwrap();
        assert_eq!(bounds.len(), 3);
    }

    #[test]
    fn splits_where_frequencies_differ_most() {
        // Two clearly different regimes: low-probability values then
        // high-probability values. With 2 buckets the optimal cut separates them.
        let r = raw(&[
            (10.0, 0.05),
            (11.0, 0.05),
            (12.0, 0.05),
            (50.0, 0.30),
            (51.0, 0.30),
            (52.0, 0.25),
        ]);
        let bounds = voptimal_boundaries(&r, 2).unwrap();
        assert_eq!(bounds, vec![0, 3]);
    }

    #[test]
    fn error_is_monotone_non_increasing_in_bucket_count() {
        let r = raw(&[
            (1.0, 0.05),
            (2.0, 0.1),
            (3.0, 0.2),
            (4.0, 0.05),
            (5.0, 0.3),
            (6.0, 0.05),
            (7.0, 0.15),
            (8.0, 0.1),
        ]);
        let mut prev = f64::INFINITY;
        for b in 1..=8 {
            let e = voptimal_error(&r, b).unwrap();
            assert!(
                e <= prev + 1e-12,
                "error must not increase with more buckets (b={b}, e={e}, prev={prev})"
            );
            prev = e;
        }
        assert!(voptimal_error(&r, 8).unwrap() < 1e-15);
    }

    #[test]
    fn zero_buckets_rejected() {
        let r = raw(&[(1.0, 1.0)]);
        assert!(matches!(
            voptimal_boundaries(&r, 0),
            Err(HistError::ZeroBuckets)
        ));
    }

    #[test]
    fn histogram_mass_matches_raw_mass_per_bucket() {
        let r = raw(&[(10.0, 0.25), (20.0, 0.25), (80.0, 0.5)]);
        let h = voptimal_histogram(&r, 2).unwrap();
        assert_eq!(h.bucket_count(), 2);
        let total: f64 = h.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // The large value should sit alone in the second bucket.
        assert!((h.probs()[1] - 0.5).abs() < 1e-12);
    }
}
