//! Multi-dimensional histograms over hyper-buckets (§3.2).
//!
//! A multi-dimensional histogram represents the joint distribution of the
//! per-edge costs of a path: each dimension corresponds to one edge, a
//! hyper-bucket is one bucket per dimension, and each hyper-bucket carries the
//! probability that all edge costs fall inside it simultaneously.
//!
//! Construction follows the paper: the bucket count of each dimension is
//! selected automatically (Auto, §3.1), V-Optimal picks the bucket boundaries
//! per dimension, and the probability of each hyper-bucket is the fraction of
//! joint samples falling in it (Figure 6).

use crate::auto::{auto_histogram, AutoConfig};
use crate::bucket::Bucket;
use crate::error::HistError;
use crate::histogram1d::Histogram1D;
use serde::{Deserialize, Serialize};

/// A multi-dimensional histogram: a set of `(hyper-bucket, probability)` pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramNd {
    dims: usize,
    /// Per-dimension axis buckets (disjoint, sorted). Hyper-buckets are drawn
    /// from the cross product of these axes, but only non-empty cells are stored.
    axes: Vec<Vec<Bucket>>,
    /// Non-empty cells: per-dimension bucket indices into `axes`, plus probability.
    cells: Vec<(Vec<u32>, f64)>,
}

impl HistogramNd {
    /// Builds an N-dimensional histogram from joint samples.
    ///
    /// `samples[i]` is the i-th joint observation (one cost per dimension).
    /// Per-dimension bucket counts are chosen with the Auto method and bucket
    /// boundaries with V-Optimal; cell probabilities are empirical fractions.
    pub fn from_samples(samples: &[Vec<f64>], cfg: &AutoConfig) -> Result<Self, HistError> {
        if samples.is_empty() {
            return Err(HistError::EmptyInput);
        }
        let dims = samples[0].len();
        if dims == 0 {
            return Err(HistError::EmptyInput);
        }
        for s in samples {
            if s.len() != dims {
                return Err(HistError::DimensionMismatch {
                    expected: dims,
                    actual: s.len(),
                });
            }
        }

        // Per-dimension axes, each the Auto fit of one column.
        let axes = (0..dims)
            .map(|d| {
                let column: Vec<f64> = samples.iter().map(|s| s[d]).collect();
                Ok(auto_histogram(&column, cfg)?.buckets().to_vec())
            })
            .collect::<Result<_, HistError>>()?;
        Self::from_samples_with_axes(samples, axes)
    }

    /// Builds an N-dimensional histogram from joint samples using externally
    /// chosen per-dimension axes (used by tests, by callers that want fixed
    /// `Sta-b` axes, and by the weight fit, which hands in slices of one
    /// flat row buffer).
    pub fn from_samples_with_axes<S: AsRef<[f64]>>(
        samples: &[S],
        axes: Vec<Vec<Bucket>>,
    ) -> Result<Self, HistError> {
        if samples.is_empty() || axes.is_empty() {
            return Err(HistError::EmptyInput);
        }
        let dims = axes.len();
        // One flat row of per-dimension bucket indices per sample; equal rows
        // are counted by sorting the sample order on them.
        let mut keys: Vec<u32> = Vec::with_capacity(samples.len() * dims);
        for sample in samples {
            let sample = sample.as_ref();
            if sample.len() != dims {
                return Err(HistError::DimensionMismatch {
                    expected: dims,
                    actual: sample.len(),
                });
            }
            for (d, &value) in sample.iter().enumerate() {
                keys.push(locate(&axes[d], value) as u32);
            }
        }
        let key = |row: usize| &keys[row * dims..(row + 1) * dims];
        let mut order: Vec<usize> = (0..samples.len()).collect();
        order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        let total = samples.len() as f64;
        let mut cells: Vec<(Vec<u32>, f64)> = Vec::new();
        let mut run = 0;
        while run < order.len() {
            let cell = key(order[run]);
            let count = order[run..].iter().take_while(|&&r| key(r) == cell).count();
            cells.push((cell.to_vec(), count as f64 / total));
            run += count;
        }
        Ok(HistogramNd { dims, axes, cells })
    }

    /// Builds a one-dimensional [`HistogramNd`] from a 1-D histogram, so that
    /// unit-path weights and non-unit-path weights share a representation.
    pub fn from_histogram1d(hist: &Histogram1D) -> Self {
        let axes = vec![hist.buckets().to_vec()];
        let cells = hist
            .probs()
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0)
            .map(|(i, &p)| (vec![i as u32], p))
            .collect();
        HistogramNd {
            dims: 1,
            axes,
            cells,
        }
    }

    /// Creates a histogram directly from axes and cells (probabilities are
    /// normalised). Intended for tests and for deserialised data.
    pub fn from_cells(
        axes: Vec<Vec<Bucket>>,
        cells: Vec<(Vec<u32>, f64)>,
    ) -> Result<Self, HistError> {
        if axes.is_empty() || cells.is_empty() {
            return Err(HistError::EmptyInput);
        }
        let dims = axes.len();
        let total: f64 = cells.iter().map(|(_, p)| *p).sum();
        if total <= 0.0 {
            return Err(HistError::InvalidProbability(total));
        }
        let mut normalised = Vec::with_capacity(cells.len());
        for (key, p) in cells {
            if key.len() != dims {
                return Err(HistError::DimensionMismatch {
                    expected: dims,
                    actual: key.len(),
                });
            }
            if !p.is_finite() || p < 0.0 {
                return Err(HistError::InvalidProbability(p));
            }
            for (d, &idx) in key.iter().enumerate() {
                if idx as usize >= axes[d].len() {
                    return Err(HistError::ZeroBuckets);
                }
            }
            normalised.push((key, p / total));
        }
        normalised.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(HistogramNd {
            dims,
            axes,
            cells: normalised,
        })
    }

    /// Restores a histogram from axes and cells captured from an existing
    /// histogram (e.g. a persisted snapshot), **without** re-normalising the
    /// probabilities, so the restored histogram is bit-identical to the one
    /// that was serialized. Contrast [`Self::from_cells`], which normalises
    /// and therefore cannot round-trip floating-point mass exactly.
    ///
    /// Validates shape only: non-empty axes and cells, per-cell key length
    /// matching the dimension count, indices in axis range, finite
    /// non-negative probabilities. Cells must already be sorted by key (the
    /// order every constructor produces and every accessor exposes).
    pub fn from_raw_parts(
        axes: Vec<Vec<Bucket>>,
        cells: Vec<(Vec<u32>, f64)>,
    ) -> Result<Self, HistError> {
        if axes.is_empty() || cells.is_empty() || axes.iter().any(|a| a.is_empty()) {
            return Err(HistError::EmptyInput);
        }
        let dims = axes.len();
        for (key, p) in &cells {
            if key.len() != dims {
                return Err(HistError::DimensionMismatch {
                    expected: dims,
                    actual: key.len(),
                });
            }
            if !p.is_finite() || *p < 0.0 {
                return Err(HistError::InvalidProbability(*p));
            }
            for (d, &idx) in key.iter().enumerate() {
                if idx as usize >= axes[d].len() {
                    return Err(HistError::ZeroBuckets);
                }
            }
        }
        if cells.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err(HistError::EmptyInput);
        }
        Ok(HistogramNd { dims, axes, cells })
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of non-empty hyper-buckets.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The per-dimension axis buckets.
    pub fn axes(&self) -> &[Vec<Bucket>] {
        &self.axes
    }

    /// Iterates over `(hyper-bucket, probability)` pairs, materialising the
    /// per-dimension buckets of each cell.
    pub fn iter_cells(&self) -> impl Iterator<Item = (Vec<Bucket>, f64)> + '_ {
        self.cells.iter().map(move |(key, p)| {
            let buckets = key
                .iter()
                .enumerate()
                .map(|(d, &i)| self.axes[d][i as usize])
                .collect();
            (buckets, *p)
        })
    }

    /// Raw access to the cell index keys and probabilities.
    pub fn cells(&self) -> &[(Vec<u32>, f64)] {
        &self.cells
    }

    /// Marginal distribution over a subset of dimensions (in the given order).
    pub fn marginal(&self, dims: &[usize]) -> Result<HistogramNd, HistError> {
        if dims.is_empty() {
            return Err(HistError::EmptyInput);
        }
        for &d in dims {
            if d >= self.dims {
                return Err(HistError::DimensionMismatch {
                    expected: self.dims,
                    actual: d,
                });
            }
        }
        let axes: Vec<Vec<Bucket>> = dims.iter().map(|&d| self.axes[d].clone()).collect();
        // Ordered, so the normalising total below adds the cells up in key
        // order: a marginal is a pure function of the histogram, bit for bit.
        let mut acc: std::collections::BTreeMap<Vec<u32>, f64> = std::collections::BTreeMap::new();
        for (key, p) in &self.cells {
            let projected: Vec<u32> = dims.iter().map(|&d| key[d]).collect();
            *acc.entry(projected).or_insert(0.0) += p;
        }
        let cells: Vec<(Vec<u32>, f64)> = acc.into_iter().collect();
        HistogramNd::from_cells(axes, cells)
    }

    /// Marginal of a single dimension as a 1-D histogram.
    pub fn marginal_1d(&self, dim: usize) -> Result<Histogram1D, HistError> {
        let m = self.marginal(&[dim])?;
        let entries: Vec<(Bucket, f64)> =
            m.iter_cells().map(|(buckets, p)| (buckets[0], p)).collect();
        Histogram1D::from_overlapping(&entries)
    }

    /// Shannon entropy (natural log) over the hyper-bucket probabilities.
    ///
    /// This is the `H(C_P)` quantity appearing in Theorems 1–3.
    pub fn entropy(&self) -> f64 {
        crate::divergence::entropy_of_probs(&self.cells.iter().map(|(_, p)| *p).collect::<Vec<_>>())
    }

    /// Transforms the joint distribution into the path's (univariate) cost
    /// distribution (§4.2): each hyper-bucket becomes the bucket whose bounds
    /// are the sums of the per-dimension bounds, and the resulting overlapping
    /// buckets are re-arranged into a disjoint 1-D histogram.
    pub fn to_cost_histogram(&self) -> Result<Histogram1D, HistError> {
        let entries: Vec<(Bucket, f64)> = self
            .iter_cells()
            .map(|(buckets, p)| {
                let bucket = buckets.iter().skip(1).fold(buckets[0], |acc, b| acc.sum(b));
                (bucket, p)
            })
            .collect();
        Histogram1D::from_overlapping(&entries)
    }

    /// The minimum possible total cost (sum of the lowest bucket lower bounds
    /// present in any cell).
    pub fn min_total(&self) -> f64 {
        self.iter_cells()
            .map(|(buckets, _)| buckets.iter().map(|b| b.lo).sum::<f64>())
            .fold(f64::INFINITY, f64::min)
    }

    /// The maximum possible total cost.
    pub fn max_total(&self) -> f64 {
        self.iter_cells()
            .map(|(buckets, _)| buckets.iter().map(|b| b.hi).sum::<f64>())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Approximate storage in bytes: per cell one probability plus one bucket
    /// index per dimension, plus the axis bucket bounds.
    pub fn storage_bytes(&self) -> usize {
        let cell_bytes = self.cells.len() * (std::mem::size_of::<f64>() + self.dims * 4);
        let axis_bytes: usize = self
            .axes
            .iter()
            .map(|a| a.len() * 2 * std::mem::size_of::<f64>())
            .sum();
        cell_bytes + axis_bytes
    }
}

/// Index of the axis bucket containing `value`, clamping values outside the
/// covered range to the nearest bucket.
pub(crate) fn locate(axis: &[Bucket], value: f64) -> usize {
    if value < axis[0].lo {
        return 0;
    }
    for (i, b) in axis.iter().enumerate() {
        if b.contains(value) {
            return i;
        }
    }
    axis.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: f64, hi: f64) -> Bucket {
        Bucket::new(lo, hi).unwrap()
    }

    /// The 2-D example of Figure 6: costs on edge a vs edge b.
    fn figure6_samples() -> Vec<Vec<f64>> {
        // (cea, ceb, count) points roughly following Figure 6(a).
        let points = [
            (50.0, 80.0, 110),
            (20.0, 20.0, 35),
            (30.0, 25.0, 25),
            (25.0, 85.0, 20),
            (60.0, 30.0, 20),
            (70.0, 30.0, 20),
            (80.0, 85.0, 20),
            (85.0, 90.0, 10),
            (45.0, 75.0, 25),
        ];
        let mut samples = Vec::new();
        for &(a, bb, n) in &points {
            for _ in 0..n {
                samples.push(vec![a, bb]);
            }
        }
        samples
    }

    #[test]
    fn from_samples_builds_normalised_joint() {
        let nd = HistogramNd::from_samples(&figure6_samples(), &AutoConfig::default()).unwrap();
        assert_eq!(nd.dims(), 2);
        assert!(nd.cell_count() >= 2);
        let total: f64 = nd.cells().iter().map(|(_, p)| *p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let samples = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(matches!(
            HistogramNd::from_samples(&samples, &AutoConfig::default()),
            Err(HistError::DimensionMismatch { .. })
        ));
        assert!(HistogramNd::from_samples(&[], &AutoConfig::default()).is_err());
    }

    #[test]
    fn marginals_sum_to_one_and_match_column_distributions() {
        let samples = figure6_samples();
        let nd = HistogramNd::from_samples(&samples, &AutoConfig::default()).unwrap();
        for d in 0..2 {
            let m = nd.marginal_1d(d).unwrap();
            assert!((m.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // The marginal mean should be close to the column mean.
            let col_mean: f64 = samples.iter().map(|s| s[d]).sum::<f64>() / samples.len() as f64;
            assert!(
                (m.mean() - col_mean).abs() < 15.0,
                "marginal mean {} vs column mean {}",
                m.mean(),
                col_mean
            );
        }
    }

    #[test]
    fn marginal_over_subset_preserves_mass() {
        let samples: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                vec![
                    (i % 7) as f64 * 10.0,
                    (i % 5) as f64 * 20.0,
                    (i % 3) as f64 * 30.0,
                ]
            })
            .collect();
        let nd = HistogramNd::from_samples(&samples, &AutoConfig::default()).unwrap();
        let m = nd.marginal(&[0, 2]).unwrap();
        assert_eq!(m.dims(), 2);
        let total: f64 = m.cells().iter().map(|(_, p)| *p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(nd.marginal(&[5]).is_err());
        assert!(nd.marginal(&[]).is_err());
    }

    #[test]
    fn paper_figure7_joint_to_cost_distribution() {
        // Figure 7's joint distribution:
        //   ce1 ∈ [20,30) × ce2 ∈ [20,40): 0.30    ce1 ∈ [30,50) × ce2 ∈ [20,40): 0.25
        //   ce1 ∈ [20,30) × ce2 ∈ [40,60): 0.20    ce1 ∈ [30,50) × ce2 ∈ [40,60): 0.25
        let axes = vec![
            vec![b(20.0, 30.0), b(30.0, 50.0)],
            vec![b(20.0, 40.0), b(40.0, 60.0)],
        ];
        let cells = vec![
            (vec![0u32, 0u32], 0.30),
            (vec![1, 0], 0.25),
            (vec![0, 1], 0.20),
            (vec![1, 1], 0.25),
        ];
        let nd = HistogramNd::from_cells(axes, cells).unwrap();
        let cost = nd.to_cost_histogram().unwrap();
        // Final marginal from the paper:
        // [40,50): 0.1000, [50,60): 0.1625, [60,70): 0.2292, [70,90): 0.3833, [90,110): 0.1250
        let expect = [
            (40.0, 50.0, 0.1),
            (50.0, 60.0, 0.1625),
            (60.0, 70.0, 0.2291666),
            (70.0, 90.0, 0.3833333),
            (90.0, 110.0, 0.125),
        ];
        assert_eq!(cost.bucket_count(), expect.len());
        for (i, &(lo, hi, p)) in expect.iter().enumerate() {
            assert!((cost.buckets()[i].lo - lo).abs() < 1e-9);
            assert!((cost.buckets()[i].hi - hi).abs() < 1e-9);
            assert!(
                (cost.probs()[i] - p).abs() < 1e-5,
                "prob {i}: {}",
                cost.probs()[i]
            );
        }
    }

    #[test]
    fn from_raw_parts_round_trips_without_renormalising() {
        let nd = HistogramNd::from_samples(&figure6_samples(), &AutoConfig::default()).unwrap();
        let back = HistogramNd::from_raw_parts(nd.axes().to_vec(), nd.cells().to_vec()).unwrap();
        assert_eq!(back, nd);
        // from_cells would renormalise; raw parts must not. Feed un-normalised
        // mass and check it survives bit-for-bit.
        let axes = vec![vec![b(0.0, 10.0), b(10.0, 20.0)]];
        let cells = vec![(vec![0u32], 0.1), (vec![1u32], 0.2)];
        let raw = HistogramNd::from_raw_parts(axes.clone(), cells.clone()).unwrap();
        assert_eq!(raw.cells(), cells.as_slice());
        // Shape violations are rejected: empty, bad key length, out-of-range
        // index, negative mass, unsorted cells.
        assert!(HistogramNd::from_raw_parts(vec![], vec![]).is_err());
        assert!(HistogramNd::from_raw_parts(axes.clone(), vec![(vec![0, 0], 1.0)]).is_err());
        assert!(HistogramNd::from_raw_parts(axes.clone(), vec![(vec![7], 1.0)]).is_err());
        assert!(HistogramNd::from_raw_parts(axes.clone(), vec![(vec![0], -1.0)]).is_err());
        assert!(
            HistogramNd::from_raw_parts(axes, vec![(vec![1u32], 0.5), (vec![0u32], 0.5)]).is_err()
        );
    }

    #[test]
    fn entropy_of_joint_at_least_entropy_of_marginals_under_dependence() {
        // A perfectly correlated joint: knowing one dimension determines the other.
        let axes = vec![
            vec![b(0.0, 10.0), b(10.0, 20.0)],
            vec![b(0.0, 10.0), b(10.0, 20.0)],
        ];
        let correlated =
            HistogramNd::from_cells(axes.clone(), vec![(vec![0, 0], 0.5), (vec![1, 1], 0.5)])
                .unwrap();
        let independent = HistogramNd::from_cells(
            axes,
            vec![
                (vec![0, 0], 0.25),
                (vec![0, 1], 0.25),
                (vec![1, 0], 0.25),
                (vec![1, 1], 0.25),
            ],
        )
        .unwrap();
        assert!(correlated.entropy() < independent.entropy());
        // Marginals of both are identical.
        let m1 = correlated.marginal_1d(0).unwrap();
        let m2 = independent.marginal_1d(0).unwrap();
        assert!((m1.probs()[0] - m2.probs()[0]).abs() < 1e-12);
    }

    #[test]
    fn from_histogram1d_round_trips() {
        let h = Histogram1D::from_entries(vec![(b(0.0, 10.0), 0.4), (b(10.0, 30.0), 0.6)]).unwrap();
        let nd = HistogramNd::from_histogram1d(&h);
        assert_eq!(nd.dims(), 1);
        let back = nd.marginal_1d(0).unwrap();
        assert_eq!(back.bucket_count(), 2);
        assert!((back.probs()[0] - 0.4).abs() < 1e-12);
        let cost = nd.to_cost_histogram().unwrap();
        assert!((cost.mean() - h.mean()).abs() < 1e-9);
    }

    #[test]
    fn min_max_total_bound_the_cost_histogram() {
        let nd = HistogramNd::from_samples(&figure6_samples(), &AutoConfig::default()).unwrap();
        let cost = nd.to_cost_histogram().unwrap();
        assert!(cost.min() >= nd.min_total() - 1e-9);
        assert!(cost.max() <= nd.max_total() + 1e-9);
    }

    #[test]
    fn storage_accounting_is_positive_and_monotone() {
        let small =
            HistogramNd::from_samples(&figure6_samples()[..50], &AutoConfig::default()).unwrap();
        let large = HistogramNd::from_samples(&figure6_samples(), &AutoConfig::default()).unwrap();
        assert!(small.storage_bytes() > 0);
        assert!(large.storage_bytes() >= small.storage_bytes());
    }

    #[test]
    fn locate_clamps_out_of_range_values() {
        let axis = vec![b(0.0, 10.0), b(10.0, 20.0)];
        assert_eq!(locate(&axis, -5.0), 0);
        assert_eq!(locate(&axis, 5.0), 0);
        assert_eq!(locate(&axis, 15.0), 1);
        assert_eq!(locate(&axis, 100.0), 1);
    }
}
