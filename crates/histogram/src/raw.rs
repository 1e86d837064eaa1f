//! Raw (empirical) cost distributions.
//!
//! From the qualified trajectories of a path the paper derives a *raw cost
//! distribution*: a multiset of cost values summarised as `⟨cost, perc⟩`
//! pairs, where `perc` is the fraction of qualified trajectories that took
//! cost `cost` (§3.1). [`RawDistribution`] is that object, and is the input to
//! V-Optimal bucketing, the Auto bucket-count selection and the ground-truth
//! baseline.

use crate::error::HistError;
use serde::{Deserialize, Serialize};

/// Validates one cost sample and rounds it to a multiple of `resolution`
/// (which must be positive) — the grid [`RawDistribution::from_samples`] and
/// the Auto fit kernel group samples on.
#[inline]
pub(crate) fn round_sample(s: f64, resolution: f64) -> Result<f64, HistError> {
    if !s.is_finite() || s < 0.0 {
        return Err(HistError::InvalidValue(s));
    }
    Ok((s / resolution).round() * resolution)
}

/// `true` when the rounded sample `v` belongs to the group of distinct values
/// opened by `first` (scanning rounded samples in increasing order).
#[inline]
pub(crate) fn same_value(first: f64, v: f64, resolution: f64) -> bool {
    (first - v).abs() < resolution * 1e-9
}

/// An empirical distribution over discrete cost values.
///
/// Values are kept sorted in increasing order; probabilities sum to one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawDistribution {
    values: Vec<f64>,
    probs: Vec<f64>,
    /// Number of underlying samples, retained for space-accounting (Fig. 11(c))
    /// and for qualified-trajectory thresholds.
    sample_count: usize,
}

impl RawDistribution {
    /// Builds a raw distribution from a multiset of cost samples.
    ///
    /// Samples are rounded to the given `resolution` (e.g. 1.0 second) before
    /// being grouped; the paper works with travel times at second granularity.
    pub fn from_samples(samples: &[f64], resolution: f64) -> Result<Self, HistError> {
        if samples.is_empty() {
            return Err(HistError::EmptyInput);
        }
        let resolution = if resolution > 0.0 { resolution } else { 1.0 };
        let mut rounded: Vec<f64> = Vec::with_capacity(samples.len());
        for &s in samples {
            rounded.push(round_sample(s, resolution)?);
        }
        rounded.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let mut values: Vec<f64> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        for v in rounded {
            match values.last() {
                Some(&last) if same_value(last, v, resolution) => {
                    *counts.last_mut().expect("non-empty") += 1usize;
                }
                _ => {
                    values.push(v);
                    counts.push(1usize);
                }
            }
        }
        let total = samples.len() as f64;
        let probs = counts.iter().map(|&c| c as f64 / total).collect();
        Ok(RawDistribution {
            values,
            probs,
            sample_count: samples.len(),
        })
    }

    /// Builds a raw distribution directly from `(value, probability)` pairs.
    ///
    /// Probabilities are normalised to sum to one.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> Result<Self, HistError> {
        if pairs.is_empty() {
            return Err(HistError::EmptyInput);
        }
        let mut sorted: Vec<(f64, f64)> = Vec::with_capacity(pairs.len());
        for &(v, p) in pairs {
            if !v.is_finite() || v < 0.0 {
                return Err(HistError::InvalidValue(v));
            }
            if !p.is_finite() || p < 0.0 {
                return Err(HistError::InvalidProbability(p));
            }
            sorted.push((v, p));
        }
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
        let total: f64 = sorted.iter().map(|&(_, p)| p).sum();
        if total <= 0.0 {
            return Err(HistError::InvalidProbability(total));
        }
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut probs = Vec::with_capacity(sorted.len());
        for (v, p) in sorted {
            if let Some(&last) = values.last() {
                if (v - last).abs() < 1e-12 {
                    *probs.last_mut().expect("non-empty") += p / total;
                    continue;
                }
            }
            values.push(v);
            probs.push(p / total);
        }
        Ok(RawDistribution {
            values,
            probs,
            sample_count: pairs.len(),
        })
    }

    /// The distinct cost values, in increasing order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The probability of each distinct cost value (aligned with [`Self::values`]).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// The number of underlying samples.
    pub fn sample_count(&self) -> usize {
        self.sample_count
    }

    /// The number of distinct cost values.
    pub fn distinct_count(&self) -> usize {
        self.values.len()
    }

    /// Mean cost.
    pub fn mean(&self) -> f64 {
        self.values
            .iter()
            .zip(&self.probs)
            .map(|(v, p)| v * p)
            .sum()
    }

    /// Variance of the cost.
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        self.values
            .iter()
            .zip(&self.probs)
            .map(|(v, p)| p * (v - mean) * (v - mean))
            .sum()
    }

    /// Minimum observed cost.
    pub fn min(&self) -> f64 {
        self.values[0]
    }

    /// Maximum observed cost.
    pub fn max(&self) -> f64 {
        *self.values.last().expect("non-empty")
    }

    /// P(cost ≤ x).
    pub fn prob_leq(&self, x: f64) -> f64 {
        self.values
            .iter()
            .zip(&self.probs)
            .take_while(|(v, _)| **v <= x)
            .map(|(_, p)| *p)
            .sum()
    }

    /// Shannon entropy (natural log) of the value distribution.
    pub fn entropy(&self) -> f64 {
        crate::divergence::entropy_of_probs(&self.probs)
    }

    /// Approximate storage (in bytes) of the raw `(cost, frequency)` pairs,
    /// used by the Figure 11(c) space-saving comparison.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * (std::mem::size_of::<f64>() * 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_samples_groups_and_normalises() {
        let d = RawDistribution::from_samples(&[10.0, 10.0, 20.0, 30.0], 1.0).unwrap();
        assert_eq!(d.values(), &[10.0, 20.0, 30.0]);
        assert!((d.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(d.probs(), &[0.5, 0.25, 0.25]);
        assert_eq!(d.sample_count(), 4);
        assert_eq!(d.distinct_count(), 3);
    }

    #[test]
    fn from_samples_rounds_to_resolution() {
        let d = RawDistribution::from_samples(&[10.2, 9.9, 10.4], 1.0).unwrap();
        assert_eq!(d.values(), &[10.0]);
        assert_eq!(d.probs(), &[1.0]);
    }

    #[test]
    fn rejects_empty_and_invalid() {
        assert!(RawDistribution::from_samples(&[], 1.0).is_err());
        assert!(RawDistribution::from_samples(&[-1.0], 1.0).is_err());
        assert!(RawDistribution::from_samples(&[f64::NAN], 1.0).is_err());
        assert!(RawDistribution::from_pairs(&[]).is_err());
        assert!(RawDistribution::from_pairs(&[(1.0, -0.5)]).is_err());
    }

    #[test]
    fn from_pairs_normalises_and_merges_duplicates() {
        let d = RawDistribution::from_pairs(&[(5.0, 2.0), (10.0, 1.0), (5.0, 1.0)]).unwrap();
        assert_eq!(d.values(), &[5.0, 10.0]);
        assert!((d.probs()[0] - 0.75).abs() < 1e-12);
        assert!((d.probs()[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn moments_and_bounds() {
        let d = RawDistribution::from_samples(&[10.0, 20.0, 20.0, 30.0], 1.0).unwrap();
        assert!((d.mean() - 20.0).abs() < 1e-12);
        assert_eq!(d.min(), 10.0);
        assert_eq!(d.max(), 30.0);
        assert!(d.variance() > 0.0);
        assert!((d.prob_leq(20.0) - 0.75).abs() < 1e-12);
        assert_eq!(d.prob_leq(5.0), 0.0);
        assert!((d.prob_leq(100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_zero_for_degenerate_distribution() {
        let d = RawDistribution::from_samples(&[42.0, 42.0, 42.0], 1.0).unwrap();
        assert!(d.entropy().abs() < 1e-12);
        let u = RawDistribution::from_samples(&[1.0, 2.0, 3.0, 4.0], 1.0).unwrap();
        assert!((u.entropy() - (4.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn storage_bytes_grows_with_distinct_values() {
        let few = RawDistribution::from_samples(&[1.0, 1.0, 1.0], 1.0).unwrap();
        let many = RawDistribution::from_samples(&[1.0, 2.0, 3.0, 4.0], 1.0).unwrap();
        assert!(many.storage_bytes() > few.storage_bytes());
    }
}
