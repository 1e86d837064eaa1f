//! Kullback–Leibler divergence and entropy.
//!
//! The paper uses KL divergence both to motivate the hybrid graph (Figure 4:
//! convolution under independence diverges from the ground truth) and to
//! evaluate estimators (Figures 11, 14). Entropy appears through Theorem 2
//! (`KL(p, p̂_DE) = H_DE − H`) and the Figure 8(b)/15 analyses.
//!
//! Histograms are continuous objects; to compare two of them (or a histogram
//! against a raw empirical distribution) we discretise both on the union of
//! their bucket boundaries and compute the discrete KL divergence over that
//! common refinement. A small smoothing mass avoids infinite divergences when
//! the approximating distribution assigns zero probability to a region the
//! reference covers.

use crate::histogram1d::Histogram1D;
use crate::raw::RawDistribution;

/// Smoothing probability assigned to empty cells of the approximating
/// distribution when computing KL divergence.
const SMOOTHING: f64 = 1e-9;

/// Shannon entropy (natural logarithm) of a probability vector.
///
/// Zero entries contribute nothing; the vector is assumed to be normalised.
pub fn entropy_of_probs(probs: &[f64]) -> f64 {
    probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum()
}

/// Discrete KL divergence `KL(p ‖ q) = Σ p_i ln(p_i / q_i)` over aligned
/// probability vectors. `q` entries are smoothed to avoid division by zero.
pub fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len(), "probability vectors must align");
    let q_total: f64 = q.iter().sum::<f64>() + SMOOTHING * q.len() as f64;
    let p_total: f64 = p.iter().sum();
    if p_total <= 0.0 || q_total <= 0.0 {
        return 0.0;
    }
    p.iter()
        .zip(q)
        .filter(|(&pi, _)| pi > 0.0)
        .map(|(&pi, &qi)| {
            let pn = pi / p_total;
            let qn = (qi + SMOOTHING) / q_total;
            pn * (pn / qn).ln()
        })
        .sum::<f64>()
        .max(0.0)
}

/// KL divergence `KL(reference ‖ approx)` between two histograms, computed on
/// the common refinement of their bucket boundaries.
pub fn kl_divergence_histograms(reference: &Histogram1D, approx: &Histogram1D) -> f64 {
    let cuts = common_cuts(
        reference.buckets().iter().flat_map(|b| [b.lo, b.hi]),
        approx.buckets().iter().flat_map(|b| [b.lo, b.hi]),
    );
    let (p, q) = discretise_pair(reference, approx, &cuts);
    kl_divergence(&p, &q)
}

/// KL divergence `KL(raw ‖ approx)` of a histogram (or fitted distribution
/// discretised into a histogram) from a raw empirical distribution.
///
/// The raw distribution's probability of each distinct value is compared with
/// the probability the histogram assigns to a `resolution`-wide window at that
/// value. This matches how the paper compares fitted models against the raw
/// travel-time data (Figures 1(b) and 11(a)).
pub fn kl_divergence_from_raw(raw: &RawDistribution, approx: &Histogram1D, resolution: f64) -> f64 {
    let p: Vec<f64> = raw.probs().to_vec();
    let q: Vec<f64> = raw
        .values()
        .iter()
        .map(|&v| approx.prob_at_resolution(v, resolution))
        .collect();
    kl_divergence(&p, &q)
}

fn common_cuts(a: impl Iterator<Item = f64>, b: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut cuts: Vec<f64> = a.chain(b).collect();
    cuts.sort_by(|x, y| x.partial_cmp(y).expect("finite bounds"));
    cuts.dedup_by(|x, y| (*x - *y).abs() < 1e-12);
    cuts
}

fn discretise_pair(a: &Histogram1D, b: &Histogram1D, cuts: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut p = Vec::with_capacity(cuts.len());
    let mut q = Vec::with_capacity(cuts.len());
    for w in cuts.windows(2) {
        p.push(a.prob_within(w[0], w[1]));
        q.push(b.prob_within(w[0], w[1]));
    }
    (p, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::Bucket;

    fn b(lo: f64, hi: f64) -> Bucket {
        Bucket::new(lo, hi).unwrap()
    }

    #[test]
    fn entropy_of_uniform_probs() {
        let probs = vec![0.25; 4];
        assert!((entropy_of_probs(&probs) - (4.0f64).ln()).abs() < 1e-12);
        assert_eq!(entropy_of_probs(&[1.0]), 0.0);
        assert_eq!(entropy_of_probs(&[0.0, 1.0, 0.0]), 0.0);
    }

    #[test]
    fn kl_is_zero_for_identical_distributions() {
        let p = vec![0.2, 0.3, 0.5];
        assert!(kl_divergence(&p, &p) < 1e-9);
        let h = Histogram1D::from_entries(vec![(b(0.0, 10.0), 0.4), (b(10.0, 20.0), 0.6)]).unwrap();
        assert!(kl_divergence_histograms(&h, &h) < 1e-9);
    }

    #[test]
    fn kl_is_positive_for_different_distributions() {
        let p = vec![0.9, 0.1];
        let q = vec![0.1, 0.9];
        assert!(kl_divergence(&p, &q) > 0.5);
        let h1 = Histogram1D::uniform(0.0, 10.0).unwrap();
        let h2 = Histogram1D::uniform(5.0, 15.0).unwrap();
        assert!(kl_divergence_histograms(&h1, &h2) > 0.1);
    }

    #[test]
    fn kl_is_asymmetric_in_general() {
        let p = vec![0.8, 0.15, 0.05];
        let q = vec![0.4, 0.4, 0.2];
        let forward = kl_divergence(&p, &q);
        let backward = kl_divergence(&q, &p);
        assert!((forward - backward).abs() > 1e-3);
    }

    #[test]
    fn kl_handles_zero_mass_in_approximation() {
        let p = vec![0.5, 0.5];
        let q = vec![1.0, 0.0];
        let d = kl_divergence(&p, &q);
        assert!(d.is_finite());
        assert!(d > 1.0, "missing support should be heavily penalised: {d}");
    }

    #[test]
    fn kl_from_raw_prefers_closer_histogram() {
        let raw = RawDistribution::from_samples(
            &[100.0, 100.0, 101.0, 102.0, 130.0, 131.0, 131.0, 132.0],
            1.0,
        )
        .unwrap();
        let good = crate::voptimal::voptimal_histogram(&raw, 4).unwrap();
        let bad = Histogram1D::uniform(90.0, 140.0).unwrap();
        let kl_good = kl_divergence_from_raw(&raw, &good, 1.0);
        let kl_bad = kl_divergence_from_raw(&raw, &bad, 1.0);
        assert!(
            kl_good < kl_bad,
            "V-Optimal fit ({kl_good}) should beat a flat histogram ({kl_bad})"
        );
    }

    #[test]
    fn histogram_kl_decreases_as_approximation_improves() {
        let reference = Histogram1D::from_entries(vec![
            (b(0.0, 10.0), 0.1),
            (b(10.0, 20.0), 0.6),
            (b(20.0, 30.0), 0.3),
        ])
        .unwrap();
        let rough = Histogram1D::uniform(0.0, 30.0).unwrap();
        let better =
            Histogram1D::from_entries(vec![(b(0.0, 15.0), 0.4), (b(15.0, 30.0), 0.6)]).unwrap();
        let kl_rough = kl_divergence_histograms(&reference, &rough);
        let kl_better = kl_divergence_histograms(&reference, &better);
        assert!(kl_better < kl_rough);
    }
}
