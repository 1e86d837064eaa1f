//! The pre-optimisation histogram kernels, kept as test code so the fast
//! kernels have an executable specification: linear-scan CDF evaluation, the
//! allocate-sort-coarsen convolution pipeline (`O(B_a·B_b)` product entries →
//! overlap rearrangement → greedy `O(n²)` coarsening), and the quadratic
//! overlap rearrangement itself. `tests/histogram_equivalence.rs` asserts the
//! optimised paths stay equivalent (bit-for-bit where the arithmetic allows,
//! within `1e-12` total variation otherwise).

use pathcost::hist::{Bucket, HistError, Histogram1D};

/// `P(cost ≤ x)` by linear scan (the pre-optimisation `prob_leq`).
pub fn prob_leq(hist: &Histogram1D, x: f64) -> f64 {
    let mut acc = 0.0;
    for (b, p) in hist.buckets().iter().zip(hist.probs()) {
        if x >= b.hi {
            acc += p;
        } else if x > b.lo {
            acc += p * (x - b.lo) / b.width();
            break;
        } else {
            break;
        }
    }
    acc.min(1.0)
}

/// Probability density at `x` by linear scan.
pub fn pdf_at(hist: &Histogram1D, x: f64) -> f64 {
    for (b, p) in hist.buckets().iter().zip(hist.probs()) {
        if b.contains(x) {
            return p / b.width();
        }
    }
    0.0
}

/// `P(lo ≤ cost < hi)` by scanning every bucket's overlap fraction.
pub fn prob_within(hist: &Histogram1D, lo: f64, hi: f64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let probe = Bucket { lo, hi };
    hist.buckets()
        .iter()
        .zip(hist.probs())
        .map(|(b, p)| p * b.fraction_within(&probe))
        .sum()
}

/// The `q`-quantile by accumulating probabilities left to right.
pub fn quantile(hist: &Histogram1D, q: f64) -> f64 {
    let q = q.clamp(0.0, 1.0);
    let mut acc = 0.0;
    for (b, p) in hist.buckets().iter().zip(hist.probs()) {
        if acc + p >= q {
            if *p <= 0.0 {
                return b.lo;
            }
            let frac = (q - acc) / p;
            return b.lo + frac * b.width();
        }
        acc += p;
    }
    hist.max()
}

/// The quadratic §4.2 rearrangement: all cut points are collected, and every
/// elementary interval integrates every input bucket's overlap fraction.
pub fn from_overlapping(entries: &[(Bucket, f64)]) -> Result<Histogram1D, HistError> {
    if entries.is_empty() {
        return Err(HistError::EmptyInput);
    }
    for &(_, p) in entries {
        if !p.is_finite() || p < 0.0 {
            return Err(HistError::InvalidProbability(p));
        }
    }
    let mut cuts: Vec<f64> = entries.iter().flat_map(|(b, _)| [b.lo, b.hi]).collect();
    cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
    cuts.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    let mut out: Vec<(Bucket, f64)> = Vec::with_capacity(cuts.len());
    for w in cuts.windows(2) {
        let elem = Bucket { lo: w[0], hi: w[1] };
        let mass: f64 = entries
            .iter()
            .map(|(b, p)| p * b.fraction_within(&elem))
            .sum();
        if mass > 1e-15 {
            out.push((elem, mass));
        }
    }
    Histogram1D::from_entries(out)
}

/// Greedy smallest-adjacent-mass coarsening with a full rescan per merge
/// (the pre-optimisation `Histogram1D::coarsen`).
pub fn coarsen(hist: &Histogram1D, max_buckets: usize) -> Histogram1D {
    let max_buckets = max_buckets.max(1);
    if hist.bucket_count() <= max_buckets {
        return hist.clone();
    }
    let mut buckets: Vec<Bucket> = hist.buckets().to_vec();
    let mut probs: Vec<f64> = hist.probs().to_vec();
    while buckets.len() > max_buckets {
        let mut best = 0;
        let mut best_mass = f64::INFINITY;
        for i in 0..buckets.len() - 1 {
            let mass = probs[i] + probs[i + 1];
            if mass < best_mass {
                best_mass = mass;
                best = i;
            }
        }
        let merged = Bucket {
            lo: buckets[best].lo,
            hi: buckets[best + 1].hi,
        };
        buckets[best] = merged;
        probs[best] += probs[best + 1];
        buckets.remove(best + 1);
        probs.remove(best + 1);
    }
    Histogram1D::from_entries(buckets.into_iter().zip(probs).collect())
        .expect("coarsened entries stay valid")
}

/// The allocate-sort-coarsen pairwise convolution: materialise every bucket
/// product, rearrange, then coarsen.
pub fn convolve_with_limit(
    a: &Histogram1D,
    b: &Histogram1D,
    max_buckets: usize,
) -> Result<Histogram1D, HistError> {
    let mut entries: Vec<(Bucket, f64)> = Vec::with_capacity(a.bucket_count() * b.bucket_count());
    for (ba, pa) in a.buckets().iter().zip(a.probs()) {
        for (bb, pb) in b.buckets().iter().zip(b.probs()) {
            let mass = pa * pb;
            if mass > 0.0 {
                entries.push((ba.sum(bb), mass));
            }
        }
    }
    let hist = from_overlapping(&entries)?;
    Ok(coarsen(&hist, max_buckets))
}

/// Left-to-right fold of [`convolve_with_limit`], cloning the first operand —
/// the pre-optimisation `convolve_many_with_limit`.
pub fn convolve_many_with_limit(
    histograms: &[Histogram1D],
    max_buckets: usize,
) -> Result<Histogram1D, HistError> {
    let mut iter = histograms.iter();
    let first = iter.next().ok_or(HistError::EmptyInput)?;
    let mut acc = first.clone();
    for h in iter {
        acc = convolve_with_limit(&acc, h, max_buckets)?;
    }
    Ok(acc)
}
