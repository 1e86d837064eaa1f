//! The benchmark's own random source.
//!
//! Request streams must not change when the repository swaps its vendored
//! `rand` stand-in for the real crate (the roadmap allows that), or a parent
//! and a change would be driven by different inputs. So the generator is
//! spelled out here: SplitMix64, 64 bits of state, `--seed` its only input.

/// SplitMix64's increment.
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 (Steele, Lea, Flood 2014).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `stream` separates the independent uses of one
    /// run seed (keys, kinds, budgets, …) so adding a draw to one of them
    /// does not shift the others.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(GAMMA));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for every
    /// `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n` by inversion of the precomputed CDF: rank `k`
/// has mass proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability mass of the `k` most popular ranks.
    #[cfg(test)]
    pub fn head_mass(&self, k: usize) -> f64 {
        self.cdf[k.min(self.cdf.len()) - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_head_mass_matches_the_analytic_value_and_the_samples() {
        // Zipf(1.1) over 2 000 ranks: the 20 most popular keys (1 %) carry
        // H(20, 1.1) / H(2000, 1.1) of the mass.
        let n = 2_000;
        let zipf = Zipf::new(n, 1.1);
        let h = |m: usize| (1..=m).map(|k| 1.0 / (k as f64).powf(1.1)).sum::<f64>();
        let expected = h(20) / h(n);
        assert!((zipf.head_mass(20) - expected).abs() < 1e-12);
        assert!(expected > 0.45 && expected < 0.55, "head mass {expected}");

        let mut rng = Rng::new(42, 0);
        let draws = 200_000;
        let head = (0..draws).filter(|_| zipf.sample(&mut rng) < 20).count();
        let observed = head as f64 / draws as f64;
        assert!(
            (observed - expected).abs() < 0.01,
            "sampled head mass {observed} vs analytic {expected}"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<usize> = (0..100).collect();
        Rng::new(3, 0).shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }
}
