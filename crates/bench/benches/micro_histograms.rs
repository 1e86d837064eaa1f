//! Micro-benchmarks of the distribution substrate: V-Optimal construction,
//! Auto bucket selection, convolution and the §4.2 marginalisation. These are
//! the inner loops of weight-function instantiation and estimation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathcost_hist::auto::{auto_histogram, auto_histogram_with_scratch, AutoConfig};
use pathcost_hist::convolution::{convolve_many_with_limit, convolve_many_with_scratch};
use pathcost_hist::voptimal::voptimal_histogram;
use pathcost_hist::{
    rebucket, Bucket, ConvolveScratch, FitScratch, Histogram1D, HistogramNd, RawDistribution,
    RebucketScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bimodal_samples(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                180.0 + rng.gen_range(-20.0..20.0)
            } else {
                90.0 + rng.gen_range(-15.0..15.0)
            }
        })
        .collect()
}

fn bench_voptimal_and_auto(c: &mut Criterion) {
    let mut group = c.benchmark_group("voptimal_auto");
    for n in [50usize, 200] {
        let samples = bimodal_samples(n, 7);
        let raw = RawDistribution::from_samples(&samples, 1.0).unwrap();
        group.bench_with_input(BenchmarkId::new("voptimal_b4", n), &raw, |b, raw| {
            b.iter(|| voptimal_histogram(raw, 4).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("auto", n), &samples, |b, samples| {
            b.iter(|| auto_histogram(samples, &AutoConfig::default()).unwrap())
        });
    }
    group.finish();
}

/// `rows` joint observations of a `rank`-edge path: per-edge travel times of
/// a few tens of seconds sharing a congestion factor — about twenty distinct
/// second-resolution values per column at the 46 rows a `city40` variable
/// averages.
fn path_rows(rows: usize, rank: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|_| {
            let shared: f64 = rng.gen_range(0.85..1.25);
            (0..rank)
                .map(|d| (40.0 + 5.0 * d as f64) * shared + rng.gen_range(-4.0..4.0))
                .collect()
        })
        .collect()
}

/// The unit of work of instantiation and live re-derivation: one column fit
/// (sort, fold distributions, V-Optimal per fold, final boundaries) and one
/// whole variable, both through a reused [`FitScratch`].
fn bench_variable_fit(c: &mut Criterion) {
    let cfg = AutoConfig::default();
    let mut scratch = FitScratch::new();
    let mut group = c.benchmark_group("fit_column");
    // β, the city40 mean, and the selection-subsample boundary.
    for rows in [30usize, 46, 400] {
        let column: Vec<f64> = path_rows(rows, 1, 5).into_iter().map(|r| r[0]).collect();
        group.bench_function(format!("{rows}_rows"), |b| {
            b.iter(|| auto_histogram_with_scratch(&column, &cfg, &mut scratch).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fit_variable");
    for rank in [1usize, 3, 6] {
        let rows = path_rows(46, rank, 9);
        group.bench_function(format!("rank{rank}"), |b| {
            b.iter(|| HistogramNd::from_samples_with_scratch(&rows, &cfg, &mut scratch).unwrap())
        });
    }
    group.finish();
}

fn bench_convolution_and_marginal(c: &mut Criterion) {
    let mut group = c.benchmark_group("convolution_marginal");
    let unit = auto_histogram(&bimodal_samples(200, 3), &AutoConfig::default()).unwrap();
    for edges in [10usize, 30] {
        let hists: Vec<Histogram1D> = (0..edges).map(|_| unit.clone()).collect();
        group.bench_with_input(BenchmarkId::new("convolve", edges), &hists, |b, hists| {
            b.iter(|| convolve_many_with_limit(hists, 48).unwrap())
        });
    }
    // Marginalisation of a 4-dimensional joint histogram.
    let mut rng = StdRng::seed_from_u64(11);
    let joint: Vec<Vec<f64>> = (0..400)
        .map(|_| {
            let shared: f64 = rng.gen_range(0.8..1.4);
            (0..4)
                .map(|_| 60.0 * shared + rng.gen_range(-5.0..5.0))
                .collect()
        })
        .collect();
    let nd = HistogramNd::from_samples(&joint, &AutoConfig::default()).unwrap();
    group.bench_function("nd_to_cost_histogram", |b| {
        b.iter(|| nd.to_cost_histogram().unwrap())
    });
    group.finish();
}

/// Long-path convolution: the sweep-line kernel, with and without a
/// caller-threaded scratch, on the 64-edge paths the acceptance target is
/// quantified over.
fn bench_convolve_many_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("convolve_many_path");
    let unit = auto_histogram(&bimodal_samples(200, 3), &AutoConfig::default()).unwrap();
    for edges in [16usize, 64] {
        let hists: Vec<Histogram1D> = (0..edges).map(|_| unit.clone()).collect();
        group.bench_with_input(BenchmarkId::new("sweep", edges), &hists, |b, hists| {
            b.iter(|| convolve_many_with_limit(hists, 48).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("sweep_scratch", edges),
            &hists,
            |b, hists| {
                let mut scratch = ConvolveScratch::new();
                b.iter(|| convolve_many_with_scratch(hists, 48, &mut scratch).unwrap())
            },
        );
    }
    group.finish();
}

/// CDF evaluation: binary-search `prob_leq`/`quantile` on a histogram wide
/// enough for the search to matter.
fn bench_cdf_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("cdf_eval");
    let unit = auto_histogram(&bimodal_samples(200, 3), &AutoConfig::default()).unwrap();
    let hists: Vec<Histogram1D> = (0..64).map(|_| unit.clone()).collect();
    let wide = convolve_many_with_limit(&hists, 64).unwrap();
    let probes: Vec<f64> = (0..256)
        .map(|i| wide.min() + (wide.max() - wide.min()) * (i as f64 / 255.0))
        .collect();
    group.bench_function("prob_leq_binary", |b| {
        b.iter(|| probes.iter().map(|&x| wide.prob_leq(x)).sum::<f64>())
    });
    let qs: Vec<f64> = (0..256).map(|i| i as f64 / 255.0).collect();
    group.bench_function("quantile_binary", |b| {
        b.iter(|| qs.iter().map(|&q| wide.quantile(q)).sum::<f64>())
    });
    group.finish();
}

/// `n` overlapping `(bucket, mass)` entries shaped like one overlap group of
/// the joint chain: 16 contiguous accumulated-sum buckets shifted by the
/// new-edge sums of `n / 16` cells, so cut points coincide the way they do
/// there (second-resolution bounds).
fn chain_group_entries(n: usize, seed: u64) -> Vec<(Bucket, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lo = 300.0;
    let states: Vec<(Bucket, f64)> = (0..16)
        .map(|_| {
            let hi = lo + rng.gen_range(2..12) as f64;
            let state = (Bucket::new(lo, hi).unwrap(), rng.gen_range(0.01..1.0));
            lo = hi;
            state
        })
        .collect();
    (0..n / 16)
        .flat_map(|_| {
            let shift_lo = rng.gen_range(20..90) as f64;
            let added = Bucket::new(shift_lo, shift_lo + rng.gen_range(3..25) as f64).unwrap();
            let p_cond: f64 = rng.gen_range(0.01..1.0);
            states
                .iter()
                .map(move |&(sum, p)| (sum.sum(&added), p * p_cond))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The joint chain's state merge: overlapping entries → 24 disjoint buckets
/// through a reused [`RebucketScratch`] (sweep, normalise, coarsen), and the
/// tournament-tree coarsening on its own at the ~120 disjoint buckets such a
/// group sweeps to and at a convolution-sized input.
fn bench_rebucket_and_coarsen(c: &mut Criterion) {
    let mut scratch = RebucketScratch::default();
    let mut group = c.benchmark_group("rebucket");
    for n in [64usize, 128, 512] {
        let entries = chain_group_entries(n, 17);
        group.bench_function(format!("{n}_entries"), |b| {
            b.iter(|| rebucket(&entries, 24, &mut scratch).unwrap().len())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("coarsen");
    for n in [120usize, 400] {
        let mut rng = StdRng::seed_from_u64(23);
        let fine = Histogram1D::from_entries(
            (0..n)
                .map(|i| {
                    let lo = 100.0 + 2.0 * i as f64;
                    (
                        Bucket::new(lo, lo + 2.0).unwrap(),
                        rng.gen_range(0.001..1.0),
                    )
                })
                .collect(),
        )
        .unwrap();
        group.bench_function(format!("{n}_to_24"), |b| b.iter(|| fine.coarsen(24)));
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_voptimal_and_auto, bench_variable_fit, bench_convolution_and_marginal,
        bench_convolve_many_paths, bench_cdf_evaluation, bench_rebucket_and_coarsen
}
criterion_main!(benches);
