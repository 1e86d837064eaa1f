//! # pathcost-hist
//!
//! Distribution machinery for the hybrid-graph path cost estimation system
//! (Dai et al., PVLDB 2016, §3):
//!
//! * [`RawDistribution`] — the empirical "raw cost distribution" obtained from
//!   qualified trajectories (a multiset of cost values with relative
//!   frequencies),
//! * [`Histogram1D`] — one-dimensional histograms with uniform-within-bucket
//!   semantics, used to represent univariate travel-cost distributions,
//! * [`voptimal`] — V-Optimal bucket boundary selection,
//! * [`auto`] — the paper's self-tuning ("Auto") bucket-count selection via
//!   f-fold cross validation, plus the fixed `Sta-b` alternative: the
//!   one-sort fit kernel with reusable [`FitScratch`] buffers,
//! * [`HistogramNd`] — multi-dimensional histograms over hyper-buckets, used
//!   to represent the joint distribution of a path's edge costs,
//! * [`convolution`] — independent-sum convolution of 1-D histograms (the
//!   legacy-baseline substrate), built on the sweep-line kernel of the
//!   private `sweep` module with reusable [`ConvolveScratch`] buffers,
//! * [`HistogramArena`] — many 1-D histograms in three flat arrays, extended
//!   by convolution without allocating (a routing search's partial paths),
//! * [`rebucket`] — overlapping entries → at most `n` disjoint buckets on a
//!   reusable [`RebucketScratch`] (the joint chain's state merge),
//! * [`divergence`] — KL divergence and entropy,
//! * [`standard`] — Gaussian / Gamma / Exponential maximum-likelihood fits for
//!   the Figure 11(a) comparison.

pub mod arena;
pub mod auto;
pub mod bucket;
pub mod convolution;
pub mod divergence;
pub mod error;
pub mod histogram1d;
pub mod multidim;
pub mod raw;
#[cfg(test)]
mod reference;
pub mod standard;
mod sweep;
pub mod voptimal;

pub use arena::{HistogramArena, Span};
pub use auto::{AutoConfig, BucketSelection, FitScratch};
pub use bucket::Bucket;
pub use convolution::{convolve, convolve_many, ConvolveScratch};
pub use divergence::{entropy_of_probs, kl_divergence, kl_divergence_histograms};
pub use error::HistError;
pub use histogram1d::Histogram1D;
pub use multidim::HistogramNd;
pub use raw::RawDistribution;
pub use standard::{ExponentialDist, GammaDist, GaussianDist, StandardFit};
pub use sweep::{rebucket, RebucketScratch};
