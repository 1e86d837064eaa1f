//! # pathcost-bench
//!
//! Experiment harness for reproducing every table and figure of the paper's
//! evaluation (§5). The [`experiment`] module builds the two dataset presets
//! (D1 ≈ Aalborg, D2 ≈ Beijing), selects evaluation paths, and implements the
//! held-out ground-truth protocol; the [`figures`] module regenerates each
//! figure as printable rows, the timing figures (16–18) included; the
//! `figures` binary dispatches them from the command line.

pub mod experiment;
pub mod figures;

pub use experiment::{Dataset, EvalQuery, HoldoutSet, Scale};
