//! Constants measured once on the reference machine and committed.
//!
//! They fix the *schedule* of a run — how many operations are due when —
//! so that a parent commit and a change face exactly the same load. They
//! are never recomputed at run time. Re-measure them (and say so in
//! `CHANGES.md`) only in a change that edits nothing but the benchmark.
//!
//! Reference machine: 2 cores (`nproc` = 2), Linux 6.18, x86-64, the
//! sandbox this repository is grown in. `README.md` records how each value
//! was obtained.

use crate::workload::Workload;

/// The seed the committed numbers and the development runs use.
pub const DEFAULT_SEED: u64 = 1;
/// Held back: a gain claimed on [`DEFAULT_SEED`] must also hold on this one,
/// which no change may be tuned against.
pub const CLAIM_SEED: u64 = 7_919;

/// What one slice of the machine-speed probe (`steady::Probe`) takes on the
/// reference machine when it is not in one of its slow spells. Timing
/// metrics are scaled by this over the slice times read during the run.
pub const PROBE_SLICE_S: f64 = 0.85e-3;

/// Fractions of the reference capacity the open-loop ladder offers. The
/// first rung is the *operating rate* the latency metric is read at. The
/// two rungs that bracket the capacity keep their distance from it: the
/// sandbox's speed drifts by 10–20 % between runs, and a rung at 0.9 or
/// 1.1 × would be sustained in one run and not in the next; and an upper
/// rung's phases are 0.33 s long, so only a clear overload builds a backlog
/// that shows in the median — the last rung is there to be seen failing.
///
/// Under churn the capacity itself has two levels — about the reference
/// while the writer works, more than twice that while it waits for its next
/// batch — and a 0.33 s phase sees one or the other by chance; the last rung
/// has to overload the higher level too.
pub fn ladder(workload: Workload) -> [f64; 4] {
    match workload {
        Workload::IngestChurn => [0.3, 0.6, 0.8, 5.0],
        _ => [0.3, 0.6, 0.8, 2.0],
    }
}

/// Per-workload schedule constants.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Closed-loop operations per second on the reference machine (an
    /// operation on `route_batch` is one envelope of 16 queries).
    pub capacity_qps: f64,
    /// Limit on a ladder rung's median latency (from intended send time) for
    /// the rung to count as sustained. Chosen so that on the reference
    /// machine every rung's median is either under half of it or over twice
    /// it.
    pub slo_ms: f64,
}

pub fn reference(workload: Workload) -> Reference {
    match workload {
        Workload::WarmZipf => Reference {
            capacity_qps: 4_400.0,
            slo_ms: 20.0,
        },
        Workload::ColdScan => Reference {
            capacity_qps: 540.0,
            slo_ms: 30.0,
        },
        Workload::RouteBatch => Reference {
            capacity_qps: 390.0,
            slo_ms: 40.0,
        },
        Workload::IngestChurn => Reference {
            capacity_qps: 1_700.0,
            slo_ms: 20.0,
        },
    }
}
