//! Dirty-key computation: which weight-function variables can an ingest (or
//! retirement) batch touch?
//!
//! The weight function's pass 1 (`PathWeightFunction::instantiate`) counts
//! one qualified occurrence per *window* of every trajectory: each
//! `(edges[start..start + k], interval_of(entry_times[start]))` pair for
//! `k = 1..=max_rank`. Appending a trajectory therefore grows — and
//! retiring one shrinks — the qualified occurrence set of exactly the keys
//! its own windows name: those keys (and only those) must be re-derived,
//! everything else is untouched by construction. This module enumerates
//! them; the same enumeration serves both directions, which is why
//! `LiveIngestor::retire_*` feed the *removed* trajectories through it.

/// The set of regime-keyed variable keys whose qualified occurrence sets a
/// batch of newly appended trajectories changes. The implementation lives in
/// `pathcost-core` next to the pass-1 loop it mirrors
/// ([`pathcost_core::weights`]), so the enumeration and the instantiation it
/// must match cannot drift apart; this module re-exports it as the ingest
/// subsystem's entry point and keeps the batch-level tests.
pub use pathcost_core::dirty_keys_by_regime;

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_core::{DayPartition, RegimeId, RegimeSchema};
    use pathcost_traj::{DatasetPreset, MatchedTrajectory};

    #[test]
    fn dirty_keys_enumerate_every_window_of_every_trajectory() {
        let (_, store) = DatasetPreset::tiny(51).materialise().unwrap();
        let partition = DayPartition::new(30).unwrap();
        let batch: Vec<MatchedTrajectory> = store.matched()[..3].to_vec();
        let max_rank = 4;
        let dirty = dirty_keys_by_regime(&batch, &partition, max_rank, &RegimeSchema::flat());
        assert!(!dirty.is_empty());
        // Every key is a window of some batch trajectory at its entry
        // interval …
        for (edges, interval, regime) in &dirty {
            assert_eq!(*regime, RegimeId::ALL_TRAFFIC);
            assert!((1..=max_rank).contains(&edges.len()));
            let witnessed = batch.iter().any(|m| {
                m.path
                    .edges()
                    .windows(edges.len())
                    .enumerate()
                    .any(|(start, w)| {
                        w == edges.as_slice()
                            && partition.interval_of(m.entry_times[start].time_of_day())
                                == *interval
                    })
            });
            assert!(witnessed, "key {edges:?}@{interval:?} has no witness");
        }
        // … and every window produces a key.
        for m in &batch {
            let edges = m.path.edges();
            for k in 1..=max_rank.min(edges.len()) {
                for start in 0..=edges.len() - k {
                    let interval = partition.interval_of(m.entry_times[start].time_of_day());
                    assert!(dirty.contains(&(
                        edges[start..start + k].to_vec(),
                        interval,
                        RegimeId::ALL_TRAFFIC
                    )));
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_clean() {
        let partition = DayPartition::new(30).unwrap();
        assert!(dirty_keys_by_regime(&[], &partition, 6, &RegimeSchema::flat()).is_empty());
    }
}
