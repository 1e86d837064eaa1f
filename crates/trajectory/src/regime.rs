//! Traffic regimes: contextual labels on matched trajectories.
//!
//! The paper instantiates one global weight function per store, but
//! deployments condition travel-cost distributions on context — vehicle
//! class, day type, weather. A [`RegimeId`] tags every
//! [`MatchedTrajectory`] with the regime it was
//! observed under; [`RegimeId::ALL_TRAFFIC`] (id 0) is the global root every
//! trajectory belongs to, so untagged data reproduces the paper's behaviour
//! exactly.
//!
//! Most `(path, interval, regime)` cells are too sparse to clear the β
//! occurrence threshold on their own, so regimes share structure through a
//! deterministic **fallback ladder**: a [`RegimeSchema`] maps each regime to
//! an optional parent group, and a query under regime `R` answers from the
//! nearest ancestor along `ladder(R) = [R, group(R), …, ALL_TRAFFIC]` whose
//! table clears β. Conversely a trajectory observed under regime `Q`
//! contributes occurrences to every table on `ladder(Q)` — which is what
//! makes the global (regime 0) table identical to the pre-regime weight
//! function over the same store.

use crate::simulator::MatchedTrajectory;
use std::collections::BTreeMap;

/// A traffic-regime label. `RegimeId(0)` is the global "all traffic" root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegimeId(pub u16);

impl RegimeId {
    /// The global root regime every trajectory contributes to.
    pub const ALL_TRAFFIC: RegimeId = RegimeId(0);

    /// `true` for the global root.
    pub fn is_global(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for RegimeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Mixes a regime into an interval-mixed path fingerprint.
///
/// The global regime is mixed as the **identity** — a regime-0 fingerprint is
/// bit-identical to the pre-regime fingerprint, which keeps cache keys,
/// the variable-key fingerprints cache entries record as their reads, and
/// shard selection unchanged for untagged deployments. Non-zero regimes are avalanched through a multiply so the
/// high bits (used for shard selection) differ too.
pub fn mix_regime(fingerprint: u64, regime: RegimeId) -> u64 {
    if regime.0 == 0 {
        fingerprint
    } else {
        fingerprint
            ^ (regime.0 as u64)
                .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                .rotate_left(17)
    }
}

/// The fallback-ladder schema: which group each regime escalates to when its
/// own table is too sparse.
///
/// Every regime's ladder terminates at [`RegimeId::ALL_TRAFFIC`]; a regime
/// with no entry escalates straight to the root. The default (empty) schema
/// gives every non-zero regime the two-rung ladder `[R, 0]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegimeSchema {
    /// regime id → parent group id. Absent means the parent is the root.
    parents: BTreeMap<u16, u16>,
}

impl RegimeSchema {
    /// The empty schema: every regime falls straight back to the root.
    pub fn flat() -> Self {
        RegimeSchema::default()
    }

    /// Declares `regime`'s fallback group. Self-parents and root entries are
    /// dropped (the root is always the final rung, never an explicit entry).
    pub fn with_group(mut self, regime: RegimeId, group: RegimeId) -> Self {
        if regime.0 != 0 && regime != group {
            self.parents.insert(regime.0, group.0);
        }
        self
    }

    /// `true` when no explicit groups are declared (the default schema).
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// The declared `(regime, group)` entries, ordered by regime id — the
    /// stable order the config fingerprint encodes them in.
    pub fn entries(&self) -> impl Iterator<Item = (RegimeId, RegimeId)> + '_ {
        self.parents
            .iter()
            .map(|(&r, &g)| (RegimeId(r), RegimeId(g)))
    }

    /// The parent one rung up from `regime` (the root for the root itself and
    /// for regimes without an explicit group).
    pub fn parent(&self, regime: RegimeId) -> RegimeId {
        if regime.0 == 0 {
            return RegimeId::ALL_TRAFFIC;
        }
        RegimeId(self.parents.get(&regime.0).copied().unwrap_or(0))
    }

    /// The deterministic fallback ladder `[regime, group(regime), …, root]`.
    /// Cycles in a malformed schema are cut at the first repeated rung and the
    /// root is always appended, so the ladder is finite and always ends at
    /// [`RegimeId::ALL_TRAFFIC`].
    pub fn ladder(&self, regime: RegimeId) -> Vec<RegimeId> {
        let mut out = Vec::with_capacity(3);
        let mut cur = regime;
        while cur.0 != 0 && !out.contains(&cur) {
            out.push(cur);
            cur = self.parent(cur);
        }
        out.push(RegimeId::ALL_TRAFFIC);
        out
    }

    /// `true` when data observed under `data` contributes to `table`'s
    /// occurrence counts — i.e. `table` lies on `data`'s fallback ladder.
    pub fn contributes_to(&self, data: RegimeId, table: RegimeId) -> bool {
        if table.0 == 0 {
            return true;
        }
        self.ladder(data).contains(&table)
    }
}

/// Assigns a regime to each matched trajectory — the pluggable hook between
/// map matching and the store.
pub trait RegimeClassifier: Send + Sync {
    /// The regime `m` was observed under.
    fn classify(&self, m: &MatchedTrajectory) -> RegimeId;
}

/// The default classifier: everything is global traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllTraffic;

impl RegimeClassifier for AllTraffic {
    fn classify(&self, _m: &MatchedTrajectory) -> RegimeId {
        RegimeId::ALL_TRAFFIC
    }
}

/// A simple time-of-day classifier: trajectories departing inside a peak
/// window get the peak regime, everything else the off-peak regime. Used by
/// the mixed-regime benches and tests as a stand-in for a real context
/// source (weather feed, vehicle class, calendar).
#[derive(Debug, Clone)]
pub struct PeakOffPeak {
    /// Peak windows as `[start, end)` seconds of day.
    pub peak_windows: Vec<(f64, f64)>,
    /// Regime assigned to peak departures.
    pub peak: RegimeId,
    /// Regime assigned to everything else.
    pub off_peak: RegimeId,
}

impl Default for PeakOffPeak {
    fn default() -> Self {
        PeakOffPeak {
            peak_windows: vec![(7.0 * 3600.0, 9.0 * 3600.0), (16.0 * 3600.0, 19.0 * 3600.0)],
            peak: RegimeId(1),
            off_peak: RegimeId(2),
        }
    }
}

impl RegimeClassifier for PeakOffPeak {
    fn classify(&self, m: &MatchedTrajectory) -> RegimeId {
        let Some(start) = m.entry_times.first() else {
            return self.off_peak;
        };
        let tod = start.time_of_day().seconds();
        if self
            .peak_windows
            .iter()
            .any(|&(lo, hi)| tod >= lo && tod < hi)
        {
            self.peak
        } else {
            self.off_peak
        }
    }
}

/// Tags every trajectory of a batch through `classifier`, in place.
pub fn tag_batch(batch: &mut [MatchedTrajectory], classifier: &dyn RegimeClassifier) {
    for m in batch.iter_mut() {
        m.regime = classifier.classify(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use pathcost_roadnet::{EdgeId, Path};

    fn traj(id: u64, tod: f64) -> MatchedTrajectory {
        MatchedTrajectory::new(
            id,
            Path::from_edges_unchecked(vec![EdgeId(1)]),
            vec![Timestamp(tod)],
            vec![10.0],
        )
        .unwrap()
    }

    #[test]
    fn default_schema_gives_two_rung_ladders() {
        let schema = RegimeSchema::flat();
        assert_eq!(schema.ladder(RegimeId::ALL_TRAFFIC), vec![RegimeId(0)]);
        assert_eq!(schema.ladder(RegimeId(7)), vec![RegimeId(7), RegimeId(0)]);
        assert!(schema.contributes_to(RegimeId(7), RegimeId(0)));
        assert!(schema.contributes_to(RegimeId(7), RegimeId(7)));
        assert!(!schema.contributes_to(RegimeId(7), RegimeId(3)));
    }

    #[test]
    fn grouped_schema_ladders_through_the_group() {
        let schema = RegimeSchema::flat()
            .with_group(RegimeId(3), RegimeId(10))
            .with_group(RegimeId(4), RegimeId(10));
        assert_eq!(
            schema.ladder(RegimeId(3)),
            vec![RegimeId(3), RegimeId(10), RegimeId(0)]
        );
        // The group's own ladder is [group, root].
        assert_eq!(schema.ladder(RegimeId(10)), vec![RegimeId(10), RegimeId(0)]);
        // Both siblings contribute to the group table; neither to the other.
        assert!(schema.contributes_to(RegimeId(3), RegimeId(10)));
        assert!(schema.contributes_to(RegimeId(4), RegimeId(10)));
        assert!(!schema.contributes_to(RegimeId(3), RegimeId(4)));
    }

    #[test]
    fn cyclic_schemas_terminate_at_the_root() {
        let schema = RegimeSchema::flat()
            .with_group(RegimeId(1), RegimeId(2))
            .with_group(RegimeId(2), RegimeId(1));
        let ladder = schema.ladder(RegimeId(1));
        assert_eq!(*ladder.last().unwrap(), RegimeId::ALL_TRAFFIC);
        assert!(ladder.len() <= 3);
    }

    #[test]
    fn mix_regime_is_identity_for_the_root_only() {
        let fp = 0xDEAD_BEEF_0BAD_F00Du64;
        assert_eq!(mix_regime(fp, RegimeId::ALL_TRAFFIC), fp);
        let mixed = mix_regime(fp, RegimeId(1));
        assert_ne!(mixed, fp);
        assert_ne!(mix_regime(fp, RegimeId(2)), mixed);
        // High bits (shard selector) differ too.
        assert_ne!(mixed >> 48, fp >> 48);
    }

    #[test]
    fn classifiers_tag_batches() {
        let mut batch = vec![traj(1, 8.0 * 3600.0), traj(2, 12.0 * 3600.0)];
        tag_batch(&mut batch, &AllTraffic);
        assert!(batch.iter().all(|m| m.regime == RegimeId::ALL_TRAFFIC));
        tag_batch(&mut batch, &PeakOffPeak::default());
        assert_eq!(batch[0].regime, RegimeId(1));
        assert_eq!(batch[1].regime, RegimeId(2));
    }
}
