//! The live ingestor: append/retire → dirty keys → selective re-derivation →
//! versioned epoch.

use pathcost_core::{
    dirty_keys_by_regime, CoreError, DayPartition, HybridConfig, PathWeightFunction,
    RegimeVariableKey, WeightUpdate,
};
use pathcost_persist::journal::JournalOp;
use pathcost_roadnet::RoadNetwork;
use pathcost_traj::{tag_batch, MatchedTrajectory, RegimeClassifier, Timestamp, TrajectoryStore};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// A time-to-live retention policy applied on every [`LiveIngestor::ingest`].
///
/// `max_age` is measured in seconds against the store's *event-time
/// watermark* — the newest trajectory start time after the batch lands — not
/// against the wall clock. That keeps retention deterministic and
/// replayable: re-running the same batch sequence retires the same
/// trajectories in the same epochs, regardless of when the replay happens.
/// `None` (the default) disables TTL expiry; explicit
/// [`LiveIngestor::retire_before`] calls remain available either way.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetentionConfig {
    /// Maximum trajectory age in seconds relative to the watermark, or
    /// `None` to keep everything until explicitly retired.
    pub max_age: Option<f64>,
}

impl RetentionConfig {
    /// Rejects a non-finite or non-positive `max_age`.
    pub fn validate(&self) -> Result<(), CoreError> {
        match self.max_age {
            Some(age) if !(age.is_finite() && age > 0.0) => Err(CoreError::InvalidConfig(
                "retention max_age must be finite and positive",
            )),
            _ => Ok(()),
        }
    }
}

/// Accepts batches of newly matched trajectories, retires stale ones, and
/// maintains the current weight-function epoch over the evolving store.
///
/// Each [`LiveIngestor::ingest`] call appends the batch to the trajectory
/// store through the delta-indexed [`TrajectoryStore::append`], re-derives
/// only the variables whose qualified occurrence sets the batch actually
/// changed ([`PathWeightFunction::rederive_regimes`]), and returns a stamped
/// [`WeightUpdate`] — the new epoch plus the exact changed-key sets a serving
/// engine needs for targeted cache invalidation
/// (`QueryEngine::apply_update` in `pathcost-service`).
///
/// Retention is the mirror image: [`LiveIngestor::retire_before`] (TTL
/// expiry) and [`LiveIngestor::retire_ids`] remove trajectories through the
/// in-place [`TrajectoryStore::retire_ids`] and publish an epoch whose dirty
/// keys are the *removed* windows — keys whose support drops below β are
/// deleted from the weight function and reported in
/// [`WeightUpdate::removed`], so stale evidence stops polluting estimates
/// instead of accumulating forever.
///
/// All three are one write operation, a [`JournalOp`] — the vocabulary the
/// persistence layer journals and replays — applied, and rolled back on a
/// failed re-derivation, by one path.
///
/// The ingestor hands out epochs behind [`Arc`]s, so readers that grabbed a
/// snapshot keep a consistent weight function while newer epochs are
/// published — the same swap-on-publish discipline the serving engine applies
/// to its graph.
pub struct LiveIngestor<'n> {
    net: &'n RoadNetwork,
    store: TrajectoryStore,
    config: HybridConfig,
    retention: RetentionConfig,
    partition: DayPartition,
    classifier: Option<Arc<dyn RegimeClassifier>>,
    current: Arc<PathWeightFunction>,
    epoch: u64,
}

impl<'n> LiveIngestor<'n> {
    /// Instantiates epoch 0 from `store` and starts ingesting on top of it.
    pub fn new(
        net: &'n RoadNetwork,
        store: TrajectoryStore,
        config: HybridConfig,
    ) -> Result<Self, CoreError> {
        let weights = PathWeightFunction::instantiate(net, &store, &config)?;
        Self::from_instantiated(net, store, weights, config)
    }

    /// Wraps an already-instantiated weight function as epoch 0. `weights`
    /// must have been instantiated from exactly `store` under `config` (the
    /// day partition, cost kind and regime schema are checked — every later
    /// re-derivation would refuse a mismatch; the store itself cannot be).
    pub fn from_instantiated(
        net: &'n RoadNetwork,
        store: TrajectoryStore,
        weights: PathWeightFunction,
        config: HybridConfig,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let partition = DayPartition::new(config.alpha_minutes)?;
        if weights.partition() != &partition
            || weights.cost_kind() != config.cost_kind
            || weights.regime_schema() != &config.regimes
        {
            return Err(CoreError::InvalidConfig(
                "the ingestor's config must match the instantiated weight function",
            ));
        }
        Ok(LiveIngestor {
            net,
            store,
            config,
            retention: RetentionConfig::default(),
            partition,
            classifier: None,
            current: Arc::new(weights),
            epoch: 0,
        })
    }

    /// Installs a [`RegimeClassifier`]: every subsequently ingested
    /// trajectory is re-tagged with `classifier.classify(..)` before it
    /// lands in the store, so its observations accrue to that regime's own
    /// table (and to every ancestor table of its fallback ladder) in
    /// addition to the global one. Without a classifier the batch's existing
    /// tags are preserved — untagged producers keep the pre-regime pipeline
    /// bit-identical.
    ///
    /// A persisted lineage journals the rows as the classifier tagged them;
    /// recovery attaches no classifier and re-lands the journalled tags
    /// verbatim.
    pub fn with_classifier(mut self, classifier: Arc<dyn RegimeClassifier>) -> Self {
        self.classifier = Some(classifier);
        self
    }

    /// Tags `batch` through the installed classifier, if any — before
    /// [`Self::apply`], so a persisted lineage journals the tagged rows.
    pub(crate) fn classify(&self, batch: &mut [MatchedTrajectory]) {
        if let Some(classifier) = &self.classifier {
            tag_batch(batch, &**classifier);
        }
    }

    /// Installs a TTL [`RetentionConfig`]: every subsequent
    /// [`ingest`](Self::ingest) epoch also retires trajectories older than
    /// `max_age` seconds behind the event-time watermark, in the *same*
    /// published epoch as the append.
    pub fn with_retention(mut self, retention: RetentionConfig) -> Result<Self, CoreError> {
        retention.validate()?;
        self.retention = retention;
        Ok(self)
    }

    /// Ingests a batch of newly matched trajectories and publishes the next
    /// epoch. Returns the stamped [`WeightUpdate`]; an empty batch publishes
    /// a (valid, unchanged) epoch with no changed keys.
    ///
    /// Trajectories whose id is already stored — or repeated within the
    /// batch — are dropped deterministically (first occurrence wins) *before*
    /// dirty keys are computed, so a re-delivered batch publishes a no-op
    /// epoch instead of double-counting occurrences or spuriously
    /// invalidating cache entries.
    ///
    /// When a [`RetentionConfig`] with a `max_age` is installed
    /// ([`Self::with_retention`]), the same epoch also TTL-expires every
    /// trajectory that entered its first edge more than `max_age` seconds
    /// before the post-append watermark — append and expiry publish as one
    /// consistent epoch, with their dirty-key sets merged. A batch that is
    /// itself entirely behind the watermark can therefore arrive and expire
    /// in the same call.
    pub fn ingest(&mut self, mut batch: Vec<MatchedTrajectory>) -> Result<WeightUpdate, CoreError> {
        self.classify(&mut batch);
        self.apply(JournalOp::Ingest(batch))
    }

    /// Retires every trajectory that entered its first edge strictly before
    /// `cutoff` (TTL expiry) and publishes the next epoch. Keys whose support
    /// drops below β are deleted from the weight function and listed in
    /// [`WeightUpdate::removed`]; retiring nothing publishes a (valid,
    /// unchanged) epoch.
    pub fn retire_before(&mut self, cutoff: Timestamp) -> Result<WeightUpdate, CoreError> {
        self.apply(JournalOp::RetireBefore(cutoff))
    }

    /// Retires the trajectories with the given ids (unknown ids are ignored)
    /// and publishes the next epoch, exactly like [`Self::retire_before`].
    pub fn retire_ids(&mut self, ids: &[u64]) -> Result<WeightUpdate, CoreError> {
        self.apply(JournalOp::RetireIds(ids.to_vec()))
    }

    /// The one write path: lands `op` on the store and publishes the next
    /// epoch. [`Self::ingest`] hands it a classified batch; the persistence
    /// layer hands it the operation it journals. On error the store is
    /// rolled back to its pre-call rows, so on every return path the store
    /// and the published weight function agree.
    pub(crate) fn apply(&mut self, op: JournalOp) -> Result<WeightUpdate, CoreError> {
        let landed = self.land(op, true);
        match self.publish(&landed.dirty, 1) {
            Ok(mut update) => {
                update.trajectories = landed.appended.len();
                update.trajectories_retired = landed.retired;
                Ok(update)
            }
            Err(e) => {
                // Nothing was published, so the store must not keep the
                // write either — otherwise every later dirty-key set would
                // omit these windows and rederive would stop matching a full
                // rebuild. With the retirement undone the batch sits at the
                // store's tail, and retiring its ids restores the exact
                // pre-call store (a suffix removal leaves survivor indices
                // and posting lists untouched).
                if let Some(store) = landed.rollback {
                    self.store = store;
                }
                self.store.retire_ids(&landed.appended);
                Err(e)
            }
        }
    }

    /// Replays journalled operations as one re-derivation: lands each on
    /// the store in order, exactly as [`Self::apply`] would, then publishes
    /// once over the union of their dirty keys and advances the epoch by
    /// their count. The union names every key whose occurrences changed
    /// since the published weight function's store, so the one
    /// [`PathWeightFunction::rederive_regimes`] is bit-identical to applying
    /// them one by one. Nothing is rolled back: on error the store holds
    /// writes the weights do not, and the caller discards the ingestor.
    pub(crate) fn replay(&mut self, ops: Vec<JournalOp>) -> Result<(), CoreError> {
        if ops.is_empty() {
            return Ok(());
        }
        let epochs = ops.len() as u64;
        let mut dirty = BTreeSet::new();
        for op in ops {
            dirty.append(&mut self.land(op, false).dirty);
        }
        self.publish(&dirty, epochs).map(drop)
    }

    /// Lands `op` on the store without publishing: the batch (empty for a
    /// retirement) is deduplicated and appended, then one predicate names
    /// what retires — rows older than the retention cutoff taken from this
    /// operation's own post-append watermark for an ingest, than the
    /// explicit cutoff, or in the id set. With `rollback` set, a write that
    /// retires something keeps a copy of the post-append store to undo it.
    fn land(&mut self, op: JournalOp, rollback: bool) -> Landed {
        let (mut batch, retiring) = match op {
            JournalOp::Ingest(batch) => (batch, None),
            JournalOp::RetireBefore(cutoff) => (Vec::new(), Some(started_before(cutoff))),
            JournalOp::RetireIds(ids) => {
                let ids: HashSet<u64> = ids.into_iter().collect();
                let named: Retiring = Box::new(move |m| ids.contains(&m.id));
                (Vec::new(), Some(named))
            }
        };
        let mut seen = HashSet::with_capacity(batch.len());
        batch.retain(|m| !self.store.contains_id(m.id) && seen.insert(m.id));
        let mut dirty = self.dirty_of(&batch);
        let appended: Vec<u64> = batch.iter().map(|m| m.id).collect();
        self.store.append(batch);
        // An ingest expires what lies `max_age` behind the post-append
        // watermark (the newest start).
        let retiring = retiring.or_else(|| {
            let max_age = self.retention.max_age?;
            let watermark = self.store.start_time_at_percentile(100)?;
            Some(started_before(Timestamp(watermark.seconds() - max_age)))
        });
        let expired: Vec<u64> = retiring.map_or_else(Vec::new, |retiring| {
            let rows = self.store.matched().iter();
            rows.filter(|m| retiring(m)).map(|m| m.id).collect()
        });
        // A retirement cannot be undone by re-appending (the removed rows sat
        // at arbitrary positions), so only a write that retires something
        // pays for a copy of the post-append store.
        let (mut retired, mut undo) = (0, None);
        if !expired.is_empty() {
            undo = rollback.then(|| self.store.clone());
            let removed = self.store.retire_ids(&expired);
            retired = removed.len();
            dirty.extend(self.dirty_of(&removed));
        }
        Landed {
            dirty,
            appended,
            retired,
            rollback: undo,
        }
    }

    /// Re-derives the weight function over the store as it stands, from
    /// the keys `dirty` names, and publishes it `epochs` epochs on.
    fn publish(
        &mut self,
        dirty: &BTreeSet<RegimeVariableKey>,
        epochs: u64,
    ) -> Result<WeightUpdate, CoreError> {
        let mut update =
            self.current
                .rederive_regimes(self.net, &self.store, &self.config, dirty)?;
        self.epoch += epochs;
        update.epoch = self.epoch;
        // An Arc bump: the ingestor's working copy and the published epoch
        // share one allocation.
        self.current = update.weights.clone();
        Ok(update)
    }

    /// The regime-qualified dirty keys of a changed (appended or removed)
    /// batch: one key per window per rung of each trajectory's fallback
    /// ladder. Retired trajectories carry the regime tag they were stored
    /// under, so retirement dirties exactly the tables the arrival dirtied.
    fn dirty_of(&self, changed: &[MatchedTrajectory]) -> BTreeSet<RegimeVariableKey> {
        dirty_keys_by_regime(
            changed,
            &self.partition,
            self.config.max_rank,
            &self.config.regimes,
        )
    }

    /// Re-stamps the ingestor at `epoch` — used by the persistence layer
    /// when resuming a recovered lineage, so the next publish continues the
    /// pre-crash epoch sequence instead of restarting at 1.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Releases capacity freed by past retirements (see
    /// [`TrajectoryStore::compact`]) — called before a snapshot so the
    /// serialised store reflects the live rows only.
    pub(crate) fn compact_store(&mut self) {
        self.store.compact();
    }

    /// The currently published weight-function epoch (an `Arc` bump).
    pub fn weights(&self) -> Arc<PathWeightFunction> {
        self.current.clone()
    }

    /// The version of the currently published epoch (0 until the first
    /// ingest).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The growing trajectory store (base plus every ingested batch).
    pub fn store(&self) -> &TrajectoryStore {
        &self.store
    }

    /// The configuration every epoch is derived under.
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    /// The installed TTL retention policy (disabled by default).
    pub fn retention(&self) -> RetentionConfig {
        self.retention
    }

    /// The road network the store is matched against.
    pub fn network(&self) -> &'n RoadNetwork {
        self.net
    }
}

/// What landing one write on the store did ([`LiveIngestor::land`]).
struct Landed {
    /// The keys whose occurrences it changed.
    dirty: BTreeSet<RegimeVariableKey>,
    /// Ids of the rows it appended, in order.
    appended: Vec<u64>,
    /// How many rows it retired.
    retired: usize,
    /// The post-append store, kept to undo a retirement when asked for.
    rollback: Option<TrajectoryStore>,
}

/// Which stored trajectories a write retires.
type Retiring = Box<dyn Fn(&MatchedTrajectory) -> bool>;

/// TTL expiry: the trajectory entered its first edge strictly before
/// `cutoff` (one starting exactly at it stays).
fn started_before(cutoff: Timestamp) -> Retiring {
    Box::new(move |m| {
        m.entry_times
            .first()
            .is_some_and(|t| t.seconds() < cutoff.seconds())
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pathcost_roadnet::{EdgeId, RoadNetwork};
    use pathcost_traj::{DatasetPreset, RegimeId, RegimeSchema};
    use std::collections::HashMap;

    fn fixture() -> (RoadNetwork, TrajectoryStore, HybridConfig) {
        let (net, store) = DatasetPreset::tiny(53).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        (net, store, cfg)
    }

    /// A copy of the newest trajectory through the store's busiest unit
    /// window, under a fresh id and with a negative travel time on that
    /// window: the window clears β, so its re-fit reaches the sample and
    /// `round_sample` rejects it — a write whose publish fails.
    pub(crate) fn poisoned(store: &TrajectoryStore, partition: &DayPartition) -> MatchedTrajectory {
        let window = |m: &MatchedTrajectory, i: usize| {
            let interval = partition.interval_of(m.entry_times[i].time_of_day());
            (m.path.edges()[i], interval)
        };
        let mut counts: HashMap<(EdgeId, _), usize> = HashMap::new();
        for m in store.matched() {
            for i in 0..m.path.cardinality() {
                *counts.entry(window(m, i)).or_default() += 1;
            }
        }
        let (&busiest, _) = counts.iter().max_by_key(|&(key, n)| (n, key)).unwrap();
        let (template, at) = store
            .matched()
            .iter()
            .filter_map(|m| {
                (0..m.path.cardinality())
                    .find(|&i| window(m, i) == busiest)
                    .map(|i| (m, i))
            })
            .max_by(|(a, _), (b, _)| {
                a.entry_times[0]
                    .seconds()
                    .total_cmp(&b.entry_times[0].seconds())
            })
            .unwrap();
        let mut bad = template.clone();
        bad.id = store.matched().iter().map(|m| m.id).max().unwrap() + 1;
        bad.travel_times[at] = -1.0;
        bad
    }

    #[test]
    fn a_failed_refit_rolls_the_write_back() {
        let (net, store, cfg) = fixture();
        let split = store.len() * 3 / 4;
        let base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let rest: Vec<MatchedTrajectory> = store.matched()[split..].to_vec();
        let watermark = base.start_time_at_percentile(100).unwrap();
        let keep_from = base.start_time_at_percentile(10).unwrap();
        let expiring = RetentionConfig {
            max_age: Some(watermark.seconds() - keep_from.seconds()),
        };
        assert!(base.matched().iter().any(|m| m.entry_times[0] < keep_from));
        for retention in [RetentionConfig::default(), expiring] {
            let mut ingestor = LiveIngestor::new(&net, base.clone(), cfg.clone())
                .unwrap()
                .with_retention(retention)
                .unwrap();
            let rows = ingestor.store().matched().to_vec();
            let weights = ingestor.weights();
            assert!(ingestor
                .ingest(vec![poisoned(&base, ingestor.weights().partition())])
                .is_err());
            assert_eq!(ingestor.store().matched(), &rows[..]);
            assert_eq!(ingestor.epoch(), 0);
            assert!(Arc::ptr_eq(&ingestor.weights(), &weights));

            // The rolled-back store indexes exactly its rows: the next write
            // matches a rebuild over a freshly indexed copy of them.
            let update = ingestor.ingest(rest.clone()).unwrap();
            assert_eq!(update.epoch, 1);
            assert_eq!(update.trajectories, rest.len());
            assert_eq!(update.trajectories_retired > 0, retention.max_age.is_some());
            let rebuilt = TrajectoryStore::new(ingestor.store().matched().to_vec());
            let full = PathWeightFunction::instantiate(&net, &rebuilt, &cfg).unwrap();
            assert_eq!(update.weights.variables(), full.variables());
            assert_eq!(update.weights.stats(), full.stats());
        }
    }

    #[test]
    fn sequential_ingests_match_a_full_rebuild_at_every_epoch() {
        let (net, store, cfg) = fixture();
        let split = store.len() / 2;
        let base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let rest: Vec<MatchedTrajectory> = store.matched()[split..].to_vec();
        let mut ingestor = LiveIngestor::new(&net, base, cfg.clone()).unwrap();
        assert_eq!(ingestor.epoch(), 0);

        let mid = rest.len() / 2;
        for (i, batch) in [rest[..mid].to_vec(), rest[mid..].to_vec()]
            .into_iter()
            .enumerate()
        {
            let batch_len = batch.len();
            let update = ingestor.ingest(batch).unwrap();
            assert_eq!(update.epoch, (i + 1) as u64);
            assert_eq!(update.trajectories, batch_len);
            let full = PathWeightFunction::instantiate(&net, ingestor.store(), &cfg).unwrap();
            assert_eq!(update.weights.variables(), full.variables());
            assert_eq!(update.weights.stats(), full.stats());
            assert_eq!(ingestor.weights().variables(), full.variables());
        }
        assert_eq!(ingestor.epoch(), 2);
        assert_eq!(ingestor.store().len(), store.len());
    }

    #[test]
    fn readers_keep_their_snapshot_across_a_publish() {
        let (net, store, cfg) = fixture();
        let split = store.len() * 3 / 4;
        let base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let rest: Vec<MatchedTrajectory> = store.matched()[split..].to_vec();
        let mut ingestor = LiveIngestor::new(&net, base, cfg).unwrap();
        let snapshot = ingestor.weights();
        let before = snapshot.stats();
        let update = ingestor.ingest(rest).unwrap();
        assert!(update.changed() > 0, "a 25% append must change variables");
        // The pre-ingest snapshot is untouched; the new epoch differs.
        assert_eq!(snapshot.stats(), before);
        assert_ne!(ingestor.weights().stats(), before);
        assert!(!Arc::ptr_eq(&snapshot, &ingestor.weights()));
    }

    #[test]
    fn empty_batch_publishes_an_unchanged_epoch() {
        let (net, store, cfg) = fixture();
        let mut ingestor = LiveIngestor::new(&net, store, cfg).unwrap();
        let before = ingestor.weights();
        let update = ingestor.ingest(Vec::new()).unwrap();
        assert_eq!(update.epoch, 1);
        assert_eq!(update.changed(), 0);
        assert_eq!(update.weights.variables(), before.variables());
    }

    #[test]
    fn retire_matches_a_full_rebuild_over_the_truncated_store() {
        let (net, store, cfg) = fixture();
        let mut ingestor = LiveIngestor::new(&net, store.clone(), cfg.clone()).unwrap();
        let before = ingestor.weights().stats().total_variables();

        // TTL-expire the oldest half of the store.
        let cutoff = store.start_time_at_percentile(50).unwrap();
        let update = ingestor.retire_before(cutoff).unwrap();
        assert_eq!(update.epoch, 1);
        assert_eq!(update.trajectories, 0);
        assert!(update.trajectories_retired > 0);
        assert!(ingestor.store().len() < store.len());

        let full = PathWeightFunction::instantiate(&net, ingestor.store(), &cfg).unwrap();
        assert_eq!(update.weights.variables(), full.variables());
        assert_eq!(update.weights.stats(), full.stats());
        assert!(
            !update.removed.is_empty(),
            "halving the tiny preset must drop some variable below β"
        );
        assert!(update.weights.stats().total_variables() < before);

        // Retire-by-id of a surviving trajectory keeps the oracle property.
        let victim = ingestor.store().get(0).unwrap().id;
        let update = ingestor.retire_ids(&[victim, u64::MAX]).unwrap();
        assert_eq!(update.epoch, 2);
        assert_eq!(update.trajectories_retired, 1);
        assert!(!ingestor.store().contains_id(victim));
        let full = PathWeightFunction::instantiate(&net, ingestor.store(), &cfg).unwrap();
        assert_eq!(update.weights.variables(), full.variables());
        assert_eq!(update.weights.stats(), full.stats());
    }

    #[test]
    fn redelivered_batches_publish_no_op_epochs() {
        let (net, store, cfg) = fixture();
        let split = store.len() * 3 / 4;
        let base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let rest: Vec<MatchedTrajectory> = store.matched()[split..].to_vec();
        let mut ingestor = LiveIngestor::new(&net, base, cfg).unwrap();
        let first = ingestor.ingest(rest.clone()).unwrap();
        assert_eq!(first.trajectories, rest.len());
        assert!(first.changed() > 0);
        // Exact re-delivery: every id already stored, nothing changes.
        let redelivered = ingestor.ingest(rest.clone()).unwrap();
        assert_eq!(redelivered.epoch, 2);
        assert_eq!(redelivered.trajectories, 0);
        assert_eq!(redelivered.changed(), 0);
        assert_eq!(redelivered.dirty_keys, 0);
        assert_eq!(ingestor.store().len(), store.len());
        // A batch with internal duplicates counts each id once.
        let mut ingestor2 = {
            let base = TrajectoryStore::new(store.matched()[..split].to_vec());
            LiveIngestor::new(
                &net,
                base,
                HybridConfig {
                    beta: 10,
                    ..HybridConfig::default()
                },
            )
            .unwrap()
        };
        let doubled: Vec<MatchedTrajectory> = rest.iter().chain(rest.iter()).cloned().collect();
        let update = ingestor2.ingest(doubled).unwrap();
        assert_eq!(update.trajectories, rest.len());
        assert_eq!(ingestor2.store().len(), store.len());
        let full =
            PathWeightFunction::instantiate(&net, ingestor2.store(), ingestor2.config()).unwrap();
        assert_eq!(update.weights.variables(), full.variables());
    }

    #[test]
    fn ingest_with_ttl_retention_expires_and_appends_in_one_epoch() {
        let (net, store, cfg) = fixture();
        // Base = oldest half; batch = newest half. max_age is chosen so the
        // post-append watermark pushes the oldest quarter of the full store
        // past the TTL — the single ingest epoch must append AND expire.
        let split = store.len() / 2;
        let base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let rest: Vec<MatchedTrajectory> = store.matched()[split..].to_vec();
        let watermark = store.start_time_at_percentile(100).unwrap();
        let keep_from = store.start_time_at_percentile(25).unwrap();
        let max_age = watermark.seconds() - keep_from.seconds();
        assert!(max_age > 0.0);

        let mut ingestor = LiveIngestor::new(&net, base, cfg.clone())
            .unwrap()
            .with_retention(RetentionConfig {
                max_age: Some(max_age),
            })
            .unwrap();
        let update = ingestor.ingest(rest.clone()).unwrap();
        assert_eq!(update.epoch, 1, "append + expiry must be ONE epoch");
        assert_eq!(update.trajectories, rest.len());
        assert!(update.trajectories_retired > 0);
        assert!(ingestor.store().matched().iter().all(|m| {
            m.entry_times
                .first()
                .is_some_and(|t| t.seconds() >= keep_from.seconds())
        }));
        // Oracle: the published epoch is bit-identical to a full rebuild
        // over the store as it stands after append + expiry.
        let full = PathWeightFunction::instantiate(&net, ingestor.store(), &cfg).unwrap();
        assert_eq!(update.weights.variables(), full.variables());
        assert_eq!(update.weights.stats(), full.stats());
    }

    #[test]
    fn retention_with_nothing_expired_is_a_pure_append_epoch() {
        let (net, store, cfg) = fixture();
        let split = store.len() * 3 / 4;
        let base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let rest: Vec<MatchedTrajectory> = store.matched()[split..].to_vec();
        // A TTL far wider than the dataset's time span retires nothing.
        let mut ingestor = LiveIngestor::new(&net, base, cfg.clone())
            .unwrap()
            .with_retention(RetentionConfig {
                max_age: Some(365.0 * 24.0 * 3600.0),
            })
            .unwrap();
        let update = ingestor.ingest(rest).unwrap();
        assert_eq!(update.trajectories_retired, 0);
        assert_eq!(ingestor.store().len(), store.len());
        let full = PathWeightFunction::instantiate(&net, ingestor.store(), &cfg).unwrap();
        assert_eq!(update.weights.variables(), full.variables());
    }

    #[test]
    fn replaying_writes_as_one_publish_matches_applying_them_one_by_one() {
        let (net, store, cfg) = fixture();
        let split = store.len() / 2;
        let base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let rest: Vec<MatchedTrajectory> = store.matched()[split..].to_vec();
        let watermark = store.start_time_at_percentile(100).unwrap();
        let keep_from = store.start_time_at_percentile(20).unwrap();
        let retention = RetentionConfig {
            max_age: Some(watermark.seconds() - keep_from.seconds()),
        };
        let third = rest.len() / 3;
        let ops = || {
            vec![
                JournalOp::Ingest(rest[..third].to_vec()),
                // A re-delivery and a row retired by id after it landed.
                JournalOp::Ingest(rest[..third * 2].to_vec()),
                JournalOp::RetireIds(vec![rest[0].id, u64::MAX]),
                JournalOp::RetireBefore(store.start_time_at_percentile(5).unwrap()),
                JournalOp::Ingest(rest[third * 2..].to_vec()),
            ]
        };
        let start = || {
            LiveIngestor::new(&net, base.clone(), cfg.clone())
                .unwrap()
                .with_retention(retention)
                .unwrap()
        };
        let mut applied = start();
        for op in ops() {
            applied.apply(op).unwrap();
        }
        let mut replayed = start();
        replayed.replay(ops()).unwrap();
        assert_eq!(replayed.epoch(), applied.epoch());
        assert_eq!(replayed.store().matched(), applied.store().matched());
        assert_eq!(
            replayed.weights().variables(),
            applied.weights().variables()
        );
        assert_eq!(replayed.weights().stats(), applied.weights().stats());
        assert_eq!(replayed.weights().tables(), applied.weights().tables());
        // Nothing to replay publishes nothing.
        let before = replayed.weights();
        replayed.replay(Vec::new()).unwrap();
        assert_eq!(replayed.epoch(), applied.epoch());
        assert!(Arc::ptr_eq(&replayed.weights(), &before));
    }

    #[test]
    fn invalid_retention_is_rejected() {
        let (net, store, cfg) = fixture();
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let ingestor = LiveIngestor::new(&net, store.clone(), cfg.clone()).unwrap();
            assert!(ingestor
                .with_retention(RetentionConfig { max_age: Some(bad) })
                .is_err());
        }
        let ingestor = LiveIngestor::new(&net, store, cfg).unwrap();
        assert!(ingestor
            .with_retention(RetentionConfig::default())
            .is_ok_and(|i| i.retention().max_age.is_none()));
    }

    #[test]
    fn mismatched_config_is_rejected() {
        let (net, store, cfg) = fixture();
        let weights = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        let recut = HybridConfig {
            alpha_minutes: cfg.alpha_minutes * 2,
            ..cfg.clone()
        };
        let grouped = RegimeSchema::flat().with_group(RegimeId(1), RegimeId(3));
        let regrouped = cfg.with_regimes(grouped);
        for mismatched in [recut, regrouped] {
            let refused =
                LiveIngestor::from_instantiated(&net, store.clone(), weights.clone(), mismatched);
            assert!(refused.is_err());
        }
    }
}
