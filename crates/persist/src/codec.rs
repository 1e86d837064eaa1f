//! Binary codecs for the persisted domain objects.
//!
//! The encoding is deliberately dumb: field-by-field little-endian, `f64`s
//! as raw bit patterns, collections length-prefixed. Dumb is what makes the
//! round trip *bit-identical* — the recovery oracle in `tests/crash_recovery.rs`
//! asserts exact equality of every histogram probability, so no codec in this
//! module may ever normalise, reorder or re-derive anything. Reconstruction
//! goes through the non-normalising raw-parts constructors
//! ([`Histogram1D::from_raw_parts`], [`HistogramNd::from_raw_parts`]) for the
//! same reason.
//!
//! A snapshot stores only what cannot be derived: trajectories, their regime
//! tags and the fitted variable tables. The speed-limit fallbacks are a pure
//! function of the network and `speed_limit_spread`, which the config
//! fingerprint covers, so no section carries them; [`read_weights`] reads
//! and drops the list legacy images appended to `WGTS`.

use crate::error::PersistError;
use crate::format::{put_f64, put_len, put_u16, put_u32, put_u64, put_u8, Cursor};
use pathcost_core::{HybridConfig, InstantiatedVariable, IntervalId, VariableSource};
use pathcost_hist::{Bucket, Histogram1D, HistogramNd};
use pathcost_roadnet::{EdgeId, Path};
use pathcost_traj::{CostKind, MatchedTrajectory, RegimeId, RegimeSchema, Timestamp};
use std::borrow::Borrow;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Paths and trajectories
// ---------------------------------------------------------------------------

fn put_path(out: &mut Vec<u8>, path: &Path) {
    put_len(out, path.cardinality());
    for e in path.edges() {
        put_u32(out, e.0);
    }
}

fn read_path(c: &mut Cursor<'_>) -> Result<Path, PersistError> {
    let n = c.read_len()?;
    if n == 0 {
        return Err(PersistError::corrupt("path", "zero-edge path"));
    }
    let mut edges = Vec::with_capacity(n);
    for _ in 0..n {
        edges.push(EdgeId(c.u32()?));
    }
    Ok(Path::from_edges_unchecked(edges))
}

pub fn put_trajectory(out: &mut Vec<u8>, m: &MatchedTrajectory) {
    put_u64(out, m.id);
    put_path(out, &m.path);
    for t in &m.entry_times {
        put_f64(out, t.0);
    }
    for &t in &m.travel_times {
        put_f64(out, t);
    }
    for &v in &m.avg_speeds_mps {
        put_f64(out, v);
    }
}

pub fn read_trajectory(c: &mut Cursor<'_>) -> Result<MatchedTrajectory, PersistError> {
    let id = c.u64()?;
    let path = read_path(c)?;
    let n = path.cardinality();
    let mut entry_times = Vec::with_capacity(n);
    for _ in 0..n {
        entry_times.push(Timestamp(c.f64()?));
    }
    let mut travel_times = Vec::with_capacity(n);
    for _ in 0..n {
        travel_times.push(c.f64()?);
    }
    let mut avg_speeds_mps = Vec::with_capacity(n);
    for _ in 0..n {
        avg_speeds_mps.push(c.f64()?);
    }
    // Trajectory bytes are regime-free for v1 compatibility: regime tags
    // travel in their own section/record (see `put_regime_tags`), and an
    // image without one decodes as all-global traffic.
    Ok(MatchedTrajectory {
        id,
        path,
        entry_times,
        travel_times,
        avg_speeds_mps,
        regime: RegimeId::ALL_TRAFFIC,
    })
}

/// Encodes a batch of trajectories (snapshot store section / journal append).
pub fn put_trajectories(out: &mut Vec<u8>, batch: &[MatchedTrajectory]) {
    put_len(out, batch.len());
    for m in batch {
        put_trajectory(out, m);
    }
}

pub fn read_trajectories(c: &mut Cursor<'_>) -> Result<Vec<MatchedTrajectory>, PersistError> {
    let n = c.read_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_trajectory(c)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Regimes
// ---------------------------------------------------------------------------

/// Encodes the regime tag of each trajectory in `batch`, in batch order —
/// the side-channel that keeps [`put_trajectory`] bytes v1-compatible.
pub fn put_regime_tags(out: &mut Vec<u8>, batch: &[MatchedTrajectory]) {
    put_len(out, batch.len());
    for m in batch {
        put_u16(out, m.regime.0);
    }
}

/// The decoded counterpart of [`put_regime_tags`].
pub fn read_regime_tags(c: &mut Cursor<'_>) -> Result<Vec<RegimeId>, PersistError> {
    let n = c.read_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(RegimeId(c.u16()?));
    }
    Ok(out)
}

/// Encodes a regime fallback schema as its ordered `(regime, group)` entries.
pub fn put_regime_schema(out: &mut Vec<u8>, schema: &RegimeSchema) {
    let entries: Vec<_> = schema.entries().collect();
    put_len(out, entries.len());
    for (regime, group) in entries {
        put_u16(out, regime.0);
        put_u16(out, group.0);
    }
}

pub fn read_regime_schema(c: &mut Cursor<'_>) -> Result<RegimeSchema, PersistError> {
    let n = c.read_len()?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let regime = RegimeId(c.u16()?);
        let group = RegimeId(c.u16()?);
        entries.push((regime, group));
    }
    Ok(RegimeSchema::from_entries(entries))
}

/// Encodes the own variable tables of a weight function — every table but
/// the all-traffic one, which the `WGTS` section carries — in the ascending
/// regime order the caller iterates its table map in (so identical functions
/// always produce identical bytes).
pub fn put_regime_tables<V: Borrow<InstantiatedVariable>>(
    out: &mut Vec<u8>,
    tables: &[(RegimeId, &[V])],
) {
    put_len(out, tables.len());
    for (regime, variables) in tables {
        put_u16(out, regime.0);
        put_variables(out, variables);
    }
}

pub fn read_regime_tables(
    c: &mut Cursor<'_>,
) -> Result<BTreeMap<RegimeId, Vec<InstantiatedVariable>>, PersistError> {
    let n = c.read_len()?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let regime = RegimeId(c.u16()?);
        if out.insert(regime, read_variables(c)?).is_some() {
            return Err(PersistError::corrupt(
                "regime tables",
                format!("duplicate regime {}", regime.0),
            ));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

fn put_buckets(out: &mut Vec<u8>, buckets: &[Bucket]) {
    put_len(out, buckets.len());
    for b in buckets {
        put_f64(out, b.lo);
        put_f64(out, b.hi);
    }
}

fn read_buckets(c: &mut Cursor<'_>) -> Result<Vec<Bucket>, PersistError> {
    let n = c.read_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let lo = c.f64()?;
        let hi = c.f64()?;
        // Validated reconstruction: a flipped bound byte must surface as a
        // decode error, not as a NaN bucket inside a live histogram.
        out.push(Bucket::new(lo, hi)?);
    }
    Ok(out)
}

/// Encodes a 1-D histogram: the form in which legacy `WGTS` sections stored
/// each speed-limit fallback.
pub fn put_histogram1d(out: &mut Vec<u8>, h: &Histogram1D) {
    put_buckets(out, h.buckets());
    for &p in h.probs() {
        put_f64(out, p);
    }
}

pub fn read_histogram1d(c: &mut Cursor<'_>) -> Result<Histogram1D, PersistError> {
    let buckets = read_buckets(c)?;
    let mut probs = Vec::with_capacity(buckets.len());
    for _ in 0..buckets.len() {
        probs.push(c.f64()?);
    }
    Ok(Histogram1D::from_raw_parts(buckets, probs)?)
}

pub fn put_histogram_nd(out: &mut Vec<u8>, h: &HistogramNd) {
    put_len(out, h.axes().len());
    for axis in h.axes() {
        put_buckets(out, axis);
    }
    put_len(out, h.cells().len());
    for (key, p) in h.cells() {
        for &idx in key {
            put_u32(out, idx);
        }
        put_f64(out, *p);
    }
}

pub fn read_histogram_nd(c: &mut Cursor<'_>) -> Result<HistogramNd, PersistError> {
    let dims = c.read_len()?;
    let mut axes = Vec::with_capacity(dims);
    for _ in 0..dims {
        axes.push(read_buckets(c)?);
    }
    let cells_len = c.read_len()?;
    let mut cells = Vec::with_capacity(cells_len);
    for _ in 0..cells_len {
        let mut key = Vec::with_capacity(dims);
        for _ in 0..dims {
            key.push(c.u32()?);
        }
        let p = c.f64()?;
        cells.push((key, p));
    }
    Ok(HistogramNd::from_raw_parts(axes, cells)?)
}

// ---------------------------------------------------------------------------
// Weight-function parts
// ---------------------------------------------------------------------------

fn put_variable(out: &mut Vec<u8>, v: &InstantiatedVariable) {
    put_path(out, &v.path);
    put_u16(out, v.interval.0);
    match v.source {
        VariableSource::Trajectories { count } => {
            put_u8(out, 0);
            put_u64(out, count as u64);
        }
        VariableSource::SpeedLimit => put_u8(out, 1),
    }
    put_histogram_nd(out, &v.histogram);
}

fn read_variable(c: &mut Cursor<'_>) -> Result<InstantiatedVariable, PersistError> {
    let path = read_path(c)?;
    let interval = IntervalId(c.u16()?);
    let source = match c.u8()? {
        0 => VariableSource::Trajectories {
            count: c.u64()? as usize,
        },
        1 => VariableSource::SpeedLimit,
        tag => {
            return Err(PersistError::corrupt(
                "variable source",
                format!("unknown tag {tag}"),
            ))
        }
    };
    let histogram = read_histogram_nd(c)?;
    Ok(InstantiatedVariable::new(path, interval, histogram, source))
}

/// Encodes a count-prefixed variable list: one table of a weight function
/// (the whole `WGTS` section, or one own table of `RGWT`).
pub fn put_variables<V: Borrow<InstantiatedVariable>>(out: &mut Vec<u8>, variables: &[V]) {
    put_len(out, variables.len());
    for v in variables {
        put_variable(out, v.borrow());
    }
}

/// The decoded counterpart of [`put_variables`].
pub fn read_variables(c: &mut Cursor<'_>) -> Result<Vec<InstantiatedVariable>, PersistError> {
    let n = c.read_len()?;
    let mut variables = Vec::with_capacity(n);
    for _ in 0..n {
        variables.push(read_variable(c)?);
    }
    Ok(variables)
}

/// Decodes a `WGTS` section: the all-traffic variables. Bytes after them are
/// a legacy image's speed-limit fallbacks — count-prefixed `(u32 edge, 1-D
/// histogram)` pairs, which restore now derives from the network and the
/// config — decoded like any other field (a malformed list is a corrupt
/// section) and dropped.
pub fn read_weights(c: &mut Cursor<'_>) -> Result<Vec<InstantiatedVariable>, PersistError> {
    let variables = read_variables(c)?;
    if c.remaining() > 0 {
        for _ in 0..c.read_len()? {
            c.u32()?;
            read_histogram1d(c)?;
        }
    }
    Ok(variables)
}

// ---------------------------------------------------------------------------
// Configuration fingerprint
// ---------------------------------------------------------------------------

/// Encodes every configuration field that affects what the persisted state
/// *means*. Recovery compares these bytes against the booting process's
/// encoding: any difference (a re-tuned β, a different α partition, a changed
/// retention window…) makes the snapshot lineage unusable and forces a clean
/// cold boot instead of silently mixing epochs derived under different rules.
pub fn encode_config(cfg: &HybridConfig, retention_max_age: Option<f64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    put_u32(&mut out, cfg.alpha_minutes);
    put_u64(&mut out, cfg.beta as u64);
    put_u64(&mut out, cfg.max_rank as u64);
    put_u8(&mut out, cost_kind_tag(cfg.cost_kind));
    put_f64(&mut out, cfg.speed_limit_spread);
    put_u64(&mut out, cfg.auto.folds as u64);
    put_u64(&mut out, cfg.auto.max_buckets as u64);
    put_f64(&mut out, cfg.auto.min_relative_improvement);
    put_f64(&mut out, cfg.auto.resolution);
    put_u64(&mut out, cfg.auto.seed);
    put_u64(&mut out, cfg.auto.max_distinct as u64);
    put_u64(&mut out, cfg.auto.max_selection_samples as u64);
    match retention_max_age {
        Some(age) => {
            put_u8(&mut out, 1);
            put_f64(&mut out, age);
        }
        None => put_u8(&mut out, 0),
    }
    // Regime schema entries are appended only when the schema is non-empty,
    // so a pre-regime deployment's fingerprint bytes are unchanged and its
    // v1 snapshot lineage stays adoptable.
    if !cfg.regimes.is_empty() {
        put_regime_schema(&mut out, &cfg.regimes);
    }
    out
}

pub fn cost_kind_tag(kind: CostKind) -> u8 {
    match kind {
        CostKind::TravelTime => 0,
        CostKind::Emissions => 1,
    }
}

pub fn cost_kind_from_tag(tag: u8) -> Result<CostKind, PersistError> {
    match tag {
        0 => Ok(CostKind::TravelTime),
        1 => Ok(CostKind::Emissions),
        _ => Err(PersistError::corrupt(
            "cost kind",
            format!("unknown tag {tag}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trajectory(id: u64) -> MatchedTrajectory {
        MatchedTrajectory {
            id,
            path: Path::from_edges_unchecked(vec![EdgeId(3), EdgeId(9), EdgeId(4)]),
            entry_times: vec![Timestamp(10.5), Timestamp(20.25), Timestamp(31.125)],
            travel_times: vec![9.75, 10.875, 0.1 + 0.2], // deliberately inexact sum
            avg_speeds_mps: vec![13.0, 12.5, 11.75],
            regime: RegimeId::ALL_TRAFFIC,
        }
    }

    #[test]
    fn regime_sections_round_trip() {
        let batch = vec![
            sample_trajectory(1).with_regime(RegimeId(2)),
            sample_trajectory(2),
        ];
        let mut buf = Vec::new();
        put_regime_tags(&mut buf, &batch);
        let mut c = Cursor::new(&buf, "tags");
        assert_eq!(
            read_regime_tags(&mut c).unwrap(),
            vec![RegimeId(2), RegimeId::ALL_TRAFFIC]
        );
        c.finish().unwrap();

        let schema = RegimeSchema::flat().with_group(RegimeId(2), RegimeId(5));
        let mut buf = Vec::new();
        put_regime_schema(&mut buf, &schema);
        let mut c = Cursor::new(&buf, "schema");
        assert_eq!(read_regime_schema(&mut c).unwrap(), schema);
        c.finish().unwrap();
    }

    #[test]
    fn config_fingerprint_is_v1_compatible_for_empty_schemas() {
        let base = HybridConfig::default();
        let reference = encode_config(&base, None);
        let grouped = base
            .clone()
            .with_regimes(RegimeSchema::flat().with_group(RegimeId(1), RegimeId(3)));
        assert_ne!(reference, encode_config(&grouped, None));
        // An explicitly flat schema encodes exactly like the default.
        let flat = base.with_regimes(RegimeSchema::flat());
        assert_eq!(reference, encode_config(&flat, None));
    }

    #[test]
    fn trajectory_round_trip_is_bit_identical() {
        let m = sample_trajectory(42);
        let mut buf = Vec::new();
        put_trajectory(&mut buf, &m);
        let mut c = Cursor::new(&buf, "trajectory");
        let back = read_trajectory(&mut c).unwrap();
        c.finish().unwrap();
        assert_eq!(back, m);
        assert_eq!(back.travel_times[2].to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn histogram_nd_round_trip_preserves_unnormalised_mass() {
        let axes = vec![
            vec![
                Bucket::new(0.0, 10.0).unwrap(),
                Bucket::new(10.0, 20.0).unwrap(),
            ],
            vec![Bucket::new(0.0, 5.0).unwrap()],
        ];
        let cells = vec![(vec![0u32, 0u32], 0.1f64), (vec![1, 0], 0.2)];
        let h = HistogramNd::from_raw_parts(axes, cells).unwrap();
        let mut buf = Vec::new();
        put_histogram_nd(&mut buf, &h);
        let mut c = Cursor::new(&buf, "histogram");
        let back = read_histogram_nd(&mut c).unwrap();
        c.finish().unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn config_fingerprint_discriminates_every_field() {
        let base = HybridConfig::default();
        let reference = encode_config(&base, Some(3600.0));
        assert_eq!(reference, encode_config(&base, Some(3600.0)));
        assert_ne!(reference, encode_config(&base, Some(7200.0)));
        assert_ne!(reference, encode_config(&base, None));
        let mut beta = base.clone();
        beta.beta += 1;
        assert_ne!(reference, encode_config(&beta, Some(3600.0)));
        let mut alpha = base.clone();
        alpha.alpha_minutes *= 2;
        assert_ne!(reference, encode_config(&alpha, Some(3600.0)));
        let mut seed = base;
        seed.auto.seed ^= 1;
        assert_ne!(reference, encode_config(&seed, Some(3600.0)));
    }

    #[test]
    fn corrupt_tags_and_lengths_error_cleanly() {
        let mut buf = Vec::new();
        put_trajectories(&mut buf, &[sample_trajectory(1)]);
        // Flip every byte in turn: decode must never panic.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xFF;
            let mut c = Cursor::new(&bad, "trajectories");
            let _ = read_trajectories(&mut c).and_then(|_| c.finish());
        }
        assert!(cost_kind_from_tag(7).is_err());
    }
}
