//! Binary codecs for the persisted domain objects.
//!
//! The encoding is deliberately dumb: field-by-field little-endian, `f64`s
//! as raw bit patterns, collections length-prefixed. Dumb is what makes the
//! round trip *bit-identical* — the recovery oracle in `tests/crash_recovery.rs`
//! asserts exact equality of every histogram probability, so no codec in this
//! module may ever normalise, reorder or re-derive anything. Reconstruction
//! goes through the non-normalising raw-parts constructor
//! ([`HistogramNd::from_raw_parts`]) for the same reason.
//!
//! A snapshot stores only what cannot be derived: the trajectory rows
//! ([`put_trajectory`]), each with its regime tag and no speeds (an edge's
//! speed is its length over its travel time, derived where the emission
//! model reads it), and the weight function's variable tables, every
//! regime's in one map ([`put_regime_tables`]). The
//! speed-limit fallbacks are a pure function of the network and
//! `speed_limit_spread`, and the regime schema is the config's; the
//! fingerprint [`encode_config`] covers all three, so no section carries
//! them.
//!
//! Every count prefix is read through [`Cursor::read_len`] with the fewest
//! bytes a valid element encodes to, so a decoder reserves memory in
//! proportion to the bytes it was given, never to the count a corrupt
//! prefix claims.

use crate::error::PersistError;
use crate::format::{put_f64, put_len, put_u16, put_u32, put_u64, put_u8, Cursor};
use pathcost_core::{HybridConfig, InstantiatedVariable, IntervalId, VariableSource};
use pathcost_hist::{Bucket, HistogramNd};
use pathcost_roadnet::{EdgeId, Path, RoadNetwork};
use pathcost_traj::{CostKind, MatchedTrajectory, RegimeId, RegimeSchema, Timestamp};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Encoded size of one edge id.
const EDGE_BYTES: usize = 4;
/// The smallest valid trajectory row: id, a one-edge path, one entry time
/// and travel time, and the regime tag.
const TRAJECTORY_MIN: usize = 8 + (4 + EDGE_BYTES) + 2 * 8 + 2;
/// Encoded size of one bucket: its two bounds.
const BUCKET_BYTES: usize = 16;
/// The smallest valid histogram axis: a count and one bucket.
const AXIS_MIN: usize = 4 + BUCKET_BYTES;
/// The smallest valid variable: a one-edge path, interval, source tag, and a
/// one-axis histogram with one cell.
const VARIABLE_MIN: usize = (4 + EDGE_BYTES) + 2 + 1 + (4 + AXIS_MIN) + (4 + 4 + 8);
/// The smallest table entry: a regime and an empty variable count.
const TABLE_MIN: usize = 2 + 4;

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
    let n = c.read_len(EDGE_BYTES)?;
    if n == 0 {
        return Err(PersistError::corrupt("path", "zero-edge path"));
    }
    let mut edges = Vec::with_capacity(n);
    for _ in 0..n {
        edges.push(EdgeId(c.u32()?));
    }
    Ok(Path::from_edges_unchecked(edges))
}

/// Encodes one trajectory row: id, path, the per-edge entry times and travel
/// times, then the row's regime tag.
pub fn put_trajectory(out: &mut Vec<u8>, m: &MatchedTrajectory) {
    put_u64(out, m.id);
    put_path(out, &m.path);
    for t in &m.entry_times {
        put_f64(out, t.0);
    }
    for &t in &m.travel_times {
        put_f64(out, t);
    }
    put_u16(out, m.regime.0);
}

/// The decoded counterpart of [`put_trajectory`].
pub fn read_trajectory(c: &mut Cursor<'_>) -> Result<MatchedTrajectory, PersistError> {
    let id = c.u64()?;
    let path = read_path(c)?;
    let n = path.cardinality();
    let mut per_edge = || -> Result<Vec<f64>, PersistError> {
        // Bounded by `read_path`'s check: `n` edges took 4n bytes, so
        // reserving 8n is at most twice the input.
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(c.f64()?);
        }
        Ok(out)
    };
    let entry_times = per_edge()?.into_iter().map(Timestamp).collect();
    let travel_times = per_edge()?;
    Ok(MatchedTrajectory {
        id,
        path,
        entry_times,
        travel_times,
        regime: RegimeId(c.u16()?),
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
    let n = c.read_len(TRAJECTORY_MIN)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_trajectory(c)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Regimes
// ---------------------------------------------------------------------------

/// Encodes a regime fallback schema as its ordered `(regime, group)` entries
/// (a part of the config fingerprint; restore takes the schema from the
/// config).
fn put_regime_schema(out: &mut Vec<u8>, schema: &RegimeSchema) {
    let entries: Vec<_> = schema.entries().collect();
    put_len(out, entries.len());
    for (regime, group) in entries {
        put_u16(out, regime.0);
        put_u16(out, group.0);
    }
}

/// Encodes every variable table of a weight function, the all-traffic one
/// included, as count-prefixed `(regime, variables)` pairs in the ascending
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

/// The decoded counterpart of [`put_regime_tables`]; a regime listed twice
/// is corrupt.
pub fn read_regime_tables(
    c: &mut Cursor<'_>,
) -> Result<BTreeMap<RegimeId, Vec<InstantiatedVariable>>, PersistError> {
    let n = c.read_len(TABLE_MIN)?;
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
    let n = c.read_len(BUCKET_BYTES)?;
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
    let dims = c.read_len(AXIS_MIN)?;
    let mut axes = Vec::with_capacity(dims);
    for _ in 0..dims {
        axes.push(read_buckets(c)?);
    }
    let cells_len = c.read_len(4 * dims + 8)?;
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

/// Encodes a count-prefixed variable list: one table of a weight function.
fn put_variables<V: Borrow<InstantiatedVariable>>(out: &mut Vec<u8>, variables: &[V]) {
    put_len(out, variables.len());
    for v in variables {
        put_variable(out, v.borrow());
    }
}

fn read_variables(c: &mut Cursor<'_>) -> Result<Vec<InstantiatedVariable>, PersistError> {
    let n = c.read_len(VARIABLE_MIN)?;
    let mut variables = Vec::with_capacity(n);
    for _ in 0..n {
        variables.push(read_variable(c)?);
    }
    Ok(variables)
}

// ---------------------------------------------------------------------------
// Configuration fingerprint
// ---------------------------------------------------------------------------

/// Encodes everything that fixes what the persisted state *means*: the road
/// network, every configuration field that affects a fit (the regime schema
/// included) and the retention window. Recovery compares these bytes against
/// the booting process's encoding: any difference (another network, a
/// re-tuned β, a different α partition, a changed retention window…) makes
/// the snapshot lineage unusable and forces a clean cold boot instead of
/// silently mixing epochs derived under different rules.
pub fn encode_config(
    net: &RoadNetwork,
    cfg: &HybridConfig,
    retention_max_age: Option<f64>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    put_u64(&mut out, net.edge_count() as u64);
    put_u64(&mut out, network_digest(net));
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
    put_regime_schema(&mut out, &cfg.regimes);
    out
}

/// FNV-1a over every edge's `(from, to, length, speed limit)` bits, in edge
/// id order: the parts of the network a persisted row, variable or
/// speed-limit fallback depends on.
fn network_digest(net: &RoadNetwork) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for e in net.edges() {
        let fields = [
            u64::from(e.from.0),
            u64::from(e.to.0),
            e.length_m.to_bits(),
            e.speed_limit_kmh.to_bits(),
        ];
        for byte in fields.iter().flat_map(|f| f.to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn cost_kind_tag(kind: CostKind) -> u8 {
    match kind {
        CostKind::TravelTime => 0,
        CostKind::Emissions => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_roadnet::GeneratorConfig;

    fn sample_trajectory(id: u64) -> MatchedTrajectory {
        MatchedTrajectory {
            id,
            path: Path::from_edges_unchecked(vec![EdgeId(3), EdgeId(9), EdgeId(4)]),
            entry_times: vec![Timestamp(10.5), Timestamp(20.25), Timestamp(31.125)],
            travel_times: vec![9.75, 10.875, 0.1 + 0.2], // deliberately inexact sum
            regime: RegimeId::ALL_TRAFFIC,
        }
    }

    #[test]
    fn config_fingerprint_covers_the_regime_schema() {
        let net = GeneratorConfig::tiny(1).generate();
        let base = HybridConfig::default();
        let reference = encode_config(&net, &base, None);
        let grouped = base
            .clone()
            .with_regimes(RegimeSchema::flat().with_group(RegimeId(1), RegimeId(3)));
        assert_ne!(reference, encode_config(&net, &grouped, None));
        // An explicitly flat schema encodes exactly like the default.
        let flat = base.with_regimes(RegimeSchema::flat());
        assert_eq!(reference, encode_config(&net, &flat, None));
    }

    #[test]
    fn trajectory_round_trip_is_bit_identical() {
        for m in [
            sample_trajectory(42),
            sample_trajectory(43).with_regime(RegimeId(2)),
        ] {
            let mut buf = Vec::new();
            put_trajectory(&mut buf, &m);
            assert_eq!(buf[buf.len() - 2..], m.regime.0.to_le_bytes(), "tag last");
            let mut c = Cursor::new(&buf, "trajectory");
            let back = read_trajectory(&mut c).unwrap();
            c.finish().unwrap();
            assert_eq!(back, m);
            assert_eq!(back.travel_times[2].to_bits(), (0.1f64 + 0.2).to_bits());
        }
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
        let net = GeneratorConfig::tiny(1).generate();
        let base = HybridConfig::default();
        let reference = encode_config(&net, &base, Some(3600.0));
        assert_eq!(reference, encode_config(&net, &base, Some(3600.0)));
        assert_ne!(reference, encode_config(&net, &base, Some(7200.0)));
        assert_ne!(reference, encode_config(&net, &base, None));
        let mut beta = base.clone();
        beta.beta += 1;
        assert_ne!(reference, encode_config(&net, &beta, Some(3600.0)));
        let mut alpha = base.clone();
        alpha.alpha_minutes *= 2;
        assert_ne!(reference, encode_config(&net, &alpha, Some(3600.0)));
        let mut seed = base.clone();
        seed.auto.seed ^= 1;
        assert_ne!(reference, encode_config(&net, &seed, Some(3600.0)));
        let emissions = HybridConfig {
            cost_kind: CostKind::Emissions,
            ..base.clone()
        };
        assert_ne!(reference, encode_config(&net, &emissions, Some(3600.0)));
        // The network: regenerated, the same; another seed's lengths and
        // speed limits on the same shape, or a smaller grid, not.
        let regenerated = GeneratorConfig::tiny(1).generate();
        assert_eq!(reference, encode_config(&regenerated, &base, Some(3600.0)));
        let reseeded = GeneratorConfig::tiny(2).generate();
        assert_eq!(reseeded.edge_count(), net.edge_count());
        assert_ne!(reference, encode_config(&reseeded, &base, Some(3600.0)));
        let smaller = GeneratorConfig {
            rows: 4,
            cols: 4,
            ..GeneratorConfig::tiny(1)
        }
        .generate();
        assert_ne!(reference, encode_config(&smaller, &base, Some(3600.0)));
    }

    #[test]
    fn the_smallest_valid_encodings_match_their_minimums() {
        let mut buf = Vec::new();
        put_trajectory(
            &mut buf,
            &MatchedTrajectory {
                id: 1,
                path: Path::unit(EdgeId(0)),
                entry_times: vec![Timestamp(0.0)],
                travel_times: vec![1.0],
                regime: RegimeId::ALL_TRAFFIC,
            },
        );
        assert_eq!(buf.len(), TRAJECTORY_MIN);
        assert_eq!(TRAJECTORY_MIN, 34);
        let unit = HistogramNd::from_raw_parts(
            vec![vec![Bucket::new(0.0, 1.0).unwrap()]],
            vec![(vec![0], 1.0)],
        )
        .unwrap();
        let mut buf = Vec::new();
        put_variable(
            &mut buf,
            &InstantiatedVariable::new(
                Path::unit(EdgeId(0)),
                IntervalId(0),
                unit,
                VariableSource::SpeedLimit,
            ),
        );
        assert_eq!(buf.len(), VARIABLE_MIN);
        let mut buf = Vec::new();
        let empty: &[InstantiatedVariable] = &[];
        put_regime_tables(&mut buf, &[(RegimeId(1), empty)]);
        assert_eq!(buf.len(), 4 + TABLE_MIN);
    }

    #[test]
    fn a_regime_listed_twice_is_corrupt() {
        let mut buf = Vec::new();
        let empty: &[InstantiatedVariable] = &[];
        put_regime_tables(&mut buf, &[(RegimeId(1), empty), (RegimeId(1), empty)]);
        let mut c = Cursor::new(&buf, "tables");
        assert!(read_regime_tables(&mut c).is_err());
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
    }
}
