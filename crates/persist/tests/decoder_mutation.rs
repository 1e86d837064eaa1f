//! Mutation test for the persistence decoders: every reader answers `Ok` or
//! `Err` on damaged bytes, never panics.
//!
//! The seeds are valid encodings of a small regime-tagged lineage — a few
//! dozen trajectory rows under a grouped schema, each section cut to at most
//! [`SECTION_LIMIT`] bytes so a debug run stays fast. A deterministic
//! SplitMix64 generator damages them (bit flips, truncation, a `u32`
//! overwritten with a large length, splices from another seed) and hands the
//! result to its reader:
//!
//! * whole snapshot images to [`SnapshotReader::decode`];
//! * each section payload straight to its own codec reader, which bypasses
//!   the CRC that would otherwise reject almost every mutation;
//! * journal record payloads to [`JournalRecord::decode`].
//!
//! `PERSIST_MUTATION_ITERATIONS` selects a longer run.

use pathcost_core::{HybridConfig, PathWeightFunction};
use pathcost_persist::codec;
use pathcost_persist::format::{put_len, put_u32, put_u64, put_u8, Cursor, MAX_LEN};
use pathcost_persist::snapshot::section;
use pathcost_persist::{JournalOp, JournalRecord, SnapshotReader, SnapshotWriter};
use pathcost_traj::{
    DatasetPreset, MatchedTrajectory, RegimeId, RegimeSchema, Timestamp, TrajectoryStore,
};

/// The largest seed section, in bytes.
const SECTION_LIMIT: usize = 4096;

struct Gen {
    state: u64,
}

impl Gen {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..=n`.
    fn upto(&mut self, n: usize) -> usize {
        (self.next() % (n as u64 + 1)) as usize
    }
}

/// Which decoder a seed feeds.
#[derive(Debug, Clone, Copy)]
enum Reader {
    Image,
    Trajectories,
    RegimeTags,
    Weights,
    RegimeWeights,
    Journal,
}

/// Decodes `bytes` with `reader`, requiring a section reader to consume
/// every byte as recovery does. `true` when it decoded.
fn decode(reader: Reader, bytes: &[u8]) -> bool {
    let mut c = Cursor::new(bytes, "mutated section");
    let decoded = match reader {
        Reader::Image => return SnapshotReader::decode(bytes).is_ok(),
        Reader::Journal => return JournalRecord::decode(bytes).is_ok(),
        Reader::Trajectories => codec::read_trajectories(&mut c).map(drop),
        Reader::RegimeTags => codec::read_regime_tags(&mut c).map(drop),
        Reader::Weights => codec::read_weights(&mut c).map(drop),
        Reader::RegimeWeights => codec::read_regime_schema(&mut c)
            .and_then(|_| codec::read_regime_tables(&mut c).map(drop)),
    };
    decoded.and_then(|()| c.finish()).is_ok()
}

/// The encoding of the longest prefix `encode(k)`, `k ≤ n`, that fits in
/// [`SECTION_LIMIT`] bytes.
fn fitted(n: usize, encode: impl Fn(usize) -> Vec<u8>) -> Vec<u8> {
    (0..=n)
        .rev()
        .map(encode)
        .find(|bytes| bytes.len() <= SECTION_LIMIT)
        .expect("an empty prefix fits")
}

/// Valid encodings of a small regime-tagged lineage, each with its reader.
fn seeds() -> Vec<(Reader, Vec<u8>)> {
    let (net, store) = DatasetPreset::tiny(41).materialise().unwrap();
    let rows: Vec<MatchedTrajectory> = store.matched()[..48]
        .iter()
        .enumerate()
        .map(|(i, m)| m.clone().with_regime(RegimeId(i as u16 % 2 + 1)))
        .collect();
    let schema = RegimeSchema::flat()
        .with_group(RegimeId(1), RegimeId(3))
        .with_group(RegimeId(2), RegimeId(3));
    let cfg = HybridConfig {
        beta: 2,
        ..HybridConfig::default()
    }
    .with_regimes(schema.clone());
    let weights =
        PathWeightFunction::instantiate(&net, &TrajectoryStore::new(rows.clone()), &cfg).unwrap();
    let own_tables: Vec<(RegimeId, &[_])> = weights
        .tables()
        .iter()
        .filter(|(regime, _)| !regime.is_global())
        .map(|(regime, table)| (*regime, table.as_slice()))
        .collect();
    assert!(!own_tables.is_empty(), "the lineage has own regime tables");

    let store_section = fitted(rows.len(), |k| {
        let mut out = Vec::new();
        codec::put_trajectories(&mut out, &rows[..k]);
        out
    });
    let tags_section = {
        let mut out = Vec::new();
        codec::put_regime_tags(&mut out, &rows);
        out
    };
    let weights_section = fitted(weights.variables().len(), |k| {
        let mut out = Vec::new();
        codec::put_variables(&mut out, &weights.variables()[..k]);
        out
    });
    // A legacy WGTS section: a few variables, then the fallback list older
    // writers appended.
    let legacy_weights_section = fitted(net.edge_count(), |k| {
        let mut out = Vec::new();
        codec::put_variables(&mut out, &weights.variables()[..2]);
        put_len(&mut out, k);
        for fallback in &weights.fallback_units()[..k] {
            put_u32(&mut out, fallback.path.first_edge().0);
            codec::put_histogram1d(&mut out, fallback.unit_marginal().unwrap());
        }
        out
    });
    let longest = own_tables.iter().map(|(_, t)| t.len()).max().unwrap();
    let regimes_section = fitted(longest, |k| {
        let cut: Vec<(RegimeId, &[_])> = own_tables
            .iter()
            .map(|(regime, table)| (*regime, &table[..k.min(table.len())]))
            .collect();
        let mut out = Vec::new();
        codec::put_regime_schema(&mut out, &schema);
        codec::put_regime_tables(&mut out, &cut);
        out
    });

    let dir =
        std::env::temp_dir().join(format!("pathcost-decoder-mutation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sections = [
        (section::CONFIG, codec::encode_config(&cfg, Some(3600.0))),
        (section::STORE, store_section.clone()),
        (section::WEIGHTS, weights_section.clone()),
        (section::REGIME_STORE, tags_section.clone()),
        (section::REGIME_WEIGHTS, regimes_section.clone()),
    ];
    SnapshotWriter::new(&dir)
        .unwrap()
        .publish(4, &sections)
        .unwrap();
    let (snapshot, _) = SnapshotReader::load_latest(&dir).unwrap();
    assert!(snapshot.is_some(), "the seed image decodes");
    let image_path = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .find(|path| path.extension().is_some_and(|ext| ext == "snap"))
        .unwrap();
    let image = std::fs::read(image_path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let batch = rows[..6].to_vec();
    let record = |epoch, op| JournalRecord { epoch, op }.encode();
    let mut legacy_ingest = Vec::new();
    put_u64(&mut legacy_ingest, 1);
    put_u8(&mut legacy_ingest, 0);
    codec::put_trajectories(&mut legacy_ingest, &batch);

    vec![
        (Reader::Image, image),
        (Reader::Trajectories, store_section),
        (Reader::RegimeTags, tags_section),
        (Reader::Weights, weights_section),
        (Reader::Weights, legacy_weights_section),
        (Reader::RegimeWeights, regimes_section),
        (Reader::Journal, record(2, JournalOp::Ingest(batch))),
        (
            Reader::Journal,
            record(3, JournalOp::RetireBefore(Timestamp(5400.5))),
        ),
        (
            Reader::Journal,
            record(4, JournalOp::RetireIds(vec![3, 17, u64::MAX])),
        ),
        (Reader::Journal, legacy_ingest),
    ]
}

/// One random edit of `bytes`: a bit flip, a truncation, a `u32` overwritten
/// with a large length, or a slice of `donor` spliced over one of its ranges.
fn mutate(gen: &mut Gen, mut bytes: Vec<u8>, donor: &[u8]) -> Vec<u8> {
    match gen.upto(3) {
        0 if !bytes.is_empty() => {
            let at = gen.upto(bytes.len() - 1);
            bytes[at] ^= 1 << gen.upto(7);
        }
        1 => bytes.truncate(gen.upto(bytes.len())),
        2 if bytes.len() >= 4 => {
            let at = gen.upto(bytes.len() - 4);
            let left = (bytes.len() - at - 4) as u32;
            let large = [u32::MAX, MAX_LEN, MAX_LEN + 1, left, left + 1, 1 << 20];
            let len = large[gen.upto(large.len() - 1)];
            bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
        }
        _ => {
            let (a, b) = (gen.upto(donor.len()), gen.upto(donor.len()));
            let at = gen.upto(bytes.len());
            let end = at + gen.upto(bytes.len() - at);
            bytes.splice(at..end, donor[a.min(b)..a.max(b)].iter().copied());
        }
    }
    bytes
}

/// Every persistence decoder answers `Ok` or `Err` on mutations of valid
/// encodings and never panics. `PERSIST_MUTATION_ITERATIONS` selects a
/// longer run.
#[test]
fn mutated_encodings_decode_or_fail_without_panicking() {
    let iterations: u64 = std::env::var("PERSIST_MUTATION_ITERATIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let seeds = seeds();
    for (reader, bytes) in &seeds {
        assert!(
            bytes.len() <= 4 * SECTION_LIMIT,
            "{reader:?} seed too large"
        );
        assert!(decode(*reader, bytes), "{reader:?} seed must decode");
    }
    let mut gen = Gen {
        state: 0x7065_7273_6973_7421,
    };
    let mut decoded = 0u64;
    for i in 0..iterations {
        let (reader, seed) = &seeds[gen.upto(seeds.len() - 1)];
        let donor = &seeds[gen.upto(seeds.len() - 1)].1;
        let mut bytes = seed.clone();
        for _ in 0..=gen.upto(3) {
            bytes = mutate(&mut gen, bytes, donor);
        }
        let outcome = std::panic::catch_unwind(|| decode(*reader, &bytes));
        match outcome {
            Ok(ok) => decoded += u64::from(ok),
            Err(_) => panic!("iteration {i}: {reader:?} panicked on {bytes:02x?}"),
        }
    }
    // Some mutations must survive decoding, or the readers were never
    // reached past their first field.
    assert!(iterations < 1000 || decoded > 0, "no mutation decoded");
}
