//! Mutation test for the persistence decoders: every reader answers `Ok` or
//! `Err` on damaged bytes, never panics, and never asks the allocator for
//! more than a bound linear in the bytes it was given.
//!
//! The seeds are valid encodings of a small regime-tagged lineage — a few
//! dozen tagged trajectory rows and the variable tables of a grouped
//! schema, each section cut to at most [`SECTION_LIMIT`] bytes so a debug
//! run stays fast. A deterministic SplitMix64 generator damages them (bit
//! flips, truncation, a `u32` overwritten with a large length, splices from
//! another seed) and hands the result to its reader:
//!
//! * whole snapshot images to [`SnapshotReader::decode`];
//! * each section payload straight to its own codec reader
//!   ([`codec::read_trajectories`], [`codec::read_regime_tables`]), which
//!   bypasses the CRC that would otherwise reject almost every mutation;
//! * journal record payloads to [`JournalRecord::decode`].
//!
//! A per-thread counting `#[global_allocator]` measures the bytes each call
//! requests. `PERSIST_MUTATION_ITERATIONS` selects a longer run.

use pathcost_core::{HybridConfig, PathWeightFunction};
use pathcost_persist::codec;
use pathcost_persist::format::{put_u32, Cursor, MAX_LEN};
use pathcost_persist::snapshot::section;
use pathcost_persist::{JournalOp, JournalRecord, SnapshotReader, SnapshotWriter};
use pathcost_traj::{
    DatasetPreset, MatchedTrajectory, RegimeId, RegimeSchema, Timestamp, TrajectoryStore,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes this thread requests through
/// `alloc` and `realloc`.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside
    // the allocator neither allocates nor re-enters.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell` that is never borrowed across a call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with this
        // layout, by the caller's obligations for `dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|n| n.set(n.get() + new_size as u64));
        // SAFETY: as for `dealloc`, and `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes requested per input byte, and the constant on top: the most one
/// decode may ask the allocator for is `C × input length + K`.
///
/// `C` covers what a decode builds in proportion to its input: a snapshot
/// section copied out of its image, a row or variable `Vec` whose elements
/// are larger in memory than on disk, and a unit variable's marginal
/// derived from its histogram. `K` covers error messages and small fixed
/// vectors. Measured over 2 M release iterations of the mutation test
/// below: with `C = 6` the largest constant needed was 2 910 bytes, and with
/// `K` = 4 KiB the largest per-byte cost was 5.68. Before the count checks
/// took the element size, a 1 MiB buffer claiming a million rows requested
/// 112 MB.
const C: u64 = 6;
const K: u64 = 4 * 1024;

/// The allocation bound for an input of `len` bytes.
fn bound(len: usize) -> u64 {
    C * len as u64 + K
}

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
    Weights,
    Journal,
}

/// Decodes `bytes` with `reader`, requiring a section reader to consume
/// every byte as recovery does. Returns whether it decoded and the bytes
/// requested from the allocator during the call.
fn decode(reader: Reader, bytes: &[u8]) -> (bool, u64) {
    let before = REQUESTED.with(Cell::get);
    let mut c = Cursor::new(bytes, "mutated section");
    let decoded = match reader {
        Reader::Image => SnapshotReader::decode(bytes).map(drop),
        Reader::Journal => JournalRecord::decode(bytes).map(drop),
        Reader::Trajectories => codec::read_trajectories(&mut c).map(drop),
        Reader::Weights => codec::read_regime_tables(&mut c).map(drop),
    };
    let ok = match reader {
        Reader::Image | Reader::Journal => decoded.is_ok(),
        Reader::Trajectories | Reader::Weights => decoded.and_then(|()| c.finish()).is_ok(),
    };
    (ok, REQUESTED.with(Cell::get) - before)
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
    .with_regimes(schema);
    let weights =
        PathWeightFunction::instantiate(&net, &TrajectoryStore::new(rows.clone()), &cfg).unwrap();
    assert!(
        weights.tables().len() > 1,
        "the lineage has own regime tables"
    );

    let store_section = fitted(rows.len(), |k| {
        let mut out = Vec::new();
        codec::put_trajectories(&mut out, &rows[..k]);
        out
    });
    let longest = weights.tables().values().map(Vec::len).max().unwrap();
    let weights_section = fitted(longest, |k| {
        let cut: Vec<(RegimeId, &[_])> = weights
            .tables()
            .iter()
            .map(|(regime, table)| (*regime, &table[..k.min(table.len())]))
            .collect();
        let mut out = Vec::new();
        codec::put_regime_tables(&mut out, &cut);
        out
    });

    let dir =
        std::env::temp_dir().join(format!("pathcost-decoder-mutation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sections = [
        (
            section::CONFIG,
            codec::encode_config(&net, &cfg, Some(3600.0)),
        ),
        (section::STORE, store_section.clone()),
        (section::WEIGHTS, weights_section.clone()),
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

    let record = |epoch, op| JournalRecord { epoch, op }.encode();
    vec![
        (Reader::Image, image),
        (Reader::Trajectories, store_section),
        (Reader::Weights, weights_section),
        (
            Reader::Journal,
            record(2, JournalOp::Ingest(rows[..6].to_vec())),
        ),
        (
            Reader::Journal,
            record(3, JournalOp::RetireBefore(Timestamp(5400.5))),
        ),
        (
            Reader::Journal,
            record(4, JournalOp::RetireIds(vec![3, 17, u64::MAX])),
        ),
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
/// encodings, never panics and allocates within [`bound`].
/// `PERSIST_MUTATION_ITERATIONS` selects a longer run.
#[test]
fn mutated_encodings_decode_or_fail_within_bounds() {
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
        let (ok, requested) = decode(*reader, bytes);
        assert!(ok, "{reader:?} seed must decode");
        assert!(
            requested <= bound(bytes.len()),
            "{reader:?} seed: {requested} bytes requested for {} input bytes",
            bytes.len()
        );
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
        let (ok, requested) = std::panic::catch_unwind(|| decode(*reader, &bytes))
            .unwrap_or_else(|_| panic!("iteration {i}: {reader:?} panicked on {bytes:02x?}"));
        decoded += u64::from(ok);
        assert!(
            requested <= bound(bytes.len()),
            "iteration {i}: {reader:?} requested {requested} bytes for a {}-byte input",
            bytes.len()
        );
    }
    // Some mutations must survive decoding, or the readers were never
    // reached past their first field.
    assert!(iterations < 1000 || decoded > 0, "no mutation decoded");
}

/// A count prefix claiming far more elements than the buffer could hold
/// reserves in proportion to the buffer, not to the claim: 1 MiB whose
/// prefix claims a million rows, variables, tables or journalled rows.
#[test]
fn a_claimed_count_reserves_what_arrives_not_what_it_claims() {
    const INPUT: usize = 1 << 20;
    assert!(
        MAX_LEN as usize > 1_000_000,
        "the claim passes the MAX_LEN check"
    );
    let claimed = |prefix: &[u8]| {
        let mut bytes = prefix.to_vec();
        put_u32(&mut bytes, 1_000_000);
        bytes.resize(INPUT, 0x11);
        bytes
    };
    // A journal ingest: epoch, op 3, then the row count.
    let mut ingest = 9u64.to_le_bytes().to_vec();
    ingest.push(3);
    // One table of regime 0 whose variable count is the claim.
    let table = [1, 0, 0, 0, 0, 0];
    for (reader, bytes) in [
        (Reader::Trajectories, claimed(&[])),
        (Reader::Weights, claimed(&[])),
        (Reader::Weights, claimed(&table)),
        (Reader::Journal, claimed(&ingest)),
    ] {
        let (ok, requested) = decode(reader, &bytes);
        assert!(!ok, "{reader:?} decoded filler");
        assert!(
            requested <= bound(bytes.len()),
            "{reader:?}: {requested} bytes requested for a {}-byte input",
            bytes.len()
        );
    }
}
