//! Versioned, checksummed snapshot files with atomic publication.
//!
//! # File layout
//!
//! ```text
//! magic           8 bytes   b"PCSNAP\0\x04"  (version in the last byte)
//! epoch           u64       ingest epoch the snapshot captures
//! section count   u32
//! header CRC32    u32       over the 20 bytes above
//! per section:
//!   tag           u32       four-CC: "CONF", "STOR" or "WGTS"
//!   length        u32       payload bytes
//!   section CRC32 u32       over tag ‖ length ‖ payload
//!   payload       `length` bytes
//! ```
//!
//! Everything multi-byte is little-endian. Each section carries its own CRC
//! so a single flipped bit anywhere — header or body — is detected; a
//! truncated file fails the bounds-checked section reads.
//!
//! A snapshot has three sections ([`section`]): the network and config
//! fingerprint, the
//! trajectory rows with their regime tags, and every variable table. The
//! reader accepts exactly what the writer writes: an image under any other
//! version byte is corrupt, so recovery skips it like any damaged
//! generation.
//!
//! # Publication and generations
//!
//! A snapshot is **published atomically**: written to `snapshot-<epoch>.tmp`,
//! fsynced, renamed to `snapshot-<epoch>.snap`, then the directory is fsynced
//! so the rename itself is durable. A crash at any point leaves either the
//! previous generation set untouched or a stray `.tmp` that is ignored (and
//! cleaned up by the next successful snapshot). Published files are therefore
//! never torn by the writer — the torn/bit-flip cases recovery handles come
//! from storage-level corruption, which the CRCs catch.
//!
//! The newest [`KEEP_GENERATIONS`] snapshots are retained; loading walks them
//! newest-first and takes the first one that decodes cleanly, counting the
//! skipped generations for the recovery report.

use crate::crc::{crc32, crc32_parts};
use crate::error::PersistError;
use crate::format::{put_u32, put_u64, Cursor, MAX_LEN};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Magic prefix of a snapshot file; the final byte is the format version.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"PCSNAP\x00\x04";

/// How many published snapshot generations are kept on disk.
pub const KEEP_GENERATIONS: usize = 2;

/// Section tag four-CCs.
pub mod section {
    /// Configuration fingerprint bytes.
    pub const CONFIG: u32 = u32::from_le_bytes(*b"CONF");
    /// The trajectory store's rows, each with its regime tag.
    pub const STORE: u32 = u32::from_le_bytes(*b"STOR");
    /// Every variable table of the weight function, keyed by regime (the
    /// all-traffic table included).
    pub const WEIGHTS: u32 = u32::from_le_bytes(*b"WGTS");
}

/// A decoded snapshot: the epoch it captured and the image it was decoded
/// from, whose sections it lends out without copying them.
#[derive(Debug)]
pub struct Snapshot {
    /// Ingest epoch at which the snapshot was taken.
    pub epoch: u64,
    /// The whole validated image.
    image: Vec<u8>,
    /// `(tag, payload range in image)` pairs in file order.
    sections: Vec<(u32, Range<usize>)>,
}

impl Snapshot {
    /// The payload of the section with this tag, if present, borrowed from
    /// the image.
    pub fn section(&self, tag: u32) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, range)| &self.image[range.clone()])
    }
}

/// The file name of the published snapshot for `epoch`.
fn snapshot_name(epoch: u64) -> String {
    format!("snapshot-{epoch:016x}.snap")
}

/// Parses an epoch out of a published snapshot file name.
fn parse_snapshot_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snapshot-")?.strip_suffix(".snap")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Writes snapshot files and manages the retained generation set.
pub struct SnapshotWriter {
    dir: PathBuf,
}

impl SnapshotWriter {
    /// Creates the state directory if needed.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SnapshotWriter { dir })
    }

    /// Serialises `sections` into a snapshot image.
    fn encode(epoch: u64, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
        let body: usize = sections.iter().map(|(_, p)| 12 + p.len()).sum();
        let mut out = Vec::with_capacity(24 + body);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u64(&mut out, epoch);
        put_u32(&mut out, sections.len() as u32);
        let header_crc = crc32(&out);
        put_u32(&mut out, header_crc);
        for (tag, payload) in sections {
            let mut frame = [0u8; 8];
            frame[..4].copy_from_slice(&tag.to_le_bytes());
            frame[4..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&frame);
            put_u32(&mut out, crc32_parts(&[&frame, payload]));
            out.extend_from_slice(payload);
        }
        out
    }

    /// Atomically publishes a snapshot for `epoch` and prunes old
    /// generations. Returns the number of bytes written.
    ///
    /// Ordering is the crash-safety contract: temp write → file fsync →
    /// rename → directory fsync → prune. Only after the directory fsync is
    /// the new generation durable, and pruning strictly follows publication,
    /// so at every instant at least one complete published generation exists
    /// (once one ever has).
    pub fn publish(&self, epoch: u64, sections: &[(u32, Vec<u8>)]) -> Result<u64, PersistError> {
        if let Some(fault) = crate::faults::take_injected_failure() {
            return Err(fault);
        }
        let image = Self::encode(epoch, sections);
        let tmp = self.dir.join(format!("snapshot-{epoch:016x}.tmp"));
        let published = self.dir.join(snapshot_name(epoch));
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&image)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &published)?;
        sync_dir(&self.dir)?;
        self.prune()?;
        Ok(image.len() as u64)
    }

    /// Removes all but the newest [`KEEP_GENERATIONS`] published snapshots,
    /// plus any stray `.tmp` left by a crashed publication attempt.
    fn prune(&self) -> Result<(), PersistError> {
        let mut epochs = list_generations(&self.dir)?;
        epochs.sort_unstable_by(|a, b| b.cmp(a));
        for &old in epochs.iter().skip(KEEP_GENERATIONS) {
            let _ = fs::remove_file(self.dir.join(snapshot_name(old)));
        }
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("snapshot-") && name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(())
    }
}

/// The epochs of every published snapshot in `dir`, unsorted.
pub fn list_generations(dir: &Path) -> Result<Vec<u64>, PersistError> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(epoch) = parse_snapshot_name(&entry.file_name().to_string_lossy()) {
            out.push(epoch);
        }
    }
    Ok(out)
}

/// Reads and validates published snapshots.
pub struct SnapshotReader;

impl SnapshotReader {
    /// Decodes and CRC-validates one snapshot file, in the buffer it was
    /// read into.
    pub fn read(path: &Path) -> Result<Snapshot, PersistError> {
        Self::decode_owned(fs::read(path)?)
    }

    /// Decodes a snapshot image, validating magic, version, header CRC and
    /// every section CRC. Never panics on arbitrary bytes. Copies the image
    /// once; [`Self::decode_owned`] decodes a buffer the caller gives up.
    pub fn decode(image: &[u8]) -> Result<Snapshot, PersistError> {
        Self::decode_owned(image.to_vec())
    }

    /// [`Self::decode`] over an owned image, which becomes the snapshot's
    /// storage: each section is a range into it, not a copy.
    pub fn decode_owned(image: Vec<u8>) -> Result<Snapshot, PersistError> {
        let mut c = Cursor::new(&image, "snapshot header");
        let magic = c.take(8)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(PersistError::corrupt(
                "snapshot header",
                format!("bad magic {magic:02x?}"),
            ));
        }
        let epoch = c.u64()?;
        let section_count = c.u32()?;
        let declared_crc = c.u32()?;
        let actual_crc = crc32(&image[..20]);
        if declared_crc != actual_crc {
            return Err(PersistError::corrupt(
                "snapshot header",
                format!("header CRC {declared_crc:08x} != {actual_crc:08x}"),
            ));
        }
        if section_count > 64 {
            return Err(PersistError::corrupt(
                "snapshot header",
                format!("implausible section count {section_count}"),
            ));
        }
        let mut sections = Vec::with_capacity(section_count as usize);
        for _ in 0..section_count {
            let tag = c.u32()?;
            let len = c.u32()?;
            if len > MAX_LEN {
                return Err(PersistError::corrupt(
                    "snapshot section",
                    format!("implausible section length {len}"),
                ));
            }
            let declared = c.u32()?;
            let start = image.len() - c.remaining();
            let payload = c.take(len as usize)?;
            let mut frame = [0u8; 8];
            frame[..4].copy_from_slice(&tag.to_le_bytes());
            frame[4..].copy_from_slice(&len.to_le_bytes());
            let actual = crc32_parts(&[&frame, payload]);
            if declared != actual {
                return Err(PersistError::corrupt(
                    "snapshot section",
                    format!("section {tag:08x} CRC {declared:08x} != {actual:08x}"),
                ));
            }
            sections.push((tag, start..start + payload.len()));
        }
        c.finish()?;
        Ok(Snapshot {
            epoch,
            image,
            sections,
        })
    }

    /// Loads the newest snapshot in `dir` that decodes cleanly, walking
    /// generations newest-first and skipping (counting) corrupt ones.
    /// Returns `None` when no generation is loadable — with the skip count,
    /// so the caller can distinguish "empty state dir" (`0` skipped) from
    /// "every generation corrupt".
    pub fn load_latest(dir: &Path) -> Result<(Option<Snapshot>, usize), PersistError> {
        let mut epochs = list_generations(dir)?;
        epochs.sort_unstable_by(|a, b| b.cmp(a));
        let mut skipped = 0;
        for &epoch in &epochs {
            match Self::read(&dir.join(snapshot_name(epoch))) {
                Ok(snapshot) => {
                    // The file name is untrusted; the authoritative epoch is
                    // the CRC-protected header field.
                    return Ok((Some(snapshot), skipped));
                }
                Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    skipped += 1;
                }
                Err(_) => skipped += 1,
            }
        }
        Ok((None, skipped))
    }
}

/// Fsyncs a directory so a completed rename is durable. On platforms where
/// directories cannot be fsynced the error is ignored — the rename itself is
/// still atomic, only its durability timing weakens.
fn sync_dir(dir: &Path) -> Result<(), PersistError> {
    match File::open(dir) {
        Ok(f) => {
            let _ = f.sync_all();
            Ok(())
        }
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pathcost-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sections() -> Vec<(u32, Vec<u8>)> {
        vec![
            (section::CONFIG, b"cfg".to_vec()),
            (section::STORE, vec![1, 2, 3, 4, 5]),
            (section::WEIGHTS, vec![9; 1000]),
        ]
    }

    #[test]
    fn publish_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let w = SnapshotWriter::new(&dir).unwrap();
        w.publish(7, &sections()).unwrap();
        let (snap, skipped) = SnapshotReader::load_latest(&dir).unwrap();
        let snap = snap.expect("published snapshot loads");
        assert_eq!(skipped, 0);
        assert_eq!(snap.epoch, 7);
        assert_eq!(snap.section(section::STORE), Some(&[1u8, 2, 3, 4, 5][..]));
        assert_eq!(snap.section(section::CONFIG), Some(&b"cfg"[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keeps_two_generations_and_prunes_older() {
        let dir = temp_dir("generations");
        let w = SnapshotWriter::new(&dir).unwrap();
        for epoch in 1..=5 {
            w.publish(epoch, &sections()).unwrap();
        }
        let mut gens = list_generations(&dir).unwrap();
        gens.sort_unstable();
        assert_eq!(gens, vec![4, 5]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn only_the_written_version_decodes() {
        let image = SnapshotWriter::encode(3, &sections());
        assert_eq!(image[..8], SNAPSHOT_MAGIC);
        let snap = SnapshotReader::decode(&image).expect("the written version decodes");
        assert_eq!(snap.epoch, 3);
        for (tag, payload) in sections() {
            assert_eq!(snap.section(tag), Some(&payload[..]));
        }
        assert_eq!(snap.sections.len(), sections().len());
        // The same frame under another version byte, its header CRC valid.
        for version in [1, 2, 3, 5] {
            let mut other = image.clone();
            other[7] = version;
            let header_crc = crc32(&other[..20]);
            other[20..24].copy_from_slice(&header_crc.to_le_bytes());
            assert!(
                SnapshotReader::decode(&other).is_err(),
                "version {version} decoded"
            );
        }
    }

    #[test]
    fn sections_borrow_the_image_they_were_decoded_from() {
        let image = SnapshotWriter::encode(3, &sections());
        let span = image.as_ptr_range();
        let snap = SnapshotReader::decode_owned(image).expect("the written image decodes");
        for (tag, payload) in sections() {
            let lent = snap.section(tag).expect("every written section is present");
            assert_eq!(lent, &payload[..]);
            assert!(
                span.contains(&lent.as_ptr()),
                "section {tag:08x} is a copy, not a range of the image"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let image = SnapshotWriter::encode(3, &sections());
        assert!(SnapshotReader::decode(&image).is_ok());
        for i in 0..image.len() {
            let mut bad = image.clone();
            bad[i] ^= 0x01;
            assert!(
                SnapshotReader::decode(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let image = SnapshotWriter::encode(3, &sections());
        for cut in 0..image.len() {
            assert!(
                SnapshotReader::decode(&image[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous_generation() {
        let dir = temp_dir("fallback");
        let w = SnapshotWriter::new(&dir).unwrap();
        w.publish(1, &sections()).unwrap();
        w.publish(2, &sections()).unwrap();
        // Flip one byte in the newest published file.
        let latest = dir.join(snapshot_name(2));
        let mut bytes = fs::read(&latest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&latest, &bytes).unwrap();
        let (snap, skipped) = SnapshotReader::load_latest(&dir).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(snap.expect("previous generation loads").epoch, 1);
        // Both generations corrupt → None, both counted.
        let prev = dir.join(snapshot_name(1));
        let mut bytes = fs::read(&prev).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&prev, &bytes).unwrap();
        let (snap, skipped) = SnapshotReader::load_latest(&dir).unwrap();
        assert!(snap.is_none());
        assert_eq!(skipped, 2);
        // An empty directory reports zero skips.
        let empty = temp_dir("empty");
        let (snap, skipped) = SnapshotReader::load_latest(&empty).unwrap();
        assert!(snap.is_none());
        assert_eq!(skipped, 0);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn stray_tmp_files_are_ignored_and_cleaned_up() {
        let dir = temp_dir("straytmp");
        let w = SnapshotWriter::new(&dir).unwrap();
        fs::write(dir.join("snapshot-00000000000000aa.tmp"), b"torn write").unwrap();
        let (snap, _) = SnapshotReader::load_latest(&dir).unwrap();
        assert!(snap.is_none(), "a .tmp must never be loaded");
        w.publish(1, &sections()).unwrap();
        assert!(
            !dir.join("snapshot-00000000000000aa.tmp").exists(),
            "publication cleans up stray temp files"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
