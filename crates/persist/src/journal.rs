//! The append-only ingest journal.
//!
//! # File layout (version 3)
//!
//! ```text
//! magic  8 bytes   b"PCJRNL\0\x03"
//! then zero or more records:
//!   length  u32    payload bytes
//!   CRC32   u32    over length ‖ payload
//!   payload        epoch u64, op u8, op body
//! ```
//!
//! Op bodies: `1` = retire-before (a timestamp cutoff), `2` = retire-ids (an
//! id list), `3` = ingest (a trajectory batch, each row with its regime tag,
//! in the snapshot's row encoding). Any other op is a corrupt record.
//! Every record carries the epoch the operation *published*, so replay can
//! skip records already captured by a snapshot.
//!
//! # Torn tails
//!
//! A crash mid-append leaves a partial record at the end of the file. On
//! open, the journal is scanned record by record; the scan stops at the first
//! frame that is short, oversized, or fails its CRC, and the file is
//! truncated back to the last valid boundary — the exact definition of
//! "resume from the last durable record". A file whose 8-byte magic is wrong
//! (or that is shorter than the magic) was never a journal this process can
//! extend — another format version included; it is re-created empty, and
//! the report says so.

use crate::codec;
use crate::crc::crc32_parts;
use crate::error::PersistError;
use crate::format::{put_f64, put_len, put_u64, put_u8, Cursor, MAX_LEN};
use pathcost_traj::{MatchedTrajectory, Timestamp};
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;

/// Magic prefix of every journal file; the final byte is the format version.
pub const JOURNAL_MAGIC: [u8; 8] = *b"PCJRNL\x00\x03";

/// One durable ingest operation.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// A trajectory batch handed to `LiveIngestor::ingest`.
    Ingest(Vec<MatchedTrajectory>),
    /// A TTL retirement: retire every trajectory starting before the cutoff.
    RetireBefore(Timestamp),
    /// An explicit retirement by trajectory id.
    RetireIds(Vec<u64>),
}

/// A journal record: the operation plus the epoch it published.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// The ingest epoch this operation produced.
    pub epoch: u64,
    /// The operation itself.
    pub op: JournalOp,
}

impl JournalRecord {
    /// The record's payload: what a journal frame carries after its length
    /// and CRC.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.epoch);
        match &self.op {
            JournalOp::Ingest(batch) => {
                put_u8(&mut out, 3);
                codec::put_trajectories(&mut out, batch);
            }
            JournalOp::RetireBefore(cutoff) => {
                put_u8(&mut out, 1);
                put_f64(&mut out, cutoff.0);
            }
            JournalOp::RetireIds(ids) => {
                put_u8(&mut out, 2);
                put_len(&mut out, ids.len());
                for &id in ids {
                    put_u64(&mut out, id);
                }
            }
        }
        out
    }

    /// Decodes a frame's payload (the CRC is the caller's to check).
    pub fn decode(payload: &[u8]) -> Result<Self, PersistError> {
        let mut c = Cursor::new(payload, "journal record");
        let epoch = c.u64()?;
        let op = match c.u8()? {
            1 => JournalOp::RetireBefore(Timestamp(c.f64()?)),
            2 => {
                let n = c.read_len(8)?;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(c.u64()?);
                }
                JournalOp::RetireIds(ids)
            }
            3 => JournalOp::Ingest(codec::read_trajectories(&mut c)?),
            tag => {
                return Err(PersistError::corrupt(
                    "journal record",
                    format!("unknown op tag {tag}"),
                ))
            }
        };
        c.finish()?;
        Ok(JournalRecord { epoch, op })
    }
}

/// What [`Journal::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalReport {
    /// Bytes cut off the end of the file (a torn tail or mid-file
    /// corruption — everything from the first bad frame on).
    pub truncated_bytes: u64,
    /// The file existed but was not a journal (bad magic); it was re-created
    /// empty and its previous content discarded.
    pub recreated: bool,
}

/// An open, append-position-valid journal file.
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Bytes of valid journal content (including the magic header).
    bytes: u64,
    /// Valid records currently in the file.
    records: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, scans it, truncates any
    /// invalid tail, and returns the open journal, the decoded records, and
    /// a report of what repair was needed.
    pub fn open(
        path: impl Into<PathBuf>,
    ) -> Result<(Self, Vec<JournalRecord>, JournalReport), PersistError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut report = JournalReport::default();
        let existing = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };

        let (records, valid_len) = if existing.len() < JOURNAL_MAGIC.len()
            || existing[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC
        {
            if !existing.is_empty() {
                report.recreated = true;
            }
            (Vec::new(), 0)
        } else {
            let (records, valid) = scan(&existing);
            report.truncated_bytes = (existing.len() - valid) as u64;
            (records, valid)
        };

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if valid_len == 0 {
            // Fresh or re-created: write a clean header.
            file.set_len(0)?;
            file.write_all(&JOURNAL_MAGIC)?;
            file.sync_all()?;
        } else if valid_len < existing.len() {
            // Torn tail: cut back to the last valid record boundary, and make
            // the repair durable before anything is appended after it.
            file.set_len(valid_len as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        let bytes = file.stream_position()?;
        let journal = Journal {
            file,
            path,
            bytes,
            records: records.len() as u64,
        };
        Ok((journal, records, report))
    }

    /// Appends one record and fdatasyncs it before returning, so a crash
    /// immediately after an acknowledged publish cannot lose it.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), PersistError> {
        if let Some(fault) = crate::faults::take_injected_failure() {
            return Err(fault);
        }
        let payload = record.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        let len_bytes = (payload.len() as u32).to_le_bytes();
        frame.extend_from_slice(&len_bytes);
        frame.extend_from_slice(&crc32_parts(&[&len_bytes, &payload]).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.bytes += frame.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Current journal size in bytes (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of valid records currently in the file.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Rewrites the journal keeping only records with `epoch >
    /// keep_after_epoch` — the rotation step after a successful snapshot.
    ///
    /// The caller passes the epoch of the *oldest retained snapshot
    /// generation*, not the newest: the journal must stay able to replay on
    /// top of every generation still on disk, otherwise a corrupt newest
    /// snapshot would leave an unbridgeable gap back to the previous one.
    ///
    /// The rewrite is atomic (temp file + fsync + rename + directory fsync),
    /// so a crash mid-rotation leaves the previous journal intact.
    pub fn rotate(&mut self, keep_after_epoch: u64) -> Result<(), PersistError> {
        if let Some(fault) = crate::faults::take_injected_failure() {
            return Err(fault);
        }
        let existing = fs::read(&self.path)?;
        let (records, _) = if existing.len() >= JOURNAL_MAGIC.len()
            && existing[..JOURNAL_MAGIC.len()] == JOURNAL_MAGIC
        {
            scan(&existing)
        } else {
            (Vec::new(), 0)
        };
        let tmp = self.path.with_extension("pcj.tmp");
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            let mut image = Vec::with_capacity(existing.len());
            image.extend_from_slice(&JOURNAL_MAGIC);
            let mut kept = 0u64;
            for record in &records {
                if record.epoch <= keep_after_epoch {
                    continue;
                }
                let payload = record.encode();
                let len_bytes = (payload.len() as u32).to_le_bytes();
                image.extend_from_slice(&len_bytes);
                image.extend_from_slice(&crc32_parts(&[&len_bytes, &payload]).to_le_bytes());
                image.extend_from_slice(&payload);
                kept += 1;
            }
            f.write_all(&image)?;
            f.sync_all()?;
            self.bytes = image.len() as u64;
            self.records = kept;
        }
        fs::rename(&tmp, &self.path)?;
        if let Some(parent) = self.path.parent() {
            if let Ok(d) = File::open(parent) {
                let _ = d.sync_all();
            }
        }
        // Swap the handle to the rewritten file and seek to its end.
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        Ok(())
    }
}

/// Scans journal bytes (magic already verified), returning the decoded
/// records and the byte length of the valid prefix. Stops at the first
/// short, oversized, CRC-failing or undecodable frame.
fn scan(bytes: &[u8]) -> (Vec<JournalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = JOURNAL_MAGIC.len();
    while let Some((len_bytes, rest)) = bytes[pos..].split_first_chunk::<4>() {
        let Some((crc_bytes, rest)) = rest.split_first_chunk::<4>() else {
            break;
        };
        let len = u32::from_le_bytes(*len_bytes) as usize;
        if len > MAX_LEN as usize || rest.len() < len {
            break;
        }
        let payload = &rest[..len];
        if crc32_parts(&[len_bytes, payload]) != u32::from_le_bytes(*crc_bytes) {
            break;
        }
        match JournalRecord::decode(payload) {
            Ok(record) => records.push(record),
            Err(_) => break,
        }
        pos += 8 + len;
    }
    (records, pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_roadnet::{EdgeId, Path as RoadPath};

    fn temp_journal(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pathcost-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("journal.pcj")
    }

    fn sample_records() -> Vec<JournalRecord> {
        let m = MatchedTrajectory {
            id: 11,
            path: RoadPath::from_edges_unchecked(vec![EdgeId(1), EdgeId(2)]),
            entry_times: vec![Timestamp(5.0), Timestamp(9.5)],
            travel_times: vec![4.5, 6.25],
            regime: pathcost_traj::RegimeId::ALL_TRAFFIC,
        };
        vec![
            JournalRecord {
                epoch: 1,
                op: JournalOp::Ingest(vec![m]),
            },
            JournalRecord {
                epoch: 2,
                op: JournalOp::RetireBefore(Timestamp(42.5)),
            },
            JournalRecord {
                epoch: 3,
                op: JournalOp::RetireIds(vec![7, 11, 13]),
            },
        ]
    }

    #[test]
    fn ingest_round_trips_its_tags_and_op_0_is_refused() {
        use pathcost_traj::RegimeId;
        let untagged = match &sample_records()[0].op {
            JournalOp::Ingest(batch) => batch.clone(),
            _ => unreachable!(),
        };
        let tagged: Vec<_> = untagged
            .iter()
            .map(|m| m.clone().with_regime(RegimeId(4)))
            .collect();
        for batch in [&untagged, &tagged] {
            let record = JournalRecord {
                epoch: 9,
                op: JournalOp::Ingest(batch.clone()),
            };
            let payload = record.encode();
            assert_eq!(payload[8], 3, "one ingest op");
            assert_eq!(JournalRecord::decode(&payload).unwrap(), record);
        }

        // The same body under op 0, or under any op this version never
        // wrote, is a corrupt record.
        for op in [0, 4, u8::MAX] {
            let mut payload = JournalRecord {
                epoch: 9,
                op: JournalOp::Ingest(tagged.clone()),
            }
            .encode();
            payload[8] = op;
            assert!(JournalRecord::decode(&payload).is_err(), "op {op} decoded");
        }
    }

    #[test]
    fn append_reopen_round_trip() {
        let path = temp_journal("roundtrip");
        let (mut j, records, report) = Journal::open(&path).unwrap();
        assert!(records.is_empty());
        assert_eq!(report, JournalReport::default());
        for r in sample_records() {
            j.append(&r).unwrap();
        }
        assert_eq!(j.records(), 3);
        drop(j);
        let (j, records, report) = Journal::open(&path).unwrap();
        assert_eq!(records, sample_records());
        assert_eq!(report, JournalReport::default());
        assert_eq!(j.records(), 3);
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let path = temp_journal("torn");
        let (mut j, _, _) = Journal::open(&path).unwrap();
        for r in sample_records() {
            j.append(&r).unwrap();
        }
        drop(j);
        let full = fs::read(&path).unwrap();
        for cut in JOURNAL_MAGIC.len()..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let (j, records, report) = Journal::open(&path).unwrap();
            // The valid prefix survives; the torn record is gone.
            let expected: Vec<JournalRecord> =
                sample_records().into_iter().take(records.len()).collect();
            assert_eq!(records, expected, "cut at {cut}");
            assert!(records.len() < 3 || cut == full.len());
            assert_eq!(
                report.truncated_bytes > 0,
                fs::metadata(&path).unwrap().len() < cut as u64,
                "cut at {cut}"
            );
            // The truncated journal accepts new appends cleanly.
            drop(j);
            let (mut j, _, _) = Journal::open(&path).unwrap();
            j.append(&JournalRecord {
                epoch: 99,
                op: JournalOp::RetireIds(vec![1]),
            })
            .unwrap();
            drop(j);
            let (_, records, _) = Journal::open(&path).unwrap();
            assert_eq!(records.last().unwrap().epoch, 99);
        }
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn mid_file_bit_flip_truncates_from_the_flip() {
        let path = temp_journal("flip");
        let (mut j, _, _) = Journal::open(&path).unwrap();
        for r in sample_records() {
            j.append(&r).unwrap();
        }
        drop(j);
        let full = fs::read(&path).unwrap();
        for byte in JOURNAL_MAGIC.len()..full.len() {
            let mut bad = full.clone();
            bad[byte] ^= 0x10;
            fs::write(&path, &bad).unwrap();
            let (_, records, _) = Journal::open(&path).unwrap();
            assert!(
                records.len() < 3,
                "flip at byte {byte} left all records intact"
            );
            // Whatever survived is a clean prefix of the original.
            assert_eq!(
                records,
                sample_records()[..records.len()].to_vec(),
                "flip at byte {byte}"
            );
        }
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_crc_valid_record_claiming_max_len_trajectories_is_a_bad_frame() {
        let path = temp_journal("max-len");
        let (mut j, _, _) = Journal::open(&path).unwrap();
        j.append(&sample_records()[0]).unwrap();
        drop(j);
        let valid = fs::read(&path).unwrap();
        // An ingest whose batch length is MAX_LEN, with nothing after it.
        let mut payload = Vec::new();
        put_u64(&mut payload, 2);
        put_u8(&mut payload, 3);
        put_len(&mut payload, MAX_LEN as usize);
        let len_bytes = (payload.len() as u32).to_le_bytes();
        let mut image = valid.clone();
        image.extend_from_slice(&len_bytes);
        image.extend_from_slice(&crc32_parts(&[&len_bytes, &payload]).to_le_bytes());
        image.extend_from_slice(&payload);
        fs::write(&path, &image).unwrap();

        let (j, records, report) = Journal::open(&path).unwrap();
        assert_eq!(records, sample_records()[..1].to_vec());
        assert_eq!(report.truncated_bytes, (image.len() - valid.len()) as u64);
        assert_eq!(j.bytes(), valid.len() as u64);
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn non_journal_file_is_recreated_empty() {
        let path = temp_journal("recreate");
        fs::write(&path, b"this was never a journal").unwrap();
        let (j, records, report) = Journal::open(&path).unwrap();
        assert!(records.is_empty());
        assert!(report.recreated);
        assert_eq!(j.records(), 0);
        // A journal of another format version: its records are not read.
        drop(j);
        let (mut j, _, _) = Journal::open(&path).unwrap();
        j.append(&sample_records()[1]).unwrap();
        drop(j);
        let mut other = fs::read(&path).unwrap();
        other[7] = 1;
        fs::write(&path, &other).unwrap();
        let (_, records, report) = Journal::open(&path).unwrap();
        assert!(records.is_empty());
        assert!(report.recreated);
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn rotation_keeps_only_post_cutoff_records() {
        let path = temp_journal("rotate");
        let (mut j, _, _) = Journal::open(&path).unwrap();
        for r in sample_records() {
            j.append(&r).unwrap();
        }
        j.rotate(1).unwrap();
        assert_eq!(j.records(), 2);
        // The rotated journal still appends and reopens cleanly.
        j.append(&JournalRecord {
            epoch: 4,
            op: JournalOp::RetireIds(vec![5]),
        })
        .unwrap();
        drop(j);
        let (_, records, report) = Journal::open(&path).unwrap();
        assert_eq!(report, JournalReport::default());
        assert_eq!(
            records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
