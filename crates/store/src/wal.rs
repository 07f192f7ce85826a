//! Append-only write-ahead log over numbered segment files.
//!
//! A WAL directory holds segments named `wal-<seq:016x>.log`. Each
//! segment opens with a header frame binding the file to its position
//! in the log (magic, segment sequence, base record index), followed
//! by record frames. Records carry a global, monotonically increasing
//! index so snapshots can name an exact cut point ("everything below
//! index N is captured") and [`Wal::prune_below`] can delete whole
//! segments under that floor.
//!
//! ## Durability contract
//!
//! [`Wal::append`] only buffers; [`Wal::sync`] writes the buffer and
//! `fdatasync`s the segment. A record is durable — and may be acted on
//! (e.g. a budget debit released to the send path) — only after the
//! `sync` covering it returns. New segment files are followed by a
//! directory fsync so the name itself survives a crash.
//!
//! ## Crash model and torn tails
//!
//! A killed process leaves a *prefix* of the bytes it wrote (writes
//! tear, they do not scribble). Replay therefore tolerates exactly one
//! irregularity: a [`CorruptKind::Truncated`] frame at the tail of the
//! newest segment, which is reported in [`WalRecovery::torn_tail`] and
//! truncated away so the next append lands on a clean boundary. Every
//! other malformation — a checksum mismatch, a bad version or length,
//! a truncation anywhere but the final tail, a gap in the segment
//! sequence — is a typed [`StoreError`] and replay refuses to proceed
//! past it. Nothing here panics on hostile bytes, and no prefix of
//! records is ever silently dropped.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::codec::{Reader, Writer};
use crate::error::{CorruptKind, StoreError};
use crate::frame::{decode_frame, encode_frame_into};

/// Magic stamped into every segment header payload.
const SEGMENT_MAGIC: u32 = 0x4C57_4150; // "PAWL" little-endian

/// Frame kind reserved for segment headers; records must use kinds
/// above this.
pub const KIND_SEGMENT_HEADER: u8 = 0;

/// Default rotation threshold (bytes) for new WALs.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// One replayed journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Global record index (dense, starts at 0).
    pub index: u64,
    /// Record kind byte (meaning assigned by the journal schema).
    pub kind: u8,
    /// Record payload.
    pub payload: Vec<u8>,
}

/// A torn frame found (and removed) at the tail of the newest segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Segment the tear was found in.
    pub path: PathBuf,
    /// Byte offset the segment was truncated back to.
    pub offset: u64,
    /// Bytes discarded.
    pub lost_bytes: u64,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Every surviving record, in index order.
    pub records: Vec<WalRecord>,
    /// The crash artifact, if the newest segment ended mid-frame.
    pub torn_tail: Option<TornTail>,
    /// Number of segment files scanned.
    pub segments: usize,
}

/// Handle to an open WAL directory positioned at the tail.
pub struct Wal {
    dir: PathBuf,
    segment_bytes: u64,
    /// Live segments, oldest first: (sequence, base record index, path).
    segments: Vec<(u64, u64, PathBuf)>,
    file: File,
    /// Bytes durably written to the current segment file.
    seg_len: u64,
    /// Appended frames not yet handed to the OS.
    buf: Vec<u8>,
    next_index: u64,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:016x}.log"))
}

/// `fsync` on a directory handle, so renames/creates/unlinks of its
/// entries are durable. Ignored errors would defeat the whole
/// exercise, so failures surface.
pub fn fsync_dir(dir: &Path) -> Result<(), StoreError> {
    let handle = File::open(dir).map_err(|e| StoreError::io("open-dir", dir, e))?;
    handle
        .sync_all()
        .map_err(|e| StoreError::io("sync-dir", dir, e))
}

fn header_payload(seq: u64, base_index: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(SEGMENT_MAGIC).u64(seq).u64(base_index);
    w.finish()
}

fn parse_header(payload: &[u8]) -> Result<(u64, u64), StoreError> {
    let mut r = Reader::new(payload, "segment header");
    let magic = r.u32()?;
    if magic != SEGMENT_MAGIC {
        return Err(r.invalid(format!("segment magic {magic:#010x}")));
    }
    let seq = r.u64()?;
    let base = r.u64()?;
    r.done()?;
    Ok((seq, base))
}

impl Wal {
    /// Opens (or creates) the WAL in `dir`, replaying every surviving
    /// record. See the module docs for the tolerance policy.
    pub fn open(dir: &Path, segment_bytes: u64) -> Result<(Wal, WalRecovery), StoreError> {
        fs::create_dir_all(dir).map_err(|e| StoreError::io("create-dir", dir, e))?;
        let mut seqs: Vec<u64> = Vec::new();
        let entries = fs::read_dir(dir).map_err(|e| StoreError::io("read-dir", dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io("read-dir", dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(hex) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".log"))
            {
                if let Ok(seq) = u64::from_str_radix(hex, 16) {
                    seqs.push(seq);
                }
            }
        }
        seqs.sort_unstable();
        for pair in seqs.windows(2) {
            if pair[1] != pair[0] + 1 {
                return Err(StoreError::SegmentGap {
                    after: pair[0],
                    found: pair[1],
                });
            }
        }

        let mut recovery = WalRecovery {
            segments: seqs.len(),
            ..WalRecovery::default()
        };
        let mut segments = Vec::new();
        let mut next_index = 0u64;
        let mut tail_len = 0u64;
        for (i, &seq) in seqs.iter().enumerate() {
            let last = i + 1 == seqs.len();
            let path = segment_path(dir, seq);
            let bytes = fs::read(&path).map_err(|e| StoreError::io("read", &path, e))?;
            let mut off = 0usize;
            let mut header: Option<(u64, u64)> = None;
            loop {
                match decode_frame(&bytes[off..]) {
                    Ok(None) => break,
                    Ok(Some(f)) => {
                        if off == 0 {
                            if f.kind != KIND_SEGMENT_HEADER {
                                return Err(StoreError::corrupt(&path, 0, CorruptKind::BadMagic));
                            }
                            let (hseq, base) = parse_header(f.payload)?;
                            if i == 0 {
                                // Older segments may have been pruned
                                // under a snapshot floor; the first
                                // survivor names where the log resumes.
                                next_index = base;
                            }
                            if hseq != seq || base != next_index {
                                return Err(StoreError::BadRecord {
                                    what: "segment header",
                                    detail: format!(
                                        "{}: header claims seq {hseq}/base {base}, expected seq {seq}/base {next_index}",
                                        path.display()
                                    ),
                                });
                            }
                            header = Some((hseq, base));
                        } else {
                            if f.kind == KIND_SEGMENT_HEADER {
                                return Err(StoreError::corrupt(
                                    &path,
                                    off as u64,
                                    CorruptKind::BadMagic,
                                ));
                            }
                            recovery.records.push(WalRecord {
                                index: next_index,
                                kind: f.kind,
                                payload: f.payload.to_vec(),
                            });
                            next_index += 1;
                        }
                        off += f.consumed;
                    }
                    Err(CorruptKind::Truncated { .. }) if last => {
                        // The crash artifact: a prefix of the final
                        // append. Truncate it away so new appends
                        // start on a frame boundary.
                        let lost = (bytes.len() - off) as u64;
                        let trunc = OpenOptions::new()
                            .write(true)
                            .open(&path)
                            .map_err(|e| StoreError::io("open", &path, e))?;
                        trunc
                            .set_len(off as u64)
                            .map_err(|e| StoreError::io("truncate", &path, e))?;
                        trunc
                            .sync_data()
                            .map_err(|e| StoreError::io("sync", &path, e))?;
                        recovery.torn_tail = Some(TornTail {
                            path: path.clone(),
                            offset: off as u64,
                            lost_bytes: lost,
                        });
                        break;
                    }
                    Err(kind) => {
                        return Err(StoreError::corrupt(&path, off as u64, kind));
                    }
                }
            }
            let clean_len = match &recovery.torn_tail {
                Some(t) if t.path == path => t.offset,
                _ => bytes.len() as u64,
            };
            // An empty file cannot even hold its header — possible if
            // the crash hit between create and the first sync.
            // Tolerate it only as the very last segment.
            if header.is_none() && !(last && clean_len == 0) {
                return Err(StoreError::corrupt(&path, 0, CorruptKind::BadMagic));
            }
            if last {
                tail_len = clean_len;
            }
            segments.push((seq, header.map_or(next_index, |(_, b)| b), path));
        }

        let mut wal = if let Some(&(_seq, _base, ref path)) = segments.last() {
            let file = OpenOptions::new()
                .append(true)
                .open(path)
                .map_err(|e| StoreError::io("open", path, e))?;
            Wal {
                dir: dir.to_path_buf(),
                segment_bytes,
                segments,
                file,
                seg_len: tail_len,
                buf: Vec::new(),
                next_index,
            }
        } else {
            // Fresh directory: start segment 0.
            let path = segment_path(dir, 0);
            let file = File::create(&path).map_err(|e| StoreError::io("create", &path, e))?;
            fsync_dir(dir)?;
            let mut wal = Wal {
                dir: dir.to_path_buf(),
                segment_bytes,
                segments: vec![(0, 0, path)],
                file,
                seg_len: 0,
                buf: Vec::new(),
                next_index: 0,
            };
            wal.buffer_header(0, 0);
            wal
        };
        // A recovered tail segment that lost even its header (created
        // but never synced) needs the header re-buffered.
        if wal.seg_len == 0 && wal.buf.is_empty() {
            let (seq, base, _) = *wal.segments.last().expect("segment list non-empty");
            wal.buffer_header(seq, base);
        }
        Ok((wal, recovery))
    }

    fn buffer_header(&mut self, seq: u64, base_index: u64) {
        let payload = header_payload(seq, base_index);
        encode_frame_into(&mut self.buf, KIND_SEGMENT_HEADER, &payload)
            .expect("a segment header is 20 bytes");
    }

    /// Index the next appended record will get.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Bytes appended but not yet durable (lost if the process dies
    /// before the next [`Wal::sync`]).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Number of live segment files.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Buffers one record; returns its global index. Not durable until
    /// the next [`Wal::sync`]. Rotates to a fresh segment first when
    /// the current one is at capacity, so one record never spans
    /// segments. A rotation is a `sync`, a `create` and a directory
    /// fsync on the caller's thread; in the runtime's steady state the
    /// bulk of the journal is close records of ≈ 20 KB at 10⁴ buckets,
    /// so the [`DEFAULT_SEGMENT_BYTES`] segment rotates about once in
    /// 50 closes. A payload over the frame cap is refused with
    /// [`StoreError::FrameTooLarge`] and takes no index.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<u64, StoreError> {
        assert!(kind != KIND_SEGMENT_HEADER, "record kind 0 is reserved");
        if self.seg_len + self.buf.len() as u64 >= self.segment_bytes {
            self.rotate()?;
        }
        let index = self.next_index;
        encode_frame_into(&mut self.buf, kind, payload)?;
        self.next_index += 1;
        Ok(index)
    }

    fn rotate(&mut self) -> Result<(), StoreError> {
        self.sync()?;
        let next_seq = self.segments.last().map_or(0, |&(s, _, _)| s + 1);
        let path = segment_path(&self.dir, next_seq);
        let file = File::create(&path).map_err(|e| StoreError::io("create", &path, e))?;
        fsync_dir(&self.dir)?;
        self.file = file;
        self.seg_len = 0;
        self.segments.push((next_seq, self.next_index, path));
        self.buffer_header(next_seq, self.next_index);
        Ok(())
    }

    /// Writes buffered records and `fdatasync`s the segment. After
    /// this returns, every appended record survives SIGKILL.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let path = &self.segments.last().expect("segment list non-empty").2;
        self.file
            .write_all(&self.buf)
            .map_err(|e| StoreError::io("append", path, e))?;
        self.file
            .sync_data()
            .map_err(|e| StoreError::io("sync", path, e))?;
        self.seg_len += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Deletes every segment whose records all fall below
    /// `floor_index` (exclusive), never the newest segment. Returns
    /// how many files were removed. Callers pass the record floor
    /// captured by the latest durable snapshot, keeping disk usage
    /// proportional to one snapshot interval.
    pub fn prune_below(&mut self, floor_index: u64) -> Result<usize, StoreError> {
        let mut removed = 0usize;
        // A segment's records end where the next segment begins; the
        // newest segment always stays (it is the live tail).
        while self.segments.len() > 1 {
            let next_base = self.segments[1].1;
            if next_base > floor_index {
                break;
            }
            let (_, _, path) = self.segments.remove(0);
            fs::remove_file(&path).map_err(|e| StoreError::io("remove", &path, e))?;
            removed += 1;
        }
        if removed > 0 {
            fsync_dir(&self.dir)?;
        }
        Ok(removed)
    }

    /// Abandons buffered (unsynced) appends and closes the handle —
    /// what SIGKILL does to user-space buffers. Test harness hook: the
    /// on-disk state afterwards is exactly what a real kill would
    /// leave.
    pub fn simulate_crash(mut self) {
        self.buf.clear();
    }
}

/// Total size in bytes of every regular file under `dir` (non-
/// recursive). The disk-bound soak test measures this.
pub fn dir_bytes(dir: &Path) -> Result<u64, StoreError> {
    let mut total = 0u64;
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io("read-dir", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read-dir", dir, e))?;
        let meta = entry
            .metadata()
            .map_err(|e| StoreError::io("stat", &entry.path(), e))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;

    fn open(dir: &Path) -> (Wal, WalRecovery) {
        Wal::open(dir, DEFAULT_SEGMENT_BYTES).expect("open wal")
    }

    #[test]
    fn roundtrip_across_reopen() {
        let td = TestDir::new("wal-roundtrip");
        {
            let (mut wal, rec) = open(td.path());
            assert!(rec.records.is_empty());
            for i in 0..10u8 {
                wal.append(1, &[i, i, i]).unwrap();
            }
            wal.sync().unwrap();
        }
        let (wal, rec) = open(td.path());
        assert_eq!(rec.records.len(), 10);
        assert_eq!(rec.records[3].payload, vec![3, 3, 3]);
        assert_eq!(rec.records[3].index, 3);
        assert_eq!(wal.next_index(), 10);
        assert!(rec.torn_tail.is_none());
    }

    #[test]
    fn unsynced_appends_lost_on_crash() {
        let td = TestDir::new("wal-unsynced");
        {
            let (mut wal, _) = open(td.path());
            wal.append(1, b"durable").unwrap();
            wal.sync().unwrap();
            wal.append(1, b"lost").unwrap();
            wal.simulate_crash();
        }
        let (_, rec) = open(td.path());
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].payload, b"durable");
    }

    #[test]
    fn torn_tail_truncated_and_reported() {
        let td = TestDir::new("wal-torn");
        {
            let (mut wal, _) = open(td.path());
            wal.append(1, b"alpha").unwrap();
            wal.append(1, b"beta").unwrap();
            wal.sync().unwrap();
        }
        // Chop bytes off the tail: a prefix of the final append.
        let path = segment_path(td.path(), 0);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut wal, rec) = open(td.path());
        assert_eq!(rec.records.len(), 1, "beta was torn, alpha survives");
        let torn = rec.torn_tail.expect("tear reported");
        assert_eq!(
            torn.lost_bytes as usize,
            b"beta".len() + crate::frame::FRAME_OVERHEAD - 3
        );
        // The log keeps working after the repair.
        wal.append(1, b"gamma").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, rec) = open(td.path());
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[1].payload, b"gamma");
        assert_eq!(rec.records[1].index, 1, "indices stay dense after a tear");
    }

    #[test]
    fn midstream_corruption_is_fatal() {
        let td = TestDir::new("wal-midflip");
        {
            let (mut wal, _) = open(td.path());
            wal.append(1, b"first-record-payload").unwrap();
            wal.append(1, b"second-record-payload").unwrap();
            wal.sync().unwrap();
        }
        let path = segment_path(td.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit inside the *first* record's payload: not a tail
        // artifact, must be a hard typed error.
        let target = bytes.len() / 2 - 20;
        bytes[target] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        match Wal::open(td.path(), DEFAULT_SEGMENT_BYTES) {
            Err(e) => assert!(e.is_corruption(), "unexpected error {e}"),
            Ok(_) => panic!("mid-stream corruption accepted"),
        }
    }

    #[test]
    fn rotation_and_prune_bound_disk() {
        let td = TestDir::new("wal-prune");
        let (mut wal, _) = Wal::open(td.path(), 256).unwrap();
        let payload = [7u8; 64];
        let mut floors = Vec::new();
        for _ in 0..40 {
            floors.push(wal.append(2, &payload).unwrap());
        }
        wal.sync().unwrap();
        assert!(wal.segment_count() > 5, "expected many small segments");
        // Prune below a mid-log floor; replay must still produce every
        // record at or above it.
        let floor = floors[30];
        let removed = wal.prune_below(floor).unwrap();
        assert!(removed > 0);
        drop(wal);
        let (_, rec) = Wal::open(td.path(), 256).unwrap();
        assert!(rec.records.iter().all(|r| r.payload == payload));
        let first = rec.records.first().expect("records survive").index;
        assert!(
            first <= floor,
            "prune may keep extra records, never drop covered ones"
        );
        assert!(rec.records.last().unwrap().index == 39);
        // Pruning everything below the tail leaves O(1) segments.
        let (mut wal, _) = Wal::open(td.path(), 256).unwrap();
        wal.prune_below(40).unwrap();
        assert!(wal.segment_count() <= 2);
    }

    /// A directory the previous format version wrote — every frame
    /// intact, checksum and all — is refused at its first frame.
    #[test]
    fn previous_version_directory_is_refused_at_its_first_frame() {
        use crate::frame::STORE_VERSION;
        let td = TestDir::new("wal-oldversion");
        let mut body = vec![STORE_VERSION - 1, KIND_SEGMENT_HEADER];
        body.extend_from_slice(&header_payload(0, 0));
        let crc = crate::crc::crc32(&body);
        let mut bytes = (body.len() as u32 + 4).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&crc.to_le_bytes());
        fs::write(segment_path(td.path(), 0), &bytes).unwrap();
        match Wal::open(td.path(), DEFAULT_SEGMENT_BYTES) {
            Err(StoreError::Corrupt {
                offset: 0,
                kind: CorruptKind::BadVersion(v),
                ..
            }) => assert_eq!(v, STORE_VERSION - 1),
            Err(other) => panic!("expected BadVersion, got {other:?}"),
            Ok(_) => panic!("a foreign-version journal was accepted"),
        }
    }

    #[test]
    fn segment_gap_detected() {
        let td = TestDir::new("wal-gap");
        let (mut wal, _) = Wal::open(td.path(), 128).unwrap();
        for _ in 0..20 {
            wal.append(2, &[1u8; 64]).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segment_count() >= 3);
        drop(wal);
        // Delete a middle segment by hand.
        fs::remove_file(segment_path(td.path(), 1)).unwrap();
        match Wal::open(td.path(), 128) {
            Err(StoreError::SegmentGap { after: 0, found: 2 }) => {}
            Err(other) => panic!("expected SegmentGap, got {other:?}"),
            Ok(_) => panic!("segment gap accepted"),
        }
    }
}
