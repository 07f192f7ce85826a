//! Atomic snapshot files.
//!
//! A snapshot is a single file `snap-<seq:016x>.snap` holding a header
//! frame plus one frame per section (ledgers, offsets, warehouses, …
//! — section kinds are the caller's schema). Writes go to a `.tmp`
//! sibling, are `fsync`ed, then renamed into place followed by a
//! directory fsync: a reader either sees the complete snapshot or none
//! of it, never a partial file. Because rename is atomic, a `.snap`
//! that fails validation is *real* corruption (bit rot, manual
//! tampering) and surfaces as a typed [`StoreError`] — there is no
//! torn-tail tolerance here, unlike the WAL.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::codec::{Reader, Writer};
use crate::error::StoreError;
use crate::frame::{decode_all, encode_frame_into};
use crate::wal::fsync_dir;

/// Magic stamped into every snapshot header payload.
const SNAPSHOT_MAGIC: u32 = 0x4E53_4150; // "PASN" little-endian

/// Frame kind reserved for the snapshot header; sections use kinds
/// above this.
pub const KIND_SNAPSHOT_HEADER: u8 = 0;

/// A loaded snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// Snapshot sequence number (the writer's epoch-close counter).
    pub seq: u64,
    /// Journal record floor: every WAL record with index below this is
    /// captured by the snapshot, so segments wholly below it can be
    /// pruned.
    pub wal_floor: u64,
    /// Section frames in the order they were written.
    pub sections: Vec<(u8, Vec<u8>)>,
}

fn snap_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:016x}.snap"))
}

/// Writes a snapshot atomically; returns its encoded size in bytes.
pub fn write_snapshot(
    dir: &Path,
    seq: u64,
    wal_floor: u64,
    sections: &[(u8, Vec<u8>)],
) -> Result<u64, StoreError> {
    let mut buf = Vec::new();
    let mut header = Writer::new();
    header.u32(SNAPSHOT_MAGIC).u64(seq).u64(wal_floor);
    encode_frame_into(&mut buf, KIND_SNAPSHOT_HEADER, &header.finish())?;
    for (kind, payload) in sections {
        assert!(*kind != KIND_SNAPSHOT_HEADER, "section kind 0 is reserved");
        encode_frame_into(&mut buf, *kind, payload)?;
    }
    let tmp = dir.join(format!("snap-{seq:016x}.tmp"));
    let path = snap_path(dir, seq);
    {
        let mut f = File::create(&tmp).map_err(|e| StoreError::io("create", &tmp, e))?;
        f.write_all(&buf)
            .map_err(|e| StoreError::io("write", &tmp, e))?;
        f.sync_data().map_err(|e| StoreError::io("sync", &tmp, e))?;
    }
    fs::rename(&tmp, &path).map_err(|e| StoreError::io("rename", &path, e))?;
    fsync_dir(dir)?;
    Ok(buf.len() as u64)
}

fn list_snapshots(dir: &Path) -> Result<Vec<u64>, StoreError> {
    let mut seqs = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(seqs),
        Err(e) => return Err(StoreError::io("read-dir", dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read-dir", dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(hex) = name
            .strip_prefix("snap-")
            .and_then(|s| s.strip_suffix(".snap"))
        {
            if let Ok(seq) = u64::from_str_radix(hex, 16) {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

/// Loads the snapshot with the highest sequence number, or `None` for
/// a fresh directory. A snapshot that fails framing, checksum, or
/// header validation is a hard error — atomic rename means it cannot
/// be a crash artifact.
pub fn load_latest(dir: &Path) -> Result<Option<Snapshot>, StoreError> {
    let seqs = list_snapshots(dir)?;
    let Some(&seq) = seqs.last() else {
        return Ok(None);
    };
    let path = snap_path(dir, seq);
    let bytes = fs::read(&path).map_err(|e| StoreError::io("read", &path, e))?;
    let mut frames =
        decode_all(&bytes).map_err(|(offset, kind)| StoreError::corrupt(&path, offset, kind))?;
    if frames.is_empty() || frames[0].0 != KIND_SNAPSHOT_HEADER {
        return Err(StoreError::BadRecord {
            what: "snapshot header",
            detail: format!("{}: missing header frame", path.display()),
        });
    }
    let header = frames.remove(0).1;
    let mut r = Reader::new(&header, "snapshot header");
    let magic = r.u32()?;
    if magic != SNAPSHOT_MAGIC {
        return Err(r.invalid(format!("snapshot magic {magic:#010x}")));
    }
    let hseq = r.u64()?;
    let wal_floor = r.u64()?;
    r.done()?;
    if hseq != seq {
        return Err(StoreError::BadRecord {
            what: "snapshot header",
            detail: format!(
                "{}: header seq {hseq} != filename seq {seq}",
                path.display()
            ),
        });
    }
    Ok(Some(Snapshot {
        seq,
        wal_floor,
        sections: frames,
    }))
}

/// Number of `.snap` files currently on disk.
pub fn snapshot_count(dir: &Path) -> Result<u64, StoreError> {
    Ok(list_snapshots(dir)?.len() as u64)
}

/// Deletes all but the newest `keep` snapshots, plus any stale `.tmp`
/// leftovers from interrupted writes. Returns how many files went.
pub fn prune_snapshots(dir: &Path, keep: usize) -> Result<usize, StoreError> {
    let seqs = list_snapshots(dir)?;
    let mut removed = 0usize;
    if seqs.len() > keep {
        for &seq in &seqs[..seqs.len() - keep] {
            let path = snap_path(dir, seq);
            fs::remove_file(&path).map_err(|e| StoreError::io("remove", &path, e))?;
            removed += 1;
        }
    }
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io("read-dir", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read-dir", dir, e))?;
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            fs::remove_file(&path).map_err(|e| StoreError::io("remove", &path, e))?;
            removed += 1;
        }
    }
    if removed > 0 {
        fsync_dir(dir)?;
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;

    #[test]
    fn roundtrip_latest_wins() {
        let td = TestDir::new("snap-roundtrip");
        write_snapshot(td.path(), 1, 10, &[(2, b"ledgers".to_vec())]).unwrap();
        write_snapshot(td.path(), 2, 25, &[(2, b"ledgers2".to_vec()), (3, vec![])]).unwrap();
        let snap = load_latest(td.path()).unwrap().expect("snapshot present");
        assert_eq!(snap.seq, 2);
        assert_eq!(snap.wal_floor, 25);
        assert_eq!(
            snap.sections,
            vec![(2u8, b"ledgers2".to_vec()), (3u8, vec![])]
        );
        assert_eq!(snapshot_count(td.path()).unwrap(), 2);
    }

    #[test]
    fn empty_dir_is_none() {
        let td = TestDir::new("snap-empty");
        assert!(load_latest(td.path()).unwrap().is_none());
    }

    #[test]
    fn interrupted_write_invisible() {
        let td = TestDir::new("snap-tmp");
        write_snapshot(td.path(), 1, 0, &[(2, b"good".to_vec())]).unwrap();
        // A crash mid-write leaves only a .tmp; loading ignores it.
        fs::write(td.path().join("snap-0000000000000002.tmp"), b"garbage").unwrap();
        let snap = load_latest(td.path()).unwrap().unwrap();
        assert_eq!(snap.seq, 1);
        // Prune clears the leftover.
        let removed = prune_snapshots(td.path(), 5).unwrap();
        assert_eq!(removed, 1);
    }

    #[test]
    fn corrupt_snapshot_is_typed_error() {
        let td = TestDir::new("snap-corrupt");
        write_snapshot(td.path(), 3, 0, &[(2, b"payload-bytes-here".to_vec())]).unwrap();
        let path = td.path().join("snap-0000000000000003.snap");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 6;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        match load_latest(td.path()) {
            Err(e) => assert!(e.is_corruption(), "unexpected error {e}"),
            Ok(_) => panic!("corrupt snapshot accepted"),
        }
    }

    #[test]
    fn prune_keeps_newest() {
        let td = TestDir::new("snap-prune");
        for seq in 0..6 {
            write_snapshot(td.path(), seq, seq * 10, &[(2, vec![seq as u8])]).unwrap();
        }
        let removed = prune_snapshots(td.path(), 2).unwrap();
        assert_eq!(removed, 4);
        assert_eq!(snapshot_count(td.path()).unwrap(), 2);
        assert_eq!(load_latest(td.path()).unwrap().unwrap().seq, 5);
    }
}
