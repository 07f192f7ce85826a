//! Property suite for the WAL/snapshot codec: arbitrary record
//! sequences are encoded, then the on-disk bytes are truncated or
//! bit-flipped, and every corruption must surface as a typed
//! [`StoreError`] (or, for a pure tail truncation of the newest WAL
//! segment, as a *reported* torn tail with an exact record prefix) —
//! never a panic, and never a silently wrong or shortened read.

use std::fs;

use privapprox_store::frame::{decode_all, decode_frame, encode_frame_into, FRAME_OVERHEAD};
use privapprox_store::snapshot::{load_latest, write_snapshot};
use privapprox_store::test_dir::TestDir;
use privapprox_store::wal::Wal;
use privapprox_store::{CorruptKind, StoreError};

use proptest::collection::vec;
use proptest::{prop_assert, prop_assert_eq, proptest};

/// Arbitrary record: non-reserved kind byte plus a payload.
fn records_strategy() -> impl proptest::Strategy<Value = Vec<(u8, Vec<u8>)>> {
    vec((1u8..=255, vec(0u8..=255, 0..48)), 1..12)
}

proptest! {
    /// Frames written back-to-back decode to exactly what was encoded.
    #[test]
    fn frame_roundtrip(records in records_strategy()) {
        let mut buf = Vec::new();
        for (kind, payload) in &records {
            encode_frame_into(&mut buf, *kind, payload).unwrap();
        }
        let decoded = decode_all(&buf).expect("clean buffer decodes");
        prop_assert_eq!(decoded, records);
    }

    /// Truncating the buffer at *any* interior point yields a typed
    /// `Truncated` at the cut frame; every frame before the cut is
    /// returned intact by the incremental decoder.
    #[test]
    fn frame_truncation_detected(records in records_strategy(), cut_seed in proptest::any::<u64>()) {
        let mut buf = Vec::new();
        for (kind, payload) in &records {
            encode_frame_into(&mut buf, *kind, payload).unwrap();
        }
        let cut = 1 + (cut_seed as usize) % (buf.len() - 1);
        let short = &buf[..cut];
        let mut off = 0usize;
        let mut seen = 0usize;
        loop {
            match decode_frame(&short[off..]) {
                Ok(Some(f)) => {
                    prop_assert_eq!((f.kind, f.payload), (records[seen].0, &records[seen].1[..]));
                    seen += 1;
                    off += f.consumed;
                }
                Ok(None) => {
                    // The cut landed exactly on a frame boundary:
                    // a legal shorter log, all frames intact.
                    prop_assert_eq!(off, cut);
                    break;
                }
                Err(CorruptKind::Truncated { need, have }) => {
                    prop_assert!(have < need);
                    prop_assert_eq!(off + have, cut);
                    break;
                }
                Err(other) => {
                    // A truncation can never masquerade as another
                    // corruption kind: torn writes are prefixes.
                    return Err(proptest::TestCaseError::fail(format!(
                        "truncation at {cut} misreported as {other:?}"
                    )));
                }
            }
        }
        prop_assert!(seen <= records.len());
    }

    /// Flipping any single bit is caught: the decoder returns a typed
    /// error at or before the damaged frame and never hands back a
    /// frame whose bytes differ from what was written.
    #[test]
    fn frame_bit_flip_detected(
        records in records_strategy(),
        flip_seed in proptest::any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        for (kind, payload) in &records {
            encode_frame_into(&mut buf, *kind, payload).unwrap();
        }
        let target = (flip_seed as usize) % buf.len();
        buf[target] ^= 1 << bit;
        let mut off = 0usize;
        let mut seen = 0usize;
        let mut failed = false;
        loop {
            match decode_frame(&buf[off..]) {
                Ok(Some(f)) => {
                    // Frames before the flip must still match; a frame
                    // *containing* the flip must never decode.
                    prop_assert_eq!(
                        (f.kind, f.payload),
                        (records[seen].0, &records[seen].1[..]),
                        "flipped frame decoded successfully"
                    );
                    seen += 1;
                    off += f.consumed;
                }
                Ok(None) => break,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        prop_assert!(failed, "bit flip at byte {} bit {} went undetected", target, bit);
        prop_assert!(seen < records.len());
    }

    /// End-to-end through the WAL: encode → sync → truncate the
    /// segment file at an arbitrary point → reopen. The replay is
    /// either the full log, or an exact prefix with the torn tail
    /// reported — never an error (prefixes are the crash model) and
    /// never a divergent record.
    #[test]
    fn wal_truncation_yields_reported_prefix(
        records in records_strategy(),
        cut_seed in proptest::any::<u64>(),
    ) {
        let td = TestDir::new("prop-wal-trunc");
        {
            let (mut wal, _) = Wal::open(td.path(), 1 << 20).unwrap();
            for (kind, payload) in &records {
                wal.append(*kind, payload).unwrap();
            }
            wal.sync().unwrap();
        }
        let seg = td.path().join("wal-0000000000000000.log");
        let bytes = fs::read(&seg).unwrap();
        let header_len = {
            let f = decode_frame(&bytes).unwrap().unwrap();
            f.consumed
        };
        // Cut somewhere after the header (a torn header is the
        // separate fresh-segment case, covered by unit tests).
        let cut = header_len + (cut_seed as usize) % (bytes.len() - header_len);
        fs::write(&seg, &bytes[..cut]).unwrap();
        let (_, rec) = Wal::open(td.path(), 1 << 20).unwrap();
        prop_assert!(rec.records.len() <= records.len());
        for (got, want) in rec.records.iter().zip(records.iter()) {
            prop_assert_eq!(got.kind, want.0);
            prop_assert_eq!(&got.payload, &want.1);
        }
        if rec.records.len() < records.len() {
            // A frame-aligned cut is a legal shorter log (no tear to
            // report); any interior cut must be called out.
            let aligned = decode_all(&bytes[..cut]).is_ok();
            prop_assert!(
                rec.torn_tail.is_some() || aligned,
                "partial replay without a reported tear"
            );
        }
    }

    /// End-to-end through the WAL: a single flipped bit in the synced
    /// segment either fails replay with a typed error, or (when the
    /// flip truncates the frame stream) reports a torn tail — and any
    /// records that do replay are an exact prefix.
    #[test]
    fn wal_bit_flip_never_silent(
        records in records_strategy(),
        flip_seed in proptest::any::<u64>(),
        bit in 0u8..8,
    ) {
        let td = TestDir::new("prop-wal-flip");
        {
            let (mut wal, _) = Wal::open(td.path(), 1 << 20).unwrap();
            for (kind, payload) in &records {
                wal.append(*kind, payload).unwrap();
            }
            wal.sync().unwrap();
        }
        let seg = td.path().join("wal-0000000000000000.log");
        let mut bytes = fs::read(&seg).unwrap();
        let target = (flip_seed as usize) % bytes.len();
        bytes[target] ^= 1 << bit;
        fs::write(&seg, &bytes).unwrap();
        match Wal::open(td.path(), 1 << 20) {
            Err(StoreError::Corrupt { .. }) | Err(StoreError::BadRecord { .. }) => {}
            Err(other) => {
                return Err(proptest::TestCaseError::fail(format!(
                    "unexpected error class: {other}"
                )));
            }
            Ok((_, rec)) => {
                // Only reachable when the flip manufactured a
                // Truncated tail (e.g. a length word now pointing past
                // EOF). The tear must be reported and the replayed
                // records an exact, shortened prefix.
                prop_assert!(rec.torn_tail.is_some(), "flip absorbed with no report");
                prop_assert!(rec.records.len() < records.len());
                for (got, want) in rec.records.iter().zip(records.iter()) {
                    prop_assert_eq!(got.kind, want.0);
                    prop_assert_eq!(&got.payload, &want.1);
                }
            }
        }
    }

    /// Snapshots have no tolerance at all: any bit flip or truncation
    /// of the `.snap` file is a typed error (rename is atomic, so a
    /// damaged snapshot cannot be a crash artifact), and an untouched
    /// snapshot round-trips exactly.
    #[test]
    fn snapshot_roundtrip_and_corruption(
        sections in records_strategy(),
        damage_seed in proptest::any::<u64>(),
        bit in 0u8..8,
        truncate in proptest::any::<bool>(),
    ) {
        let td = TestDir::new("prop-snap");
        write_snapshot(td.path(), 7, 123, &sections).unwrap();
        let loaded = load_latest(td.path()).unwrap().expect("snapshot present");
        prop_assert_eq!(loaded.seq, 7);
        prop_assert_eq!(loaded.wal_floor, 123);
        prop_assert_eq!(&loaded.sections, &sections);

        let path = td.path().join("snap-0000000000000007.snap");
        let bytes = fs::read(&path).unwrap();
        if truncate {
            let cut = 1 + (damage_seed as usize) % (bytes.len() - 1);
            // A cut exactly on a frame boundary removes whole trailing
            // sections — decode_all accepts that as a shorter file, so
            // force an interior cut.
            let cut = if decode_all(&bytes[..cut]).is_ok() { cut.saturating_sub(FRAME_OVERHEAD).max(1) } else { cut };
            if decode_all(&bytes[..cut]).is_ok() {
                // Degenerate tiny files: skip, nothing to assert.
                return Ok(());
            }
            fs::write(&path, &bytes[..cut]).unwrap();
        } else {
            let mut flipped = bytes.clone();
            let target = (damage_seed as usize) % flipped.len();
            flipped[target] ^= 1 << bit;
            fs::write(&path, &flipped).unwrap();
        }
        match load_latest(td.path()) {
            Err(StoreError::Corrupt { .. }) | Err(StoreError::BadRecord { .. }) => {}
            Err(other) => {
                return Err(proptest::TestCaseError::fail(format!(
                    "unexpected error class: {other}"
                )));
            }
            Ok(_) => {
                return Err(proptest::TestCaseError::fail(
                    "damaged snapshot loaded successfully",
                ));
            }
        }
    }
}
