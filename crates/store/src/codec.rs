//! Little-endian payload primitives for record bodies.
//!
//! Frame payloads (journal records, snapshot sections) are hand-rolled
//! binary — the in-tree serde shim has no typed deserializer, and the
//! hot journal path should not pay for JSON anyway. These helpers keep
//! the encoders/decoders symmetric and make every decoder total: a
//! short or malformed payload yields [`StoreError::BadRecord`], never
//! a panic.
//!
//! Floats are stored as raw IEEE-754 bit patterns so a value survives
//! the round trip bit-for-bit, which matters because recovery must
//! reproduce ledger spends and estimator state *exactly* — and why the
//! runtime's control plane (`privapprox-core`'s control module)
//! encodes its socket messages with these same primitives.

use crate::error::StoreError;

/// Bytes per count in a [`Writer::counts`] block whose largest count
/// is `max`.
fn count_width(max: u64) -> usize {
    if max <= u16::MAX as u64 {
        2
    } else if max <= u32::MAX as u64 {
        4
    } else {
        8
    }
}

/// Append-only payload builder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty payload.
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    /// Finishes and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u128`.
    pub fn u128(&mut self, v: u128) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `f64` as its raw bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Appends a block of non-negative integer counts at the narrowest
    /// of 2, 4 or 8 bytes each that holds the largest of them:
    ///
    /// ```text
    /// [u8 width ∈ {2, 4, 8}][u64 byte_len = n × width][n counts, width bytes each]
    /// ```
    ///
    /// A window's per-bucket yes-counts are bounded by its sample
    /// size, so a 10⁴-bucket window over 1000 clients is 20 KB here
    /// against 80 KB as `u64`s. `counts` is walked twice (once for
    /// the maximum), hence `Clone`.
    pub fn counts<I>(&mut self, counts: I) -> &mut Self
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone + ExactSizeIterator,
    {
        let counts = counts.into_iter();
        let width = count_width(counts.clone().max().unwrap_or(0));
        self.u8(width as u8).u64((counts.len() * width) as u64);
        self.buf.reserve(counts.len() * width);
        match width {
            2 => counts.for_each(|c| self.buf.extend_from_slice(&(c as u16).to_le_bytes())),
            4 => counts.for_each(|c| self.buf.extend_from_slice(&(c as u32).to_le_bytes())),
            _ => counts.for_each(|c| self.buf.extend_from_slice(&c.to_le_bytes())),
        }
        self
    }
}

/// Cursor over a payload with typed, non-panicking reads.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Wraps `buf`; `what` names the record type in error messages.
    pub fn new(buf: &'a [u8], what: &'static str) -> Reader<'a> {
        Reader { buf, pos: 0, what }
    }

    fn short(&self, need: usize) -> StoreError {
        StoreError::BadRecord {
            what: self.what,
            detail: format!(
                "payload too short: need {need} more bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            ),
        }
    }

    /// Structural-validation error at the current position.
    pub fn invalid(&self, detail: impl Into<String>) -> StoreError {
        StoreError::BadRecord {
            what: self.what,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.buf.len() - self.pos < n {
            return Err(self.short(n));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a `u128`.
    pub fn u128(&mut self) -> Result<u128, StoreError> {
        let b = self.take(16)?;
        Ok(u128::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads an `f64` stored as raw bits.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.u64()?;
        if len > self.buf.len() as u64 {
            return Err(self.invalid(format!("byte string length {len} exceeds payload")));
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, StoreError> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw).map_err(|e| StoreError::BadRecord {
            what: self.what,
            detail: format!("invalid utf-8: {e}"),
        })
    }

    /// Reads a block written by [`Writer::counts`] into `out`
    /// (cleared first, so a caller decoding many blocks reuses one
    /// buffer). Refuses a width other than 2, 4 or 8, a byte length
    /// the payload cannot hold or that is not a whole number of
    /// counts, and an empty block — all before `out` grows, so what
    /// is allocated is bounded by the bytes actually present (eight
    /// bytes of `out` per `width` bytes of block) — and a block wider
    /// than its largest count needs: one list of counts has one
    /// encoding.
    pub fn counts(&mut self, out: &mut Vec<u64>) -> Result<(), StoreError> {
        let width = self.u8()? as usize;
        if !matches!(width, 2 | 4 | 8) {
            return Err(self.invalid(format!("count width {width} is not 2, 4 or 8")));
        }
        let block = self.bytes()?;
        if block.is_empty() || block.len() % width != 0 {
            return Err(self.invalid(format!(
                "count block of {} bytes is not one or more {width}-byte counts",
                block.len()
            )));
        }
        out.clear();
        out.reserve(block.len() / width);
        let chunks = block.chunks_exact(width);
        match width {
            2 => out.extend(chunks.map(|c| u16::from_le_bytes([c[0], c[1]]) as u64)),
            4 => out.extend(chunks.map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as u64)),
            _ => {
                out.extend(chunks.map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
            }
        }
        let max = out.iter().copied().max().unwrap_or(0);
        if count_width(max) != width {
            return Err(self.invalid(format!(
                "count block is {width} bytes wide but its largest count is {max}"
            )));
        }
        Ok(())
    }

    /// Reads a `u64` count for a repeated section, bounding it by the
    /// remaining payload so a corrupt count cannot drive a huge loop.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, StoreError> {
        let n = self.u64()?;
        let cap = self.buf.len() - self.pos;
        let bound = if min_item_bytes == 0 {
            cap
        } else {
            cap / min_item_bytes
        };
        if n as usize > bound {
            return Err(self.invalid(format!("count {n} impossible for {cap} remaining bytes")));
        }
        Ok(n as usize)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Requires the payload to be fully consumed (catches writer/
    /// reader drift that would otherwise pass silently).
    pub fn done(&self) -> Result<(), StoreError> {
        if self.pos != self.buf.len() {
            return Err(StoreError::BadRecord {
                what: self.what,
                detail: format!("{} trailing bytes after record", self.buf.len() - self.pos),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::new();
        w.u8(7).u32(0xDEAD_BEEF).u64(u64::MAX).u128(1 << 100);
        w.f64(-0.0).f64(f64::NAN).str("naïve").bytes(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = Reader::new(&buf, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u128().unwrap(), 1 << 100);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "naïve");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.done().unwrap();
    }

    #[test]
    fn short_reads_are_typed_errors() {
        let buf = [1u8, 2, 3];
        let mut r = Reader::new(&buf, "test");
        assert!(matches!(r.u64(), Err(StoreError::BadRecord { .. })));
        let mut r2 = Reader::new(&buf, "test");
        r2.u8().unwrap();
        assert!(r2.done().is_err());
    }

    /// The block a list of counts encodes to, and what it decodes to.
    fn recode_counts(counts: &[u64]) -> (Vec<u8>, Result<Vec<u64>, StoreError>) {
        let mut w = Writer::new();
        w.counts(counts.iter().copied());
        let buf = w.finish();
        let mut out = vec![99; 3];
        let mut r = Reader::new(&buf, "test");
        let decoded = r.counts(&mut out).and_then(|()| r.done()).map(|()| out);
        (buf, decoded)
    }

    #[test]
    fn counts_take_the_narrowest_width_that_holds_the_largest() {
        let (u16m, u32m) = (u16::MAX as u64, u32::MAX as u64);
        for (largest, width) in [
            (0, 2),
            (u16m, 2),
            (u16m + 1, 4),
            (u32m, 4),
            (u32m + 1, 8),
            (u64::MAX, 8),
        ] {
            let counts = [3, largest, 0, 7];
            let (buf, decoded) = recode_counts(&counts);
            assert_eq!(buf[0] as usize, width, "largest count {largest}");
            assert_eq!(buf.len(), 9 + counts.len() * width);
            assert_eq!(decoded.unwrap(), counts);
        }
    }

    #[test]
    fn hostile_count_blocks_are_refused() {
        let (good, decoded) = recode_counts(&[1, 2, 70_000]);
        assert_eq!(good[0], 4);
        decoded.unwrap();
        let refused = |bytes: &[u8]| {
            let mut out = Vec::new();
            let mut r = Reader::new(bytes, "test");
            let res = r.counts(&mut out).and_then(|()| r.done());
            assert!(
                matches!(res, Err(StoreError::BadRecord { .. })),
                "{bytes:?}"
            );
            assert!(out.capacity() <= bytes.len(), "allocated past the payload");
        };
        // Unknown width bytes.
        for width in [0u8, 1, 3, 5, 16, 0xFF] {
            let mut bad = good.clone();
            bad[0] = width;
            refused(&bad);
        }
        // A byte length that is not a whole number of counts.
        let mut bad = good.clone();
        bad[1..9].copy_from_slice(&11u64.to_le_bytes());
        refused(&bad[..9 + 11]);
        // A block longer than the payload, up to the absurd.
        for len in [13u64, 1 << 40, u64::MAX] {
            let mut bad = good.clone();
            bad[1..9].copy_from_slice(&len.to_le_bytes());
            refused(&bad);
        }
        // No counts at all.
        let mut w = Writer::new();
        w.counts(std::iter::empty());
        refused(&w.finish());
        // Wider than the largest count needs: not what `counts` writes.
        let mut w = Writer::new();
        w.u8(4).u64(8).u32(1).u32(2);
        refused(&w.finish());
        // Every cut.
        for cut in 0..good.len() {
            refused(&good[..cut]);
        }
    }

    #[test]
    fn hostile_count_bounded() {
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let buf = w.finish();
        let mut r = Reader::new(&buf, "test");
        assert!(r.count(8).is_err());
    }
}
