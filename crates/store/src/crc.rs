//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven.
//!
//! The same polynomial gzip/zlib use; one 256-entry table built at
//! first use. Good enough to catch every single-bit flip and any burst
//! shorter than 32 bits, which is the failure model the WAL defends
//! against (torn writes, bit rot) — this is an integrity check, not a
//! cryptographic MAC.

use std::sync::OnceLock;

fn table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    })
}

/// Incremental CRC-32 state for checksumming a frame in pieces.
#[derive(Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state (equivalent to `crc32(&[])` so far).
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = table();
        let mut c = self.state;
        for &b in bytes {
            c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32(data));
        }
    }

    #[test]
    fn single_bit_flips_detected() {
        let data = b"privapprox durable store";
        let base = crc32(data);
        let mut copy = data.to_vec();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at {byte}:{bit} undetected");
                copy[byte] ^= 1 << bit;
            }
        }
    }
}
