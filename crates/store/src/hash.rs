//! The one home of every hand-rolled hash in the system.
//!
//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) checksums the
//! snapshot-container sections and journal records; FNV-1a 64 fingerprints
//! source CSVs. Both used to be
//! duplicated per call site — this module deduplicates them behind
//! incremental hashers ([`Crc32`], [`Fnv64`]) plus one-shot helpers, and the
//! tests cross-check the table-driven CRC against a bit-at-a-time reference
//! implementation so a corrupted table can never silently ship.

use std::sync::OnceLock;

/// The reflected CRC-32 (IEEE) polynomial.
pub const CRC32_POLY: u32 = 0xEDB8_8320;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    CRC32_POLY ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        t
    })
}

/// An incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh hasher (initial state `0xFFFFFFFF`).
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = table();
        for &b in bytes {
            self.state = t[((self.state ^ b as u32) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    /// The final checksum (state xor-out `0xFFFFFFFF`).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// An incremental FNV-1a 64 hasher (the streaming form behind the source-
/// file fingerprint, so a multi-gigabyte CSV never has to sit in memory).
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher (offset-basis state).
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC-32 with no table — the reference the table-driven
    /// implementation is checked against.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut state: u32 = !0;
        for &b in bytes {
            state ^= b as u32;
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    CRC32_POLY ^ (state >> 1)
                } else {
                    state >> 1
                };
            }
        }
        !state
    }

    #[test]
    fn table_matches_bitwise_reference() {
        let samples: [&[u8]; 5] = [
            b"",
            b"123456789",
            b"the quick brown fox jumps over the lazy dog",
            &[0u8; 64],
            &[0xFFu8; 33],
        ];
        for s in samples {
            assert_eq!(crc32(s), crc32_reference(s));
        }
        let mut counting = [0u8; 257];
        for (i, b) in counting.iter_mut().enumerate() {
            *b = i as u8;
        }
        assert_eq!(crc32(&counting), crc32_reference(&counting));
    }

    #[test]
    fn crc_matches_the_standard_check_value() {
        // The canonical CRC-32/ISO-HDLC check: CRC("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc_incremental_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Crc32::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn crc_empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_detects_single_bit_flips() {
        let mut data = vec![0u8; 64];
        let clean = crc32(&data);
        for bit in 0..(64 * 8) {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), clean, "flip of bit {bit} undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Official FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_incremental_equals_one_shot() {
        let data = b"layer.csv: 12,34,5.0,1.5";
        let mut h = Fnv64::new();
        for chunk in data.chunks(5) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), fnv1a64(data));
    }
}
