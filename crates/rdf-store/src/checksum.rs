//! CRC-32 (IEEE 802.3 polynomial), table-driven, eight bytes at a time.
//!
//! Every section payload of a `.rdfb` container is checksummed so that
//! bit rot or a partial write is detected at load time instead of
//! surfacing as a silently wrong graph. CRC-32 is implemented locally
//! because the offline dependency set carries no `crc` crate.
//!
//! The loop is slicing-by-8: eight lookup tables fold eight input bytes
//! into the running CRC per step, instead of one byte per step with the
//! classic single table. The result is the same CRC.

/// Reflected polynomial of CRC-32/ISO-HDLC (zlib, PNG, Ethernet).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time. `TABLES[0]` is the
/// classic bytewise table; `TABLES[k][i]` is the CRC contribution of
/// byte `i` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// One bytewise step of the CRC.
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize]
}

/// CRC-32 of `data` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = u32::MAX;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    chunks.remainder().iter().fold(crc, |crc, &b| step(crc, b)) ^ u32::MAX
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-at-a-time reference loop.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        data.iter().fold(u32::MAX, |crc, &b| step(crc, b)) ^ u32::MAX
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let data = b"the quick brown fox".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }

    proptest! {
        /// Slicing-by-8 agrees with the bytewise loop on any bytes, any
        /// length and any start offset (so any alignment of the 8-byte
        /// chunks).
        #[test]
        fn sliced_matches_bytewise(
            words in proptest::collection::vec(0u16..256, 0..300),
            skip in 0usize..8,
        ) {
            let data: Vec<u8> = words.iter().map(|&w| w as u8).collect();
            let sub = &data[skip.min(data.len())..];
            prop_assert_eq!(crc32(sub), crc32_bytewise(sub));
        }
    }
}
