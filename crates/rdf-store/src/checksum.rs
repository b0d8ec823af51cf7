//! CRC-32 (IEEE 802.3 polynomial), table-driven, eight bytes at a time
//! on three independent streams.
//!
//! Every section payload of a `.rdfb` container is checksummed so that
//! bit rot or a partial write is detected at load time instead of
//! surfacing as a silently wrong graph. CRC-32 is implemented locally
//! because the offline dependency set carries no `crc` crate.
//!
//! The loop is slicing-by-8: eight lookup tables fold eight input bytes
//! into the running CRC per step, instead of one byte per step with the
//! classic single table. One such chain is bound by the latency of its
//! lookups, so a payload of `SPLIT_MIN` bytes or more is cut into
//! thirds whose CRCs run interleaved in one loop, and the three values
//! are joined with zlib's `crc32_combine` (the CRC of `a ‖ b` from the
//! CRCs of `a` and `b` and the length of `b`). The result is the same
//! CRC, about twice as fast on a 39 MB store.
//!
//! [`crc32_windows`] joins the CRCs of consecutive windows the same
//! way, so a caller can act on each window as soon as it is
//! checksummed (the store reader releases its pages) and still get the
//! CRC of the whole. The container writer folds the windows of a
//! section it encodes in the same way, so no section payload is ever
//! whole in memory.

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

/// Payloads at least this long are checksummed as three interleaved
/// streams; shorter ones in one.
const SPLIT_MIN: usize = 1024;

/// Fold one 8-byte word `c` into the CRC register `crc`, slicing-by-8.
#[inline(always)]
fn fold8(crc: u32, c: &[u8]) -> u32 {
    let t = &TABLES;
    let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
    t[7][(lo & 0xff) as usize]
        ^ t[6][((lo >> 8) & 0xff) as usize]
        ^ t[5][((lo >> 16) & 0xff) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xff) as usize]
        ^ t[2][((hi >> 8) & 0xff) as usize]
        ^ t[1][((hi >> 16) & 0xff) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// The CRC register after `data`, starting from register `crc` (no
/// final xor).
fn update(crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    let crc = (&mut chunks).fold(crc, fold8);
    chunks.remainder().iter().fold(crc, |crc, &b| step(crc, b))
}

/// CRC-32 of `data` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    if data.len() < SPLIT_MIN {
        return update(u32::MAX, data) ^ u32::MAX;
    }
    // Three equal runs of whole 8-byte words; the tail joins the last.
    let third = data.len() / 24 * 8;
    let (a, rest) = data.split_at(third);
    let (b, c) = rest.split_at(third);
    let (mut ca, mut cb, mut cc) = (u32::MAX, u32::MAX, u32::MAX);
    for ((wa, wb), wc) in a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .zip(c.chunks_exact(8))
    {
        ca = fold8(ca, wa);
        cb = fold8(cb, wb);
        cc = fold8(cc, wc);
    }
    let cc = update(cc, &c[third..]);
    let ab = crc32_combine(ca ^ u32::MAX, cb ^ u32::MAX, b.len() as u64);
    crc32_combine(ab, cc ^ u32::MAX, c.len() as u64)
}

/// [`crc32`] of `data`, computed `window` bytes at a time: `done` is
/// handed each window once its bytes are folded in, and the windows'
/// CRCs are joined with `crc32_combine`, so the value equals
/// `crc32(data)`.
pub fn crc32_windows(
    data: &[u8],
    window: usize,
    mut done: impl FnMut(&[u8]),
) -> u32 {
    let mut crc = 0;
    for chunk in data.chunks(window.max(1)) {
        crc = crc32_combine(crc, crc32(chunk), chunk.len() as u64);
        done(chunk);
    }
    crc
}

/// The CRC-32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and `b.len()`,
/// as zlib's `crc32_combine`: `crc32(a)` is shifted past `len_b` zero
/// bytes by a multiplication by `x^(8·len_b)` modulo the polynomial.
pub(crate) fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    multmodp(x8nmodp(len_b), crc_a) ^ crc_b
}

/// `a · b` modulo the CRC polynomial, both in the reflected bit order
/// (`1 << 31` is `x^0`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `X2N[k]` is `x^(2^k)` modulo the polynomial.
const X2N: [u32; 64] = {
    let mut t = [0u32; 64];
    t[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 64 {
        t[k] = multmodp(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// `x^(8·n)` modulo the polynomial: the shift past `n` zero bytes.
fn x8nmodp(mut n: u64) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut k = 3; // 8 = 2^3
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k], p);
        }
        n >>= 1;
        k += 1;
    }
    p
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

    /// The three-stream CRC equals the bytewise loop at every length
    /// from 0 to 4096 bytes, which crosses [`SPLIT_MIN`] and every
    /// remainder of the thirds, and combining is associative with the
    /// plain concatenation.
    #[test]
    fn three_streams_match_bytewise_at_every_length() {
        let data: Vec<u8> = (0u32..4096 + 64)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=4096 {
            let sub = &data[..len];
            assert_eq!(crc32(sub), crc32_bytewise(sub), "length {len}");
        }
        for len in SPLIT_MIN - 40..SPLIT_MIN + 40 {
            for skip in 0..8 {
                let sub = &data[skip..skip + len];
                assert_eq!(crc32(sub), crc32_bytewise(sub), "{skip}+{len}");
            }
        }
        let (a, b) = data.split_at(1000);
        assert_eq!(
            crc32_combine(crc32(a), crc32(b), b.len() as u64),
            crc32(&data)
        );
        assert_eq!(crc32_combine(crc32(a), crc32(b""), 0), crc32(a));
    }

    /// Windowed CRCs equal the whole one for windows that split the
    /// data anywhere, and every byte is handed to `done` once, in order.
    #[test]
    fn windows_join_to_the_whole_crc() {
        let data: Vec<u8> = (0u32..10_000)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect();
        for window in [1, 7, 8, 1000, 1024, 4096, 9999, 10_000, 20_000] {
            let mut seen: Vec<u8> = Vec::new();
            let crc = crc32_windows(&data, window, |w| seen.extend(w));
            assert_eq!(crc, crc32(&data), "window {window}");
            assert_eq!(seen, data, "window {window}");
        }
        assert_eq!(crc32_windows(b"", 8, |_| panic!("no window")), 0);
    }

    proptest! {
        /// Slicing-by-8 agrees with the bytewise loop on any bytes, any
        /// length and any start offset (so any alignment of the 8-byte
        /// chunks), on both sides of the three-stream threshold.
        #[test]
        fn sliced_matches_bytewise(
            words in proptest::collection::vec(0u16..256, 0..3 * SPLIT_MIN),
            skip in 0usize..8,
        ) {
            let data: Vec<u8> = words.iter().map(|&w| w as u8).collect();
            let sub = &data[skip.min(data.len())..];
            prop_assert_eq!(crc32(sub), crc32_bytewise(sub));
        }
    }
}
