//! A fast, non-cryptographic hasher in the style of `rustc-hash` (FxHash).
//!
//! The alignment algorithms intern colors and labels on every refinement
//! round, so hashing dominates several hot loops. SipHash (the standard
//! library default) is needlessly defensive for data we generate ourselves;
//! the multiply-xor scheme below is the one rustc itself uses and is
//! 2-5x faster on small integer keys. Implemented locally because the
//! offline dependency set does not include `rustc-hash` (README.md,
//! "Workspace layout", lists the vendored dependencies).

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the 64-bit FxHash scheme.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast multiply-xor hasher. Not HashDoS resistant; do not expose to
/// untrusted keys in adversarial settings.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Mix in the remainder length so "a" and "a\0" differ.
            self.add_to_hash(u64::from_le_bytes(buf) ^ (rem.len() as u64));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the fast hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hash a single `u64` to a `u64` (used to mix color signatures without
/// materialising a hasher at the call site).
#[inline]
pub fn mix64(i: u64) -> u64 {
    // splitmix64 finalizer: strong avalanche for sequential ids.
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of("hello"), hash_of("hello"));
    }

    #[test]
    fn distinguishes_close_values() {
        assert_ne!(hash_of(1u64), hash_of(2u64));
        assert_ne!(hash_of("a"), hash_of("b"));
        assert_ne!(hash_of(""), hash_of("\0"));
    }

    #[test]
    fn remainder_length_matters() {
        // Same byte content up to padding must not collide trivially.
        assert_ne!(hash_of(&b"ab"[..]), hash_of(&b"ab\0"[..]));
        assert_ne!(hash_of(&b"abcdefgh"[..]), hash_of(&b"abcdefg"[..]));
    }

    #[test]
    fn map_usable() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);
    }

    #[test]
    fn mix64_bijective_sample() {
        let mut seen = FxHashSet::default();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }
}
