//! Keyed fast hashing for the maps observers probe once per trace event.
//!
//! Under `std`'s `RandomState` (SipHash-1-3), hashing dominated the
//! observers that do one to three map probes per control event (the
//! marker runtime, the call-loop profiler). [`FoldHash`] hashes with a
//! keyed folded multiply (the 64×64→128-bit product, high half xor low
//! half) instead. It stays keyed: each map draws its own seeds from
//! `RandomState`, so ids chosen by a remote client (the `spm serve`
//! call-loop graph) cannot be crafted to land in one bucket, as they
//! can under an unkeyed multiplicative hash, where `i << 20` keys all
//! share their low bits.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` hashed with [`FoldHash`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, FoldHash>;

/// Builds [`FoldHasher`]s keyed by random seeds drawn once per map.
#[derive(Debug, Clone, Copy)]
pub struct FoldHash {
    seed: u64,
    fold_seed: u64,
}

impl Default for FoldHash {
    fn default() -> Self {
        let keys = RandomState::new();
        Self {
            seed: keys.hash_one(0_u64),
            fold_seed: keys.hash_one(1_u64),
        }
    }
}

impl BuildHasher for FoldHash {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            fold_seed: self.fold_seed,
            acc: self.seed,
            sponge: 0,
            bits: 0,
        }
    }
}

/// Hasher of [`FoldHash`]: integer writes fill a 128-bit buffer that
/// is folded into the keyed accumulator once full and at `finish`.
/// Narrower integers and byte slices go through `write`, 8 bytes at a
/// time.
#[derive(Debug, Clone, Copy)]
pub struct FoldHasher {
    fold_seed: u64,
    acc: u64,
    sponge: u128,
    bits: u32,
}

#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

impl FoldHasher {
    /// The two keys differ, so swapping the buffer's halves (say the
    /// two ids of an edge key) changes the product.
    #[inline]
    fn fold(&self) -> u64 {
        let (lo, hi) = (self.sponge as u64, (self.sponge >> 64) as u64);
        fold_mul(lo ^ self.acc, hi ^ self.fold_seed)
    }

    #[inline]
    fn absorb(&mut self, x: u64, width: u32) {
        if self.bits + width > 128 {
            self.acc = self.fold();
            self.sponge = 0;
            self.bits = 0;
        }
        self.sponge |= u128::from(x) << self.bits;
        self.bits += width;
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.absorb(u64::from_le_bytes(word), 64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.absorb(n.into(), 32);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.absorb(n, 64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.absorb(n as u64, 64);
    }

    /// One more fold by a fixed odd constant spreads the keyed fold's
    /// high bits into the low bits that pick the bucket.
    #[inline]
    fn finish(&self) -> u64 {
        fold_mul(self.fold(), 0x9e37_79b9_7f4a_7c15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn low_bits_spread(keys: impl Iterator<Item = u64>) -> usize {
        let build = FoldHash::default();
        keys.map(|k| build.hash_one(k) & 0xfff)
            .collect::<HashSet<_>>()
            .len()
    }

    #[test]
    fn strided_keys_spread_over_low_bits() {
        // An unkeyed multiplicative hash maps all of these to one
        // low-12-bit value; a uniform hash gives about 2,590 of 4,096.
        for _ in 0..32 {
            assert!(low_bits_spread((0..4096u64).map(|i| i << 20)) >= 2000);
            assert!(low_bits_spread((0..4096u64).map(|i| i << 12)) >= 2000);
        }
    }

    #[test]
    fn maps_are_keyed_independently() {
        let (a, b) = (FoldHash::default(), FoldHash::default());
        let differs = (0..64u64).filter(|&k| a.hash_one(k) != b.hash_one(k));
        assert!(differs.count() > 60, "two maps must not share a seed");
    }

    #[test]
    fn composite_keys_hash_every_field() {
        let build = FoldHash::default();
        let swapped = (0..64u64).flat_map(|i| (0..64u64).map(move |j| (i, j)));
        let hashes: HashSet<u64> = swapped.map(|p| build.hash_one(p)).collect();
        assert_eq!(hashes.len(), 64 * 64, "(a, b) and (b, a) must differ");
        // Past 128 bits the buffer folds mid-key.
        let bytes: HashSet<u64> = (0..4096u32)
            .map(|i| build.hash_one(format!("block-{i}").as_bytes()))
            .collect();
        assert_eq!(bytes.len(), 4096);
    }
}
