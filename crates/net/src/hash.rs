//! A word-at-a-time hasher for hot maps with small, generated keys.
//!
//! The hottest hash maps of a campaign are keyed by a few machine words:
//! the domain-name intern table and every name-keyed index (the resolver
//! cache, the world's and the providers' fabric maps, the spill encoder's
//! name table) by an interned name's precomputed content hash, the
//! address-keyed fabric maps and [`IpRangeDb`](crate::IpRangeDb) by an
//! IPv4 address or masked network. [`WordHasher`] folds each word into
//! its state with an Fx-style rotate-xor-multiply (rustc's `FxHasher`)
//! instead of running SipHash rounds over it. It offers no protection
//! against adversarial keys — every key in the simulation is generated,
//! not supplied by an attacker. [`WordMap`] and [`WordSet`] name the map
//! and set types built on it.
//!
//! Word hashing is deterministic where std's `RandomState` was random per
//! process, so no output may depend on a hot map's iteration order; with
//! SipHash's random keys none could already.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the Fx hash (rustc's `FxHasher`).
const FX_SEED: u64 = 0xf135_7aea_2e62_a9c5;

/// A [`Hasher`] that folds each written word in with one multiply.
///
/// ```
/// use std::collections::HashMap;
/// use remnant_net::hash::BuildWordHasher;
///
/// let mut map: HashMap<u32, &str, BuildWordHasher> = HashMap::default();
/// map.insert(0x0a00_0000, "10.0.0.0/8");
/// assert_eq!(map.get(&0x0a00_0000), Some(&"10.0.0.0/8"));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        // The product's well-mixed high bits become the low bits the hash
        // table indexes buckets with.
        self.0.rotate_left(26)
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`WordHasher`]s.
pub type BuildWordHasher = BuildHasherDefault<WordHasher>;

/// A [`HashMap`] hashing its keys with [`WordHasher`]. Build one with
/// `WordMap::default()` or `WordMap::with_capacity_and_hasher(n,
/// Default::default())`.
///
/// ```
/// use remnant_net::hash::WordMap;
///
/// let mut owners: WordMap<std::net::Ipv4Addr, usize> = WordMap::default();
/// owners.insert([198, 51, 100, 10].into(), 0);
/// assert_eq!(owners.get(&[198, 51, 100, 10].into()), Some(&0));
/// ```
pub type WordMap<K, V> = HashMap<K, V, BuildWordHasher>;

/// A [`HashSet`] hashing its values with [`WordHasher`].
pub type WordSet<T> = HashSet<T, BuildWordHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_words_fold_like_their_u64_widening() {
        let fold = |f: &dyn Fn(&mut WordHasher)| {
            let mut hasher = WordHasher::default();
            f(&mut hasher);
            hasher.finish()
        };
        let wide = fold(&|h| h.write_u64(0x0a01_0200));
        assert_eq!(fold(&|h| h.write_u32(0x0a01_0200)), wide);
        assert_eq!(fold(&|h| h.write_usize(0x0a01_0200)), wide);
        assert_ne!(fold(&|h| h.write_u32(0x0a01_0300)), wide);
    }
}
