//! An integer hasher for tables keyed by ids the solver assigns itself.
//!
//! [`TermId`](crate::TermId), [`PVar`](crate::sat::PVar) and
//! [`Symbol`](crate::Symbol) are dense integers handed out by the solver,
//! never chosen by a client, so their tables need neither std's keyed
//! SipHash nor its protection against crafted collisions. [`IdHasher`] is
//! the multiply-rotate hash of the Firefox/rustc `FxHasher`: a few cycles
//! per word, with its high bits well mixed for the table's control bytes.
//!
//! The policy is deliberate: the [`Interner`](crate::sym::Interner) and the
//! [`TermStore`](crate::TermStore) hash-cons table keep std's
//! `RandomState`, because their keys (names and term shapes) come from the
//! client sources a server compiles, and switching them measured no gain.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of `FxHasher` (an odd constant with well-spread bits).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, unkeyed hasher for solver-assigned integer ids.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by solver-assigned ids.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of solver-assigned ids.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(x: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(x)
    }

    #[test]
    fn hashing_is_deterministic_and_separates_ids() {
        assert_eq!(hash(7u32), hash(7u32));
        let hashes: HashSet<u64> = (0u32..1000).map(hash).collect();
        assert_eq!(hashes.len(), 1000);
        // Slices hash through `write`; a different length or element differs.
        assert_ne!(hash([1u32, 2].as_slice()), hash([1u32, 2, 0].as_slice()));
        assert_ne!(hash([1u32, 2].as_slice()), hash([2u32, 1].as_slice()));
    }

    #[test]
    fn id_tables_work_as_maps_and_sets() {
        let mut m: IdMap<u32, &str> = IdMap::default();
        m.insert(3, "three");
        assert_eq!(m.get(&3), Some(&"three"));
        let mut s: IdSet<(u32, bool)> = IdSet::default();
        assert!(s.insert((1, true)));
        assert!(!s.insert((1, true)));
        assert!(s.insert((1, false)));
    }
}
