//! A small deterministic hasher for the engines' hot lookup tables.
//!
//! The word-at-a-time multiply-rotate hash of rustc's `FxHasher`: one
//! rotate, xor and multiply per machine word, against SipHash's rounds
//! per 8 bytes. It has no per-process random key, so a table's layout
//! is the same on every run; the engines keep only tables whose results
//! never depend on iteration order. Without a key it does not resist
//! crafted collisions, so it hashes only keys the program makes itself
//! (configurations and catalog shapes), never ids read from a file.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc's 64-bit `FxHasher`.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style hasher state.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn hashes_are_fixed_across_runs() {
        // No random key: the same value always hashes the same.
        assert_eq!(hash_of((7usize, 3u8)), hash_of((7usize, 3u8)));
        assert_ne!(hash_of((7usize, 3u8)), hash_of((3usize, 7u8)));
        // Bytes past the last whole word count.
        let (mut a, mut b) = (FxHasher::default(), FxHasher::default());
        a.write(&[1; 9]);
        b.write(&[1; 8]);
        assert_ne!(a.finish(), b.finish());
        let mut m: FxHashMap<(usize, u8), usize> = FxHashMap::default();
        m.insert((usize::MAX, 4), 1);
        assert_eq!(m.get(&(usize::MAX, 4)), Some(&1));
        assert_eq!(m.get(&(usize::MAX, 3)), None);
    }
}
