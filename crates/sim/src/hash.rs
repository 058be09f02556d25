//! A fixed, deterministic hasher for integer-keyed maps on per-event paths.
//!
//! `std`'s default `RandomState` runs SipHash with a per-process seed. That
//! is the right default against adversarial keys, but the simulator's hot
//! maps are keyed by ids it assigns itself (kernel uids, stream ids, event
//! ids), where SipHash's cost shows in every event. [`IdHasher`] is one
//! rotate-xor-multiply per word (the Fx scheme), with no seed, so it is also
//! the same in every process.
//!
//! Maps that use it spell the hasher out — `HashMap<K, V, IdBuildHasher>` —
//! so readers (and the determinism analyzer) still see a hash map whose
//! iteration order must not leak into decisions.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread high bits (the Fx constant).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Rotate-xor-multiply hasher for small integer keys. Not DoS-resistant: use
/// it only for keys the program assigns itself.
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            // invariant: chunks_exact(8) yields 8-byte slices.
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        if !rest.is_empty() {
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for [`IdHasher`]: `HashMap::default()` builds one.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        IdBuildHasher::default().hash_one(v)
    }

    #[test]
    fn same_key_same_hash_across_builders() {
        assert_eq!(hash_of(42u32), hash_of(42u32));
        assert_eq!(hash_of((3u64, 9u32)), hash_of((3u64, 9u32)));
        assert_ne!(hash_of(1u64), hash_of(2u64));
    }

    #[test]
    fn byte_writes_cover_the_tail() {
        let mut a = IdHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = IdHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn sequential_ids_spread_over_buckets() {
        // Low and high bits both vary for consecutive ids, so hashbrown's
        // bucket index and control byte are not degenerate.
        let low: HashSet<u64> = (0..1024u64).map(|i| hash_of(i) & 1023).collect();
        let high: HashSet<u64> = (0..1024u64).map(|i| hash_of(i) >> 57).collect();
        assert!(low.len() > 600, "low bits collide: {}", low.len());
        assert_eq!(high.len(), 128, "all 7-bit control tags reached");
    }

    #[test]
    fn works_as_a_map_hasher() {
        let mut m: HashMap<u32, u32, IdBuildHasher> = HashMap::default();
        for i in 0..10_000 {
            m.insert(i, i * 2);
        }
        assert!((0..10_000).all(|i| m[&i] == i * 2));
        m.retain(|k, _| k % 2 == 0);
        assert_eq!(m.len(), 5_000);
    }
}
