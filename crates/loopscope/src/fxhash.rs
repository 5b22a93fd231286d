//! A fast, deterministic, non-cryptographic hasher for the detector's hot
//! paths.
//!
//! The standard library's default hasher (SipHash-1-3) is keyed with a
//! per-process random seed and costs ~1 ns *per byte* — ruinous for a
//! pipeline that hashes a ~44-byte [`crate::ReplicaKey`] for every record
//! of a multi-million-packet trace. This module provides the well-known
//! "Fx" multiply-rotate hash (the scheme rustc itself uses for its
//! interner tables): a few cycles per 8-byte word, no seed, no
//! allocation.
//!
//! # Determinism
//!
//! `FxHasher` is *unseeded*: the same key hashes to the same value in
//! every process on every platform. That removes one source of run-to-run
//! variation, but hash-map **iteration order is still not part of any
//! contract** — every pipeline stage that surfaces map contents
//! normalises with an explicit sort (see `CandidateScanner::finish`,
//! `validate::validate`, `merge::merge`), exactly as it did under
//! SipHash. Byte-identical output across serial, block, and online
//! paths is enforced by the equality tests, not by hasher behaviour.
//!
//! # Security
//!
//! Fx is trivially collision-attackable, which is why std does not use
//! it by default. The detector ingests traces for *analysis*; an
//! adversary who controls trace contents can already make the pipeline
//! slow by sending genuinely loopy traffic, and hash-flooding a batch
//! analysis tool degrades throughput, not correctness. The trade is the
//! same one rustc makes.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash: a 64-bit
/// fractional expansion of the golden ratio, which spreads consecutive
/// integers across the full word. Shared with the packet fingerprint
/// ([`crate::ReplicaKey::fingerprint`]), which uses the same mixer.
pub(crate) const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher. Create through
/// [`FxBuildHasher`]/[`FxHashMap`]; the default state is empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
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
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            // Mix the length in so "ab" + "" and "a" + "b" differ.
            tail[7] = rem.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
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
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }

    #[inline]
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }

    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

/// Builds [`FxHasher`]s; zero-sized and unseeded, so every map built from
/// it hashes identically.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the Fx hash. Construct with `FxHashMap::default()`
/// or [`fx_map_with_capacity`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed by the Fx hash.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// An [`FxHashMap`] pre-sized for `capacity` entries — the pre-sizing
/// entry point used by the pipeline stages to avoid rehash-and-move
/// cycles on multi-million-record traces.
pub fn fx_map_with_capacity<K, V>(capacity: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        let key = crate::ReplicaKey {
            src: std::net::Ipv4Addr::new(100, 0, 0, 1),
            dst: std::net::Ipv4Addr::new(203, 0, 113, 9),
            protocol: 6,
            ident: 777,
            total_len: 40,
            tos: 0,
            frag_word: 0x4000,
            transport: crate::TransportSummary::Udp {
                src_port: 53,
                dst_port: 53,
                length: 8,
                checksum: 0xbeef,
            },
        };
        assert_eq!(hash_of(&key), hash_of(&key));
    }

    #[test]
    fn distinct_inputs_rarely_collide() {
        // Not a statistical test — just a sanity check that the mixer
        // actually mixes: 64k consecutive integers, no collisions.
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..65_536 {
            assert!(seen.insert(hash_of(&i)), "collision at {i}");
        }
    }

    #[test]
    fn byte_writes_respect_boundaries() {
        let h = |parts: &[&[u8]]| {
            let mut hasher = FxHasher::default();
            for p in parts {
                hasher.write(p);
            }
            hasher.finish()
        };
        // Short tails must not alias: "ab"+"" vs "a"+"b" go through
        // different tail paddings.
        assert_ne!(h(&[b"ab"]), h(&[b"a", b"b"]));
        assert_ne!(h(&[b"abcdefgh"]), h(&[b"abcdefg"]));
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u32, &str> = fx_map_with_capacity(8);
        m.insert(1, "one");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<u16> = FxHashSet::default();
        assert!(s.insert(9));
        assert!(s.contains(&9));
    }
}
