//! A fast, deterministic hasher for the simulator's hot-path maps.
//!
//! `std`'s default `HashMap` hasher (SipHash, randomly seeded per
//! process) costs tens of nanoseconds per lookup and gives every run a
//! different iteration order. The data plane does multiple map lookups
//! *per packet* (router flow cache, sink CAM, ARP cache, switch L2
//! table) on keys an adversary does not control — IPv4 addresses and
//! MACs of a closed simulation — so HashDoS resistance buys nothing
//! here. This is the classic multiply-rotate construction (rustc's
//! `FxHasher`): a few instructions per word, fixed seed, so identical
//! inputs hash identically in every process.

#[allow(
    clippy::disallowed_types,
    reason = "definition site: these imports exist to pin an explicit FxHasher onto std's map types"
)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant (high-entropy odd number; same spirit as
/// Fibonacci hashing's 2^64/φ).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state.
#[derive(Default)]
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
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            self.add(u64::from(u32::from_le_bytes(
                bytes[..4].try_into().unwrap(),
            )));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A `HashMap` with the deterministic fast hasher.
#[allow(
    clippy::disallowed_types,
    reason = "this alias IS the deterministic replacement the lint points everyone at"
)]
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` with the deterministic fast hasher.
#[allow(
    clippy::disallowed_types,
    reason = "this alias IS the deterministic replacement the lint points everyone at"
)]
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn identical_inputs_hash_identically() {
        let h = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(h(b"10.0.0.1"), h(b"10.0.0.1"));
        assert_ne!(h(b"10.0.0.1"), h(b"10.0.0.2"));
    }

    #[test]
    fn map_works_with_simulator_keys() {
        let mut m: FxHashMap<Ipv4Addr, usize> = FxHashMap::default();
        for i in 0..100u8 {
            m.insert(Ipv4Addr::new(10, 0, i, 1), i as usize);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m[&Ipv4Addr::new(10, 0, 42, 1)], 42);
    }

    #[test]
    fn word_and_byte_paths_mix_lengths() {
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]);
        let a = h.finish();
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14]);
        assert_ne!(a, h.finish());
    }
}
