//! The data-plane forwarding flow cache: dst-IP → fully resolved
//! forwarding decision.
//!
//! Under probe load every packet of a flow repeats the same work —
//! longest-prefix match over a full-table FIB, an interface scan for
//! the next-hop's subnet, an ARP cache lookup. Real line cards memoize
//! exactly this (Cisco's flow/route caches, Linux's fib nexthop cache);
//! [`FlowCache`] is that memo. A hit must be *bit-identical* to the
//! miss path, so entries are invalidated precisely when the inputs
//! they were derived from change:
//!
//! * **FIB**: every op a [`crate::fib::FibWalker::apply_until`] batch
//!   applies invalidates the destinations covered by its prefix (a
//!   more-specific
//!   insert changes the best match for exactly those, a remove exposes
//!   a covering route for exactly those);
//! * **ARP**: learning or re-learning a mapping invalidates the
//!   destinations resolved through that next-hop; entry expiry is
//!   enforced per hit via the stored ARP deadline.

use sc_net::{FxHashMap, Ipv4Prefix, MacAddr, SimTime};
use std::net::Ipv4Addr;

/// One memoized forwarding decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowCacheEntry {
    /// The resolved IP next-hop (for ARP-change invalidation).
    pub next_hop: Ipv4Addr,
    /// Index into the router's interface table.
    pub iface: usize,
    /// The L2 destination (the next-hop's MAC at insert time).
    pub dst_mac: MacAddr,
    /// The backing ARP entry's expiry; a hit past this is a miss.
    pub expires: SimTime,
}

/// The cache plus hit/invalidation counters.
#[derive(Debug, Default)]
pub struct FlowCache {
    map: FxHashMap<Ipv4Addr, FlowCacheEntry>,
    pub hits: u64,
    pub misses: u64,
    pub invalidated: u64,
}

impl FlowCache {
    pub fn new() -> FlowCache {
        FlowCache::default()
    }

    /// The memoized decision for `dst`, if still valid at `now`.
    #[inline]
    pub fn lookup(&mut self, dst: Ipv4Addr, now: SimTime) -> Option<FlowCacheEntry> {
        match self.map.get(&dst) {
            Some(e) if e.expires > now => {
                self.hits += 1;
                Some(*e)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Memoize the decision the slow path just computed for `dst`.
    pub fn insert(&mut self, dst: Ipv4Addr, entry: FlowCacheEntry) {
        self.map.insert(dst, entry);
    }

    /// A FIB entry for `prefix` changed: drop every destination it
    /// covers (their best match may have changed).
    pub fn invalidate_prefix(&mut self, prefix: Ipv4Prefix) {
        let before = self.map.len();
        self.map.retain(|dst, _| !prefix.contains(*dst));
        self.invalidated += (before - self.map.len()) as u64;
    }

    /// The ARP mapping for `next_hop` changed: drop every destination
    /// resolved through it.
    pub fn invalidate_next_hop(&mut self, next_hop: Ipv4Addr) {
        let before = self.map.len();
        self.map.retain(|_, e| e.next_hop != next_hop);
        self.invalidated += (before - self.map.len()) as u64;
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Every memoized decision, live or expired, in no particular order.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> impl Iterator<Item = (Ipv4Addr, FlowCacheEntry)> + '_ {
        self.map.iter().map(|(dst, e)| (*dst, *e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 9]);

    fn entry(nh: Ipv4Addr) -> FlowCacheEntry {
        FlowCacheEntry {
            next_hop: nh,
            iface: 1,
            dst_mac: MAC,
            expires: SimTime::from_secs(100),
        }
    }

    #[test]
    fn hit_miss_and_expiry() {
        let mut c = FlowCache::new();
        let dst = Ipv4Addr::new(1, 2, 3, 4);
        assert_eq!(c.lookup(dst, SimTime::ZERO), None);
        c.insert(dst, entry(Ipv4Addr::new(10, 1, 0, 100)));
        assert!(c.lookup(dst, SimTime::from_secs(1)).is_some());
        assert_eq!(
            c.lookup(dst, SimTime::from_secs(100)),
            None,
            "expired at the ARP deadline"
        );
        assert_eq!((c.hits, c.misses), (1, 2));
    }

    #[test]
    fn prefix_invalidation_is_exact() {
        let mut c = FlowCache::new();
        let inside = Ipv4Addr::new(1, 2, 3, 4);
        let outside = Ipv4Addr::new(9, 9, 9, 9);
        c.insert(inside, entry(Ipv4Addr::new(10, 1, 0, 100)));
        c.insert(outside, entry(Ipv4Addr::new(10, 1, 0, 100)));
        c.invalidate_prefix("1.2.3.0/24".parse().unwrap());
        assert_eq!(c.lookup(inside, SimTime::ZERO), None);
        assert!(c.lookup(outside, SimTime::ZERO).is_some());
        assert_eq!(c.invalidated, 1);
    }

    #[test]
    fn next_hop_invalidation_is_exact() {
        let mut c = FlowCache::new();
        let a = Ipv4Addr::new(1, 0, 0, 1);
        let b = Ipv4Addr::new(2, 0, 0, 1);
        let nh_a = Ipv4Addr::new(10, 1, 0, 100);
        let nh_b = Ipv4Addr::new(10, 2, 0, 100);
        c.insert(a, entry(nh_a));
        c.insert(b, entry(nh_b));
        c.invalidate_next_hop(nh_a);
        assert_eq!(c.lookup(a, SimTime::ZERO), None);
        assert!(c.lookup(b, SimTime::ZERO).is_some());
    }
}
