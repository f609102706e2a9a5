//! ARP client: cache, request generation with rate limiting, and
//! pending-packet queueing.
//!
//! This is the mechanism the supercharger hijacks for provisioning: the
//! router receives routes whose next-hop is a *virtual* IP, asks "who
//! has 10.200.0.1?" on the wire, and the controller's ARP responder
//! answers with the backup-group's virtual MAC. From then on the
//! router's flat FIB tags all matching traffic with that VMAC.
//!
//! Behavior follows the guides' reference stack (smoltcp): at most one
//! request per second per address, a bounded queue of packets waiting on
//! resolution, and entry expiry.

use sc_net::{Frame, FxHashMap, MacAddr, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Maximum frames parked per unresolved next-hop.
const MAX_PENDING_PER_ADDR: usize = 8;
/// Re-request interval (smoltcp: "ARP requests are sent at a rate not
/// exceeding one per second").
const REQUEST_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Cache lifetime. Carrier-class routers default to hours (Cisco:
/// 4 h) — a short embedded-style timeout would inject periodic ARP
/// re-resolution blips into multi-minute convergence measurements.
const ENTRY_TTL: SimDuration = SimDuration::from_secs(4 * 3600);

#[derive(Debug)]
struct CacheEntry {
    mac: MacAddr,
    expires: SimTime,
    is_static: bool,
}

#[derive(Debug, Default)]
struct Pending {
    frames: Vec<Frame>,
    last_request: Option<SimTime>,
}

/// The ARP client state.
#[derive(Debug, Default)]
pub struct ArpClient {
    cache: FxHashMap<Ipv4Addr, CacheEntry>,
    pending: FxHashMap<Ipv4Addr, Pending>,
    /// Counters.
    pub requests_sent: u64,
    pub replies_learned: u64,
    pub frames_dropped: u64,
}

/// What the caller should do after asking to resolve an address.
#[derive(Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Use this MAC now.
    Ready(MacAddr),
    /// Frame parked; send an ARP request for the address.
    QueuedSendRequest(Ipv4Addr),
    /// Frame parked; a request was sent recently, wait.
    Queued,
    /// Queue full; frame dropped.
    Dropped,
}

impl ArpClient {
    pub fn new() -> ArpClient {
        ArpClient::default()
    }

    /// Install a permanent entry (infrastructure addresses whose MACs are
    /// configured statically in the lab, like real deployments do for
    /// router-to-router links).
    pub fn add_static(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.cache.insert(
            ip,
            CacheEntry {
                mac,
                expires: SimTime::MAX,
                is_static: true,
            },
        );
    }

    /// Current resolution, if fresh.
    pub fn lookup(&self, ip: Ipv4Addr, now: SimTime) -> Option<MacAddr> {
        self.lookup_with_expiry(ip, now).map(|(mac, _)| mac)
    }

    /// Like [`ArpClient::lookup`], also returning when the entry stops
    /// being valid (statics return [`SimTime::MAX`]). The router's flow
    /// cache stores this deadline so a memoized L2 rewrite can never
    /// outlive the ARP entry it was derived from.
    pub fn lookup_with_expiry(&self, ip: Ipv4Addr, now: SimTime) -> Option<(MacAddr, SimTime)> {
        self.cache
            .get(&ip)
            .filter(|e| e.expires > now)
            .map(|e| (e.mac, e.expires))
    }

    /// Resolve `ip` for `frame`. Either returns the MAC, or parks the
    /// frame and tells the caller whether to transmit an ARP request.
    pub fn resolve(&mut self, ip: Ipv4Addr, frame: Frame, now: SimTime) -> Resolution {
        if let Some(mac) = self.lookup(ip, now) {
            return Resolution::Ready(mac);
        }
        let pending = self.pending.entry(ip).or_default();
        if pending.frames.len() >= MAX_PENDING_PER_ADDR {
            self.frames_dropped += 1;
            return Resolution::Dropped;
        }
        pending.frames.push(frame);
        let due = match pending.last_request {
            None => true,
            Some(t) => now.saturating_duration_since(t) >= REQUEST_INTERVAL,
        };
        if due {
            pending.last_request = Some(now);
            self.requests_sent += 1;
            Resolution::QueuedSendRequest(ip)
        } else {
            Resolution::Queued
        }
    }

    /// Ask to (re-)request an address without a frame (e.g. prefetch of a
    /// next-hop learned from BGP). Returns true if a request should go
    /// out now (rate limit respected).
    pub fn prefetch(&mut self, ip: Ipv4Addr, now: SimTime) -> bool {
        if self.lookup(ip, now).is_some() {
            return false;
        }
        let pending = self.pending.entry(ip).or_default();
        let due = match pending.last_request {
            None => true,
            Some(t) => now.saturating_duration_since(t) >= REQUEST_INTERVAL,
        };
        if due {
            pending.last_request = Some(now);
            self.requests_sent += 1;
        }
        due
    }

    /// Learn a mapping (from an ARP reply — or gratuitously from a
    /// request's sender fields, as real stacks do). Returns any frames
    /// that were waiting for it.
    pub fn learn(&mut self, ip: Ipv4Addr, mac: MacAddr, now: SimTime) -> Vec<Frame> {
        match self.cache.get(&ip) {
            Some(e) if e.is_static => return Vec::new(), // statics never change
            _ => {}
        }
        self.cache.insert(
            ip,
            CacheEntry {
                mac,
                expires: now + ENTRY_TTL,
                is_static: false,
            },
        );
        self.replies_learned += 1;
        self.pending
            .remove(&ip)
            .map(|p| p.frames)
            .unwrap_or_default()
    }

    /// Addresses currently awaiting resolution whose request should be
    /// retried at `now` (call about once a second).
    pub fn retries_due(&mut self, now: SimTime) -> Vec<Ipv4Addr> {
        let mut due = Vec::new();
        for (ip, pending) in self.pending.iter_mut() {
            let expired = match pending.last_request {
                None => true,
                Some(t) => now.saturating_duration_since(t) >= REQUEST_INTERVAL,
            };
            if expired {
                pending.last_request = Some(now);
                due.push(*ip);
            }
        }
        due.sort(); // deterministic order
        self.requests_sent += due.len() as u64;
        due
    }

    /// Number of distinct unresolved addresses.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VNH: Ipv4Addr = Ipv4Addr::new(10, 200, 0, 1);
    const VMAC: MacAddr = MacAddr::from_octets([0x02, 0x5c, 0, 0, 0, 0]);

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn static_entries_resolve_immediately_and_never_expire() {
        let mut arp = ArpClient::new();
        arp.add_static(VNH, VMAC);
        assert_eq!(arp.lookup(VNH, t(0)), Some(VMAC));
        assert_eq!(arp.lookup(VNH, SimTime::from_secs(1_000_000)), Some(VMAC));
        // learn() must not override a static entry.
        arp.learn(VNH, MacAddr::BROADCAST, t(1));
        assert_eq!(arp.lookup(VNH, t(2)), Some(VMAC));
    }

    #[test]
    fn first_resolve_queues_and_requests() {
        let mut arp = ArpClient::new();
        match arp.resolve(VNH, vec![1].into(), t(0)) {
            Resolution::QueuedSendRequest(ip) => assert_eq!(ip, VNH),
            other => panic!("expected request, got {other:?}"),
        }
        // Second frame within the rate-limit window: queued, no request.
        assert_eq!(arp.resolve(VNH, vec![2].into(), t(100)), Resolution::Queued);
        assert_eq!(arp.requests_sent, 1);
        assert_eq!(arp.pending_count(), 1);
    }

    #[test]
    fn reply_releases_queued_frames_in_order() {
        let mut arp = ArpClient::new();
        arp.resolve(VNH, vec![1].into(), t(0));
        arp.resolve(VNH, vec![2].into(), t(1));
        let released = arp.learn(VNH, VMAC, t(5));
        assert_eq!(released, vec![Frame::from(vec![1]), Frame::from(vec![2])]);
        assert_eq!(arp.lookup(VNH, t(6)), Some(VMAC));
        assert_eq!(arp.pending_count(), 0);
        // Subsequent resolutions hit the cache.
        assert_eq!(
            arp.resolve(VNH, vec![3].into(), t(7)),
            Resolution::Ready(VMAC)
        );
    }

    #[test]
    fn queue_bounded_drops_excess() {
        let mut arp = ArpClient::new();
        for i in 0..MAX_PENDING_PER_ADDR {
            let r = arp.resolve(VNH, vec![i as u8].into(), t(i as u64));
            assert_ne!(r, Resolution::Dropped);
        }
        assert_eq!(
            arp.resolve(VNH, vec![99].into(), t(50)),
            Resolution::Dropped
        );
        assert_eq!(arp.frames_dropped, 1);
    }

    #[test]
    fn rate_limit_one_request_per_second() {
        let mut arp = ArpClient::new();
        arp.resolve(VNH, vec![1].into(), t(0));
        assert_eq!(arp.resolve(VNH, vec![2].into(), t(999)), Resolution::Queued);
        match arp.resolve(VNH, vec![3].into(), t(1000)) {
            Resolution::QueuedSendRequest(_) => {}
            other => panic!("retry due after 1s, got {other:?}"),
        }
        assert_eq!(arp.requests_sent, 2);
    }

    #[test]
    fn entries_expire_after_ttl() {
        let mut arp = ArpClient::new();
        arp.learn(VNH, VMAC, t(0));
        assert_eq!(
            arp.lookup(VNH, SimTime::from_secs(4 * 3600 - 1)),
            Some(VMAC)
        );
        assert_eq!(arp.lookup(VNH, SimTime::from_secs(4 * 3600 + 1)), None);
    }

    #[test]
    fn retries_due_respects_interval_and_is_deterministic() {
        let mut arp = ArpClient::new();
        let a = Ipv4Addr::new(10, 200, 0, 2);
        let b = Ipv4Addr::new(10, 200, 0, 1);
        arp.resolve(a, vec![1].into(), t(0));
        arp.resolve(b, vec![2].into(), t(0));
        assert!(arp.retries_due(t(500)).is_empty());
        let due = arp.retries_due(SimTime::from_secs(2));
        assert_eq!(due, vec![b, a], "sorted for determinism");
    }

    #[test]
    fn prefetch_requests_without_frames() {
        let mut arp = ArpClient::new();
        assert!(arp.prefetch(VNH, t(0)));
        assert!(!arp.prefetch(VNH, t(10)), "rate limited");
        arp.learn(VNH, VMAC, t(20));
        assert!(!arp.prefetch(VNH, t(30)), "already resolved");
    }
}
