//! The flow table: priority-ordered entries with OpenFlow add/modify/
//! delete semantics and per-entry counters.
//!
//! Scale note: a supercharged router needs one entry per backup-group —
//! `n(n-1)` for `n` peers, i.e. double digits in practice — so lookup is
//! a linear scan in priority order, which is also the easiest semantics
//! to make *exactly* deterministic.

use crate::types::{Action, FlowKey, FlowMatch};
use std::fmt;

/// Per-entry counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FlowStats {
    pub packets: u64,
    pub bytes: u64,
}

/// One flow entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowEntry {
    pub priority: u16,
    pub cookie: u64,
    pub matcher: FlowMatch,
    pub actions: Vec<Action>,
    pub stats: FlowStats,
}

impl fmt::Display for FlowEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let acts: Vec<String> = self.actions.iter().map(|a| a.to_string()).collect();
        write!(
            f,
            "prio={} cookie={} {} -> [{}]",
            self.priority,
            self.cookie,
            self.matcher,
            acts.join(",")
        )
    }
}

/// The table. Entries are kept sorted by descending priority; among equal
/// priorities, insertion order decides (first match wins).
#[derive(Clone, Debug, Default)]
pub struct FlowTable {
    entries: Vec<FlowEntry>,
    pub lookups: u64,
    pub misses: u64,
}

impl FlowTable {
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[FlowEntry] {
        &self.entries
    }

    /// Add an entry. If an entry with the same (priority, match) exists,
    /// it is overwritten (OpenFlow ADD semantics), keeping its counters.
    pub fn add(&mut self, entry: FlowEntry) {
        if let Some(existing) = self
            .entries
            .iter_mut()
            .find(|e| e.priority == entry.priority && e.matcher == entry.matcher)
        {
            let stats = existing.stats;
            *existing = entry;
            existing.stats = stats;
            return;
        }
        // Insert after the last entry with priority >= new priority, so
        // equal priorities keep insertion order.
        let pos = self
            .entries
            .iter()
            .position(|e| e.priority < entry.priority)
            .unwrap_or(self.entries.len());
        self.entries.insert(pos, entry);
    }

    /// Modify the actions of all entries matching (priority, match)
    /// exactly. Returns how many entries changed. Counters survive —
    /// this is the paper's failover operation, and it must not disturb
    /// traffic accounting.
    pub fn modify(&mut self, priority: u16, matcher: &FlowMatch, actions: Vec<Action>) -> usize {
        let mut n = 0;
        for e in &mut self.entries {
            if e.priority == priority && e.matcher == *matcher {
                e.actions = actions.clone();
                n += 1;
            }
        }
        n
    }

    /// Delete all entries whose match equals `matcher` (and priority, if
    /// given). Returns how many were removed.
    pub fn delete(&mut self, priority: Option<u16>, matcher: &FlowMatch) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|e| !(e.matcher == *matcher && priority.is_none_or(|p| e.priority == p)));
        before - self.entries.len()
    }

    /// Look up the highest-priority matching entry for `key`, updating
    /// counters. Returns the actions to execute, or `None` on table miss.
    pub fn lookup(&mut self, key: &FlowKey, frame_len: usize) -> Option<&FlowEntry> {
        self.lookups += 1;
        match self.entries.iter_mut().find(|e| e.matcher.matches(key)) {
            Some(e) => {
                e.stats.packets += 1;
                e.stats.bytes += frame_len as u64;
                Some(&*e)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The entry [`FlowTable::lookup`] would match, without counting
    /// the lookup.
    pub fn peek(&self, key: &FlowKey) -> Option<&FlowEntry> {
        self.entries.iter().find(|e| e.matcher.matches(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_net::MacAddr;

    fn key(dst: MacAddr) -> FlowKey {
        FlowKey {
            in_port: 1,
            eth_src: MacAddr::from_octets([0, 0, 0, 0, 0, 1]),
            eth_dst: dst,
            eth_type: 0x0800,
            ip_src: None,
            ip_dst: None,
            udp_src: None,
            udp_dst: None,
        }
    }

    fn entry(prio: u16, dst: MacAddr, out: u16) -> FlowEntry {
        FlowEntry {
            priority: prio,
            cookie: 0,
            matcher: FlowMatch::dst_mac(dst),
            actions: vec![
                Action::SetDstMac(MacAddr::from_octets([9, 9, 9, 9, 9, 9])),
                Action::Output(out),
            ],
            stats: FlowStats::default(),
        }
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new();
        let vmac = MacAddr::virtual_mac(1);
        t.add(FlowEntry {
            priority: 10,
            ..entry(10, vmac, 1)
        });
        t.add(entry(100, vmac, 2));
        let e = t.lookup(&key(vmac), 64).unwrap();
        assert!(
            e.actions.contains(&Action::Output(2)),
            "higher priority wins"
        );
    }

    #[test]
    fn equal_priority_first_added_wins() {
        let mut t = FlowTable::new();
        let vmac = MacAddr::virtual_mac(1);
        let mut e1 = entry(50, vmac, 1);
        e1.cookie = 111;
        let mut e2 = FlowEntry {
            matcher: FlowMatch::any(),
            ..entry(50, vmac, 2)
        };
        e2.cookie = 222;
        t.add(e1);
        t.add(e2);
        assert_eq!(t.lookup(&key(vmac), 64).unwrap().cookie, 111);
    }

    #[test]
    fn add_overwrites_same_priority_and_match_keeping_stats() {
        let mut t = FlowTable::new();
        let vmac = MacAddr::virtual_mac(1);
        t.add(entry(50, vmac, 1));
        t.lookup(&key(vmac), 100);
        t.add(entry(50, vmac, 7)); // re-add with new actions
        assert_eq!(t.len(), 1);
        let e = t.peek(&key(vmac)).unwrap();
        assert!(e.actions.contains(&Action::Output(7)));
        assert_eq!(e.stats.packets, 1, "counters preserved across overwrite");
    }

    #[test]
    fn modify_rewrites_actions_in_place() {
        // The failover path: modify must change where traffic goes
        // without removing/re-adding (no blackhole window in hardware).
        let mut t = FlowTable::new();
        let vmac = MacAddr::virtual_mac(1);
        t.add(entry(50, vmac, 1));
        t.lookup(&key(vmac), 64);
        let n = t.modify(
            50,
            &FlowMatch::dst_mac(vmac),
            vec![
                Action::SetDstMac(MacAddr::from_octets([2, 2, 2, 2, 2, 2])),
                Action::Output(3),
            ],
        );
        assert_eq!(n, 1);
        let e = t.peek(&key(vmac)).unwrap();
        assert!(e.actions.contains(&Action::Output(3)));
        assert_eq!(e.stats.packets, 1);
        // Modify of a non-existent entry does nothing.
        assert_eq!(t.modify(51, &FlowMatch::dst_mac(vmac), vec![]), 0);
    }

    #[test]
    fn delete_semantics() {
        let mut t = FlowTable::new();
        let v1 = MacAddr::virtual_mac(1);
        let v2 = MacAddr::virtual_mac(2);
        t.add(entry(50, v1, 1));
        t.add(entry(60, v2, 2));
        t.add(entry(70, v2, 3));
        assert_eq!(t.delete(Some(60), &FlowMatch::dst_mac(v2)), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.delete(None, &FlowMatch::dst_mac(v2)), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn miss_counted() {
        let mut t = FlowTable::new();
        assert!(t.lookup(&key(MacAddr::virtual_mac(9)), 64).is_none());
        assert_eq!(t.misses, 1);
        assert_eq!(t.lookups, 1);
    }

    #[test]
    fn counters_accumulate_bytes() {
        let mut t = FlowTable::new();
        let vmac = MacAddr::virtual_mac(1);
        t.add(entry(50, vmac, 1));
        t.lookup(&key(vmac), 64);
        t.lookup(&key(vmac), 100);
        let e = t.peek(&key(vmac)).unwrap();
        assert_eq!(
            e.stats,
            FlowStats {
                packets: 2,
                bytes: 164
            }
        );
    }
}
