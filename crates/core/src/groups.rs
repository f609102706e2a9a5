//! The backup-group table.
//!
//! A backup-group is the ordered list of next-hop peers `(primary,
//! backup, ...)` shared by many prefixes (§2 of the paper: with `n`
//! peers there are at most `n!/(n-2)! = n(n-1)` groups of size 2 — for
//! 10 peers, only 90). Each group owns one (VNH, VMAC) pair and one
//! switch flow rule; the table tracks how many prefixes reference each
//! group so rules and VNHs can be garbage-collected when a group empties.

use crate::vnh::VnhAllocator;
use sc_bgp::PeerId;
// Deterministic hasher, not std's randomly seeded SipHash: controller
// state must be identical across runs (clippy `disallowed_types`).
use sc_net::FxHashMap;
use sc_net::MacAddr;
use std::net::Ipv4Addr;

/// Dense group identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u32);

/// One backup-group.
#[derive(Clone, Debug)]
pub struct BackupGroup {
    pub id: GroupId,
    /// Ordered next-hop peers: `key[0]` is the primary, `key[1]` the
    /// first backup, etc. (the paper uses size 2; the algorithm is
    /// general — §2).
    pub key: Vec<PeerId>,
    pub vnh: Ipv4Addr,
    pub vmac: MacAddr,
    /// Number of prefixes currently announced with this group's VNH.
    pub prefixes: u64,
    /// The peer traffic is *currently* steered to (normally `key[0]`;
    /// after a failover, the first alive entry of `key`).
    pub active_target: PeerId,
    /// True once no prefix references the group anymore. The paper does
    /// not say when the old rule may be removed; removing it while the
    /// router's slow FIB walk still tags traffic with this VMAC would
    /// blackhole exactly the traffic supercharging is meant to save, so
    /// retired groups keep their rule (and VNH) until a grace period
    /// passes — and they still take part in failover rewrites.
    pub retired: bool,
}

/// The table of all live backup-groups.
#[derive(Debug)]
pub struct GroupTable {
    by_key: FxHashMap<Vec<PeerId>, GroupId>,
    /// Retired groups indexed by key: a re-request for the same key
    /// *resurrects* the group (its VNH, VMAC and installed rule are all
    /// still valid) instead of burning a fresh VNH — table-load churn
    /// cycles through candidate pairs rapidly and would otherwise
    /// exhaust the pool.
    retired_by_key: FxHashMap<Vec<PeerId>, GroupId>,
    by_vnh: FxHashMap<Ipv4Addr, GroupId>,
    groups: Vec<Option<BackupGroup>>,
    alloc: VnhAllocator,
    free_ids: Vec<u32>,
}

impl GroupTable {
    pub fn new(alloc: VnhAllocator) -> GroupTable {
        GroupTable {
            by_key: FxHashMap::default(),
            retired_by_key: FxHashMap::default(),
            by_vnh: FxHashMap::default(),
            groups: Vec::new(),
            alloc,
            free_ids: Vec::new(),
        }
    }

    /// Number of live (non-retired) groups.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Number of retired groups awaiting purge.
    pub fn retired_count(&self) -> usize {
        self.groups.iter().flatten().filter(|g| g.retired).count()
    }

    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Look up or create the group for `key`. Returns `(group, created)`.
    ///
    /// # Panics
    /// Panics when the VNH pool is exhausted (size the pool for
    /// `n(n-1)`; see [`VnhAllocator::capacity`]).
    pub fn get_or_create(&mut self, key: &[PeerId]) -> (&BackupGroup, bool) {
        debug_assert!(
            key.len() >= 2,
            "a backup-group needs at least two next-hops"
        );
        if let Some(&id) = self.by_key.get(key) {
            return (self.groups[id.0 as usize].as_ref().unwrap(), false);
        }
        // Resurrect a retired group with this key: same VNH/VMAC, and
        // its flow rule is still installed, so `created = false`.
        if let Some(id) = self.retired_by_key.remove(key) {
            let g = self.groups[id.0 as usize].as_mut().unwrap();
            g.retired = false;
            self.by_key.insert(key.to_vec(), id);
            return (self.groups[id.0 as usize].as_ref().unwrap(), false);
        }
        let (vnh, vmac) = self
            .alloc
            .allocate()
            .expect("VNH pool exhausted: size it for n(n-1) groups");
        let id = match self.free_ids.pop() {
            Some(i) => GroupId(i),
            None => {
                self.groups.push(None);
                GroupId(self.groups.len() as u32 - 1)
            }
        };
        let group = BackupGroup {
            id,
            key: key.to_vec(),
            vnh,
            vmac,
            prefixes: 0,
            active_target: key[0],
            retired: false,
        };
        self.by_key.insert(key.to_vec(), id);
        self.by_vnh.insert(vnh, id);
        self.groups[id.0 as usize] = Some(group);
        (self.groups[id.0 as usize].as_ref().unwrap(), true)
    }

    pub fn get(&self, id: GroupId) -> Option<&BackupGroup> {
        self.groups.get(id.0 as usize)?.as_ref()
    }

    pub fn get_mut(&mut self, id: GroupId) -> Option<&mut BackupGroup> {
        self.groups.get_mut(id.0 as usize)?.as_mut()
    }

    pub fn by_key(&self, key: &[PeerId]) -> Option<&BackupGroup> {
        let id = self.by_key.get(key)?;
        self.get(*id)
    }

    /// Resolve a VNH to its group (the ARP responder's lookup).
    pub fn by_vnh(&self, vnh: Ipv4Addr) -> Option<&BackupGroup> {
        let id = self.by_vnh.get(&vnh)?;
        self.get(*id)
    }

    /// Add one prefix reference to a group.
    pub fn add_ref(&mut self, id: GroupId) {
        self.get_mut(id).expect("ref to dead group").prefixes += 1;
    }

    /// Drop one prefix reference; when the count reaches zero the group
    /// is *retired*: removed from the key index (a fresh group with the
    /// same key gets a fresh VNH), but its slot, VNH, VMAC and flow rule
    /// stay live until [`GroupTable::purge_retired`]. Returns the group's
    /// id when this drop retired it.
    pub fn drop_ref(&mut self, id: GroupId) -> Option<GroupId> {
        let group = self.get_mut(id).expect("unref of dead group");
        debug_assert!(group.prefixes > 0, "refcount underflow");
        group.prefixes -= 1;
        if group.prefixes > 0 {
            return None;
        }
        group.retired = true;
        let key = group.key.clone();
        self.by_key.remove(&key);
        self.retired_by_key.insert(key, id);
        Some(id)
    }

    /// Destroy a retired group for good: release its (VNH, VMAC) and
    /// recycle the slot. Call only after a grace period long enough for
    /// the router to have walked away from the VMAC. Returns the group
    /// so the caller can delete its switch rule.
    pub fn purge_retired(&mut self, id: GroupId) -> Option<BackupGroup> {
        match self.get(id) {
            Some(g) if g.retired => {}
            _ => return None,
        }
        let group = self.groups[id.0 as usize].take().unwrap();
        self.retired_by_key.remove(&group.key);
        self.by_vnh.remove(&group.vnh);
        self.alloc.release(group.vnh);
        self.free_ids.push(id.0);
        Some(group)
    }

    /// Iterate live groups in id order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &BackupGroup> {
        self.groups.iter().flatten()
    }

    /// The groups whose *currently active* target is `peer` — exactly
    /// the rules Listing 2 rewrites on that peer's failure.
    pub fn groups_targeting(&self, peer: PeerId) -> Vec<GroupId> {
        self.iter()
            .filter(|g| g.active_target == peer)
            .map(|g| g.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(n: u8) -> PeerId {
        Ipv4Addr::new(10, 0, 0, n)
    }

    fn table() -> GroupTable {
        GroupTable::new(VnhAllocator::new("10.0.200.0/24".parse().unwrap()))
    }

    #[test]
    fn create_and_lookup() {
        let mut t = table();
        let key = vec![peer(2), peer(3)];
        let (g, created) = t.get_or_create(&key);
        assert!(created);
        let (vnh, vmac, id) = (g.vnh, g.vmac, g.id);
        let (g2, created2) = t.get_or_create(&key);
        assert!(!created2);
        assert_eq!(g2.id, id);
        assert_eq!(t.len(), 1);
        assert_eq!(t.by_vnh(vnh).unwrap().vmac, vmac);
        assert_eq!(t.by_key(&key).unwrap().id, id);
    }

    #[test]
    fn order_matters_in_group_key() {
        let mut t = table();
        let (a, _) = t.get_or_create(&[peer(2), peer(3)]);
        let a_id = a.id;
        let (b, created) = t.get_or_create(&[peer(3), peer(2)]);
        assert!(created, "(R2,R3) and (R3,R2) are distinct groups");
        assert_ne!(a_id, b.id);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn refcount_retires_then_purge_releases() {
        let mut t = table();
        let id = t.get_or_create(&[peer(2), peer(3)]).0.id;
        let vnh = t.get(id).unwrap().vnh;
        t.add_ref(id);
        t.add_ref(id);
        assert!(t.drop_ref(id).is_none(), "still referenced");
        assert_eq!(t.drop_ref(id), Some(id), "last ref retires the group");
        // Retired: gone from the key index, but VNH/ARP still resolvable
        // and the slot is NOT recycled yet (the switch rule is live).
        assert_eq!(t.len(), 0);
        assert_eq!(t.retired_count(), 1);
        assert!(t.by_vnh(vnh).is_some(), "ARP responder can still answer");
        // Re-requesting the SAME key resurrects the retired group —
        // its VNH, VMAC and switch rule are all still valid.
        let (g2, created) = t.get_or_create(&[peer(2), peer(3)]);
        assert!(!created, "resurrection, not creation");
        assert_eq!(g2.vnh, vnh);
        assert!(!g2.retired);
        assert_eq!(t.retired_count(), 0);
        // Retire it again for the purge checks below; a *different* key
        // meanwhile gets a fresh VNH.
        t.add_ref(id);
        t.drop_ref(id);
        let (g_other, created) = t.get_or_create(&[peer(6), peer(7)]);
        assert!(created);
        assert_ne!(g_other.vnh, vnh, "different key never steals a retired VNH");
        // Purge releases everything.
        let dead = t.purge_retired(id).expect("purged");
        assert_eq!(dead.vnh, vnh);
        assert!(t.by_vnh(vnh).is_none());
        assert_eq!(t.retired_count(), 0);
        assert!(t.purge_retired(id).is_none(), "idempotent");
        // Now the VNH and slot can recycle.
        let (g3, _) = t.get_or_create(&[peer(4), peer(5)]);
        assert_eq!(g3.vnh, vnh);
    }

    #[test]
    fn retired_groups_still_targetable_for_failover() {
        // A retired group's rule still carries traffic while the router
        // walks away from the VMAC; a failure of its active target must
        // still be repaired.
        let mut t = table();
        let id = t.get_or_create(&[peer(2), peer(3)]).0.id;
        t.add_ref(id);
        t.drop_ref(id);
        assert!(t.get(id).unwrap().retired);
        assert_eq!(t.groups_targeting(peer(2)), vec![id]);
    }

    #[test]
    fn groups_targeting_selects_failover_set() {
        let mut t = table();
        let g1 = t.get_or_create(&[peer(2), peer(3)]).0.id;
        let g2 = t.get_or_create(&[peer(2), peer(4)]).0.id;
        let g3 = t.get_or_create(&[peer(3), peer(2)]).0.id;
        assert_eq!(t.groups_targeting(peer(2)), vec![g1, g2]);
        assert_eq!(t.groups_targeting(peer(3)), vec![g3]);
        // After failover, g1 targets peer 3.
        t.get_mut(g1).unwrap().active_target = peer(3);
        assert_eq!(t.groups_targeting(peer(2)), vec![g2]);
        assert_eq!(t.groups_targeting(peer(3)), vec![g1, g3], "id order");
    }

    #[test]
    fn n_peers_yield_n_times_n_minus_one_groups() {
        // §2's combinatorial claim, checked directly for n = 10.
        let mut t = table();
        let n = 10u8;
        for a in 1..=n {
            for b in 1..=n {
                if a != b {
                    t.get_or_create(&[peer(a), peer(b)]);
                }
            }
        }
        assert_eq!(t.len(), (n as usize) * (n as usize - 1));
        assert_eq!(t.len(), 90);
    }

    #[test]
    fn deeper_groups_supported() {
        let mut t = table();
        let (g, created) = t.get_or_create(&[peer(2), peer(3), peer(4)]);
        assert!(created);
        assert_eq!(g.key.len(), 3);
        let (_, created2) = t.get_or_create(&[peer(2), peer(3)]);
        assert!(created2, "size-2 and size-3 keys are distinct");
    }
}
