//! The Loc-RIB: per-prefix ranked candidate lists with change tracking.
//!
//! This is the shared engine under both sides of the paper:
//! * the **router model** feeds updates in and reacts to best-route
//!   changes (FIB updates);
//! * the **supercharged controller** feeds the same updates in and reacts
//!   to changes of the *top-two* candidates (backup-group changes —
//!   Listing 1's `routing_table`).
//!
//! Every mutation returns a [`Change`] carrying the old and new top-two
//! snapshot, so callers never re-scan the table.

use crate::attrs::RouteAttrs;
use crate::decision::{compare_routes, PeerInfo, Route};
use crate::PeerId;
use sc_net::{Ipv4Prefix, PrefixTrie};
use std::sync::Arc;

/// Snapshot of the two best candidates for a prefix.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct TopTwo {
    pub best: Option<Route>,
    pub second: Option<Route>,
}

impl TopTwo {
    fn of(ranked: &[Route]) -> TopTwo {
        TopTwo {
            best: ranked.first().cloned(),
            second: ranked.get(1).cloned(),
        }
    }

    /// The (primary NH peer, backup NH peer) pair — the backup-group key
    /// of the paper, when both exist.
    pub fn nh_pair(&self) -> (Option<PeerId>, Option<PeerId>) {
        (
            self.best.as_ref().map(|r| r.from.peer),
            self.second.as_ref().map(|r| r.from.peer),
        )
    }
}

/// The outcome of one RIB mutation.
#[derive(Clone, PartialEq, Debug)]
pub struct Change {
    pub prefix: Ipv4Prefix,
    pub old: TopTwo,
    pub new: TopTwo,
}

impl Change {
    /// Did the best route change (what a classic router reacts to)?
    pub fn best_changed(&self) -> bool {
        !route_eq(&self.old.best, &self.new.best)
    }

    /// Did the (best, second) pair change (what Listing 1 reacts to)?
    pub fn top_two_changed(&self) -> bool {
        self.best_changed() || !route_eq(&self.old.second, &self.new.second)
    }

    /// Did the top-two *next-hop peers* change? (VNH reassignment is only
    /// needed when the peers change, not when e.g. the AS path mutates.)
    pub fn nh_pair_changed(&self) -> bool {
        self.old.nh_pair() != self.new.nh_pair()
    }
}

fn route_eq(a: &Option<Route>, b: &Option<Route>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

/// What the RIB holds for one prefix.
#[derive(Default)]
struct Entry<X> {
    /// Candidates, best first.
    ranked: Vec<Route>,
    ext: X,
}

impl<X> Entry<X> {
    fn position(&self, peer: PeerId) -> Option<usize> {
        self.ranked.iter().position(|r| r.from.peer == peer)
    }

    /// Insert or replace the candidate from `route.from.peer`, keeping
    /// the list ranked by the decision process. Returns how many
    /// candidates that added (0 for a replacement).
    fn place(&mut self, route: Route) -> usize {
        let replaced = self.position(route.from.peer);
        if let Some(pos) = replaced {
            self.ranked.remove(pos);
        }
        let pos = self
            .ranked
            .binary_search_by(|probe| compare_routes(probe, &route))
            .unwrap_or_else(|e| e);
        self.ranked.insert(pos, route);
        replaced.is_none() as usize
    }
}

/// Per-prefix ranked candidate lists over all peers.
///
/// `X` is per-prefix state the owner keeps *in the same trie node* as
/// the candidates (the supercharger engine stores what it last announced
/// there), so reacting to a change costs no second lookup: the `_with`
/// mutators hand the touched prefix's remaining candidates and `&mut X`
/// to a callback instead of building a [`Change`]. The state lives
/// exactly as long as the prefix has a candidate.
pub struct LocRib<X = ()> {
    entries: PrefixTrie<Entry<X>>,
    routes: usize,
}

impl<X> Default for LocRib<X> {
    fn default() -> Self {
        LocRib {
            entries: PrefixTrie::new(),
            routes: 0,
        }
    }
}

impl LocRib {
    /// An empty RIB with no per-prefix owner state.
    pub fn new() -> LocRib {
        LocRib::default()
    }
}

impl<X: Default> LocRib<X> {
    /// Number of prefixes with at least one candidate.
    pub fn prefix_count(&self) -> usize {
        self.entries.len()
    }

    /// Total candidate routes across all prefixes.
    pub fn route_count(&self) -> usize {
        self.routes
    }

    /// Insert or replace the candidate from `route.from.peer` for
    /// `route.prefix`, keeping the list ranked by the decision process.
    pub fn update(&mut self, route: Route) -> Change {
        let prefix = route.prefix;
        let entry = self.entries.get_mut_or_insert_with(prefix, Entry::default);
        let old = TopTwo::of(&entry.ranked);
        self.routes += entry.place(route);
        let new = TopTwo::of(&entry.ranked);
        Change { prefix, old, new }
    }

    /// [`LocRib::update`] for an owner that reacts per prefix: one trie
    /// descent, then `react` sees the re-ranked candidates and the
    /// prefix's owner state.
    pub fn update_with<R>(&mut self, route: Route, react: impl FnOnce(&[Route], &mut X) -> R) -> R {
        let entry = self
            .entries
            .get_mut_or_insert_with(route.prefix, Entry::default);
        self.routes += entry.place(route);
        react(&entry.ranked, &mut entry.ext)
    }

    /// Bulk insert one UPDATE's NLRI: every prefix gets the shared
    /// `attrs` (one `Arc` clone per prefix, no per-route struct churn
    /// at the call site) and exactly one ranked decision-process pass;
    /// `on_change` observes the per-prefix [`Change`] in NLRI order.
    ///
    /// Semantically identical to calling [`LocRib::update`] per prefix —
    /// the property tests pin the equivalence — but a full-feed load
    /// stays inside the trie/decision machinery without rebuilding the
    /// route skeleton per call.
    pub fn apply_update_batch(
        &mut self,
        attrs: &Arc<RouteAttrs>,
        nlri: &[Ipv4Prefix],
        from: PeerInfo,
        local_pref: u32,
        mut on_change: impl FnMut(Change),
    ) {
        for &prefix in nlri {
            let route = Route {
                prefix,
                attrs: attrs.clone(),
                from,
                local_pref,
            };
            on_change(self.update(route));
        }
    }

    /// Remove the candidate learned from `peer` for `prefix`, if any.
    pub fn withdraw(&mut self, prefix: Ipv4Prefix, peer: PeerId) -> Option<Change> {
        self.remove_one(prefix, peer, |entry, pos| {
            let old = TopTwo::of(&entry.ranked);
            entry.ranked.remove(pos);
            let new = TopTwo::of(&entry.ranked);
            Change { prefix, old, new }
        })
    }

    /// [`LocRib::withdraw`] for an owner that reacts per prefix: `react`
    /// sees the remaining candidates and the prefix's owner state (for
    /// the last time, if no candidate remains).
    pub fn withdraw_with<R>(
        &mut self,
        prefix: Ipv4Prefix,
        peer: PeerId,
        react: impl FnOnce(&[Route], &mut X) -> R,
    ) -> Option<R> {
        self.remove_one(prefix, peer, |entry, pos| {
            entry.ranked.remove(pos);
            react(&entry.ranked, &mut entry.ext)
        })
    }

    /// Find `peer`'s candidate for `prefix` and have `remove` take it
    /// out of the entry; drops the entry if that was its last candidate.
    fn remove_one<R>(
        &mut self,
        prefix: Ipv4Prefix,
        peer: PeerId,
        remove: impl FnOnce(&mut Entry<X>, usize) -> R,
    ) -> Option<R> {
        let entry = self.entries.get_mut(prefix)?;
        let pos = entry.position(peer)?;
        let out = remove(entry, pos);
        self.routes -= 1;
        if entry.ranked.is_empty() {
            self.entries.remove(prefix);
        }
        Some(out)
    }

    /// Purge every candidate learned from `peer` (session down). Returns
    /// the changes for every affected prefix, in FIB walk order.
    pub fn withdraw_peer(&mut self, peer: PeerId) -> Vec<Change> {
        let mut changes = Vec::new();
        self.remove_all(peer, |prefix, entry, pos| {
            let old = TopTwo::of(&entry.ranked);
            entry.ranked.remove(pos);
            let new = TopTwo::of(&entry.ranked);
            changes.push(Change { prefix, old, new });
        });
        changes
    }

    /// [`LocRib::withdraw_peer`] for an owner that reacts per prefix:
    /// `react` sees each affected prefix, in FIB walk order, with its
    /// remaining candidates and owner state.
    pub fn withdraw_peer_with(
        &mut self,
        peer: PeerId,
        mut react: impl FnMut(Ipv4Prefix, &[Route], &mut X),
    ) {
        self.remove_all(peer, |prefix, entry, pos| {
            entry.ranked.remove(pos);
            react(prefix, &entry.ranked, &mut entry.ext);
        });
    }

    /// [`LocRib::remove_one`] over every prefix with a candidate from
    /// `peer`, in FIB walk order.
    fn remove_all(
        &mut self,
        peer: PeerId,
        mut remove: impl FnMut(Ipv4Prefix, &mut Entry<X>, usize),
    ) {
        let mut emptied = Vec::new();
        self.entries.for_each_mut(|prefix, entry| {
            if let Some(pos) = entry.position(peer) {
                remove(prefix, entry, pos);
                self.routes -= 1;
                if entry.ranked.is_empty() {
                    emptied.push(prefix);
                }
            }
        });
        for p in emptied {
            self.entries.remove(p);
        }
    }

    /// The ranked candidates for `prefix` (best first).
    pub fn candidates(&self, prefix: Ipv4Prefix) -> &[Route] {
        self.entries
            .get(prefix)
            .map(|e| e.ranked.as_slice())
            .unwrap_or(&[])
    }

    /// The best route for `prefix`.
    pub fn best(&self, prefix: Ipv4Prefix) -> Option<&Route> {
        self.candidates(prefix).first()
    }

    /// The current top-two snapshot for `prefix`.
    pub fn top_two(&self, prefix: Ipv4Prefix) -> TopTwo {
        TopTwo::of(self.candidates(prefix))
    }

    /// Iterate `(prefix, ranked candidates)` in FIB walk order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &[Route])> {
        self.entries.iter().map(|(p, e)| (p, e.ranked.as_slice()))
    }

    /// Iterate `(prefix, owner state)` in FIB walk order.
    pub fn iter_ext(&self) -> impl Iterator<Item = (Ipv4Prefix, &X)> {
        self.entries.iter().map(|(p, e)| (p, &e.ext))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AsPath, RouteAttrs};
    use crate::decision::{PeerInfo, DEFAULT_LOCAL_PREF};
    use std::net::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn route(prefix: &str, peer_octet: u8, local_pref: u32) -> Route {
        Route {
            prefix: p(prefix),
            attrs: RouteAttrs::ebgp(
                AsPath::sequence(vec![100 + peer_octet as u16, 200]),
                Ipv4Addr::new(10, 0, peer_octet, 1),
            )
            .shared(),
            from: PeerInfo {
                peer: Ipv4Addr::new(10, 0, peer_octet, 1),
                router_id: Ipv4Addr::new(peer_octet, 0, 0, 1),
                ebgp: true,
                igp_cost: 0,
            },
            local_pref,
        }
    }

    #[test]
    fn first_route_becomes_best() {
        let mut rib = LocRib::new();
        let c = rib.update(route("1.0.0.0/24", 2, 200));
        assert!(c.best_changed());
        assert_eq!(c.old.best, None);
        assert_eq!(
            c.new.best.as_ref().unwrap().from.peer,
            Ipv4Addr::new(10, 0, 2, 1)
        );
        assert_eq!(rib.prefix_count(), 1);
        assert_eq!(rib.route_count(), 1);
    }

    #[test]
    fn second_route_ranks_below_preferred() {
        let mut rib = LocRib::new();
        rib.update(route("1.0.0.0/24", 2, 200)); // R2 preferred
        let c = rib.update(route("1.0.0.0/24", 3, 100)); // R3 backup
        assert!(!c.best_changed(), "best stays R2");
        assert!(c.top_two_changed(), "second appeared");
        let (best, second) = c.new.nh_pair();
        assert_eq!(best, Some(Ipv4Addr::new(10, 0, 2, 1)));
        assert_eq!(second, Some(Ipv4Addr::new(10, 0, 3, 1)));
    }

    #[test]
    fn better_route_takes_over() {
        let mut rib = LocRib::new();
        rib.update(route("1.0.0.0/24", 3, 100));
        let c = rib.update(route("1.0.0.0/24", 2, 200));
        assert!(c.best_changed());
        assert_eq!(
            c.new.best.as_ref().unwrap().from.peer,
            Ipv4Addr::new(10, 0, 2, 1)
        );
        assert_eq!(
            c.new.second.as_ref().unwrap().from.peer,
            Ipv4Addr::new(10, 0, 3, 1)
        );
    }

    #[test]
    fn implicit_replace_from_same_peer() {
        let mut rib = LocRib::new();
        rib.update(route("1.0.0.0/24", 2, 200));
        // Same peer re-announces with a worse preference: implicit
        // withdraw of its previous route.
        let c = rib.update(route("1.0.0.0/24", 2, 50));
        assert_eq!(rib.route_count(), 1);
        assert!(c.best_changed());
        assert_eq!(c.new.best.as_ref().unwrap().local_pref, 50);
    }

    #[test]
    fn withdraw_promotes_backup() {
        let mut rib = LocRib::new();
        rib.update(route("1.0.0.0/24", 2, 200));
        rib.update(route("1.0.0.0/24", 3, 100));
        let c = rib
            .withdraw(p("1.0.0.0/24"), Ipv4Addr::new(10, 0, 2, 1))
            .unwrap();
        assert!(c.best_changed());
        assert_eq!(
            c.new.best.as_ref().unwrap().from.peer,
            Ipv4Addr::new(10, 0, 3, 1)
        );
        assert_eq!(c.new.second, None);
        // Withdrawing a non-existent candidate is a no-op.
        assert!(rib
            .withdraw(p("1.0.0.0/24"), Ipv4Addr::new(9, 9, 9, 9))
            .is_none());
        // Withdraw the last: prefix disappears.
        rib.withdraw(p("1.0.0.0/24"), Ipv4Addr::new(10, 0, 3, 1))
            .unwrap();
        assert_eq!(rib.prefix_count(), 0);
        assert_eq!(rib.route_count(), 0);
    }

    #[test]
    fn withdraw_peer_purges_everything_in_order() {
        let mut rib = LocRib::new();
        for (i, pfx) in ["1.0.0.0/24", "2.0.0.0/16", "3.0.0.0/8"].iter().enumerate() {
            rib.update(route(pfx, 2, 200));
            if i != 1 {
                rib.update(route(pfx, 3, 100));
            }
        }
        let changes = rib.withdraw_peer(Ipv4Addr::new(10, 0, 2, 1));
        assert_eq!(changes.len(), 3);
        // FIB walk order = sorted prefix order.
        let order: Vec<Ipv4Prefix> = changes.iter().map(|c| c.prefix).collect();
        assert_eq!(
            order,
            vec![p("1.0.0.0/24"), p("2.0.0.0/16"), p("3.0.0.0/8")]
        );
        // 2.0.0.0/16 had only R2: gone entirely.
        assert_eq!(rib.prefix_count(), 2);
        assert!(rib.best(p("2.0.0.0/16")).is_none());
        assert_eq!(
            rib.best(p("1.0.0.0/24")).unwrap().from.peer,
            Ipv4Addr::new(10, 0, 3, 1)
        );
        assert_eq!(rib.route_count(), 2);
    }

    #[test]
    fn nh_pair_changed_distinguishes_attr_churn() {
        let mut rib = LocRib::new();
        rib.update(route("1.0.0.0/24", 2, 200));
        rib.update(route("1.0.0.0/24", 3, 100));
        // Same peers, new attrs (longer path, still ranked the same):
        let mut r = route("1.0.0.0/24", 2, 200);
        r.attrs = RouteAttrs::ebgp(
            AsPath::sequence(vec![102, 200, 300]),
            Ipv4Addr::new(10, 0, 2, 1),
        )
        .shared();
        let c = rib.update(r);
        assert!(c.top_two_changed(), "attrs changed");
        assert!(!c.nh_pair_changed(), "but the NH peers did not");
    }

    #[test]
    fn three_peers_rank_fully() {
        let mut rib = LocRib::new();
        rib.update(route("1.0.0.0/24", 3, 100));
        rib.update(route("1.0.0.0/24", 1, DEFAULT_LOCAL_PREF));
        rib.update(route("1.0.0.0/24", 2, 200));
        let ranked: Vec<u8> = rib
            .candidates(p("1.0.0.0/24"))
            .iter()
            .map(|r| r.from.peer.octets()[2])
            .collect();
        // 200 > 100 == 100; tie between peer1 (lp 100) and peer3 (lp 100)
        // broken by router-id (1 < 3).
        assert_eq!(ranked, vec![2, 1, 3]);
    }

    #[test]
    fn iter_is_in_fib_walk_order() {
        let mut rib = LocRib::new();
        for pfx in ["9.0.0.0/8", "1.0.0.0/24", "5.5.0.0/16"] {
            rib.update(route(pfx, 2, 200));
        }
        let order: Vec<Ipv4Prefix> = rib.iter().map(|(p, _)| p).collect();
        assert_eq!(
            order,
            vec![p("1.0.0.0/24"), p("5.5.0.0/16"), p("9.0.0.0/8")]
        );
    }
}
