//! The BGP decision process (RFC 4271 §9.1) as a total order.
//!
//! The supercharged controller must rank routes **exactly** like the
//! router it fronts, because the first two entries of the ranking define
//! the backup-group (Listing 1 of the paper). The comparison below is the
//! classic sequence:
//!
//! 1. highest LOCAL_PREF (assigned at import),
//! 2. shortest AS_PATH,
//! 3. lowest ORIGIN (IGP < EGP < INCOMPLETE),
//! 4. lowest MED (compared across all neighbors — the common
//!    `always-compare-med` configuration; missing MED = 0),
//! 5. eBGP-learned over iBGP-learned,
//! 6. lowest IGP cost to the NEXT_HOP,
//! 7. lowest router ID,
//! 8. lowest peer address (final deterministic tie-break).
//!
//! Step 8 guarantees *totality*: two distinct routes never compare equal,
//! which property tests assert — a ranking with ties would make the
//! controller's backup-groups nondeterministic across replicas.
//!
//! # Where the inputs live
//!
//! A [`Route`] is what differs from one candidate to the next — the
//! attribute set, the peer it came from, the LOCAL_PREF import gave it —
//! in 16 bytes, because a RIB pays for it once per candidate of every
//! prefix. The prefix is the key the RIB files the route under, and what
//! steps 5-7 read (eBGP or iBGP, IGP cost, router ID) are facts of the
//! *session*, the same for every route a peer sends: they sit once per
//! peer in a [`PeerTable`], which the comparison consults only when
//! steps 1-4 tie.

use crate::attrs::RouteAttrs;
use crate::PeerId;
use std::cmp::Ordering;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Session-level facts about the peer a route was learned from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct PeerInfo {
    /// Session address — the route's identity for replace/withdraw.
    pub peer: PeerId,
    /// Peer's BGP identifier (step 7).
    pub router_id: Ipv4Addr,
    /// True if learned over eBGP (step 5).
    pub ebgp: bool,
    /// IGP metric to reach the peer/next-hop (step 6); 0 for directly
    /// connected eBGP peers, which is the paper's topology.
    pub igp_cost: u32,
}

/// The [`PeerInfo`] of every peer routes were learned from, one entry a
/// peer: a handful of sessions, searched linearly.
#[derive(Debug, Default)]
pub struct PeerTable {
    peers: Vec<PeerInfo>,
}

impl PeerTable {
    /// An empty table.
    pub fn new() -> PeerTable {
        PeerTable::default()
    }

    /// Record `from` as the facts of `from.peer`. Returns whether the
    /// peer was known with *other* facts: a list ranked while those held
    /// and still holding a route of the peer's is no longer sorted.
    pub fn learn(&mut self, from: PeerInfo) -> bool {
        match self.peers.iter_mut().find(|known| known.peer == from.peer) {
            Some(known) => from != std::mem::replace(known, from),
            None => {
                self.peers.push(from);
                false
            }
        }
    }

    /// What was last learned about `peer`.
    pub fn get(&self, peer: PeerId) -> Option<&PeerInfo> {
        self.peers.iter().find(|known| known.peer == peer)
    }

    /// The facts behind the candidates `a` and `b`, for steps 5-8.
    fn pair(&self, a: &Route, b: &Route) -> (&PeerInfo, &PeerInfo) {
        let facts = |r: &Route| {
            self.get(r.peer)
                .expect("a candidate's peer was learned before its route was ranked")
        };
        (facts(a), facts(b))
    }
}

/// A candidate route for one prefix, as the prefix's RIB entry holds it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Route {
    pub attrs: Arc<RouteAttrs>,
    /// The session the route was learned over — its identity for
    /// replace/withdraw, and the key of the peer's [`PeerInfo`].
    pub peer: PeerId,
    /// Effective LOCAL_PREF after import policy (eBGP routes carry none
    /// on the wire; import policy assigns it — e.g. the paper prefers R2
    /// by giving its session a higher value).
    pub local_pref: u32,
}

// Every RIB entry holds these inline: a field added here is paid once
// per candidate of every full-table run.
const _: () = assert!(
    std::mem::size_of::<Route>() <= 16,
    "Route: 16 B per RIB candidate"
);

impl Route {
    /// The protocol next-hop of this route.
    pub fn next_hop(&self) -> Ipv4Addr {
        self.attrs.next_hop
    }
}

/// Default LOCAL_PREF when policy assigns none (industry convention).
pub const DEFAULT_LOCAL_PREF: u32 = 100;

/// Compare two candidate routes for the same prefix, both learned from
/// peers `peers` knows. `Ordering::Less` means `a` is **preferred** over
/// `b`, so sorting a candidate list ascending puts the best route first.
pub fn compare_routes(peers: &PeerTable, a: &Route, b: &Route) -> Ordering {
    // 1. Highest local-pref wins => reverse numeric order.
    b.local_pref
        .cmp(&a.local_pref)
        // 2. Shortest AS path.
        .then_with(|| a.attrs.as_path.path_len().cmp(&b.attrs.as_path.path_len()))
        // 3. Lowest origin.
        .then_with(|| a.attrs.origin.cmp(&b.attrs.origin))
        // 4. Lowest MED (missing treated as 0 — RFC 4271 §9.1.2.2.c
        //    default; we compare across neighbors, i.e.
        //    always-compare-med, a documented simplification).
        .then_with(|| a.attrs.med.unwrap_or(0).cmp(&b.attrs.med.unwrap_or(0)))
        // From here on the sessions decide, not the routes.
        .then_with(|| {
            let (from_a, from_b) = peers.pair(a, b);
            // 5. eBGP over iBGP.
            from_b
                .ebgp
                .cmp(&from_a.ebgp)
                // 6. Lowest IGP cost.
                .then_with(|| from_a.igp_cost.cmp(&from_b.igp_cost))
                // 7. Lowest router id.
                .then_with(|| from_a.router_id.cmp(&from_b.router_id))
                // 8. Lowest peer address.
                .then_with(|| a.peer.cmp(&b.peer))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AsPath, Origin};

    fn peer(n: u8) -> PeerInfo {
        PeerInfo {
            peer: Ipv4Addr::new(10, 0, n, 1),
            router_id: Ipv4Addr::new(n, n, n, n),
            ebgp: true,
            igp_cost: 0,
        }
    }

    fn table(peers: impl IntoIterator<Item = PeerInfo>) -> PeerTable {
        let mut table = PeerTable::new();
        for from in peers {
            assert!(!table.learn(from), "one set of facts per peer");
        }
        table
    }

    /// Peers 1..=3 as [`peer`] describes them.
    fn plain() -> PeerTable {
        table((1..=3).map(peer))
    }

    fn route(n: u8, f: impl FnOnce(&mut Route)) -> Route {
        let mut r = Route {
            attrs: RouteAttrs::ebgp(AsPath::sequence(vec![100, 200]), Ipv4Addr::new(10, 0, n, 1))
                .shared(),
            peer: peer(n).peer,
            local_pref: DEFAULT_LOCAL_PREF,
        };
        f(&mut r);
        r
    }

    fn attrs_mut(r: &mut Route) -> &mut RouteAttrs {
        Arc::make_mut(&mut r.attrs)
    }

    #[test]
    fn local_pref_dominates_everything() {
        let strong = route(2, |r| {
            r.local_pref = 200;
            attrs_mut(r).as_path = AsPath::sequence(vec![1, 2, 3, 4, 5]);
            attrs_mut(r).med = Some(999);
        });
        let weak = route(1, |r| {
            r.local_pref = 100;
            attrs_mut(r).as_path = AsPath::sequence(vec![1]);
        });
        assert_eq!(compare_routes(&plain(), &strong, &weak), Ordering::Less);
    }

    #[test]
    fn as_path_length_then_origin_then_med() {
        let peers = plain();
        let short = route(1, |r| {
            attrs_mut(r).as_path = AsPath::sequence(vec![100]);
        });
        let long = route(2, |r| {
            attrs_mut(r).as_path = AsPath::sequence(vec![100, 200]);
        });
        assert_eq!(compare_routes(&peers, &short, &long), Ordering::Less);

        let igp = route(1, |r| {
            attrs_mut(r).origin = Origin::Igp;
        });
        let incomplete = route(2, |r| {
            attrs_mut(r).origin = Origin::Incomplete;
        });
        assert_eq!(compare_routes(&peers, &igp, &incomplete), Ordering::Less);

        let low_med = route(1, |r| {
            attrs_mut(r).med = Some(10);
        });
        let high_med = route(2, |r| {
            attrs_mut(r).med = Some(20);
        });
        assert_eq!(compare_routes(&peers, &low_med, &high_med), Ordering::Less);
        // Missing MED counts as zero: beats MED 10.
        let no_med = route(3, |r| {
            attrs_mut(r).med = None;
        });
        assert_eq!(compare_routes(&peers, &no_med, &low_med), Ordering::Less);
    }

    #[test]
    fn ebgp_beats_ibgp_and_igp_cost_breaks() {
        // Peer 2 has the lower-ranked session both times; nothing in the
        // routes tells them apart.
        let (one, two) = (route(1, |_| {}), route(2, |_| {}));
        let ibgp = PeerInfo {
            ebgp: false,
            ..peer(2)
        };
        let peers = table([peer(1), ibgp]);
        assert_eq!(compare_routes(&peers, &one, &two), Ordering::Less);

        let near = PeerInfo {
            igp_cost: 5,
            router_id: peer(3).router_id,
            ..peer(1)
        };
        let far = PeerInfo {
            igp_cost: 50,
            ..peer(2)
        };
        let peers = table([near, far]);
        assert_eq!(compare_routes(&peers, &one, &two), Ordering::Less);
    }

    #[test]
    fn router_id_then_peer_address_finalize() {
        let low_id = route(1, |_| {});
        let high_id = route(2, |_| {});
        assert_eq!(compare_routes(&plain(), &low_id, &high_id), Ordering::Less);

        // Same router id, different peer address.
        let twin = PeerInfo {
            peer: Ipv4Addr::new(10, 0, 99, 1),
            ..peer(1)
        };
        let peers = table([peer(1), twin]);
        let a = route(1, |_| {});
        let b = route(1, |r| r.peer = twin.peer);
        assert_eq!(compare_routes(&peers, &a, &b), Ordering::Less);
    }

    #[test]
    fn total_order_no_ties_between_distinct_peers() {
        // Identical attributes from different peers must still order.
        let peers = plain();
        let a = route(1, |_| {});
        let b = route(2, |_| {});
        assert_ne!(compare_routes(&peers, &a, &b), Ordering::Equal);
        assert_eq!(compare_routes(&peers, &a, &a.clone()), Ordering::Equal);
    }

    #[test]
    fn sorting_yields_paper_scenario_ranking() {
        // The paper: R1 prefers R2 ($ provider) over R3 ($$) for all
        // prefixes, via import local-pref. Sorting must put R2 first.
        let peers = plain();
        let r2 = route(2, |r| r.local_pref = 200);
        let r3 = route(3, |r| r.local_pref = 100);
        let mut v = [r3.clone(), r2.clone()];
        v.sort_by(|a, b| compare_routes(&peers, a, b));
        assert_eq!(v[0].peer, r2.peer);
        assert_eq!(v[1].peer, r3.peer);
    }

    /// The table keeps one entry a peer and says when its facts moved.
    #[test]
    fn learning_a_peer_again_replaces_its_facts() {
        let mut peers = plain();
        assert!(!peers.learn(peer(2)), "same facts: nothing moved");
        let renumbered = PeerInfo {
            router_id: Ipv4Addr::new(0, 0, 0, 9),
            ..peer(2)
        };
        assert!(peers.learn(renumbered));
        assert_eq!(peers.get(peer(2).peer), Some(&renumbered));
        assert_eq!(peers.get(Ipv4Addr::new(9, 9, 9, 9)), None);
        // Router id 0.0.0.9 now beats peer 1's 1.1.1.1.
        let (one, two) = (route(1, |_| {}), route(2, |_| {}));
        assert_eq!(compare_routes(&peers, &two, &one), Ordering::Less);
    }
}
