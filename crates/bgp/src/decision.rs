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

use crate::attrs::RouteAttrs;
use crate::PeerId;
use sc_net::Ipv4Prefix;
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

/// A candidate route for one prefix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Route {
    pub prefix: Ipv4Prefix,
    pub attrs: Arc<RouteAttrs>,
    pub from: PeerInfo,
    /// Effective LOCAL_PREF after import policy (eBGP routes carry none
    /// on the wire; import policy assigns it — e.g. the paper prefers R2
    /// by giving its session a higher value).
    pub local_pref: u32,
}

// Every RIB entry holds these inline: a field added here is paid once
// per candidate of every full-table run.
const _: () = assert!(
    std::mem::size_of::<Route>() <= 40,
    "Route: 40 B per RIB candidate"
);

impl Route {
    /// The protocol next-hop of this route.
    pub fn next_hop(&self) -> Ipv4Addr {
        self.attrs.next_hop
    }
}

/// Default LOCAL_PREF when policy assigns none (industry convention).
pub const DEFAULT_LOCAL_PREF: u32 = 100;

/// Compare two candidate routes for the same prefix.
/// `Ordering::Less` means `a` is **preferred** over `b`, so sorting a
/// candidate list ascending puts the best route first.
pub fn compare_routes(a: &Route, b: &Route) -> Ordering {
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
        // 5. eBGP over iBGP.
        .then_with(|| b.from.ebgp.cmp(&a.from.ebgp))
        // 6. Lowest IGP cost.
        .then_with(|| a.from.igp_cost.cmp(&b.from.igp_cost))
        // 7. Lowest router id.
        .then_with(|| a.from.router_id.cmp(&b.from.router_id))
        // 8. Lowest peer address.
        .then_with(|| a.from.peer.cmp(&b.from.peer))
}

/// A human-readable explanation of why `a` beats `b` (for traces,
/// debugging and the examples). Returns `None` if they compare equal,
/// which only happens when comparing a route with itself.
pub fn explain_preference(a: &Route, b: &Route) -> Option<&'static str> {
    if a.local_pref != b.local_pref {
        return Some("local-pref");
    }
    if a.attrs.as_path.path_len() != b.attrs.as_path.path_len() {
        return Some("as-path length");
    }
    if a.attrs.origin != b.attrs.origin {
        return Some("origin");
    }
    if a.attrs.med.unwrap_or(0) != b.attrs.med.unwrap_or(0) {
        return Some("med");
    }
    if a.from.ebgp != b.from.ebgp {
        return Some("ebgp-over-ibgp");
    }
    if a.from.igp_cost != b.from.igp_cost {
        return Some("igp cost");
    }
    if a.from.router_id != b.from.router_id {
        return Some("router-id");
    }
    if a.from.peer != b.from.peer {
        return Some("peer address");
    }
    None
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

    fn route(n: u8, f: impl FnOnce(&mut Route)) -> Route {
        let mut r = Route {
            prefix: "1.0.0.0/24".parse().unwrap(),
            attrs: RouteAttrs::ebgp(AsPath::sequence(vec![100, 200]), Ipv4Addr::new(10, 0, n, 1))
                .shared(),
            from: peer(n),
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
        assert_eq!(compare_routes(&strong, &weak), Ordering::Less);
        assert_eq!(explain_preference(&strong, &weak), Some("local-pref"));
    }

    #[test]
    fn as_path_length_then_origin_then_med() {
        let short = route(1, |r| {
            attrs_mut(r).as_path = AsPath::sequence(vec![100]);
        });
        let long = route(2, |r| {
            attrs_mut(r).as_path = AsPath::sequence(vec![100, 200]);
        });
        assert_eq!(compare_routes(&short, &long), Ordering::Less);

        let igp = route(1, |r| {
            attrs_mut(r).origin = Origin::Igp;
        });
        let incomplete = route(2, |r| {
            attrs_mut(r).origin = Origin::Incomplete;
        });
        assert_eq!(compare_routes(&igp, &incomplete), Ordering::Less);
        assert_eq!(explain_preference(&igp, &incomplete), Some("origin"));

        let low_med = route(1, |r| {
            attrs_mut(r).med = Some(10);
        });
        let high_med = route(2, |r| {
            attrs_mut(r).med = Some(20);
        });
        assert_eq!(compare_routes(&low_med, &high_med), Ordering::Less);
        // Missing MED counts as zero: beats MED 10.
        let no_med = route(3, |r| {
            attrs_mut(r).med = None;
        });
        assert_eq!(compare_routes(&no_med, &low_med), Ordering::Less);
    }

    #[test]
    fn ebgp_beats_ibgp_and_igp_cost_breaks() {
        let ebgp = route(1, |r| r.from.ebgp = true);
        let ibgp = route(2, |r| r.from.ebgp = false);
        assert_eq!(compare_routes(&ebgp, &ibgp), Ordering::Less);
        assert_eq!(explain_preference(&ebgp, &ibgp), Some("ebgp-over-ibgp"));

        let near = route(1, |r| r.from.igp_cost = 5);
        let far = route(2, |r| r.from.igp_cost = 50);
        assert_eq!(compare_routes(&near, &far), Ordering::Less);
    }

    #[test]
    fn router_id_then_peer_address_finalize() {
        let low_id = route(1, |_| {});
        let high_id = route(2, |_| {});
        assert_eq!(compare_routes(&low_id, &high_id), Ordering::Less);

        // Same router id, different peer address.
        let a = route(1, |_| {});
        let b = route(1, |r| r.from.peer = Ipv4Addr::new(10, 0, 99, 1));
        assert_eq!(compare_routes(&a, &b), Ordering::Less);
        assert_eq!(explain_preference(&a, &b), Some("peer address"));
    }

    #[test]
    fn total_order_no_ties_between_distinct_peers() {
        // Identical attributes from different peers must still order.
        let a = route(1, |_| {});
        let b = route(2, |_| {});
        assert_ne!(compare_routes(&a, &b), Ordering::Equal);
        assert_eq!(compare_routes(&a, &a.clone()), Ordering::Equal);
        assert_eq!(explain_preference(&a, &a.clone()), None);
    }

    #[test]
    fn sorting_yields_paper_scenario_ranking() {
        // The paper: R1 prefers R2 ($ provider) over R3 ($$) for all
        // prefixes, via import local-pref. Sorting must put R2 first.
        let r2 = route(2, |r| r.local_pref = 200);
        let r3 = route(3, |r| r.local_pref = 100);
        let mut v = [r3.clone(), r2.clone()];
        v.sort_by(compare_routes);
        assert_eq!(v[0].from.peer, r2.from.peer);
        assert_eq!(v[1].from.peer, r3.from.peer);
    }
}
