//! Property tests for the BGP substrate: wire-format identity for
//! arbitrary UPDATEs, the decision process as a strict total order, and
//! the Loc-RIB against a naive model.

use proptest::collection::vec;
use proptest::prelude::*;
use sc_bgp::attrs::{AsPath, AsSegment, Origin, RouteAttrs};
use sc_bgp::msg::{BgpMessage, UpdateMsg};
use sc_bgp::rib::{Change, LocRib};
use sc_bgp::{compare_routes, PeerInfo, Route};
use sc_net::Ipv4Prefix;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Ipv4Prefix::new(Ipv4Addr::from(a), l))
}

fn arb_as_path() -> impl Strategy<Value = AsPath> {
    vec(
        prop_oneof![
            vec(any::<u16>(), 1..8).prop_map(AsSegment::Sequence),
            vec(any::<u16>(), 1..5).prop_map(AsSegment::Set),
        ],
        0..4,
    )
    .prop_map(|segments| AsPath { segments })
}

fn arb_attrs() -> impl Strategy<Value = RouteAttrs> {
    (
        0u8..3,
        arb_as_path(),
        any::<u32>(),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u32>()),
        vec(any::<u32>(), 0..4),
    )
        .prop_map(
            |(origin, as_path, nh, med, local_pref, communities)| RouteAttrs {
                origin: match origin {
                    0 => Origin::Igp,
                    1 => Origin::Egp,
                    _ => Origin::Incomplete,
                },
                as_path,
                next_hop: Ipv4Addr::from(nh),
                med,
                local_pref,
                communities,
            },
        )
}

fn arb_route() -> impl Strategy<Value = Route> {
    (
        arb_prefix(),
        arb_attrs(),
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
        any::<u32>(),
        0u32..1000,
    )
        .prop_map(
            |(prefix, attrs, peer, router_id, ebgp, igp_cost, local_pref)| Route {
                prefix,
                attrs: Arc::new(attrs),
                from: PeerInfo {
                    peer: Ipv4Addr::from(peer),
                    router_id: Ipv4Addr::from(router_id),
                    ebgp,
                    igp_cost,
                },
                local_pref,
            },
        )
}

/// Six prefixes that nest and split, so the index trie claims and prunes
/// valueless nodes while entries come and go.
const DENSE_PREFIXES: [&str; 6] = [
    "0.0.0.0/0",
    "10.0.0.0/8",
    "10.0.0.0/16",
    "10.1.0.0/16",
    "10.1.0.0/24",
    "192.168.0.0/24",
];

fn dense_prefix(i: usize) -> Ipv4Prefix {
    DENSE_PREFIXES[i].parse().unwrap()
}

/// Routes over [`DENSE_PREFIXES`] x 12 peers: few enough LOCAL_PREF and
/// path-length values that ranks tie, swap and repeat, plus a community
/// that changes the route but never its rank (the attributes-only
/// re-announce).
fn arb_dense_route() -> impl Strategy<Value = Route> {
    (
        0usize..DENSE_PREFIXES.len(),
        1u8..=12,
        0u32..3,
        1usize..3,
        0u32..2,
    )
        .prop_map(|(prefix, peer, local_pref, path_len, community)| Route {
            prefix: dense_prefix(prefix),
            attrs: Arc::new(RouteAttrs {
                communities: vec![community],
                ..RouteAttrs::ebgp(
                    AsPath::sequence(vec![65000; path_len]),
                    Ipv4Addr::new(10, 0, peer, 1),
                )
            }),
            from: PeerInfo {
                peer: Ipv4Addr::new(10, 0, peer, 1),
                router_id: Ipv4Addr::new(peer, 0, 0, 1),
                ebgp: true,
                igp_cost: 0,
            },
            local_pref,
        })
}

/// What a mutation reported: the three verdicts and the candidates left.
type Seen = ((bool, bool, bool), Vec<Route>);

fn seen(c: &Change<'_>) -> Seen {
    (
        (c.best_changed(), c.top_two_changed(), c.nh_pair_changed()),
        c.ranked.to_vec(),
    )
}

/// The brute-force RIB: a sorted map of re-sorted vectors.
#[derive(Default)]
struct Model {
    entries: BTreeMap<Ipv4Prefix, ModelEntry>,
}

#[derive(Default)]
struct ModelEntry {
    ranked: Vec<Route>,
    /// How often a `_with` mutator touched the prefix since it appeared.
    ext: u32,
}

impl Model {
    /// Apply `edit` to the prefix's candidates, re-sort, and derive the
    /// verdicts from the old and new top two.
    fn mutate(&mut self, prefix: Ipv4Prefix, edit: impl FnOnce(&mut Vec<Route>)) -> Seen {
        let ranked = &mut self.entries.entry(prefix).or_default().ranked;
        let old = ranked.clone();
        edit(ranked);
        ranked.sort_by(compare_routes);
        let peers = |l: &[Route]| {
            (
                l.first().map(|r| r.from.peer),
                l.get(1).map(|r| r.from.peer),
            )
        };
        let best_changed = old.first() != ranked.first();
        let verdicts = (
            best_changed,
            best_changed || old.get(1) != ranked.get(1),
            peers(&old) != peers(ranked),
        );
        (verdicts, ranked.clone())
    }

    fn update(&mut self, route: &Route) -> Seen {
        self.mutate(route.prefix, |ranked| {
            ranked.retain(|r| r.from.peer != route.from.peer);
            ranked.push(route.clone());
        })
    }

    fn withdraw(&mut self, prefix: Ipv4Prefix, peer: Ipv4Addr) -> Option<Seen> {
        let serves = |e: &ModelEntry| e.ranked.iter().any(|r| r.from.peer == peer);
        self.entries
            .get(&prefix)
            .is_some_and(serves)
            .then(|| self.mutate(prefix, |ranked| ranked.retain(|r| r.from.peer != peer)))
    }

    fn withdraw_peer(&mut self, peer: Ipv4Addr) -> Vec<(Ipv4Prefix, Seen)> {
        let prefixes: Vec<Ipv4Prefix> = self.entries.keys().copied().collect();
        prefixes
            .into_iter()
            .filter_map(|p| Some((p, self.withdraw(p, peer)?)))
            .collect()
    }

    /// A `_with` mutator is about to touch `prefix`: its owner-state
    /// tally after the touch.
    fn touch(&mut self, prefix: Ipv4Prefix) -> u32 {
        let e = self.entries.entry(prefix).or_default();
        e.ext += 1;
        e.ext
    }
}

proptest! {
    /// Arbitrary UPDATE messages survive encode→decode unchanged.
    #[test]
    fn update_roundtrip(
        withdrawn in vec(arb_prefix(), 0..40),
        attrs in arb_attrs(),
        nlri in vec(arb_prefix(), 0..40),
    ) {
        // Dedup (BGP NLRI is a set; duplicates are legal on the wire but
        // equality after reparse needs set semantics — keep it simple).
        let mut withdrawn = withdrawn;
        withdrawn.sort();
        withdrawn.dedup();
        let mut nlri = nlri;
        nlri.sort();
        nlri.dedup();
        let upd = UpdateMsg {
            withdrawn,
            attrs: if nlri.is_empty() { None } else { Some(Arc::new(attrs)) },
            nlri,
        };
        let msg = BgpMessage::Update(upd);
        let enc = msg.encode();
        if enc.len() <= sc_bgp::msg::MAX_MESSAGE_LEN {
            prop_assert_eq!(BgpMessage::decode(&enc).unwrap(), msg);
        }
    }

    /// The zero-alloc encode path is byte-identical to the fresh-`Vec`
    /// one, the exact-size accounting matches the bytes produced, and a
    /// reused buffer never leaks previous contents.
    #[test]
    fn encode_into_matches_encode(
        withdrawn in vec(arb_prefix(), 0..40),
        attrs in arb_attrs(),
        nlri in vec(arb_prefix(), 0..40),
    ) {
        let upd = UpdateMsg {
            withdrawn,
            attrs: if nlri.is_empty() { None } else { Some(Arc::new(attrs)) },
            nlri,
        };
        let msg = BgpMessage::Update(upd.clone());
        let fresh = msg.encode();
        prop_assert_eq!(upd.encoded_len(), fresh.len());
        // Dirty, oversized reusable buffer: encode_into must clear it.
        let mut buf = vec![0xAB; 9000];
        msg.encode_into(&mut buf);
        prop_assert_eq!(buf, fresh);
    }

    /// Full packed-replay round-trip under forced splitting: random
    /// attrs over a prefix set large enough to exceed the RFC 4271
    /// message cap must split, encode through the reusable buffer,
    /// decode, and reassemble to exactly the original table.
    #[test]
    fn split_pack_encode_decode_roundtrip(attrs in arb_attrs(), n in 900usize..2200) {
        let mut nlri: Vec<Ipv4Prefix> = (0..n as u32)
            .map(|i| Ipv4Prefix::new(Ipv4Addr::from(0x0a00_0000u32.wrapping_add(i << 8)), 24))
            .collect();
        nlri.sort();
        nlri.dedup();
        let attrs = Arc::new(attrs);
        let parts = UpdateMsg::announce(attrs.clone(), nlri.clone()).split_to_fit();
        let mut buf = Vec::new();
        let mut collected = Vec::new();
        for part in &parts {
            let msg = BgpMessage::Update(part.clone());
            msg.encode_into(&mut buf);
            prop_assert!(buf.len() <= sc_bgp::msg::MAX_MESSAGE_LEN);
            prop_assert_eq!(part.encoded_len(), buf.len());
            let decoded = BgpMessage::decode(&buf).unwrap();
            let BgpMessage::Update(u) = decoded else {
                return Err(TestCaseError::fail("decoded to a non-UPDATE".to_string()));
            };
            prop_assert_eq!(u.attrs.as_deref(), Some(attrs.as_ref()));
            collected.extend(u.nlri);
        }
        prop_assert_eq!(collected, nlri);
    }

    /// split_to_fit never loses or reorders NLRI and every part fits.
    #[test]
    fn split_preserves_nlri(attrs in arb_attrs(), n in 1usize..3000) {
        let nlri: Vec<Ipv4Prefix> = (0..n as u32)
            .map(|i| Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000u32.wrapping_add(i << 8)), 24))
            .collect();
        let mut nlri = nlri;
        nlri.sort();
        nlri.dedup();
        let parts = UpdateMsg::announce(Arc::new(attrs), nlri.clone()).split_to_fit();
        let mut collected = Vec::new();
        for p in &parts {
            let enc = BgpMessage::Update(p.clone()).encode();
            prop_assert!(enc.len() <= sc_bgp::msg::MAX_MESSAGE_LEN);
            collected.extend(p.nlri.iter().copied());
        }
        prop_assert_eq!(collected, nlri);
    }

    /// The decision process is a strict weak order: antisymmetric,
    /// transitive, and total — two routes from distinct peers never tie.
    /// (A tie would make the controller's backup-groups nondeterministic
    /// across replicas, breaking §3 of the paper.)
    #[test]
    fn decision_is_total_order(routes in vec(arb_route(), 2..12)) {
        for a in &routes {
            prop_assert_eq!(compare_routes(a, a), Ordering::Equal);
            for b in &routes {
                let ab = compare_routes(a, b);
                let ba = compare_routes(b, a);
                prop_assert_eq!(ab, ba.reverse(), "antisymmetry");
                if a.from.peer != b.from.peer {
                    prop_assert_ne!(ab, Ordering::Equal, "distinct peers must not tie");
                }
                for c in &routes {
                    if ab != Ordering::Greater && compare_routes(b, c) != Ordering::Greater {
                        prop_assert_ne!(
                            compare_routes(a, c),
                            Ordering::Greater,
                            "transitivity"
                        );
                    }
                }
            }
        }
        // Sorting is therefore stable and deterministic: two shuffles
        // agree.
        let mut v1 = routes.clone();
        let mut v2: Vec<Route> = routes.iter().rev().cloned().collect();
        v1.sort_by(compare_routes);
        v2.sort_by(compare_routes);
        let key = |r: &Route| (r.from.peer, r.prefix);
        prop_assert_eq!(v1.iter().map(key).collect::<Vec<_>>(),
                        v2.iter().map(key).collect::<Vec<_>>());
    }

    /// LocRib against a naive model, on a universe small enough that
    /// entries cross the inline/spilled boundary both ways and prefixes
    /// vanish and return (slot reuse): after every step of every mutator
    /// the ranked lists, counts, owner state, walk order and the change
    /// verdicts agree with brute force.
    #[test]
    fn locrib_matches_naive_model(
        ops in vec((0u8..7, arb_dense_route(), vec(0usize..DENSE_PREFIXES.len(), 1..5)), 1..120),
    ) {
        let mut rib: LocRib<u32> = LocRib::default();
        let mut model = Model::default();
        for (kind, route, picks) in ops {
            let (prefix, peer) = (route.prefix, route.from.peer);
            match kind {
                0 => {
                    let want = model.update(&route);
                    let got = rib.update(route);
                    prop_assert_eq!(seen(&got), want);
                }
                1 => {
                    let want = model.update(&route);
                    let ext = model.touch(prefix);
                    let got = rib.update_with(route, |ranked, x| {
                        *x += 1;
                        (ranked.to_vec(), *x)
                    });
                    prop_assert_eq!(got, (want.1, ext));
                }
                2 => {
                    let nlri: Vec<Ipv4Prefix> =
                        picks.iter().map(|&i| dense_prefix(i)).collect();
                    let want: Vec<_> = nlri
                        .iter()
                        .map(|&prefix| model.update(&Route { prefix, ..route.clone() }))
                        .collect();
                    let mut got = Vec::new();
                    rib.apply_update_batch(&route.attrs, &nlri, route.from, route.local_pref, |c| {
                        got.push(seen(&c))
                    });
                    prop_assert_eq!(got, want);
                }
                3 => {
                    let want = model.withdraw(prefix, peer);
                    let got = rib.withdraw(prefix, peer);
                    prop_assert_eq!(got.as_ref().map(seen), want);
                }
                4 => {
                    let want = model
                        .withdraw(prefix, peer)
                        .map(|(_, ranked)| (ranked, model.touch(prefix)));
                    let got = rib.withdraw_with(prefix, peer, |ranked, x| {
                        *x += 1;
                        (ranked.to_vec(), *x)
                    });
                    prop_assert_eq!(got, want);
                }
                5 => {
                    let want = model.withdraw_peer(peer);
                    let mut got = Vec::new();
                    rib.withdraw_peer(peer, |c| got.push((c.prefix, seen(&c))));
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let want: Vec<_> = model
                        .withdraw_peer(peer)
                        .into_iter()
                        .map(|(prefix, (_, ranked))| (prefix, ranked, model.touch(prefix)))
                        .collect();
                    let mut got = Vec::new();
                    rib.withdraw_peer_with(peer, |prefix, ranked, x| {
                        *x += 1;
                        got.push((prefix, ranked.to_vec(), *x));
                    });
                    prop_assert_eq!(got, want);
                }
            }
            model.entries.retain(|_, e| !e.ranked.is_empty());
            // The whole table, in FIB walk order whatever the slab order.
            let got: Vec<_> = rib.iter().map(|(p, r)| (p, r.to_vec())).collect();
            let want: Vec<_> =
                model.entries.iter().map(|(p, e)| (*p, e.ranked.clone())).collect();
            prop_assert_eq!(got, want);
            let got: Vec<_> = rib.iter_ext().map(|(p, x)| (p, *x)).collect();
            let want: Vec<_> = model.entries.iter().map(|(p, e)| (*p, e.ext)).collect();
            prop_assert_eq!(got, want);
            for i in 0..DENSE_PREFIXES.len() {
                let ranked = model.entries.get(&dense_prefix(i)).map(|e| &e.ranked[..]);
                prop_assert_eq!(rib.candidates(dense_prefix(i)), ranked.unwrap_or(&[]));
            }
            let routes = model.entries.values().map(|e| e.ranked.len()).sum::<usize>();
            let spilled = model.entries.values().filter(|e| e.ranked.len() > 2).count();
            prop_assert_eq!(rib.prefix_count(), model.entries.len());
            prop_assert_eq!(rib.route_count(), routes);
            let footprint = rib.footprint();
            prop_assert_eq!(
                (footprint.prefixes, footprint.routes, footprint.spilled_entries),
                (model.entries.len(), routes, spilled)
            );
        }
    }

    /// withdraw_peer ≡ withdrawing each of the peer's prefixes one by
    /// one, and leaves no trace of the peer.
    #[test]
    fn withdraw_peer_purges_completely(routes in vec(arb_route(), 1..60)) {
        let mut rib = LocRib::new();
        for r in &routes {
            rib.update(r.clone());
        }
        let victim = routes[0].from.peer;
        let mut changed: Vec<Ipv4Prefix> = Vec::new();
        rib.withdraw_peer(victim, |c| changed.push(c.prefix));
        // No candidate from the victim remains.
        for (_, cands) in rib.iter() {
            prop_assert!(cands.iter().all(|r| r.from.peer != victim));
        }
        // Change list covers exactly the prefixes the victim served.
        let mut served: Vec<Ipv4Prefix> = routes
            .iter()
            .filter(|r| r.from.peer == victim)
            .map(|r| r.prefix)
            .collect();
        served.sort();
        served.dedup();
        prop_assert_eq!(changed, served, "each served prefix once, in FIB walk order");
    }
}
