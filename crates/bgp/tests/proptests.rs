//! Property tests for the BGP substrate: wire-format identity for
//! arbitrary UPDATEs, a decoder that never panics on hostile bytes, the
//! decision process as a strict total order, the Loc-RIB against a
//! naive model, and the Adj-RIB-Out's bulk seeding against applying its
//! feed in order.

use proptest::collection::vec;
use proptest::prelude::*;
use sc_bgp::attrs::{AsPath, AsSegment, Origin, RouteAttrs};
use sc_bgp::msg::{BgpMessage, UpdateMsg};
use sc_bgp::rib::{Change, LocRib};
use sc_bgp::{compare_routes, AdjRibOut, PeerInfo, PeerTable, Route};
use sc_net::{Ipv4Prefix, PrefixTrie};
use std::cmp::{Ordering, Reverse};
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

/// One announcement as a RIB is handed it: the prefix, the route's own
/// 16 bytes, and the facts of the session it came over.
#[derive(Clone, Debug)]
struct Learned {
    prefix: Ipv4Prefix,
    attrs: Arc<RouteAttrs>,
    from: PeerInfo,
    local_pref: u32,
}

impl Learned {
    /// What the RIB keeps of it.
    fn route(&self) -> Route {
        Route {
            attrs: self.attrs.clone(),
            peer: self.from.peer,
            local_pref: self.local_pref,
        }
    }

    fn into_rib<X: Default>(self, rib: &mut LocRib<X>) -> Change<'_> {
        rib.update(self.prefix, self.attrs, self.from, self.local_pref)
    }
}

fn peer(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, n, 1)
}

/// The session facts of peer `n` of 12 at its first OPEN: a function of
/// the peer alone, like a real session's. Router ids are distinct and
/// not in peer-address order, every third peer is iBGP, and the IGP
/// costs alternate — so steps 5, 6 and 7 each decide some ranks.
fn session(n: u8) -> PeerInfo {
    PeerInfo {
        peer: peer(n),
        router_id: Ipv4Addr::new(n % 4, 0, 0, 13 - n),
        ebgp: !n.is_multiple_of(3),
        igp_cost: if n.is_multiple_of(2) { 10 } else { 20 },
    }
}

/// Arbitrary attributes on an arbitrary prefix from one of 12 peers.
fn arb_learned() -> impl Strategy<Value = Learned> {
    (arb_prefix(), arb_attrs(), 1u8..=12, 0u32..1000).prop_map(
        |(prefix, attrs, peer, local_pref)| Learned {
            prefix,
            attrs: Arc::new(attrs),
            from: session(peer),
            local_pref,
        },
    )
}

/// Six prefixes that nest and split, so neighbours in the index come and
/// go around entries that stay.
const DENSE_PREFIXES: [&str; 6] = [
    "0.0.0.0/0",
    "10.0.0.0/8",
    "10.0.0.0/16",
    "10.1.0.0/16",
    "10.1.0.0/24",
    "192.168.0.0/24",
];

/// Prefixes whose order is easy to get wrong: the default route, /8 ⊃ /16
/// ⊃ /24 ⊃ /32 chains over a handful of networks (so equal bits meet at
/// different lengths), host routes, and anything else.
fn arb_order_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    prop_oneof![
        Just(Ipv4Prefix::DEFAULT),
        (0u8..3, 0u8..3, 0u8..3, 1u8..=4).prop_map(|(a, b, c, octets)| {
            Ipv4Prefix::new(Ipv4Addr::new(10 + a, b, c, 0), 8 * octets)
        }),
        any::<u32>().prop_map(|a| Ipv4Prefix::host(Ipv4Addr::from(a))),
        arb_prefix(),
    ]
}

fn dense_prefix(i: usize) -> Ipv4Prefix {
    DENSE_PREFIXES[i].parse().unwrap()
}

/// Routes over [`DENSE_PREFIXES`] x 12 peers: few enough LOCAL_PREF and
/// path-length values (one origin, no MED) that most ranks are decided
/// by the sessions, steps 5-7, and tie, swap and repeat; plus a community
/// that changes the route but never its rank (the attributes-only
/// re-announce). `from` is the peer's *first* session; the model knows
/// the current one.
fn arb_dense_route() -> impl Strategy<Value = Learned> {
    (
        0usize..DENSE_PREFIXES.len(),
        1u8..=12,
        0u32..3,
        1usize..3,
        0u32..2,
    )
        .prop_map(|(prefix, n, local_pref, path_len, community)| Learned {
            prefix: dense_prefix(prefix),
            attrs: Arc::new(RouteAttrs {
                communities: vec![community],
                ..RouteAttrs::ebgp(AsPath::sequence(vec![65000; path_len]), peer(n))
            }),
            from: session(n),
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

/// The brute-force RIB: a sorted map of re-sorted vectors, ranked by a
/// decision process of its own over a per-peer map of its own.
#[derive(Default)]
struct Model {
    entries: BTreeMap<Ipv4Prefix, ModelEntry>,
    /// Every peer's current session facts (absent: [`session`]).
    sessions: BTreeMap<Ipv4Addr, PeerInfo>,
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
        // RFC 4271 §9.1 as one sort key, steps 1-8 in order.
        let sessions = &self.sessions;
        ranked.sort_by_key(|r| {
            let from = sessions[&r.peer];
            (
                Reverse(r.local_pref),
                r.attrs.as_path.path_len(),
                r.attrs.origin,
                r.attrs.med.unwrap_or(0),
                Reverse(from.ebgp),
                from.igp_cost,
                from.router_id,
                r.peer,
            )
        });
        let peers = |l: &[Route]| (l.first().map(|r| r.peer), l.get(1).map(|r| r.peer));
        let best_changed = old.first() != ranked.first();
        let verdicts = (
            best_changed,
            best_changed || old.get(1) != ranked.get(1),
            peers(&old) != peers(ranked),
        );
        (verdicts, ranked.clone())
    }

    /// The facts `peer`'s announcements carry right now.
    fn session_of(&self, first: PeerInfo) -> PeerInfo {
        *self.sessions.get(&first.peer).unwrap_or(&first)
    }

    fn update(&mut self, learned: &Learned) -> Seen {
        let route = learned.route();
        self.sessions.insert(route.peer, learned.from);
        self.mutate(learned.prefix, |ranked| {
            ranked.retain(|r| r.peer != route.peer);
            ranked.push(route);
        })
    }

    fn withdraw(&mut self, prefix: Ipv4Prefix, peer: Ipv4Addr) -> Option<Seen> {
        let serves = |e: &ModelEntry| e.ranked.iter().any(|r| r.peer == peer);
        self.entries
            .get(&prefix)
            .is_some_and(serves)
            .then(|| self.mutate(prefix, |ranked| ranked.retain(|r| r.peer != peer)))
    }

    fn withdraw_peer(&mut self, peer: Ipv4Addr) -> Vec<(Ipv4Prefix, Seen)> {
        let prefixes: Vec<Ipv4Prefix> = self.entries.keys().copied().collect();
        prefixes
            .into_iter()
            .filter_map(|p| Some((p, self.withdraw(p, peer)?)))
            .collect()
    }

    /// A prefix whose last candidate went is gone, owner state and all.
    fn sweep(&mut self) {
        self.entries.retain(|_, e| !e.ranked.is_empty());
    }

    /// A `_with` mutator is about to touch `prefix`: its owner-state
    /// tally after the touch.
    fn touch(&mut self, prefix: Ipv4Prefix) -> u32 {
        let e = self.entries.entry(prefix).or_default();
        e.ext += 1;
        e.ext
    }
}

/// Decode hostile bytes: whatever comes back, an UPDATE holds no more
/// prefixes than its body has bytes (each takes at least its length
/// byte), and its prefix lists were allocated at exactly their length.
fn decode_hostile(wire: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(BgpMessage::Update(u)) = BgpMessage::decode(wire) {
        let body = wire.len() - sc_bgp::msg::HEADER_LEN;
        prop_assert!(
            u.withdrawn.len() + u.nlri.len() <= body,
            "{u:?} from {wire:?}"
        );
        prop_assert_eq!(u.withdrawn.capacity(), u.withdrawn.len());
        prop_assert_eq!(u.nlri.capacity(), u.nlri.len());
    }
    Ok(())
}

/// A BGP header (marker, length, type) in front of `body`.
fn framed(ty: u8, body: &[u8]) -> Vec<u8> {
    let mut wire = vec![0xff; 16];
    wire.extend_from_slice(&((sc_bgp::msg::HEADER_LEN + body.len()) as u16).to_be_bytes());
    wire.push(ty);
    wire.extend_from_slice(body);
    wire
}

/// The prefix an Adj-RIB-Out test draws as `slot`. Lengths /16 to /24:
/// some slots mask to the same prefix.
fn adj_out_prefix(slot: u16) -> Ipv4Prefix {
    let addr = Ipv4Addr::from(0x0100_0000 + ((slot as u32) << 8));
    Ipv4Prefix::new(addr, 16 + (slot % 9) as u8)
}

/// The per-session B-tree the Adj-RIB-Out was before it kept a shared
/// base and a delta: the reference model it must export like, message
/// for message and attribute `Arc` for `Arc`.
#[derive(Clone, Default)]
struct ModelAdjRibOut {
    routes: BTreeMap<Ipv4Prefix, Arc<RouteAttrs>>,
}

impl ModelAdjRibOut {
    fn apply(&mut self, upd: &UpdateMsg) {
        for prefix in &upd.withdrawn {
            self.routes.remove(prefix);
        }
        if let Some(attrs) = &upd.attrs {
            for prefix in &upd.nlri {
                self.routes.insert(*prefix, attrs.clone());
            }
        }
    }

    fn export(&self) -> Vec<UpdateMsg> {
        let mut out = Vec::new();
        let mut current: Option<(Arc<RouteAttrs>, Vec<Ipv4Prefix>)> = None;
        for (prefix, attrs) in &self.routes {
            match &mut current {
                Some((a, nlri)) if Arc::ptr_eq(a, attrs) => nlri.push(*prefix),
                _ => {
                    if let Some((a, nlri)) = current.replace((attrs.clone(), vec![*prefix])) {
                        UpdateMsg::announce(a, nlri).split_to_fit(&mut out);
                    }
                }
            }
        }
        if let Some((a, nlri)) = current {
            UpdateMsg::announce(a, nlri).split_to_fit(&mut out);
        }
        out
    }
}

/// `rib` exports what `model` does, attribute `Arc`s included, and
/// agrees with it on its size and on every slot below `slots`.
fn matches_model(rib: &AdjRibOut, model: &ModelAdjRibOut, slots: u16) -> Result<(), TestCaseError> {
    let (got, want) = (rib.export(), model.export());
    prop_assert_eq!(&got, &want);
    for (x, y) in got.iter().zip(&want) {
        prop_assert!(Arc::ptr_eq(
            x.attrs.as_ref().unwrap(),
            y.attrs.as_ref().unwrap()
        ));
    }
    prop_assert_eq!(rib.len(), model.routes.len());
    prop_assert_eq!(rib.is_empty(), model.routes.is_empty());
    for slot in 0..slots {
        let prefix = adj_out_prefix(slot);
        prop_assert_eq!(
            rib.contains(prefix),
            model.routes.contains_key(&prefix),
            "{}",
            prefix
        );
    }
    Ok(())
}

/// One UPDATE a session sends after its feed, drawn as (kind, slots,
/// set): 0 withdraws the slots, 1 re-announces them with one of the
/// feed's own attribute sets, 2 with an equal set in a new `Arc`, 3
/// withdraws the first slot and announces the rest with a feed set.
fn adj_out_step((kind, slots, set): &(u8, Vec<u16>, usize), sets: &[Arc<RouteAttrs>]) -> UpdateMsg {
    let prefixes: Vec<Ipv4Prefix> = slots.iter().map(|slot| adj_out_prefix(*slot)).collect();
    let feed_set = sets[set % sets.len()].clone();
    match kind {
        0 => UpdateMsg::withdraw(prefixes),
        1 => UpdateMsg::announce(feed_set, prefixes),
        2 => UpdateMsg::announce(Arc::new((*feed_set).clone()), prefixes),
        _ => UpdateMsg {
            withdrawn: prefixes[..1].to_vec(),
            attrs: Some(feed_set),
            nlri: prefixes[1..].to_vec(),
        },
    }
}

/// A feed for [`AdjRibOut::from_updates`] in one of four shapes over
/// `draws` of (prefix slot, attribute set): 0 ascending and distinct,
/// 1 as drawn (shuffled, repeats included), 2 ascending and then
/// re-announced from a second pass, 3 descending. Consecutive draws
/// with the same attribute set share an UPDATE; a tail of withdrawals
/// and announcements follows.
fn adj_out_feed(
    shape: u8,
    draws: &[(u16, usize)],
    tail: &[(bool, u16, usize)],
    sets: &[Arc<RouteAttrs>],
) -> Vec<UpdateMsg> {
    let prefix = adj_out_prefix;
    let mut order: Vec<(u16, usize)> = draws.to_vec();
    match shape {
        0 => {
            order.sort_by_key(|(slot, _)| prefix(*slot));
            order.dedup_by_key(|(slot, _)| prefix(*slot));
        }
        1 => {}
        2 => {
            let mut again: Vec<(u16, usize)> = draws
                .iter()
                .step_by(3)
                .map(|&(slot, set)| (slot, set + 1))
                .collect();
            order.sort_by_key(|(slot, _)| prefix(*slot));
            again.sort_by_key(|(slot, _)| prefix(*slot));
            order.extend(again);
        }
        _ => order.sort_by_key(|(slot, _)| Reverse(prefix(*slot))),
    }
    let mut feed: Vec<UpdateMsg> = Vec::new();
    for chunk in order.chunk_by(|a, b| a.1 % sets.len() == b.1 % sets.len()) {
        let attrs = sets[chunk[0].1 % sets.len()].clone();
        let nlri = chunk.iter().map(|(slot, _)| prefix(*slot)).collect();
        feed.push(UpdateMsg::announce(attrs, nlri));
    }
    for &(announce, slot, set) in tail {
        feed.push(if announce {
            UpdateMsg::announce(sets[set % sets.len()].clone(), vec![prefix(slot)])
        } else {
            UpdateMsg::withdraw(vec![prefix(slot)])
        });
    }
    feed
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
        let mut parts = Vec::new();
        UpdateMsg::announce(attrs.clone(), nlri.clone()).split_to_fit(&mut parts);
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
        let mut parts = Vec::new();
        UpdateMsg::announce(Arc::new(attrs), nlri.clone()).split_to_fit(&mut parts);
        let mut collected = Vec::new();
        for p in &parts {
            let enc = BgpMessage::Update(p.clone()).encode();
            prop_assert!(enc.len() <= sc_bgp::msg::MAX_MESSAGE_LEN);
            collected.extend(p.nlri.iter().copied());
        }
        prop_assert_eq!(collected, nlri);
    }

    /// The decision process is a strict weak order: antisymmetric,
    /// transitive, and total — two routes from distinct peers never tie,
    /// whatever their sessions' facts.
    /// (A tie would make the controller's backup-groups nondeterministic
    /// across replicas, breaking §3 of the paper.)
    #[test]
    fn decision_is_total_order(
        learned in vec((arb_learned(), any::<u32>(), any::<bool>(), any::<u32>()), 2..12),
    ) {
        // One peer per route, each with facts of its own.
        let mut peers = PeerTable::new();
        let routes: Vec<Route> = learned
            .iter()
            .zip(1u8..)
            .map(|((l, router_id, ebgp, igp_cost), n)| {
                peers.learn(PeerInfo {
                    peer: peer(n),
                    router_id: Ipv4Addr::from(*router_id),
                    ebgp: *ebgp,
                    igp_cost: *igp_cost,
                });
                Route { peer: peer(n), ..l.route() }
            })
            .collect();
        let compare = |a: &Route, b: &Route| compare_routes(&peers, a, b);
        for a in &routes {
            prop_assert_eq!(compare(a, a), Ordering::Equal);
            for b in &routes {
                let ab = compare(a, b);
                let ba = compare(b, a);
                prop_assert_eq!(ab, ba.reverse(), "antisymmetry");
                if a.peer != b.peer {
                    prop_assert_ne!(ab, Ordering::Equal, "distinct peers must not tie");
                }
                for c in &routes {
                    if ab != Ordering::Greater && compare(b, c) != Ordering::Greater {
                        prop_assert_ne!(compare(a, c), Ordering::Greater, "transitivity");
                    }
                }
            }
        }
        // Sorting is therefore stable and deterministic: two shuffles
        // agree.
        let mut v1 = routes.clone();
        let mut v2: Vec<Route> = routes.iter().rev().cloned().collect();
        v1.sort_by(compare);
        v2.sort_by(compare);
        prop_assert_eq!(v1, v2);
    }

    /// LocRib against a naive model, on a universe small enough that
    /// entries cross the inline/spilled boundary both ways and prefixes
    /// vanish and return (slot reuse): after every step of every mutator
    /// the ranked lists, counts, owner state, walk order and the change
    /// verdicts agree with brute force. The model ranks from its own
    /// per-peer facts, which a session reset (purge, then a new OPEN)
    /// changes under the RIB's peer table.
    #[test]
    fn locrib_matches_naive_model(
        ops in vec(
            (
                0u8..8,
                arb_dense_route(),
                vec(0usize..DENSE_PREFIXES.len(), 1..5),
                (0u8..4, any::<bool>(), any::<bool>()),
            ),
            1..120,
        ),
    ) {
        let mut rib: LocRib<u32> = LocRib::default();
        let mut model = Model::default();
        for (kind, mut learned, picks, (id, ebgp, far)) in ops {
            let (prefix, peer) = (learned.prefix, learned.from.peer);
            learned.from = model.session_of(learned.from);
            match kind {
                0 => {
                    let want = model.update(&learned);
                    let got = learned.into_rib(&mut rib);
                    prop_assert_eq!(seen(&got), want);
                }
                1 => {
                    let want = model.update(&learned);
                    let ext = model.touch(prefix);
                    let Learned { attrs, from, local_pref, .. } = learned;
                    let got = rib.update_with(prefix, attrs, from, local_pref, |ranked, x| {
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
                        .map(|&prefix| model.update(&Learned { prefix, ..learned.clone() }))
                        .collect();
                    let mut got = Vec::new();
                    let Learned { attrs, from, local_pref, .. } = learned;
                    rib.apply_update_batch(&attrs, &nlri, from, local_pref, |c| {
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
                6 => {
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
                _ => {
                    // The session resets: its routes go, and it returns
                    // with other facts (router ids stay distinct in the
                    // last octet) and a first announcement.
                    model.withdraw_peer(peer);
                    model.sweep();
                    rib.withdraw_peer(peer, |_| ());
                    learned.from = PeerInfo {
                        peer,
                        router_id: Ipv4Addr::new(id, 0, 0, peer.octets()[2]),
                        ebgp,
                        igp_cost: if far { 20 } else { 10 },
                    };
                    let want = model.update(&learned);
                    let got = learned.into_rib(&mut rib);
                    prop_assert_eq!(seen(&got), want);
                }
            }
            model.sweep();
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
            for (peer, from) in &model.sessions {
                prop_assert_eq!(rib.peers().get(*peer), Some(from));
            }
        }
    }

    /// withdraw_peer ≡ withdrawing each of the peer's prefixes one by
    /// one, and leaves no trace of the peer.
    #[test]
    fn withdraw_peer_purges_completely(routes in vec(arb_learned(), 1..60)) {
        let mut rib = LocRib::new();
        for r in &routes {
            r.clone().into_rib(&mut rib);
        }
        let victim = routes[0].from.peer;
        let mut changed: Vec<Ipv4Prefix> = Vec::new();
        rib.withdraw_peer(victim, |c| changed.push(c.prefix));
        // No candidate from the victim remains.
        for (_, cands) in rib.iter() {
            prop_assert!(cands.iter().all(|r| r.peer != victim));
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

    /// What swapping the RIB's index for an ordered map rests on: the
    /// map's key order *is* FIB walk order. The reference is the FIB's
    /// own structure — a `PrefixTrie` holding the same prefixes — and
    /// both the RIB's iterators and a session purge's callbacks visit
    /// them exactly as it does.
    #[test]
    fn rib_walks_in_fib_order(
        prefixes in vec((arb_order_prefix(), any::<bool>()), 1..120),
    ) {
        let mut rib: LocRib<u8> = LocRib::default();
        let mut fib = PrefixTrie::new();
        let attrs = Arc::new(RouteAttrs::ebgp(AsPath::sequence(vec![65001]), peer(1)));
        for (prefix, both) in &prefixes {
            // Peer 1 serves every prefix, peer 2 some: the purge below
            // empties some entries and only shortens others.
            for n in 1..=1 + *both as u8 {
                rib.update(*prefix, attrs.clone(), session(n), 100);
            }
            fib.insert(*prefix, ());
        }
        let walk: Vec<Ipv4Prefix> = fib.iter().map(|(p, ())| p).collect();
        prop_assert_eq!(rib.iter().map(|(p, _)| p).collect::<Vec<_>>(), walk.clone());
        prop_assert_eq!(rib.iter_ext().map(|(p, _)| p).collect::<Vec<_>>(), walk.clone());
        let mut purged = Vec::new();
        rib.withdraw_peer(peer(1), |c| purged.push(c.prefix));
        prop_assert_eq!(purged, walk);
        // What is left is peer 2's (a prefix drawn twice has its route
        // if either draw said so), purged in walk order too.
        let fib: PrefixTrie<()> = prefixes
            .iter()
            .filter(|(_, both)| *both)
            .map(|(prefix, _)| (*prefix, ()))
            .collect();
        let walk: Vec<Ipv4Prefix> = fib.iter().map(|(p, ())| p).collect();
        let mut purged = Vec::new();
        rib.withdraw_peer_with(peer(2), |p, _, _| purged.push(p));
        prop_assert_eq!(purged, walk);
        prop_assert_eq!(rib.prefix_count(), 0);
    }

    /// Arbitrary bytes of every length up to the message cap, raw and
    /// behind a valid header of every type: the decoder returns, never
    /// panics.
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        bytes in vec(any::<u8>(), 0..=sc_bgp::msg::MAX_MESSAGE_LEN),
        ty in 0u8..6,
    ) {
        decode_hostile(&bytes)?;
        let cut = bytes.len().min(sc_bgp::msg::MAX_MESSAGE_LEN - sc_bgp::msg::HEADER_LEN);
        decode_hostile(&framed(ty, &bytes[..cut]))?;
    }

    /// A valid UPDATE with one byte overwritten anywhere — the marker,
    /// the lengths, a prefix length, an attribute header — decodes or
    /// fails, and never panics.
    #[test]
    fn decode_never_panics_on_a_mutated_update(
        withdrawn in vec(arb_prefix(), 0..40),
        attrs in arb_attrs(),
        nlri in vec(arb_prefix(), 0..40),
        at in any::<u16>(),
        byte in any::<u8>(),
    ) {
        let upd = UpdateMsg {
            withdrawn,
            attrs: if nlri.is_empty() { None } else { Some(Arc::new(attrs)) },
            nlri,
        };
        let mut wire = BgpMessage::Update(upd).encode();
        let at = at as usize % wire.len();
        wire[at] = byte;
        decode_hostile(&wire)?;
    }

    /// Seeding an Adj-RIB-Out from a feed gives what applying the feed
    /// in order gives: the same export, attribute `Arc`s included. So
    /// does every UPDATE after it, against the B-tree model — slots from
    /// 600 up lie outside every feed — and two sessions that share one
    /// base diverge independently: one takes every step, the other
    /// every second one.
    #[test]
    fn adj_out_from_updates_equals_applying_in_order(
        shape in 0u8..4,
        draws in vec((0u16..600, 0usize..4), 0..400),
        tail in vec((any::<bool>(), 0u16..600, 0usize..4), 0..30),
        steps in vec((0u8..4, vec(0u16..700, 1..4), 0usize..4), 0..24),
    ) {
        let path = AsPath::sequence(vec![65002, 174]);
        let sets = [
            RouteAttrs::ebgp(path.clone(), peer(2)).shared(),
            RouteAttrs::ebgp(path, peer(2)).shared(), // equal, not identical
            RouteAttrs::ebgp(AsPath::sequence(vec![65003]), peer(3)).shared(),
        ];
        let feed = adj_out_feed(shape, &draws, &tail, &sets);
        let mut applied = AdjRibOut::new();
        for upd in &feed {
            applied.apply(upd);
        }
        let built = AdjRibOut::from_updates(&feed);
        prop_assert_eq!(built.len(), applied.len());
        let (exported, applied) = (built.export(), applied.export());
        prop_assert_eq!(&exported, &applied);
        for (x, y) in exported.iter().zip(&applied) {
            prop_assert!(Arc::ptr_eq(x.attrs.as_ref().unwrap(), y.attrs.as_ref().unwrap()));
        }

        let mut model = ModelAdjRibOut::default();
        for upd in &feed {
            model.apply(upd);
        }
        let (mut every, mut second) = (built.clone(), built);
        let (mut every_model, mut second_model) = (model.clone(), model);
        matches_model(&every, &every_model, 700)?;
        for (k, step) in steps.iter().enumerate() {
            let upd = adj_out_step(step, &sets);
            every.apply(&upd);
            every_model.apply(&upd);
            if k % 2 == 0 {
                second.apply(&upd);
                second_model.apply(&upd);
            }
            matches_model(&every, &every_model, 700)?;
            matches_model(&second, &second_model, 700)?;
        }
    }
}
