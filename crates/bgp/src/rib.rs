//! The Loc-RIB: per-prefix ranked candidate lists with change tracking.
//!
//! This is the shared engine under both sides of the paper:
//! * the **router model** feeds updates in and reacts to best-route
//!   changes (FIB updates);
//! * the **supercharged controller** feeds the same updates in and reacts
//!   to changes of the *top-two* candidates (backup-group changes —
//!   Listing 1's `routing_table`).
//!
//! Every mutation reports a [`Change`]: the touched prefix's candidates
//! as they now stand plus which ranks moved, so callers never re-scan the
//! table — and the RIB clones no route to tell them.
//!
//! # Storage
//!
//! A prefix costs what it holds. A RIB is only ever asked two things of
//! its keys — *this exact prefix* (every announce and withdraw) and *all
//! of them in FIB walk order* (a session's purge, the iterators) — never
//! the longest match for an address; that is the FIB's question, and the
//! only one `sc_net::PrefixTrie` is kept for. The index is a
//! `index::PrefixIndex`: sorted blocks of up to 128 12-byte (prefix, slot)
//! pairs, in `Ipv4Prefix`'s `(bits, len)` order, which *is* the walk
//! order. An UPDATE lists its NLRI in ascending order, so the index looks
//! for each prefix in the block where it found the last one, where a
//! `BTreeMap` paid a descent of about seven nodes a prefix; an ascending
//! load fills its blocks, 12 B a prefix and 32 B a block (the B-tree held
//! 26 B a prefix, a path-compressed trie 52 by capacity). It maps a
//! prefix to a tagged slot in one of two slabs the RIB owns:
//! * up to two candidates (the paper's regime: Listing 1 needs the top
//!   two, the router behind a controller holds one) sit *inline* in a
//!   40-byte small entry, no heap block;
//! * three or more live in a large entry whose vector grows one exact
//!   step at a time and keeps its capacity across withdraw/re-announce.
//!
//! An entry is in exactly one slab, chosen by its candidate count alone,
//! so a 12-candidate IXP prefix carries no dead inline slots and a
//! 2-candidate lab prefix no vector header. A candidate is a 16-byte
//! [`Route`] and nothing a list could share is in it: the prefix is the
//! index's key, and what the decision process needs to know about the
//! *session* a route came over sits once per peer in the RIB's
//! [`PeerTable`], written from the [`PeerInfo`] every update is handed.
//! [`LocRib::footprint`] reports what the RIB reads off its slabs and
//! spilled lists, by capacity; the whole — index included — is measured
//! as live heap under a counting allocator, and `tests/footprint.rs`
//! pins those bytes per prefix.

use crate::attrs::RouteAttrs;
use crate::decision::{compare_routes, PeerInfo, PeerTable, Route};
use crate::index::PrefixIndex;
use crate::PeerId;
use sc_net::Ipv4Prefix;
use std::mem::{self, size_of};
use std::num::NonZeroU32;
use std::sync::Arc;

/// "No rank" in a [`Moved`].
const UNMOVED: usize = usize::MAX;

/// The first rank at which a mutation changed a candidate list: `route`
/// counts any difference, `peer` only a different peer at that rank (an
/// attributes-only re-announce moves the first, not the second). Ranks
/// below are untouched; [`UNMOVED`] means none changed.
#[derive(Clone, Copy, Debug)]
struct Moved {
    route: usize,
    peer: usize,
}

impl Moved {
    /// Removing the candidate at `pos` shifts every later one up a rank.
    fn removed(pos: usize) -> Moved {
        Moved {
            route: pos,
            peer: pos,
        }
    }
}

/// The outcome of one RIB mutation.
#[derive(Clone, Copy, Debug)]
pub struct Change<'a> {
    pub prefix: Ipv4Prefix,
    /// The prefix's candidates as the mutation left them, best first;
    /// empty when its last candidate went.
    pub ranked: &'a [Route],
    moved: Moved,
}

impl<'a> Change<'a> {
    /// The best route now.
    pub fn best(&self) -> Option<&'a Route> {
        self.ranked.first()
    }

    /// Did the best route change (what a classic router reacts to)?
    pub fn best_changed(&self) -> bool {
        self.moved.route < 1
    }

    /// Did the (best, second) pair change (what Listing 1 reacts to)?
    pub fn top_two_changed(&self) -> bool {
        self.moved.route < 2
    }

    /// Did the top-two *next-hop peers* change? (VNH reassignment is only
    /// needed when the peers change, not when e.g. the AS path mutates.)
    pub fn nh_pair_changed(&self) -> bool {
        self.moved.peer < 2
    }
}

/// A ranked candidate list, in either representation.
trait Ranked {
    fn as_slice(&self) -> &[Route];

    /// Take the candidate at `pos` out, closing the gap.
    fn take(&mut self, pos: usize) -> Route;

    /// Put `route` at `pos`. A list with no room hands all its
    /// candidates back, `route` in place, and is left empty.
    fn put(&mut self, pos: usize, route: Route) -> Option<[Route; 3]>;
}

/// At most two candidates, held in the slab entry itself.
#[derive(Default)]
enum Inline {
    #[default]
    Zero,
    One(Route),
    Two([Route; 2]),
}

impl Ranked for Inline {
    fn as_slice(&self) -> &[Route] {
        match self {
            Inline::Zero => &[],
            Inline::One(only) => std::slice::from_ref(only),
            Inline::Two(both) => both,
        }
    }

    fn take(&mut self, pos: usize) -> Route {
        match mem::take(self) {
            Inline::Zero => unreachable!("no candidate at rank {pos}"),
            Inline::One(only) => only,
            Inline::Two([best, second]) => {
                let (taken, kept) = if pos == 0 {
                    (best, second)
                } else {
                    (second, best)
                };
                *self = Inline::One(kept);
                taken
            }
        }
    }

    fn put(&mut self, pos: usize, route: Route) -> Option<[Route; 3]> {
        *self = match mem::take(self) {
            Inline::Zero => Inline::One(route),
            Inline::One(only) if pos == 0 => Inline::Two([route, only]),
            Inline::One(only) => Inline::Two([only, route]),
            Inline::Two([best, second]) => {
                return Some(match pos {
                    0 => [route, best, second],
                    1 => [best, route, second],
                    _ => [best, second, route],
                })
            }
        };
        None
    }
}

/// Three or more candidates, sized to content: growth is one exact step,
/// never amortized doubling, and a withdraw keeps the capacity for the
/// re-announce that usually follows.
impl Ranked for Vec<Route> {
    fn as_slice(&self) -> &[Route] {
        self
    }

    fn take(&mut self, pos: usize) -> Route {
        self.remove(pos)
    }

    fn put(&mut self, pos: usize, route: Route) -> Option<[Route; 3]> {
        self.reserve_exact(1);
        self.insert(pos, route);
        None
    }
}

/// Insert or replace the candidate from `route.peer`, keeping `ranked`
/// ordered by the decision process over `peers`. Returns the ranks that
/// moved, whether a candidate was added (not replaced), and the
/// overflow of [`Ranked::put`].
fn place(
    ranked: &mut impl Ranked,
    route: Route,
    peers: &PeerTable,
) -> (Moved, bool, Option<[Route; 3]>) {
    let replaced = position(ranked.as_slice(), route.peer);
    let removed = replaced.map(|pos| ranked.take(pos));
    let pos = ranked
        .as_slice()
        .binary_search_by(|probe| compare_routes(peers, probe, &route))
        .unwrap_or_else(|e| e);
    let moved = if replaced == Some(pos) {
        // Same peer back at the same rank: the list changed only if the
        // route itself did.
        let unchanged = removed.as_ref() == Some(&route);
        Moved {
            route: if unchanged { UNMOVED } else { pos },
            peer: UNMOVED,
        }
    } else {
        // Every rank between the two positions now holds another peer's
        // route, starting at the lower one.
        let first = replaced.map_or(pos, |r| r.min(pos));
        Moved {
            route: first,
            peer: first,
        }
    };
    let overflow = ranked.put(pos, route);
    (moved, replaced.is_none(), overflow)
}

/// Take `peer`'s candidate out of `ranked`; returns the rank it held.
fn remove(ranked: &mut impl Ranked, peer: PeerId) -> Option<usize> {
    let pos = position(ranked.as_slice(), peer)?;
    ranked.take(pos);
    Some(pos)
}

fn position(ranked: &[Route], peer: PeerId) -> Option<usize> {
    ranked.iter().position(|r| r.peer == peer)
}

/// What the RIB holds for a prefix with at most two candidates.
#[derive(Default)]
struct Small<X> {
    ranked: Inline,
    ext: X,
}

/// What the RIB holds for a prefix with three or more candidates.
#[derive(Default)]
struct Large<X> {
    ranked: Vec<Route>,
    ext: X,
}

/// Where a prefix's entry lives, as the index stores it: a slab position
/// plus one, never zero, with the top bit naming the slab.
#[derive(Clone, Copy)]
struct Slot(NonZeroU32);

impl Slot {
    const SPILLED: u32 = 1 << 31;
    /// Slab positions run below this.
    const LIMIT: u32 = Slot::SPILLED - 1;

    fn small(idx: u32) -> Slot {
        Slot(NonZeroU32::MIN.saturating_add(idx))
    }

    fn large(idx: u32) -> Slot {
        Slot(Slot::small(idx).0 | Slot::SPILLED)
    }

    fn is_spilled(self) -> bool {
        self.0.get() & Slot::SPILLED != 0
    }

    fn idx(self) -> u32 {
        (self.0.get() & !Slot::SPILLED) - 1
    }
}

// Per-prefix budgets. A field added to one of these types moves the RSS
// of every full-table run; break the build instead.
const _: () = assert!(
    size_of::<(Ipv4Prefix, Slot)>() <= 12,
    "RIB index: 8 B of key and 4 B of value a prefix"
);
const _: () = assert!(
    size_of::<Small<()>>() <= 40,
    "small RIB entry: two inline 16 B routes, their count, and nothing else"
);
const _: () = assert!(
    size_of::<Small<[u64; 2]>>() <= 56,
    "small RIB entry with 16 B of owner state, the controller's: 56 B"
);
const _: () = assert!(
    size_of::<Large<()>>() <= 24,
    "large RIB entry: one vector header and nothing else"
);

/// Same-sized entries addressed by `u32`, vacated positions reused.
#[derive(Default)]
struct Slab<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T: Default> Slab<T> {
    /// Store `value`; returns its position.
    fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.items[idx as usize] = value;
                idx
            }
            None => {
                let idx = self.items.len() as u32;
                assert!(idx < Slot::LIMIT, "RIB slab exhausted");
                self.items.push(value);
                idx
            }
        }
    }

    /// Vacate `idx`, leaving `T::default()` there: what the entry owned
    /// goes with the returned value, not at the position's reuse.
    fn take(&mut self, idx: u32) -> T {
        self.free.push(idx);
        mem::take(&mut self.items[idx as usize])
    }

    fn live(&self) -> usize {
        self.items.len() - self.free.len()
    }

    fn heap_bytes(&self) -> usize {
        self.items.capacity() * size_of::<T>() + self.free.capacity() * size_of::<u32>()
    }
}

/// The entries behind the index: everything a mutation touches once the
/// index descent has produced the prefix's [`Slot`].
#[derive(Default)]
struct Entries<X> {
    small: Slab<Small<X>>,
    large: Slab<Large<X>>,
    routes: usize,
}

impl<X: Default> Entries<X> {
    fn entry(&self, slot: Slot) -> (&[Route], &X) {
        if slot.is_spilled() {
            let e = &self.large.items[slot.idx() as usize];
            (&e.ranked, &e.ext)
        } else {
            let e = &self.small.items[slot.idx() as usize];
            (e.ranked.as_slice(), &e.ext)
        }
    }

    fn entry_mut(&mut self, slot: Slot) -> (&[Route], &mut X) {
        if slot.is_spilled() {
            let e = &mut self.large.items[slot.idx() as usize];
            (&e.ranked, &mut e.ext)
        } else {
            let e = &mut self.small.items[slot.idx() as usize];
            (e.ranked.as_slice(), &mut e.ext)
        }
    }

    /// [`place`] on the entry at `slot`, which moves to the large slab
    /// when a third candidate arrives.
    fn place(&mut self, slot: &mut Slot, route: Route, peers: &PeerTable) -> Moved {
        let (moved, added, overflow) = if slot.is_spilled() {
            let large = &mut self.large.items[slot.idx() as usize];
            place(&mut large.ranked, route, peers)
        } else {
            let small = &mut self.small.items[slot.idx() as usize];
            place(&mut small.ranked, route, peers)
        };
        self.routes += added as usize;
        if let Some(three) = overflow {
            let Small { ext, .. } = self.small.take(slot.idx());
            let ranked = Vec::from(three);
            *slot = Slot::large(self.large.insert(Large { ranked, ext }));
        }
        moved
    }

    /// [`remove`] on the entry at `slot`, which moves back to the small
    /// slab when its third candidate leaves. An emptied entry stays (the
    /// owner sees its state one last time) until [`Entries::release`].
    fn remove(&mut self, slot: &mut Slot, peer: PeerId) -> Option<usize> {
        let pos = if slot.is_spilled() {
            let large = &mut self.large.items[slot.idx() as usize];
            let pos = remove(&mut large.ranked, peer)?;
            if large.ranked.len() == 2 {
                let Large { ranked, ext } = self.large.take(slot.idx());
                let both = <[Route; 2]>::try_from(ranked).expect("two candidates left");
                let ranked = Inline::Two(both);
                *slot = Slot::small(self.small.insert(Small { ranked, ext }));
            }
            pos
        } else {
            remove(&mut self.small.items[slot.idx() as usize].ranked, peer)?
        };
        self.routes -= 1;
        Some(pos)
    }

    /// Vacate the emptied entry at `slot` (only a small entry can be
    /// empty).
    fn release(&mut self, slot: Slot) {
        debug_assert!(self.entry(slot).0.is_empty());
        self.small.take(slot.idx());
    }
}

/// What a RIB holds and what its slabs and lists cost, by capacity. The
/// index is not in it: the whole is measured from outside
/// (`tests/footprint.rs`, the perf ledger's `peak_rss_mb`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Footprint {
    pub prefixes: usize,
    pub routes: usize,
    /// Entries with three or more candidates, whose list is a heap block.
    pub spilled_entries: usize,
    /// Both slabs and their free lists.
    pub entry_bytes: usize,
    /// The spilled entries' candidate lists.
    pub list_bytes: usize,
}

impl Footprint {
    /// Add this RIB to the registry's `rib.*` totals (like every node's
    /// `fold_metrics`: once, after a run).
    pub fn fold_metrics(&self, reg: &mut sc_net::metrics::Registry) {
        reg.add("rib.prefixes", self.prefixes as u64);
        reg.add("rib.routes", self.routes as u64);
        reg.add("rib.spilled_entries", self.spilled_entries as u64);
        reg.add("rib.entry_bytes", self.entry_bytes as u64);
        reg.add("rib.list_bytes", self.list_bytes as u64);
    }
}

/// Per-prefix ranked candidate lists over all peers.
///
/// `X` is per-prefix state the owner keeps *in the same entry* as the
/// candidates (the supercharger engine stores what it last announced
/// there), so reacting to a change costs no second lookup: the `_with`
/// mutators hand the touched prefix's remaining candidates and `&mut X`
/// to a callback instead of building a [`Change`]. The state lives
/// exactly as long as the prefix has a candidate: a prefix that returns
/// starts from `X::default()` again.
#[derive(Default)]
pub struct LocRib<X = ()> {
    /// Exact-match and ordered-walk only (see "# Storage"); ascending
    /// key order is FIB walk order.
    index: PrefixIndex<Slot>,
    entries: Entries<X>,
    peers: PeerTable,
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
        self.index.len()
    }

    /// Total candidate routes across all prefixes.
    pub fn route_count(&self) -> usize {
        self.entries.routes
    }

    /// What the RIB holds right now and what its slabs and lists cost
    /// (the index and the peer table, 16 B a session, are not in it).
    pub fn footprint(&self) -> Footprint {
        let Entries { small, large, .. } = &self.entries;
        let spilled_lists: usize = large.items.iter().map(|e| e.ranked.capacity()).sum();
        Footprint {
            prefixes: self.prefix_count(),
            routes: self.route_count(),
            spilled_entries: large.live(),
            entry_bytes: small.heap_bytes() + large.heap_bytes(),
            list_bytes: spilled_lists * size_of::<Route>(),
        }
    }

    /// The session facts the candidates are ranked by, one entry for
    /// every peer a route was ever learned from.
    pub fn peers(&self) -> &PeerTable {
        &self.peers
    }

    /// Every update says who it is `from`. A session's facts are fixed at
    /// its OPEN and its routes are purged ([`LocRib::withdraw_peer`])
    /// before the next one, so they change only while the peer holds no
    /// candidate — a list ranked by the old facts would not be sorted by
    /// the new ones.
    fn learn(&mut self, from: PeerInfo) {
        if self.peers.learn(from) {
            debug_assert!(
                self.iter()
                    .all(|(_, ranked)| position(ranked, from.peer).is_none()),
                "{}'s session facts changed while the RIB holds its routes",
                from.peer
            );
        }
    }

    /// The one way a candidate gets in: a single index descent to the
    /// prefix's slot (claiming a fresh one for a new prefix), then
    /// [`place`] on its entry. `peer` has been [`LocRib::learn`]ed.
    fn place(
        &mut self,
        prefix: Ipv4Prefix,
        attrs: Arc<RouteAttrs>,
        peer: PeerId,
        local_pref: u32,
    ) -> (Slot, Moved) {
        let route = Route {
            attrs,
            peer,
            local_pref,
        };
        let small = &mut self.entries.small;
        let slot = self
            .index
            .get_or_insert_with(prefix, || Slot::small(small.insert(Small::default())));
        let moved = self.entries.place(slot, route, &self.peers);
        (*slot, moved)
    }

    /// [`LocRib::place`], reported as a [`Change`].
    fn place_reporting(
        &mut self,
        prefix: Ipv4Prefix,
        attrs: Arc<RouteAttrs>,
        peer: PeerId,
        local_pref: u32,
    ) -> Change<'_> {
        let (slot, moved) = self.place(prefix, attrs, peer, local_pref);
        Change {
            prefix,
            ranked: self.entries.entry(slot).0,
            moved,
        }
    }

    /// Insert or replace `from.peer`'s candidate for `prefix`, keeping
    /// the list ranked by the decision process.
    pub fn update(
        &mut self,
        prefix: Ipv4Prefix,
        attrs: Arc<RouteAttrs>,
        from: PeerInfo,
        local_pref: u32,
    ) -> Change<'_> {
        self.learn(from);
        self.place_reporting(prefix, attrs, from.peer, local_pref)
    }

    /// [`LocRib::update`] for an owner that reacts per prefix: one index
    /// descent, then `react` sees the re-ranked candidates and the
    /// prefix's owner state.
    pub fn update_with<R>(
        &mut self,
        prefix: Ipv4Prefix,
        attrs: Arc<RouteAttrs>,
        from: PeerInfo,
        local_pref: u32,
        react: impl FnOnce(&[Route], &mut X) -> R,
    ) -> R {
        self.learn(from);
        let (slot, _) = self.place(prefix, attrs, from.peer, local_pref);
        let (ranked, ext) = self.entries.entry_mut(slot);
        react(ranked, ext)
    }

    /// Bulk insert one UPDATE's NLRI: every prefix gets the shared
    /// `attrs` (one `Arc` clone per prefix, no per-route struct churn
    /// at the call site) and exactly one ranked decision-process pass;
    /// `on_change` observes the per-prefix [`Change`] in NLRI order.
    ///
    /// Semantically identical to calling [`LocRib::update`] per prefix —
    /// the property tests pin the equivalence.
    pub fn apply_update_batch(
        &mut self,
        attrs: &Arc<RouteAttrs>,
        nlri: &[Ipv4Prefix],
        from: PeerInfo,
        local_pref: u32,
        mut on_change: impl FnMut(Change<'_>),
    ) {
        self.learn(from);
        for &prefix in nlri {
            on_change(self.place_reporting(prefix, attrs.clone(), from.peer, local_pref));
        }
    }

    /// Remove the candidate learned from `peer` for `prefix`, if any.
    pub fn withdraw(&mut self, prefix: Ipv4Prefix, peer: PeerId) -> Option<Change<'_>> {
        self.remove_one(prefix, peer, |_, _| ())
            .map(|(change, ())| change)
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
        self.remove_one(prefix, peer, react).map(|(_, out)| out)
    }

    /// The one way a single candidate gets out: one index descent, then
    /// [`remove`] on the entry, `react`, and — from the same descent —
    /// the entry's slot and index key go if that was its last candidate.
    fn remove_one<R>(
        &mut self,
        prefix: Ipv4Prefix,
        peer: PeerId,
        react: impl FnOnce(&[Route], &mut X) -> R,
    ) -> Option<(Change<'_>, R)> {
        let found = self.index.find(prefix)?;
        let slot = self.index.get_mut(found);
        let pos = self.entries.remove(slot, peer)?;
        let slot = *slot;
        let (ranked, ext) = self.entries.entry_mut(slot);
        let out = react(ranked, ext);
        let ranked = if ranked.is_empty() {
            self.entries.release(slot);
            self.index.remove(found);
            &[]
        } else {
            self.entries.entry(slot).0
        };
        let change = Change {
            prefix,
            ranked,
            moved: Moved::removed(pos),
        };
        Some((change, out))
    }

    /// Purge every candidate learned from `peer` (session down);
    /// `on_change` observes every affected prefix, in FIB walk order.
    pub fn withdraw_peer(&mut self, peer: PeerId, mut on_change: impl FnMut(Change<'_>)) {
        self.remove_all(peer, |change, _| on_change(change));
    }

    /// [`LocRib::withdraw_peer`] for an owner that reacts per prefix:
    /// `react` sees each affected prefix, in FIB walk order, with its
    /// remaining candidates and owner state.
    pub fn withdraw_peer_with(
        &mut self,
        peer: PeerId,
        mut react: impl FnMut(Ipv4Prefix, &[Route], &mut X),
    ) {
        self.remove_all(peer, |change, ext| react(change.prefix, change.ranked, ext));
    }

    /// [`LocRib::remove_one`] over every prefix with a candidate from
    /// `peer`, in one pass over the index — `PrefixIndex::retain`
    /// visits in ascending key order, which is FIB walk order.
    fn remove_all(&mut self, peer: PeerId, mut react: impl FnMut(Change<'_>, &mut X)) {
        let entries = &mut self.entries;
        self.index.retain(|prefix, slot| {
            let Some(pos) = entries.remove(slot, peer) else {
                return true;
            };
            let (ranked, ext) = entries.entry_mut(*slot);
            let change = Change {
                prefix,
                ranked,
                moved: Moved::removed(pos),
            };
            react(change, ext);
            let emptied = ranked.is_empty();
            if emptied {
                entries.release(*slot);
            }
            !emptied
        });
    }

    /// The ranked candidates for `prefix` (best first).
    pub fn candidates(&self, prefix: Ipv4Prefix) -> &[Route] {
        self.index
            .get(prefix)
            .map_or(&[], |&slot| self.entries.entry(slot).0)
    }

    /// The best route for `prefix`.
    pub fn best(&self, prefix: Ipv4Prefix) -> Option<&Route> {
        self.candidates(prefix).first()
    }

    /// Iterate `(prefix, ranked candidates)` in FIB walk order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &[Route])> {
        self.index
            .iter()
            .map(|(p, &slot)| (p, self.entries.entry(slot).0))
    }

    /// Iterate `(prefix, owner state)` in FIB walk order.
    pub fn iter_ext(&self) -> impl Iterator<Item = (Ipv4Prefix, &X)> {
        self.index
            .iter()
            .map(|(p, &slot)| (p, self.entries.entry(slot).1))
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

    /// The third octet of each candidate's peer address, best first.
    fn peers(ranked: &[Route]) -> Vec<u8> {
        ranked.iter().map(|r| r.peer.octets()[2]).collect()
    }

    fn peer(octet: u8) -> PeerId {
        Ipv4Addr::new(10, 0, octet, 1)
    }

    fn attrs(peer_octet: u8) -> Arc<RouteAttrs> {
        RouteAttrs::ebgp(
            AsPath::sequence(vec![100 + peer_octet as u16, 200]),
            peer(peer_octet),
        )
        .shared()
    }

    fn from(peer_octet: u8) -> PeerInfo {
        PeerInfo {
            peer: peer(peer_octet),
            router_id: Ipv4Addr::new(peer_octet, 0, 0, 1),
            ebgp: true,
            igp_cost: 0,
        }
    }

    /// Peer `peer_octet` announces `prefix`, imported at `local_pref`.
    fn announce<'a, X: Default>(
        rib: &'a mut LocRib<X>,
        prefix: &str,
        peer_octet: u8,
        local_pref: u32,
    ) -> Change<'a> {
        rib.update(p(prefix), attrs(peer_octet), from(peer_octet), local_pref)
    }

    #[test]
    fn first_route_becomes_best() {
        let mut rib = LocRib::new();
        let c = announce(&mut rib, "1.0.0.0/24", 2, 200);
        assert!(c.best_changed());
        assert_eq!(c.best().unwrap().peer, Ipv4Addr::new(10, 0, 2, 1));
        assert_eq!(rib.prefix_count(), 1);
        assert_eq!(rib.route_count(), 1);
    }

    #[test]
    fn second_route_ranks_below_preferred() {
        let mut rib = LocRib::new();
        announce(&mut rib, "1.0.0.0/24", 2, 200); // R2 preferred
        let c = announce(&mut rib, "1.0.0.0/24", 3, 100); // R3 backup
        assert!(!c.best_changed(), "best stays R2");
        assert!(c.top_two_changed(), "second appeared");
        assert!(c.nh_pair_changed());
        assert_eq!(peers(c.ranked), [2, 3]);
    }

    #[test]
    fn better_route_takes_over() {
        let mut rib = LocRib::new();
        announce(&mut rib, "1.0.0.0/24", 3, 100);
        let c = announce(&mut rib, "1.0.0.0/24", 2, 200);
        assert!(c.best_changed());
        assert_eq!(peers(c.ranked), [2, 3]);
    }

    #[test]
    fn implicit_replace_from_same_peer() {
        let mut rib = LocRib::new();
        announce(&mut rib, "1.0.0.0/24", 2, 200);
        // Same peer re-announces with a worse preference: implicit
        // withdraw of its previous route.
        let c = announce(&mut rib, "1.0.0.0/24", 2, 50);
        assert!(c.best_changed());
        assert!(!c.nh_pair_changed(), "same peer, same rank");
        assert_eq!(c.best().unwrap().local_pref, 50);
        assert_eq!(rib.route_count(), 1);
    }

    #[test]
    fn withdraw_promotes_backup() {
        let mut rib = LocRib::new();
        announce(&mut rib, "1.0.0.0/24", 2, 200);
        announce(&mut rib, "1.0.0.0/24", 3, 100);
        let c = rib
            .withdraw(p("1.0.0.0/24"), Ipv4Addr::new(10, 0, 2, 1))
            .unwrap();
        assert!(c.best_changed());
        assert_eq!(peers(c.ranked), [3]);
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
            announce(&mut rib, pfx, 2, 200);
            if i != 1 {
                announce(&mut rib, pfx, 3, 100);
            }
        }
        let mut order = Vec::new();
        rib.withdraw_peer(Ipv4Addr::new(10, 0, 2, 1), |c| {
            assert!(c.best_changed(), "R2 was best everywhere");
            order.push((c.prefix, c.ranked.len()));
        });
        // FIB walk order = sorted prefix order.
        assert_eq!(
            order,
            vec![
                (p("1.0.0.0/24"), 1),
                (p("2.0.0.0/16"), 0),
                (p("3.0.0.0/8"), 1)
            ]
        );
        // 2.0.0.0/16 had only R2: gone entirely.
        assert_eq!(rib.prefix_count(), 2);
        assert!(rib.best(p("2.0.0.0/16")).is_none());
        assert_eq!(
            rib.best(p("1.0.0.0/24")).unwrap().peer,
            Ipv4Addr::new(10, 0, 3, 1)
        );
        assert_eq!(rib.route_count(), 2);
    }

    #[test]
    fn nh_pair_changed_distinguishes_attr_churn() {
        let mut rib = LocRib::new();
        announce(&mut rib, "1.0.0.0/24", 2, 200);
        announce(&mut rib, "1.0.0.0/24", 3, 100);
        // Same peers, new attrs (longer path, still ranked the same):
        let longer = RouteAttrs::ebgp(AsPath::sequence(vec![102, 200, 300]), peer(2)).shared();
        let c = rib.update(p("1.0.0.0/24"), longer, from(2), 200);
        assert!(c.top_two_changed(), "attrs changed");
        assert!(!c.nh_pair_changed(), "but the NH peers did not");
    }

    #[test]
    fn three_peers_rank_fully() {
        let mut rib = LocRib::new();
        announce(&mut rib, "1.0.0.0/24", 3, 100);
        announce(&mut rib, "1.0.0.0/24", 1, DEFAULT_LOCAL_PREF);
        announce(&mut rib, "1.0.0.0/24", 2, 200);
        // 200 > 100 == 100; tie between peer1 (lp 100) and peer3 (lp 100)
        // broken by router-id (1 < 3).
        assert_eq!(peers(rib.candidates(p("1.0.0.0/24"))), [2, 1, 3]);
    }

    #[test]
    fn iter_is_in_fib_walk_order() {
        let mut rib = LocRib::new();
        for pfx in ["9.0.0.0/8", "1.0.0.0/24", "5.5.0.0/16"] {
            announce(&mut rib, pfx, 2, 200);
        }
        let order: Vec<Ipv4Prefix> = rib.iter().map(|(p, _)| p).collect();
        assert_eq!(
            order,
            vec![p("1.0.0.0/24"), p("5.5.0.0/16"), p("9.0.0.0/8")]
        );
    }

    /// The verdicts come from positions alone; pin each case of the
    /// position algebra against what the lists actually did.
    #[test]
    fn verdicts_follow_from_positions() {
        let mut rib = LocRib::new();
        let pfx = "1.0.0.0/24";
        announce(&mut rib, pfx, 1, 300);
        announce(&mut rib, pfx, 2, 200);
        announce(&mut rib, pfx, 3, 100);
        // A fourth candidate at the bottom: nothing in the top two moved.
        let c = announce(&mut rib, pfx, 4, 50);
        assert!(!c.best_changed() && !c.top_two_changed() && !c.nh_pair_changed());
        // The same route again: nothing changed at all.
        let c = announce(&mut rib, pfx, 1, 300);
        assert!(!c.best_changed() && !c.top_two_changed() && !c.nh_pair_changed());
        // Rank 3 jumps to rank 1: best stays, the pair moves.
        let c = announce(&mut rib, pfx, 4, 250);
        assert!(!c.best_changed() && c.top_two_changed() && c.nh_pair_changed());
        assert_eq!(peers(c.ranked), [1, 4, 2, 3]);
        // The best drops to the bottom: everything shifts up.
        let c = announce(&mut rib, pfx, 1, 10);
        assert!(c.best_changed() && c.top_two_changed() && c.nh_pair_changed());
        assert_eq!(peers(c.ranked), [4, 2, 3, 1]);
        // Withdrawing rank 2 leaves the top two alone; rank 1 does not.
        let c = rib.withdraw(p(pfx), peer(3)).unwrap();
        assert!(!c.best_changed() && !c.top_two_changed() && !c.nh_pair_changed());
        let c = rib.withdraw(p(pfx), peer(2)).unwrap();
        assert!(!c.best_changed() && c.top_two_changed() && c.nh_pair_changed());
        assert_eq!(peers(c.ranked), [4, 1]);
    }

    /// An entry moves between the inline and the spilled representation
    /// at exactly the 2 <-> 3 boundary, taking its owner state along; a
    /// prefix that vanishes and returns starts from `X::default()`.
    #[test]
    fn entries_spill_and_return_with_their_owner_state() {
        let mut rib: LocRib<u32> = LocRib::default();
        let pfx = "1.0.0.0/24";
        for n in 1..=2 {
            rib.update_with(p(pfx), attrs(n), from(n), 100 + n as u32, |_, x| *x += 1);
        }
        assert_eq!(rib.footprint().spilled_entries, 0);
        rib.update_with(p(pfx), attrs(3), from(3), 103, |ranked, x| {
            assert_eq!((peers(ranked), *x), (vec![3, 2, 1], 2));
            *x += 1;
        });
        assert_eq!(rib.footprint().spilled_entries, 1);
        rib.withdraw_with(p(pfx), peer(2), |ranked, x| {
            assert_eq!((peers(ranked), *x), (vec![3, 1], 3));
        });
        assert_eq!(rib.footprint().spilled_entries, 0);
        assert_eq!(rib.iter_ext().map(|(_, x)| *x).collect::<Vec<_>>(), [3]);
        // The last candidates leave: the owner sees its state once more.
        rib.withdraw_with(p(pfx), peer(3), |_, _| ());
        let last = rib.withdraw_with(p(pfx), peer(1), |ranked, x| (ranked.len(), *x));
        assert_eq!(last, Some((0, 3)));
        assert_eq!((rib.prefix_count(), rib.route_count()), (0, 0));
        // Same slot, fresh state.
        rib.update_with(p(pfx), attrs(1), from(1), 100, |_, x| assert_eq!(*x, 0));
    }

    /// A peer's facts are its session's: a new session, after the purge
    /// that ends the old one, ranks by its own.
    #[test]
    fn new_session_facts_take_effect_after_the_purge() {
        let mut rib = LocRib::new();
        let pfx = "1.0.0.0/24";
        // Steps 1-4 tie; router ids 1.0.0.1 < 2.0.0.1 decide.
        announce(&mut rib, pfx, 1, 100);
        announce(&mut rib, pfx, 2, 100);
        assert_eq!(peers(rib.candidates(p(pfx))), [1, 2]);
        rib.withdraw_peer(peer(1), |_| ());
        assert_eq!(
            rib.peers().get(peer(1)),
            Some(&from(1)),
            "kept until replaced"
        );
        let renumbered = PeerInfo {
            router_id: Ipv4Addr::new(9, 0, 0, 1),
            ..from(1)
        };
        let c = rib.update(p(pfx), attrs(1), renumbered, 100);
        assert!(!c.best_changed() && c.top_two_changed());
        assert_eq!(peers(c.ranked), [2, 1]);
        assert_eq!(rib.peers().get(peer(1)), Some(&renumbered));
    }

    /// The other half of the rule: while a peer holds candidates its
    /// facts are fixed (lists ranked by the old ones would not be sorted
    /// by the new), and a debug build says so.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "session facts changed")]
    fn session_facts_are_fixed_while_the_peer_holds_routes() {
        let mut rib = LocRib::new();
        announce(&mut rib, "1.0.0.0/24", 1, 100);
        let renumbered = PeerInfo {
            router_id: Ipv4Addr::new(9, 0, 0, 1),
            ..from(1)
        };
        rib.update(p("2.0.0.0/24"), attrs(1), renumbered, 100);
    }

    /// Spilled lists grow one exact step at a time and keep their
    /// capacity across a withdraw, so `footprint` is a function of the
    /// high-water candidate count, not of `Vec`'s doubling.
    #[test]
    fn spilled_lists_are_exact_fit() {
        let bytes = |rib: &LocRib| {
            let f = rib.footprint();
            (f.entry_bytes, f.list_bytes)
        };
        let mut rib = LocRib::new();
        let pfx = "1.0.0.0/24";
        assert_eq!(bytes(&rib), (0, 0), "an empty RIB holds no heap");
        for n in 1..=9 {
            announce(&mut rib, pfx, n, 100);
        }
        let nine = rib.footprint();
        assert_eq!((nine.routes, nine.spilled_entries), (9, 1));
        let nine = bytes(&rib);
        rib.withdraw(p(pfx), peer(5)).unwrap();
        assert_eq!(bytes(&rib), nine, "capacity kept");
        announce(&mut rib, pfx, 5, 100);
        assert_eq!(bytes(&rib), nine, "and reused");
        announce(&mut rib, pfx, 10, 100);
        assert_eq!(
            bytes(&rib),
            (nine.0, nine.1 + size_of::<Route>()),
            "one more candidate costs one more route"
        );
    }
}
