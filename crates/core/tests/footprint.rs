//! The RIB's bytes-per-prefix, gated.
//!
//! ROADMAP aim 1: a claim survives only with a measurement that fails
//! when it stops being true. `LocRib`'s storage is sized to its content
//! (see `sc_bgp::rib`): an index of sorted blocks of 12-byte (prefix,
//! slot) pairs over slabs of 40- and 56-byte small entries and 16-byte
//! candidates. `LocRib::footprint` reports the slabs and lists but not
//! the index, so this binary has an allocator of its own and measures
//! the whole RIB the way
//! the perf ledger's `alloc.peak_heap_mb` would see it: the bytes live on
//! the heap once a deterministic table of consecutive /24s is loaded,
//! minus the bytes live before. The budgets sit at most 5% above what
//! that reads today, and far below what the layouts before cost (the
//! index as a B-tree of 26 B a prefix or a 20-byte-node trie, 40-byte
//! candidates carrying their prefix
//! and their peer's facts, one `Vec<Route>` per prefix), so a per-prefix
//! regression fails here before it shows as RSS in the perf ledger.
//!
//! The controller's peer-down repair is gated by its peak instead: it
//! walks the table once and streams the re-announcements out, so the
//! live heap it adds at any instant is one attribute run's prefixes and
//! one message, whatever the table's size. The list of actions it
//! collected before held 24 B per re-announced prefix (2.4 MB at 100k).
//! A provider's UPDATE takes the same streamed path to the router, so it
//! is gated the same way: an UPDATE re-announcing the whole table holds
//! one attribute run, not a list of the table's actions.

use sc_bgp::{AsPath, LocRib, PeerInfo, RouteAttrs, UpdateMsg};
use sc_net::{Ipv4Prefix, MacAddr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::Arc;
use supercharger::engine::PeerSpec;
use supercharger::{Engine, EngineConfig};

thread_local! {
    /// Bytes this thread has allocated and not yet freed. Each test
    /// builds and measures its table on its own thread, so the tests do
    /// not see each other.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most [`LIVE`] has been since [`peak_above`] last reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// `System`, keeping [`LIVE`] and [`PEAK`].
struct Counting;

impl Counting {
    fn moved(by: isize) {
        let live = LIVE.get() + by;
        LIVE.set(live);
        PEAK.set(PEAK.get().max(live));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was held to; the counters are
// const-initialized thread-locals without destructors, so touching them
// neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::moved(layout.size() as isize);
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::moved(layout.size() as isize);
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::moved(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Counting::moved(-(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `build`'s result and the heap bytes it holds on to.
fn held_by<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let before = LIVE.get();
    let built = build();
    (built, (LIVE.get() - before) as f64)
}

/// `run`'s result and the most heap it held above its start at any
/// instant.
fn peak_above<T>(run: impl FnOnce() -> T) -> (T, f64) {
    let start = LIVE.get();
    PEAK.set(start);
    let out = run();
    (out, (PEAK.get() - start) as f64)
}

fn slash24(i: u32) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000 + (i << 8)), 24)
}

fn peer(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, n, 1)
}

/// A router-side RIB holding `prefixes` consecutive /24s from each of
/// `peers` peers, loaded one full feed after the other.
fn router_rib(prefixes: u32, peers: u8) -> LocRib {
    let mut rib = LocRib::new();
    for n in 1..=peers {
        let attrs = RouteAttrs::ebgp(AsPath::sequence(vec![65000 + n as u16, 65100]), peer(n));
        let attrs = attrs.shared();
        let from = PeerInfo {
            peer: peer(n),
            router_id: peer(n),
            ebgp: true,
            igp_cost: 0,
        };
        for i in 0..prefixes {
            rib.update(slash24(i), attrs.clone(), from, 100);
        }
    }
    rib
}

/// The router behind a controller: one candidate per prefix.
/// Today 64.8 B/prefix (12.4 index + 52.4 entries); with the B-tree
/// index 78.7, with the trie index 104.9, with 40-byte candidates 167.8,
/// before the slot-indexed layout 264.9 (those three by capacity).
#[test]
fn one_candidate_per_prefix_fits_its_budget() {
    let (rib, held) = held_by(|| router_rib(100_000, 1));
    let f = rib.footprint();
    assert_eq!(
        (f.prefixes, f.routes, f.spilled_entries),
        (100_000, 100_000, 0)
    );
    let per_prefix = held / f.prefixes as f64;
    assert!(per_prefix <= 68.0, "{per_prefix:.1} B/prefix: {f:?}");
}

/// The controller of the Fig. 4 lab: two candidates per prefix plus what
/// it last announced, in `LocRib<Option<Announced>>` — measured as the
/// whole engine, whose other tables do not grow with the prefix count.
/// Today 85.8 B/prefix (12.4 index + 73.4 entries); with the B-tree
/// index 99.7, with the trie index 125.8, with 40-byte candidates 199.2,
/// before the slot-indexed layout 327.8.
#[test]
fn two_candidates_and_owner_state_fit_their_budget() {
    let universe: Vec<Ipv4Prefix> = (0..100_000).map(slash24).collect();
    let (engine, held) = held_by(|| {
        let specs = (1..=2u8)
            .map(|n| PeerSpec {
                id: peer(n),
                mac: MacAddr::from_octets([2, 0, 0, 0, 0, n]),
                switch_port: n as u16,
                local_pref: 100 * n as u32,
                router_id: peer(n),
            })
            .collect();
        let mut engine = Engine::new(EngineConfig::new("10.0.200.0/24".parse().unwrap(), specs));
        for n in 1..=2u8 {
            let attrs = RouteAttrs::ebgp(AsPath::sequence(vec![65000 + n as u16, 65100]), peer(n));
            let attrs = attrs.shared();
            for nlri in universe.chunks(500) {
                engine.process_update(peer(n), &UpdateMsg::announce(attrs.clone(), nlri.to_vec()));
            }
        }
        engine
    });
    let f = engine.rib().footprint();
    assert_eq!(
        (f.prefixes, f.routes, f.spilled_entries),
        (100_000, 200_000, 0)
    );
    let per_prefix = held / f.prefixes as f64;
    assert!(per_prefix <= 90.0, "{per_prefix:.1} B/prefix: {f:?}");
}

/// An IXP world: nine candidates per prefix, every entry spilled. This is
/// the regime the inline slots must not tax. Today 226.9 B/prefix: 13.2
/// index, 45.1 for the small slab the entries passed through and its
/// free list, 24.6 large entries and 144 for the nine routes. With the
/// B-tree index it was 240.7, with the trie index 254.6, with 40-byte
/// candidates 519.7 (360 of
/// routes), and the layout before cost 721.9 (it rounded nine candidates
/// up to a 16-route block).
#[test]
fn nine_candidates_per_prefix_pay_for_nine() {
    let (rib, held) = held_by(|| router_rib(2_000, 9));
    let f = rib.footprint();
    assert_eq!(
        (f.prefixes, f.routes, f.spilled_entries),
        (2_000, 18_000, 2_000)
    );
    let per_prefix = held / f.prefixes as f64;
    assert!(per_prefix <= 238.0, "{per_prefix:.1} B/prefix: {f:?}");
    assert_eq!(f.list_bytes, 18_000 * 16, "a spilled candidate is 16 B");
}

/// Prefixes per attribute run (a synthetic RIS table averages 32.5).
const RUN: u32 = 32;

/// The Fig. 4 controller, its two providers not yet heard from; peer 2
/// is the preferred one.
fn fig4_engine() -> Engine {
    let specs = (1..=2u8)
        .map(|n| PeerSpec {
            id: peer(n),
            mac: MacAddr::from_octets([2, 0, 0, 0, 0, n]),
            switch_port: n as u16,
            local_pref: 100 * n as u32,
            router_id: peer(n),
        })
        .collect();
    Engine::new(EngineConfig::new("10.0.200.0/24".parse().unwrap(), specs))
}

/// The Fig. 4 controller after both providers sent `prefixes` /24s,
/// each provider a new attribute set every [`RUN`] of them: every prefix
/// protected by the one backup-group.
fn loaded_engine(prefixes: u32) -> Engine {
    let mut engine = fig4_engine();
    for n in 1..=2u8 {
        for first in (0..prefixes).step_by(RUN as usize) {
            let path =
                AsPath::sequence(vec![65000 + n as u16, 1000 + (first / RUN % 60_000) as u16]);
            let attrs = RouteAttrs::ebgp(path, peer(n)).shared();
            let nlri = (first..(first + RUN).min(prefixes)).map(slash24).collect();
            engine.process_update(peer(n), &UpdateMsg::announce(attrs, nlri));
        }
    }
    engine
}

/// The preferred provider fails and the repair re-announces every prefix
/// with the other's route. Streamed into a router session that drops
/// each UPDATE, it holds at most 64 KiB above its start at 50k and at
/// 100k prefixes: one run's working set, not the table's.
#[test]
fn a_streamed_repair_holds_one_run_not_the_table() {
    for prefixes in [50_000, 100_000] {
        let mut engine = loaded_engine(prefixes);
        engine.failover_plan(peer(2));
        let mut messages = 0;
        let (walked, peak) =
            peak_above(|| engine.peer_down_repair(peer(2), Some(&mut |_update| messages += 1)));
        assert!(
            peak <= 64.0 * 1024.0,
            "{prefixes} prefixes: the repair held {peak} B above its start (budget 64 KiB)"
        );
        // Every prefix re-announced (plus the retired group's action),
        // in at least one UPDATE per run.
        assert_eq!(walked.actions, prefixes as usize + 1, "{walked:?}");
        assert!(messages >= prefixes / RUN, "{messages} UPDATEs");
    }
}

/// The preferred provider sends `prefixes` /24s, the other every second
/// [`RUN`] of them: the router is told a VNH for the prefixes both
/// carry and the preferred provider's own next-hop for the rest, in
/// runs of [`RUN`]. Then the preferred provider re-announces its whole
/// table with one fresh attribute set, in one UPDATE, streamed into a
/// router session that drops each message. The call holds at most
/// 64 KiB above its start at 50k and at 100k prefixes: one run's
/// prefixes and one message. The list of actions the collected path
/// builds for that UPDATE is `prefixes` × 24 B on its own (2.4 MB at
/// 100k). The fresh set ends with one handle per RIB candidate and one
/// per announcement, none left over from the walk.
#[test]
fn a_streamed_update_holds_one_run_not_an_action_list() {
    for prefixes in [50_000, 100_000] {
        let mut engine = fig4_engine();
        let universe: Vec<Ipv4Prefix> = (0..prefixes).map(slash24).collect();
        for n in [2u8, 1] {
            let attrs = RouteAttrs::ebgp(AsPath::sequence(vec![65000 + n as u16, 65100]), peer(n));
            let attrs = attrs.shared();
            for (i, nlri) in universe.chunks(RUN as usize).enumerate() {
                if n == 2 || i % 2 == 0 {
                    engine.process_update(
                        peer(n),
                        &UpdateMsg::announce(attrs.clone(), nlri.to_vec()),
                    );
                }
            }
        }
        let fresh = RouteAttrs::ebgp(AsPath::sequence(vec![65002, 65200]), peer(2)).shared();
        let update = UpdateMsg::announce(fresh.clone(), universe);
        let mut messages = 0;
        let (walked, peak) = peak_above(|| {
            engine.process_update_streamed(peer(2), &update, Some(&mut |_update| messages += 1))
        });
        assert!(
            peak <= 64.0 * 1024.0,
            "{prefixes} prefixes: the UPDATE held {peak} B above its start (budget 64 KiB)"
        );
        assert_eq!(walked.actions, prefixes as usize, "{walked:?}");
        assert!(walked.flow.is_empty(), "{walked:?}");
        assert!(messages >= prefixes / RUN, "{messages} UPDATEs");
        drop(update);
        assert_eq!(
            Arc::strong_count(&fresh),
            1 + 2 * prefixes as usize,
            "the caller's, the RIB's and the announcements' handles only"
        );
    }
}
