//! What a snapshot provider's Adj-RIB-Out holds, gated.
//!
//! Providers that replay the same recorded peer share that peer's
//! [`sc_mrt::PeerTable`]: one sorted prefix list, and per provider only
//! the runs with its next hop. This binary has an allocator of its own
//! and measures the heap bytes a second provider's table holds beyond
//! its attribute sets — one per run, built for its next hop, as many as
//! a table seeded from its packed feed holds — at most 2 B/prefix (it
//! holds 0.5: 16 B per run of 32). A table seeded from the provider's
//! packed feed, as each snapshot provider was before, owns a copy of the
//! list: 8.5 B/prefix.

use sc_bgp::attrs::{AsPath, RouteAttrs};
use sc_bgp::AdjRibOut;
use sc_mrt::{pack_feed, NextHopRewriter, PeerTableEntry, RibEntry, RibEntryRecord, RibSnapshot};
use sc_net::Ipv4Prefix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::Arc;

thread_local! {
    /// Bytes this thread has allocated and not yet freed. Each test
    /// builds and measures its tables on its own thread, so the tests do
    /// not see each other.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// `System`, keeping [`LIVE`].
struct Counting;

impl Counting {
    fn moved(by: isize) {
        LIVE.set(LIVE.get() + by);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was held to; the counter is a
// const-initialized thread-local without a destructor, so touching it
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

const PREFIXES: u32 = 100_000;

/// Prefixes per attribute run (a synthetic RIS table averages 32.5).
const RUN: u32 = 32;

/// A snapshot of one recorded peer: consecutive /24s, a new attribute
/// set every [`RUN`] of them, each record with its own decoded `Arc`.
fn snapshot() -> RibSnapshot {
    let peer = Ipv4Addr::new(198, 51, 100, 1);
    let routes = (0..PREFIXES)
        .map(|i| {
            let path = AsPath::sequence(vec![64900, 1000 + (i / RUN % 60_000) as u16]);
            RibEntryRecord {
                seq: i,
                prefix: Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000 + (i << 8)), 24),
                entries: vec![RibEntry {
                    peer_index: 0,
                    originated: 0,
                    attrs: RouteAttrs::ebgp(path, peer).shared(),
                }],
            }
        })
        .collect();
    RibSnapshot {
        collector_id: Ipv4Addr::new(192, 0, 2, 1),
        view: String::new(),
        peers: vec![PeerTableEntry {
            bgp_id: peer,
            addr: peer,
            asn: 64900,
        }],
        routes,
    }
}

#[test]
fn a_second_provider_replaying_a_peer_holds_its_runs() {
    let snap = snapshot();
    let table = snap.peer_table(0);
    let first = table.adj_rib_out(Ipv4Addr::new(10, 0, 0, 30));
    let nh = Ipv4Addr::new(10, 0, 0, 31);
    let (second, held) = held_by(|| table.adj_rib_out(nh));
    // The attribute sets with the second provider's next hop, which any
    // table of its routes holds: counted apart.
    let (sets, sets_held) = held_by(|| {
        table
            .attribute_sets()
            .map(|attrs| Arc::new(attrs.with_next_hop(nh)))
            .collect::<Vec<_>>()
    });
    let sets_held = sets_held - (sets.capacity() * size_of::<Arc<RouteAttrs>>()) as f64;
    let per_prefix = (held - sets_held) / PREFIXES as f64;
    assert!(
        per_prefix <= 2.0,
        "a second provider holds {per_prefix:.2} B/prefix beyond its attribute sets (budget 2)"
    );
    assert_eq!(first.len(), PREFIXES as usize);

    // The layout it replaced: the provider's packed feed seeds a table
    // that owns its prefix list.
    let feed = pack_feed(
        &NextHopRewriter::new(nh).rewrite_routes(&snap.routes_for_peer(0)),
        300,
    );
    let (seeded, held) = held_by(|| AdjRibOut::from_updates(&feed));
    let per_prefix = held / PREFIXES as f64;
    assert!(
        per_prefix >= 8.0,
        "a feed-seeded table holds {per_prefix:.2} B/prefix"
    );
    assert_eq!(second.export(), seeded.export());
}
