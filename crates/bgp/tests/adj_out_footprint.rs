//! The Adj-RIB-Out's bytes, gated.
//!
//! A provider's Adj-RIB-Out is the feed it was configured with — a
//! shared base of sorted prefixes and attribute runs — plus a delta of
//! what it sent since (see `sc_bgp::adj_out`). This binary has an
//! allocator of its own and measures the heap bytes a table holds on to,
//! the way the perf ledger's `alloc.peak_heap_mb` would see them:
//!
//! * a table over a 100k-prefix feed whose prefix list it shares holds
//!   its runs and nothing per prefix: at most 2 B/prefix (it holds 0.5;
//!   the per-session B-tree it replaced held 18.2);
//! * a table that owns its prefix list holds 8 B/prefix for it: at most
//!   9 B/prefix in all (it holds 8.5);
//! * churn overwrites: 500 withdraw/re-announce cycles of the same 1,000
//!   prefixes hold at most 64 B more per cycle after the first (the
//!   first holds 34 KB, each later one nothing);
//! * a replay streams: exporting the 100k-prefix table message by
//!   message into a sink that drops each holds at most 64 KiB above its
//!   start at any instant (one run's prefixes and one message), where
//!   the collected export holds every message (1.0 MB).
//!
//! The feed's attribute sets are the routes' own, shared with every
//! table that learns them, so they are built before measuring.

use sc_bgp::{AdjRibOut, AsPath, RouteAttrs, UpdateMsg};
use sc_net::Ipv4Prefix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::Arc;

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

const PREFIXES: u32 = 100_000;

/// Prefixes per attribute run (a synthetic RIS table averages 32.5).
const RUN: u32 = 32;

fn slash24(i: u32) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000 + (i << 8)), 24)
}

fn attrs(k: u32) -> Arc<RouteAttrs> {
    let path = AsPath::sequence(vec![65002, 1000 + (k % 60_000) as u16]);
    RouteAttrs::ebgp(path, Ipv4Addr::new(10, 0, 0, 2)).shared()
}

/// The feed's attribute sets, one per run.
fn feed_sets() -> Vec<Arc<RouteAttrs>> {
    (0..PREFIXES / RUN).map(attrs).collect()
}

/// A table over `prefixes` with one of `sets` per run.
fn table(prefixes: &Arc<[Ipv4Prefix]>, sets: &[Arc<RouteAttrs>]) -> AdjRibOut {
    let runs = sets
        .iter()
        .enumerate()
        .map(|(k, set)| (k as u32 * RUN, set.clone()))
        .collect();
    AdjRibOut::from_runs(prefixes.clone(), runs)
}

#[test]
fn a_table_sharing_its_prefix_list_fits_its_budget() {
    let prefixes: Arc<[Ipv4Prefix]> = (0..PREFIXES).map(slash24).collect();
    let sets = feed_sets();
    let (rib, held) = held_by(|| table(&prefixes, &sets));
    let per_prefix = held / PREFIXES as f64;
    assert!(
        per_prefix <= 2.0,
        "a shared-list table holds {per_prefix:.2} B/prefix (budget 2)"
    );
    assert_eq!(rib.len(), PREFIXES as usize);
    // Another session of the same provider shares the whole table.
    let (second, held) = held_by(|| rib.clone());
    assert!(held <= 64.0, "a second session holds {held} B");
    assert_eq!(second.export(), rib.export());
}

#[test]
fn a_table_seeded_from_updates_owns_only_its_list() {
    let sets = feed_sets();
    let feed: Vec<UpdateMsg> = sets
        .iter()
        .enumerate()
        .map(|(k, set)| {
            let first = k as u32 * RUN;
            UpdateMsg::announce(set.clone(), (first..first + RUN).map(slash24).collect())
        })
        .collect();
    let (rib, held) = held_by(|| AdjRibOut::from_updates(&feed));
    let per_prefix = held / PREFIXES as f64;
    assert!(
        per_prefix <= 9.0,
        "a table seeded from UPDATEs holds {per_prefix:.2} B/prefix (budget 9: its 8-byte prefixes and the runs)"
    );
    assert_eq!(rib.len(), PREFIXES as usize);
}

#[test]
fn churn_over_the_same_prefixes_overwrites() {
    let prefixes: Arc<[Ipv4Prefix]> = (0..PREFIXES).map(slash24).collect();
    let sets = feed_sets();
    let mut rib = table(&prefixes, &sets);
    // A churn burst shares its two UPDATEs across its cycles.
    let churned: Vec<Ipv4Prefix> = (0..1_000).map(|i| slash24(i * 7)).collect();
    let withdraw = UpdateMsg::withdraw(churned.clone());
    let announce = UpdateMsg::announce(attrs(PREFIXES), churned);
    let cycle = |rib: &mut AdjRibOut| {
        rib.apply(&withdraw);
        rib.apply(&announce);
    };
    let ((), first) = held_by(|| cycle(&mut rib));
    let ((), rest) = held_by(|| {
        for _ in 1..500 {
            cycle(&mut rib);
        }
    });
    let per_cycle = rest / 499.0;
    assert!(
        per_cycle <= 64.0,
        "a churn cycle after the first holds {per_cycle:.1} B (budget 64; the first held {first})"
    );
    assert_eq!(rib.len(), PREFIXES as usize);
}

#[test]
fn a_streamed_export_holds_one_run() {
    let prefixes: Arc<[Ipv4Prefix]> = (0..PREFIXES).map(slash24).collect();
    let sets = feed_sets();
    let rib = table(&prefixes, &sets);
    let mut announced = 0;
    let ((), peak) = peak_above(|| rib.export_each(|update| announced += update.nlri.len()));
    assert!(
        peak <= 64.0 * 1024.0,
        "streaming the export held {peak} B above its start (budget 64 KiB)"
    );
    assert_eq!(announced, PREFIXES as usize);
    let (collected, held) = held_by(|| rib.export());
    assert_eq!(collected.len(), sets.len());
    assert!(held > 64.0 * 1024.0, "the collected export holds {held} B");
}
