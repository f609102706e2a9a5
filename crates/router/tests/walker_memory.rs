//! The FIB walker stores a repeated burst once, however often it is
//! queued.
//!
//! Churn re-sends the same UPDATEs every cycle, so R1's walker is handed
//! the same withdrawal and the same re-announcement again and again while
//! its walk falls behind. Each queued copy must cost a few bytes of queue
//! over the ops already stored, not the ops again, and a drained walker
//! must give its store back. This binary measures the bytes the walker
//! keeps, with an allocator of its own that counts only while the walker
//! runs.

use sc_net::{Ipv4Addr, Ipv4Prefix, SimTime};
use sc_router::{Calibration, Fib, FibOp, FibWalker};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Whether this thread is metering, and the bytes it allocated
    /// minus the bytes it freed meanwhile.
    static METERING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// `System`, keeping a running total of live bytes.
struct Counting;

impl Counting {
    fn add(bytes: i64) {
        if METERING.get() {
            LIVE.set(LIVE.get() + bytes);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was held to; the counters are
// const-initialized thread-locals without destructors, so touching them
// neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::add(layout.size() as i64);
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::add(layout.size() as i64);
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::add(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Counting::add(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return its result with the bytes it left allocated.
fn metered<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.get();
    METERING.set(true);
    let out = f();
    METERING.set(false);
    (out, LIVE.get() - before)
}

/// Prefixes per burst, and the churn cycles queued.
const PREFIXES: u32 = 1_000;
const CYCLES: u32 = 500;

/// What one added churn cycle may keep allocated: its entries in the
/// walker's queue, with room for the amortized growth of the queue. A
/// cycle that stored its ops again would add 8 bytes an op for each
/// burst.
const BYTES_PER_CYCLE: i64 = 64;

/// What a drained walker may still hold.
const DRAINED_BYTES: i64 = 64 << 10;

#[test]
fn a_repeated_burst_is_stored_once() {
    let prefix = |i: u32| Ipv4Prefix::new(Ipv4Addr::from(0x0a00_0000 + (i << 8)), 24);
    let withdraw: Vec<FibOp> = (0..PREFIXES)
        .map(|i| FibOp::Remove { prefix: prefix(i) })
        .collect();
    let announce: Vec<FibOp> = (0..PREFIXES)
        .map(|i| FibOp::Set {
            prefix: prefix(i),
            next_hop: Ipv4Addr::new(10, 0, 3, 1),
        })
        .collect();
    let mut walker = FibWalker::new(Calibration::nexus7k(), 7);
    // Queued with none applied: the walk has fallen behind the churn.
    let queue_cycles = |walker: &mut FibWalker, cycles: u32| {
        metered(|| {
            for _ in 0..cycles {
                walker.enqueue_burst(SimTime::ZERO, withdraw.iter().copied(), false);
                walker.enqueue_burst(SimTime::ZERO, announce.iter().copied(), false);
            }
        })
        .1
    };
    let first = queue_cycles(&mut walker, CYCLES / 5);
    let rest = queue_cycles(&mut walker, CYCLES - CYCLES / 5);
    assert!(first > 0, "the meter saw nothing");
    let per_cycle = rest / i64::from(CYCLES - CYCLES / 5);
    assert!(
        per_cycle <= BYTES_PER_CYCLE,
        "{per_cycle} B kept per added cycle ({first} B for the first {}), over {BYTES_PER_CYCLE} B",
        CYCLES / 5
    );
    assert_eq!(walker.pending(), (2 * PREFIXES * CYCLES) as usize);

    // Walk the whole queue, one op per tick.
    let mut fib = Fib::new();
    let mut applied = Vec::new();
    while let Some(at) = walker.next_apply_at() {
        walker.apply_batch(&mut fib, at, &mut applied);
    }
    assert_eq!(walker.ops_applied, u64::from(2 * PREFIXES * CYCLES));
    assert_eq!(fib.len(), PREFIXES as usize, "the last burst re-announces");
    let ((), freed) = metered(|| drop(walker));
    let held = -freed;
    assert!(
        held < DRAINED_BYTES,
        "{held} B held by the drained walker, over {DRAINED_BYTES} B"
    );
}
