//! A churn script stores its UPDATEs once, whatever its cycle count.
//!
//! A `ChurnBurst` withdraws and re-announces the same prefixes every
//! cycle. `EventScript::apply` builds the two message lists once and
//! every cycle's injection holds them by reference count, so one more
//! cycle costs its two scheduled events and nothing that grows with the
//! prefixes that churn. This binary measures the bytes `apply` leaves
//! live, with an allocator of its own that counts only while `apply`
//! runs, at two cycle counts and two burst sizes. A cycle that pays for
//! a copy of its messages again shows up here as bytes per cycle that
//! grow with `count`.

use sc_net::SimDuration;
use sc_scenarios::{
    build_scenario, EventScript, Mode, ProviderSel, ScenarioConfig, ScenarioEvent, TopologySpec,
};
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

/// What one added churn cycle may keep allocated: two control events
/// (a boxed closure and a queue entry each) with room for the
/// amortized growth of the vectors that hold them. A cycle that copied
/// its messages would add 8 bytes a prefix for each of its two lists.
const BYTES_PER_CYCLE: i64 = 256;

/// The bytes that applying a `cycles`-cycle churn of `count` prefixes
/// leaves allocated on a converged three-peer IXP hub.
fn retained_by_apply(count: u32, cycles: u32) -> i64 {
    let cfg = ScenarioConfig {
        prefixes: 300,
        flows: 2,
        seed: 5,
        ..ScenarioConfig::default()
    };
    let mut scn = build_scenario(&TopologySpec::IxpHub { peers: 3 }, Mode::Supercharged, &cfg);
    scn.run_until_converged();
    let script = EventScript::new(
        "churn",
        vec![ScenarioEvent::ChurnBurst {
            provider: ProviderSel::Primary,
            at: SimDuration::ZERO,
            count,
            cycles,
            period: SimDuration::from_millis(10),
        }],
    );
    let t0 = scn.world.now();
    let before = LIVE.get();
    METERING.set(true);
    script.apply(&mut scn, t0);
    METERING.set(false);
    LIVE.get() - before
}

#[test]
fn a_churn_cycle_keeps_its_events_not_a_copy_of_its_updates() {
    for count in [30, 150] {
        let fifty = retained_by_apply(count, 50);
        let hundred = retained_by_apply(count, 100);
        assert!(fifty > 0, "count {count}: the meter saw nothing");
        let per_cycle = (hundred - fifty) / 50;
        assert!(
            per_cycle <= BYTES_PER_CYCLE,
            "count {count}: {per_cycle} B retained per added cycle \
             ({fifty} B at 50 cycles, {hundred} B at 100), over {BYTES_PER_CYCLE} B"
        );
    }
}
