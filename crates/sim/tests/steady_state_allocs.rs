//! The kernel allocates nothing per event once it is warm.
//!
//! README "Performance" says the probe path is allocation-free. The
//! ledger's `net.frame_allocs_per_pkt` vouches for `Frame` alone and
//! `sc-openflow`'s `forward_allocs` for one switch; this binary pins the
//! kernel under them — dispatch, a send applied from inside a handler,
//! link timing and the scheduler's push and pop — with an allocator of
//! its own that counts only while a metered stretch of events runs.

use sc_net::{Frame, SimDuration, SimTime};
use sc_sim::{Ctx, LinkParams, Node, PortId, TimerToken, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Whether this thread is metering, and what it allocated meanwhile.
    static METERING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting the calls that hand out a block.
struct Counting;

impl Counting {
    fn count() {
        if METERING.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was held to; the counters are
// const-initialized thread-locals without destructors, so touching them
// neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM_UP: u64 = 100_000;
const METERED: u64 = 100_000;

/// Run `world` warm, then count what the next [`METERED`] events
/// allocate.
fn allocations_in_steady_state(world: &mut World) -> u64 {
    for _ in 0..WARM_UP {
        assert!(world.step(), "the world went idle while warming up");
    }
    let before = ALLOCATIONS.get();
    METERING.set(true);
    for _ in 0..METERED {
        assert!(world.step(), "the world went idle while metered");
    }
    METERING.set(false);
    ALLOCATIONS.get() - before
}

/// Bounces every frame straight back out of the port it came in on.
struct Bounce;

impl Node for Bounce {
    fn name(&self) -> &str {
        "bounce"
    }
    fn on_frame(&mut self, ctx: &mut Ctx, port: PortId, frame: Frame) {
        ctx.send_frame(port, frame);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, _token: TimerToken) {
        ctx.send_frame(PortId(0), vec![0u8; 64]);
    }
}

/// The ledger's bare-event world: two nodes bouncing one frame.
#[test]
fn ping_pong_allocates_nothing_per_event() {
    let mut world = World::new(42);
    let a = world.add_node(Bounce);
    let b = world.add_node(Bounce);
    world.connect(a, b, LinkParams::default());
    world.wake_node(SimTime::ZERO, a, TimerToken(0));
    // The meter works: the first event builds the frame.
    METERING.set(true);
    world.step();
    METERING.set(false);
    assert!(ALLOCATIONS.get() > 0, "the first frame was not counted");
    let n = allocations_in_steady_state(&mut world);
    assert_eq!(n, 0, "{n} allocations over {METERED} ping-pong events");
}

const FLOWS: u64 = 10;

/// One prebuilt frame per flow, cloned (a refcount bump) every 10 µs,
/// the flows staggered 1 µs apart like a probe generator's.
struct Source {
    templates: Vec<Frame>,
}

impl Node for Source {
    fn name(&self) -> &str {
        "source"
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        for flow in 0..FLOWS {
            ctx.set_timer_after(SimDuration::from_micros(flow), TimerToken(flow));
        }
    }
    fn on_frame(&mut self, _ctx: &mut Ctx, _port: PortId, _frame: Frame) {}
    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
        ctx.send_frame(PortId(0), self.templates[token.0 as usize].clone());
        ctx.set_timer_after(SimDuration::from_micros(FLOWS), token);
    }
}

/// Passes each frame from its port 0 (upstream) to its port 1.
struct Forward;

impl Node for Forward {
    fn name(&self) -> &str {
        "forward"
    }
    fn on_frame(&mut self, ctx: &mut Ctx, _port: PortId, frame: Frame) {
        ctx.send_frame(PortId(1), frame);
    }
}

/// Counts what reaches the end of the chain.
struct Sink {
    received: u64,
}

impl Node for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn on_frame(&mut self, _ctx: &mut Ctx, _port: PortId, _frame: Frame) {
        self.received += 1;
    }
}

/// The probe path in miniature: source → 4 forwarders → sink on gigabit
/// links, 10 flows.
#[test]
fn probe_chain_allocates_nothing_per_event() {
    let mut world = World::new(42);
    let templates = (0..FLOWS)
        .map(|flow| Frame::from(vec![flow as u8; 64]))
        .collect();
    let mut prev = world.add_node(Source { templates });
    for _ in 0..4 {
        let hop = world.add_node(Forward);
        world.connect(prev, hop, LinkParams::gigabit(SimDuration::from_micros(5)));
        prev = hop;
    }
    let sink = world.add_node(Sink { received: 0 });
    world.connect(prev, sink, LinkParams::gigabit(SimDuration::from_micros(5)));
    let n = allocations_in_steady_state(&mut world);
    assert_eq!(n, 0, "{n} allocations over {METERED} probe-chain events");
    // Six events per probe: the source's timer and five hops.
    let received = world.node::<Sink>(sink).received;
    assert!(
        received > (WARM_UP + METERED) / 6 - 100,
        "only {received} probes reached the sink"
    );
}
