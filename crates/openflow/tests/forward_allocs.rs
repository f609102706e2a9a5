//! The switch's per-packet path allocates nothing.
//!
//! README "Performance" says so of the whole probe hop; the ledger's
//! `net.frame_allocs_per_pkt` can only vouch for `Frame`. This binary has
//! an allocator of its own that counts what is allocated while the
//! switch's frame handler runs, and nothing else. A send applies to the
//! kernel from inside the handler, so the count covers the switch and
//! the kernel's queue push of a matched packet — measured on a warm
//! queue, after one full pass of the same probes has sized the timer
//! wheel's bucket buffers.

mod common;

use common::{build_around, probe_frame, Host, StubController, MAC_A, MAC_B};
use sc_net::wire::peek_udp_frame;
use sc_net::{Frame, MacAddr, SimDuration, SimTime};
use sc_openflow::msg::{FlowModCommand, OfMessage};
use sc_openflow::{Action, FlowMatch, OfSwitch};
use sc_sim::{Ctx, Node, PortId, TimerToken};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Whether this thread is inside [`Metered::on_frame`], and what it
    /// has allocated in there so far.
    static IN_SWITCH: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting the calls that hand out a block.
struct Counting;

impl Counting {
    fn count() {
        if IN_SWITCH.get() {
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

/// The switch, with its frame handler bracketed for the allocator.
struct Metered(OfSwitch);

impl Node for Metered {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.0.on_start(ctx);
    }
    fn on_frame(&mut self, ctx: &mut Ctx, port: PortId, frame: Frame) {
        IN_SWITCH.set(true);
        self.0.on_frame(ctx, port, frame);
        IN_SWITCH.set(false);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
        self.0.on_timer(ctx, token);
    }
    fn on_link_status(&mut self, ctx: &mut Ctx, port: PortId, up: bool) {
        self.0.on_link_status(ctx, port, up);
    }
}

/// A supercharged probe's hop: it matches the backup-group's rule, gets
/// its destination MAC rewritten and leaves on the provider's port.
#[test]
fn matched_packets_allocate_nothing_in_the_switch() {
    const PACKETS: usize = 1_000;
    let mut lab = build_around(Metered, |m| &mut m.0);
    let vmac = MacAddr::virtual_mac(1);
    lab.world.node_mut::<StubController>(lab.ctrl).script = vec![(
        SimTime::from_millis(1),
        OfMessage::FlowMod {
            command: FlowModCommand::Add,
            priority: 100,
            cookie: 1,
            matcher: FlowMatch::dst_mac(vmac),
            actions: vec![
                Action::SetDstMac(MAC_B),
                Action::Output(lab.sw_port_b.0 as u16),
            ],
        },
    )];
    // Once the rule is in, a warm-up pass of the thousand probes, then
    // the measured pass, each probe 100 µs after the last.
    let warm_up = SimTime::from_millis(50);
    let first = SimTime::from_millis(200);
    let pass = |start: SimTime, marker: u8| {
        (0..PACKETS).map(move |i| {
            let at = start + SimDuration::from_micros(100 * i as u64);
            (at, PortId(0), probe_frame(MAC_A, vmac, marker))
        })
    };
    let script = pass(warm_up, 0).chain(pass(first, 1)).collect();
    lab.world.node_mut::<Host>(lab.host_a).script = script;

    lab.world.run_until(first - SimDuration::from_millis(1));
    assert_eq!(
        lab.world.node::<Host>(lab.host_b).received.len(),
        PACKETS,
        "the warm-up pass was switched"
    );
    let before = ALLOCATIONS.get();
    lab.world.run_until(first + SimDuration::from_millis(200));
    let in_switch = ALLOCATIONS.get() - before;

    let delivered = &lab.world.node::<Host>(lab.host_b).received[PACKETS..];
    assert_eq!(delivered.len(), PACKETS);
    for (_, frame) in delivered {
        let d = peek_udp_frame(frame).unwrap().unwrap();
        assert_eq!(d.eth.dst, MAC_B, "rewritten on the way");
    }
    let switch = &lab.world.node::<Metered>(lab.sw).0;
    assert_eq!(switch.stats.dropped, 0);
    assert_eq!(
        in_switch, 0,
        "{in_switch} allocations in OfSwitch::on_frame over {PACKETS} matched packets"
    );
    // The meter works: the rule's installation did allocate in there.
    assert!(before > 0, "nothing counted while the FLOW_MOD arrived");
}
