//! The simulation kernel: event queue, nodes, links, failure injection.
//!
//! Determinism contract: given the same seed and the same sequence of
//! API calls, two [`World`]s process identical event sequences. Events
//! are totally ordered by `(time, origin key)`: the key packs *which
//! stream emitted the event* (stream 0 is the world/control stream,
//! stream `n + 1` is node `n`) with that stream's private emission
//! counter. Keys never depend on how emissions from different streams
//! interleave globally, so the order is a property of the simulated
//! system, not of the queue that holds it: the timer wheel pops the
//! sequence a heap of keys would, and checks that it does on every pop
//! in debug builds; every trace record can name the event that caused
//! it by key.

use crate::link::{Endpoint, Link, LinkId, LinkParams};
use crate::node::{Ctx, Node, NodeId, PortId, TimerToken};
use crate::sched::TimerWheel;
use crate::trace::Trace;
use sc_net::metrics::Registry;
use sc_net::{Frame, SimDuration, SimTime};
use std::any::Any;

/// Bits of each origin key holding the per-stream counter; the stream
/// id lives above them. 2^44 events per stream and 2^20 streams are
/// both far beyond any workload here (the counters are per node, and a
/// run is bounded by `run_until_idle`'s event guard anyway).
const ORIGIN_SHIFT: u32 = 44;

/// Kernel counters (cheap, always on).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct WorldStats {
    pub events_processed: u64,
    pub frames_delivered: u64,
    pub frames_dropped_loss: u64,
    pub frames_dropped_link_down: u64,
    pub frames_dropped_no_link: u64,
    pub frames_dropped_dead_node: u64,
    pub frames_corrupted: u64,
    pub timers_fired: u64,
    pub timers_dropped_dead_node: u64,
    pub link_status_events: u64,
    pub control_events: u64,
}

/// Per-node kernel counters (cheap, always on). They belong to the node
/// slot, so a restarted node keeps counting where its predecessor
/// stopped. A timer storm shows up here as one outlier node.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct NodeStats {
    pub timers_fired: u64,
    pub frames_delivered: u64,
}

impl WorldStats {
    /// Events handled by kind, under their registry names. Delayed-emit
    /// events are the only kind without a counter of their own (they
    /// are the remainder), so the five sum to `events_processed`.
    pub fn events_by_kind(&self) -> [(&'static str, u64); 5] {
        let deliver = self.frames_delivered + self.frames_dropped_dead_node;
        let timer = self.timers_fired + self.timers_dropped_dead_node;
        let counted = deliver + timer + self.link_status_events + self.control_events;
        [
            ("kernel.events.deliver", deliver),
            ("kernel.events.emit", self.events_processed - counted),
            ("kernel.events.timer", timer),
            ("kernel.events.link_status", self.link_status_events),
            ("kernel.events.control", self.control_events),
        ]
    }
}

/// What a queued event does at its endpoint (see
/// [`Queued`](crate::sched::Queued)). Every payload is one 8-byte word,
/// so the enum is a (tag, word) pair passed in two registers; a `bool`
/// payload would pass it through memory.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// A frame finishing its flight, to be handed to the receiving
    /// endpoint. The payload is a pointer-sized [`Frame`], not an owned
    /// byte vector — the queue moves refcounts, never frame bytes.
    Deliver(Frame),
    /// A frame leaving the sending endpoint after a processing delay.
    Emit(Frame),
    /// A timer of the endpoint's node.
    Timer(TimerToken),
    /// Carrier returned at the endpoint.
    LinkUp,
    /// Carrier lost at the endpoint.
    LinkDown,
    Control(usize),
}

impl EventKind {
    fn carrier(up: bool) -> EventKind {
        if up {
            EventKind::LinkUp
        } else {
            EventKind::LinkDown
        }
    }
}

/// The endpoint a timer of `node` happens at.
fn at_node(node: NodeId) -> Endpoint {
    Endpoint {
        node,
        port: PortId(0),
    }
}

/// The endpoint a control event carries (it happens at none).
const NO_ENDPOINT: Endpoint = Endpoint {
    node: NodeId(0),
    port: PortId(0),
};

/// What the kernel keeps of a node besides the object itself.
pub(crate) struct Slot {
    name: String,
    alive: bool,
    /// Port index -> the link attached there and the direction the port
    /// sends in (0: the port is the link's `a` end).
    ports: Vec<(LinkId, usize)>,
    /// This node's origin-key emission counter (see the module docs).
    emit_ctr: u64,
    stats: NodeStats,
}

/// Everything but the node objects. A [`Ctx`] holds it while its node's
/// handler runs and applies each effect when it is requested — the order
/// they would apply in after the handler returned, as a handler observes
/// nothing applying one changes: keys are drawn, and each link
/// direction's fault stream and busy horizon advance, in call order.
pub(crate) struct Kernel {
    pub(crate) now: SimTime,
    /// The last instant the running loop will process: `run_until`'s
    /// deadline, or the instant of the event being handled under `step`
    /// and `run_until_idle` (their final clock is observable). Bounds
    /// [`Ctx::horizon`].
    pub(crate) until: SimTime,
    /// Origin-key counter for stream 0 (the world/control stream).
    world_ctr: u64,
    pub(crate) queue: TimerWheel,
    slots: Vec<Slot>,
    links: Vec<Link>,
    pub(crate) trace: Trace,
    /// Counters registry (sc-trace's metrics half). Disabled
    /// by default; node handlers record through `Ctx::metrics`.
    pub(crate) metrics: Registry,
    stats: WorldStats,
}

type ControlFn = Box<dyn FnOnce(&mut World)>;

/// The discrete-event world.
pub struct World {
    k: Kernel,
    /// Node `i`'s object; its kernel slot is `k.slots[i]`.
    objs: Vec<Box<dyn Node>>,
    /// Root of every link's per-direction fault stream.
    seed: u64,
    started: bool,
    controls: Vec<Option<ControlFn>>,
}

impl Kernel {
    pub(crate) fn new() -> Kernel {
        Kernel {
            now: SimTime::ZERO,
            until: SimTime::ZERO,
            world_ctr: 0,
            queue: TimerWheel::new(),
            slots: Vec::new(),
            links: Vec::new(),
            trace: Trace::disabled(),
            metrics: Registry::default(),
            stats: WorldStats::default(),
        }
    }

    /// Open the slot of the next node.
    pub(crate) fn add_slot(&mut self, name: &str) -> NodeId {
        // The queue stores node and port indices as `u32`s.
        assert!(self.slots.len() < u32::MAX as usize, "too many nodes");
        self.slots.push(Slot {
            name: name.to_string(),
            alive: true,
            ports: Vec::new(),
            emit_ctr: 0,
            stats: NodeStats::default(),
        });
        NodeId(self.slots.len() - 1)
    }

    /// Queue an event on the world/control stream (origin key 0):
    /// scripted controls, carrier transitions, external wake-ups —
    /// anything pushed by the driver rather than from a node
    /// handler. Stream-0 keys sort below every node key, so co-timed
    /// control effects always precede co-timed node traffic.
    fn push(&mut self, time: SimTime, at: Endpoint, kind: EventKind) {
        let seq = self.next_world_key();
        self.queue.push(time, seq, at, kind);
    }

    /// Next origin key on stream 0 (also the causal stamp for dispatches
    /// the world performs directly, e.g. `on_start`).
    #[inline]
    fn next_world_key(&mut self) -> u64 {
        let seq = self.world_ctr;
        self.world_ctr += 1;
        seq
    }

    /// Next origin key on node `n`'s stream.
    #[inline]
    fn key_for_node(&mut self, n: usize) -> u64 {
        let slot = &mut self.slots[n];
        let c = slot.emit_ctr;
        slot.emit_ctr += 1;
        debug_assert!(c < 1 << ORIGIN_SHIFT, "origin counter overflow");
        ((n as u64 + 1) << ORIGIN_SHIFT) | c
    }

    /// Transmit `frame` from `from` at `at`: onto the wire now if `at`
    /// is due, otherwise as an `Emit` event on the sender's stream.
    pub(crate) fn send(&mut self, from: Endpoint, frame: Frame, at: SimTime) {
        if at <= self.now {
            self.emit(from, frame);
        } else {
            let seq = self.key_for_node(from.node.0);
            self.queue.push(at, seq, from, EventKind::Emit(frame));
        }
    }

    /// Arm `node`'s timer `token` at `at` (an overdue one fires now).
    pub(crate) fn set_timer(&mut self, node: NodeId, at: SimTime, token: TimerToken) {
        let seq = self.key_for_node(node.0);
        self.queue.push(
            at.max(self.now),
            seq,
            at_node(node),
            EventKind::Timer(token),
        );
    }

    /// Put a frame onto the wire from `from`, applying link faults and
    /// timing. Called at the frame's emission time.
    fn emit(&mut self, from: Endpoint, frame: Frame) {
        let Some(&(link_id, dir)) = self.slots[from.node.0].ports.get(from.port.0) else {
            self.stats.frames_dropped_no_link += 1;
            return;
        };
        let link = &mut self.links[link_id.0];
        if !link.up {
            self.stats.frames_dropped_link_down += 1;
            return;
        }
        let peer = link.receiver(dir);
        // Fault injection from the link direction's counted stream.
        let mut frame = frame;
        let corrupted = match link.apply_faults(dir, &mut frame) {
            None => {
                self.stats.frames_dropped_loss += 1;
                return;
            }
            Some(c) => c,
        };
        if corrupted {
            self.stats.frames_corrupted += 1;
        }
        let arrival = link.schedule_arrival(dir, self.now, frame.len());
        // The delivery rides the *sender's* origin stream: its key is a
        // pure function of which node emitted and how many times, never
        // of global interleaving — the root of the order's determinism.
        let seq = self.key_for_node(from.node.0);
        self.queue
            .push(arrival, seq, peer, EventKind::Deliver(frame));
    }
}

impl World {
    /// A fresh world with the given RNG seed and tracing disabled.
    pub fn new(seed: u64) -> World {
        World {
            k: Kernel::new(),
            objs: Vec::new(),
            seed,
            started: false,
            controls: Vec::new(),
        }
    }

    /// Enable a bounded trace (keep the most recent `capacity` records)
    /// and the metrics registry.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.k.trace = Trace::bounded(capacity);
        self.k.metrics.enable();
    }

    /// Enable only the metrics registry (counters without
    /// the event ring).
    pub fn enable_metrics(&mut self) {
        self.k.metrics.enable();
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.k.now
    }

    /// Kernel counters.
    pub fn stats(&self) -> WorldStats {
        self.k.stats
    }

    /// Kernel counters of one node slot.
    pub fn node_stats(&self, id: NodeId) -> NodeStats {
        self.k.slots[id.0].stats
    }

    /// Fold the kernel's own totals into `reg`: events by kind
    /// (`kernel.events.*`) and `kernel.node.<name>.timers_fired` per
    /// node. Call once, after a run, like the nodes' `fold_metrics`.
    pub fn fold_kernel_metrics(&self, reg: &mut Registry) {
        for (name, n) in self.k.stats.events_by_kind() {
            reg.add(name, n);
        }
        for slot in &self.k.slots {
            reg.add_named(
                format!("kernel.node.{}.timers_fired", slot.name),
                slot.stats.timers_fired,
            );
        }
    }

    /// Number of events currently queued (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.k.queue.len()
    }

    /// The trace buffer.
    pub fn trace(&self) -> &Trace {
        &self.k.trace
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.k.metrics
    }

    /// Mutable registry access (drivers fold node-local counters in
    /// before exporting).
    pub fn metrics_mut(&mut self) -> &mut Registry {
        &mut self.k.metrics
    }

    /// Attach a node; returns its id.
    pub fn add_node(&mut self, node: impl Node) -> NodeId {
        let id = self.k.add_slot(node.name());
        self.objs.push(Box::new(node));
        id
    }

    /// Whether the node is alive (not crashed).
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.k.slots[id.0].alive
    }

    /// Immutable typed access to a node (panics on wrong type — that is
    /// a bug in the experiment driver, not a runtime condition).
    pub fn node<T: Node>(&self, id: NodeId) -> &T {
        let node: &dyn Any = &*self.objs[id.0];
        node.downcast_ref::<T>()
            .unwrap_or_else(|| panic!("node {} is not a {}", id, std::any::type_name::<T>()))
    }

    /// Mutable typed access to a node.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        let node: &mut dyn Any = &mut *self.objs[id.0];
        node.downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {} is not a {}", id, std::any::type_name::<T>()))
    }

    /// Connect two nodes with a new link; allocates the next free port on
    /// each side and returns `(link, port on a, port on b)`.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        params: LinkParams,
    ) -> (LinkId, PortId, PortId) {
        let pa = PortId(self.k.slots[a.0].ports.len());
        let pb = PortId(self.k.slots[b.0].ports.len());
        // The queue stores port indices as `u32`s.
        assert!(pa.0.max(pb.0) < u32::MAX as usize, "too many ports");
        let id = LinkId(self.k.links.len());
        self.k.slots[a.0].ports.push((id, 0));
        self.k.slots[b.0].ports.push((id, 1));
        // Each link's fault streams are seeded from (world seed, link
        // index); the link decorrelates its two directions itself.
        let fault_seed = self
            .seed
            .wrapping_add((id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.k.links.push(Link::new(
            Endpoint { node: a, port: pa },
            Endpoint { node: b, port: pb },
            params,
            fault_seed,
        ));
        (id, pa, pb)
    }

    /// Bring a link up or down. Both endpoints receive an
    /// [`Node::on_link_status`] callback (carrier signal). Idempotent.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        let k = &mut self.k;
        if k.links[link.0].up == up {
            return;
        }
        k.links[link.0].up = up;
        let (a, b) = (k.links[link.0].a, k.links[link.0].b);
        k.push(k.now, a, EventKind::carrier(up));
        k.push(k.now, b, EventKind::carrier(up));
    }

    /// Whether a link is currently up.
    pub fn is_link_up(&self, link: LinkId) -> bool {
        self.k.links[link.0].up
    }

    /// The link's current fault/timing parameters.
    pub fn link_params(&self, link: LinkId) -> LinkParams {
        self.k.links[link.0].params()
    }

    /// Replace a link's parameters mid-run (scripted chaos: loss or
    /// corruption bursts, latency shifts). Frames already in flight keep
    /// the timing they were emitted with; future emissions see the new
    /// parameters, the serialization cost per byte included: it is
    /// recomputed here from the new bandwidth, the only place it can
    /// change. Faults stay seeded — which frames are hit is still a pure
    /// function of the world seed.
    pub fn set_link_params(&mut self, link: LinkId, params: LinkParams) {
        self.k.links[link.0].set_params(params);
    }

    /// The link attached to `(node, port)`, if any — read-only topology
    /// introspection for observers (e.g. the invariant engine's FIB
    /// walks) that trace frames through the wiring without sending any.
    pub fn link_at(&self, node: NodeId, port: PortId) -> Option<LinkId> {
        self.port(node, port).map(|(link, _)| link)
    }

    /// The far end of the link attached to `(node, port)`, if any.
    pub fn peer_of(&self, node: NodeId, port: PortId) -> Option<Endpoint> {
        let (link, dir) = self.port(node, port)?;
        Some(self.k.links[link.0].receiver(dir))
    }

    /// The link attached to `(node, port)` and the direction it sends in.
    fn port(&self, node: NodeId, port: PortId) -> Option<(LinkId, usize)> {
        self.k.slots.get(node.0)?.ports.get(port.0).copied()
    }

    /// Every link attached to node `id`.
    fn attached(&self, id: NodeId) -> Vec<LinkId> {
        self.k.slots[id.0]
            .ports
            .iter()
            .map(|&(link, _)| link)
            .collect()
    }

    /// Crash a node: it stops receiving frames and timers, and all its
    /// links go down (peers see carrier loss).
    pub fn crash_node(&mut self, id: NodeId) {
        self.k.slots[id.0].alive = false;
        for l in self.attached(id) {
            self.set_link_up(l, false);
        }
    }

    /// Revive a crashed node slot with a fresh node object (a process
    /// restart: the replacement boots from its own initial state, not
    /// the crashed instance's memory). All the slot's links come back up
    /// (peers see carrier return), and if the world already started the
    /// replacement's `on_start` hook runs immediately — re-armed timers
    /// and handshakes flow from there. Restarting a slot that is still
    /// alive is a driver bug and panics.
    pub fn restart_node(&mut self, id: NodeId, node: impl Node) {
        assert!(
            !self.k.slots[id.0].alive,
            "restart_node on a node that is still alive"
        );
        self.k.slots[id.0].name = node.name().to_string();
        self.k.slots[id.0].alive = true;
        self.objs[id.0] = Box::new(node);
        for l in self.attached(id) {
            self.set_link_up(l, true);
        }
        if self.started {
            let cause = self.k.next_world_key();
            self.dispatch(id, cause, |node, ctx| node.on_start(ctx));
        }
    }

    /// Deliver a timer event to a node at `at` from outside (experiment
    /// drivers use this to kick nodes whose schedule is decided after
    /// the world started, e.g. the traffic source's start time).
    pub fn wake_node(&mut self, at: SimTime, node: NodeId, token: TimerToken) {
        assert!(at >= self.k.now, "wake_node scheduled in the past");
        self.k.push(at, at_node(node), EventKind::Timer(token));
    }

    /// Schedule a scripted control action (e.g. "fail R2 at t=Y") with
    /// full access to the world.
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&mut World) + 'static) {
        assert!(at >= self.k.now, "control event scheduled in the past");
        let idx = self.controls.len();
        self.controls.push(Some(Box::new(f)));
        self.k.push(at, NO_ENDPOINT, EventKind::Control(idx));
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.k.until = self.k.now;
        self.ensure_started();
        self.step_inner()
    }

    /// [`World::step`] without the start hook, which
    /// [`World::run_until_idle`] runs once before its loop.
    fn step_inner(&mut self) -> bool {
        let Some(ev) = self.k.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.k.now, "event queue went backwards");
        self.k.now = ev.time;
        self.k.until = ev.time;
        self.k.stats.events_processed += 1;
        let (cause, (at, kind)) = (ev.seq, ev.into_event());
        self.handle(cause, at, kind);
        true
    }

    /// Run until the queue is empty or `deadline` is reached; `now` ends
    /// at `min(deadline, drained)`. Events *at* the deadline run.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.k.until = deadline;
        self.ensure_started();
        while let Some(ev) = self.k.queue.pop_before(deadline) {
            self.k.now = ev.time;
            self.k.stats.events_processed += 1;
            let (cause, (at, kind)) = (ev.seq, ev.into_event());
            self.handle(cause, at, kind);
        }
        if self.k.now < deadline {
            self.k.now = deadline;
        }
    }

    /// Run for a further `d` of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.k.now + d;
        self.run_until(deadline);
    }

    /// Drain the queue completely (panics after `max_events` as a
    /// runaway-loop guard). Returns the final virtual time.
    pub fn run_until_idle(&mut self, max_events: u64) -> SimTime {
        self.k.until = self.k.now;
        self.ensure_started();
        let mut n = 0u64;
        while self.step_inner() {
            n += 1;
            assert!(
                n <= max_events,
                "run_until_idle exceeded {max_events} events"
            );
        }
        self.k.now
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.objs.len() {
            let cause = self.k.next_world_key();
            self.dispatch(NodeId(i), cause, |node, ctx| node.on_start(ctx));
        }
    }

    /// Process one event of `kind` at `at`; `cause` is its origin key
    /// (the causal stamp for every trace record the dispatch emits).
    fn handle(&mut self, cause: u64, at: Endpoint, kind: EventKind) {
        let k = &mut self.k;
        match kind {
            EventKind::Deliver(frame) => {
                if !k.slots[at.node.0].alive {
                    k.stats.frames_dropped_dead_node += 1;
                    return;
                }
                k.stats.frames_delivered += 1;
                k.slots[at.node.0].stats.frames_delivered += 1;
                self.dispatch(at.node, cause, |node, ctx| {
                    node.on_frame(ctx, at.port, frame)
                });
            }
            EventKind::Emit(frame) => {
                k.emit(at, frame);
            }
            EventKind::Timer(token) => {
                if !k.slots[at.node.0].alive {
                    k.stats.timers_dropped_dead_node += 1;
                    return;
                }
                k.stats.timers_fired += 1;
                k.slots[at.node.0].stats.timers_fired += 1;
                self.dispatch(at.node, cause, |n, ctx| n.on_timer(ctx, token));
            }
            EventKind::LinkUp | EventKind::LinkDown => {
                let up = matches!(kind, EventKind::LinkUp);
                k.stats.link_status_events += 1;
                if !k.slots[at.node.0].alive {
                    return;
                }
                self.dispatch(at.node, cause, |n, ctx| n.on_link_status(ctx, at.port, up));
            }
            EventKind::Control(idx) => {
                k.stats.control_events += 1;
                let f = self.controls[idx]
                    .take()
                    .expect("control event executed twice");
                f(self);
            }
        }
    }

    /// Invoke a node handler, lending its [`Ctx`] the kernel: a disjoint
    /// field from the node, so sends and timers apply as they are made.
    fn dispatch(&mut self, id: NodeId, cause: u64, f: impl FnOnce(&mut dyn Node, &mut Ctx)) {
        let (k, node) = (&mut self.k, id);
        f(&mut *self.objs[id.0], &mut Ctx { k, node, cause });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that echoes every frame back out the same port after a
    /// configurable delay and counts what it saw.
    struct Echo {
        name: String,
        delay: SimDuration,
        seen: Vec<(SimTime, PortId, Frame)>,
        link_events: Vec<(PortId, bool)>,
        timer_log: Vec<(SimTime, u64)>,
    }

    impl Echo {
        fn new(name: &str, delay: SimDuration) -> Echo {
            Echo {
                name: name.into(),
                delay,
                seen: Vec::new(),
                link_events: Vec::new(),
                timer_log: Vec::new(),
            }
        }
    }

    impl Node for Echo {
        fn name(&self) -> &str {
            &self.name
        }
        fn on_frame(&mut self, ctx: &mut Ctx, port: PortId, frame: Frame) {
            ctx.trace_instant(
                "test",
                "echo.frame",
                port.0 as u64,
                frame.len() as u64,
                || format!("{:?}", &frame[..frame.len().min(2)]),
            );
            ctx.metrics().inc("test.frames");
            self.seen.push((ctx.now(), port, frame.clone()));
            if !frame.is_empty() && frame[0] == b'E' {
                ctx.send_frame_after(port, frame, self.delay);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
            self.timer_log.push((ctx.now(), token.0));
        }
        fn on_link_status(&mut self, _ctx: &mut Ctx, port: PortId, up: bool) {
            self.link_events.push((port, up));
        }
    }

    /// A node that fires a frame at start and re-arms a periodic timer.
    struct Ticker {
        name: String,
        period: SimDuration,
        ticks: u32,
        max_ticks: u32,
        out_port: PortId,
    }

    impl Node for Ticker {
        fn name(&self) -> &str {
            &self.name
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer_after(self.period, TimerToken(1));
        }
        fn on_frame(&mut self, _ctx: &mut Ctx, _port: PortId, _frame: Frame) {}
        fn on_timer(&mut self, ctx: &mut Ctx, _token: TimerToken) {
            self.ticks += 1;
            ctx.trace_instant("test", "tick", 0, self.ticks as u64, String::new);
            ctx.metrics().inc("test.ticks");
            ctx.send_frame(self.out_port, vec![b'T', self.ticks as u8]);
            if self.ticks < self.max_ticks {
                ctx.set_timer_after(self.period, TimerToken(1));
            }
        }
    }

    #[test]
    fn frame_flies_with_latency() {
        let mut w = World::new(1);
        let a = w.add_node(Echo::new("a", SimDuration::ZERO));
        let b = w.add_node(Echo::new("b", SimDuration::ZERO));
        let (_l, pa, _pb) = w.connect(a, b, LinkParams::with_latency(SimDuration::from_micros(10)));
        w.schedule(SimTime::from_millis(1), move |w| {
            // Inject a frame as if `a` sent it.
            let from = Endpoint { node: a, port: pa };
            w.k.emit(from, vec![b'X'].into());
        });
        w.run_until_idle(1000);
        let b_node = w.node::<Echo>(b);
        assert_eq!(b_node.seen.len(), 1);
        assert_eq!(
            b_node.seen[0].0,
            SimTime::from_millis(1) + SimDuration::from_micros(10)
        );
    }

    #[test]
    fn events_by_kind_counts_each_kind() {
        // `a` echoes after 5 us (a delayed-emit event per frame), `b` at
        // once (no event): one injected frame ping-pongs until the cut.
        let mut w = World::new(1);
        let a = w.add_node(Echo::new("a", SimDuration::from_micros(5)));
        let b = w.add_node(Echo::new("b", SimDuration::ZERO));
        let (l, _pa, pb) = w.connect(a, b, LinkParams::with_latency(SimDuration::from_micros(10)));
        w.schedule(SimTime::from_millis(1), move |w| {
            w.k.emit(Endpoint { node: b, port: pb }, vec![b'E'].into());
        });
        w.schedule(SimTime::from_millis(2), move |w| w.set_link_up(l, false));
        w.wake_node(SimTime::from_millis(3), a, TimerToken(9));
        w.schedule(SimTime::from_millis(4), move |w| w.crash_node(a));
        w.wake_node(SimTime::from_millis(5), a, TimerToken(9)); // dropped: dead
        w.run_until_idle(10_000);
        let seen_a = w.node::<Echo>(a).seen.len() as u64;
        let seen_b = w.node::<Echo>(b).seen.len() as u64;
        assert!(seen_a > 30 && seen_b > 30);
        assert_eq!(
            w.stats().events_by_kind(),
            [
                ("kernel.events.deliver", seen_a + seen_b),
                ("kernel.events.emit", seen_a),
                ("kernel.events.timer", 2),
                ("kernel.events.link_status", 2),
                ("kernel.events.control", 3),
            ]
        );
        assert_eq!(w.node_stats(a).timers_fired, 1);
        assert_eq!(w.node_stats(a).frames_delivered, seen_a);
    }

    #[test]
    fn ping_pong_terminates_and_orders() {
        let mut w = World::new(2);
        let t = w.add_node(Ticker {
            name: "ticker".into(),
            period: SimDuration::from_millis(10),
            ticks: 0,
            max_ticks: 5,
            out_port: PortId(0),
        });
        let sink = w.add_node(Echo::new("sink", SimDuration::ZERO));
        w.connect(t, sink, LinkParams::default());
        w.run_until_idle(10_000);
        let s = w.node::<Echo>(sink);
        assert_eq!(s.seen.len(), 5);
        // Strictly increasing arrival times, FIFO payload order.
        for pair in s.seen.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
        let seq: Vec<u8> = s.seen.iter().map(|(_, _, f)| f[1]).collect();
        assert_eq!(seq, vec![1, 2, 3, 4, 5]);
        assert_eq!(w.node::<Ticker>(t).ticks, 5);
    }

    #[test]
    fn link_down_drops_and_signals_carrier() {
        let mut w = World::new(3);
        let a = w.add_node(Ticker {
            name: "ticker".into(),
            period: SimDuration::from_millis(10),
            ticks: 0,
            max_ticks: 10,
            out_port: PortId(0),
        });
        let b = w.add_node(Echo::new("sink", SimDuration::ZERO));
        let (l, _pa, _pb) = w.connect(a, b, LinkParams::default());
        // Cut the link mid-run.
        w.schedule(SimTime::from_millis(45), move |w| w.set_link_up(l, false));
        w.run_until_idle(10_000);
        let s = w.node::<Echo>(b);
        assert_eq!(
            s.seen.len(),
            4,
            "ticks at 10,20,30,40 arrive; later ones dropped"
        );
        assert_eq!(s.link_events, vec![(PortId(0), false)]);
        assert_eq!(w.stats().frames_dropped_link_down, 6);
    }

    #[test]
    fn crash_node_stops_delivery_and_downs_links() {
        let mut w = World::new(4);
        let a = w.add_node(Ticker {
            name: "ticker".into(),
            period: SimDuration::from_millis(10),
            ticks: 0,
            max_ticks: 3,
            out_port: PortId(0),
        });
        let b = w.add_node(Echo::new("victim", SimDuration::ZERO));
        let c = w.add_node(Echo::new("peer-of-victim", SimDuration::ZERO));
        w.connect(a, b, LinkParams::default());
        let (_l2, _pb2, _pc) = w.connect(b, c, LinkParams::default());
        w.schedule(SimTime::from_millis(15), move |w| w.crash_node(b));
        w.run_until_idle(10_000);
        assert!(!w.is_alive(b));
        // Victim saw only the first tick.
        assert_eq!(w.node::<Echo>(b).seen.len(), 1);
        // The victim's peer observed carrier loss on their shared link.
        assert_eq!(w.node::<Echo>(c).link_events, vec![(PortId(0), false)]);
    }

    #[test]
    fn restart_node_revives_links_and_reruns_start() {
        let mut w = World::new(10);
        let a = w.add_node(Ticker {
            name: "ticker".into(),
            period: SimDuration::from_millis(10),
            ticks: 0,
            max_ticks: 8,
            out_port: PortId(0),
        });
        let b = w.add_node(Echo::new("victim", SimDuration::ZERO));
        w.connect(a, b, LinkParams::default());
        w.schedule(SimTime::from_millis(15), move |w| w.crash_node(b));
        w.schedule(SimTime::from_millis(45), move |w| {
            w.restart_node(b, Echo::new("victim", SimDuration::ZERO));
        });
        w.run_until_idle(10_000);
        assert!(w.is_alive(b));
        // The replacement boots from fresh state: it saw only the ticks
        // after the restart (50, 60, 70, 80), not the pre-crash one.
        assert_eq!(w.node::<Echo>(b).seen.len(), 4);
        // The replacement observed the carrier-return edge of its own
        // revival (links come back up as part of the restart).
        assert_eq!(w.node::<Echo>(b).link_events, vec![(PortId(0), true)]);
    }

    #[test]
    #[should_panic(expected = "node n0 is not a")]
    fn node_of_the_wrong_type_panics() {
        let mut w = World::new(12);
        let a = w.add_node(Echo::new("echo", SimDuration::ZERO));
        w.node::<Ticker>(a);
    }

    #[test]
    fn node_mut_reaches_the_replacement_after_a_restart() {
        let mut w = World::new(13);
        let a = w.add_node(Echo::new("first", SimDuration::ZERO));
        w.node_mut::<Echo>(a).link_events.push((PortId(0), false));
        w.crash_node(a);
        w.restart_node(
            a,
            Ticker {
                name: "second".into(),
                period: SimDuration::from_millis(1),
                ticks: 0,
                max_ticks: 0,
                out_port: PortId(0),
            },
        );
        w.node_mut::<Ticker>(a).ticks = 7;
        let t = w.node::<Ticker>(a);
        assert_eq!((t.name.as_str(), t.ticks), ("second", 7));
    }

    #[test]
    fn set_link_params_applies_future_faults_only() {
        let mut w = World::new(11);
        let a = w.add_node(Ticker {
            name: "ticker".into(),
            period: SimDuration::from_millis(1),
            ticks: 0,
            max_ticks: 100,
            out_port: PortId(0),
        });
        let b = w.add_node(Echo::new("sink", SimDuration::ZERO));
        let (l, _pa, _pb) = w.connect(a, b, LinkParams::default());
        // Total loss for the middle half of the run, then revert.
        w.schedule(SimTime::from_millis(25), move |w| {
            let p = w.link_params(l);
            w.set_link_params(l, LinkParams { loss: 1.0, ..p });
        });
        w.schedule(SimTime::from_millis(75), move |w| {
            let p = w.link_params(l);
            w.set_link_params(l, LinkParams { loss: 0.0, ..p });
        });
        w.run_until_idle(10_000);
        let delivered = w.node::<Echo>(b).seen.len();
        assert_eq!(delivered, 50, "ticks 1..=25 and 76..=100 arrive");
        assert_eq!(w.stats().frames_dropped_loss, 50);
    }

    #[test]
    fn loss_and_corruption_are_seeded_and_counted() {
        let run = |seed: u64| {
            let mut w = World::new(seed);
            let a = w.add_node(Ticker {
                name: "ticker".into(),
                period: SimDuration::from_millis(1),
                ticks: 0,
                max_ticks: 1000,
                out_port: PortId(0),
            });
            let b = w.add_node(Echo::new("sink", SimDuration::ZERO));
            w.connect(
                a,
                b,
                LinkParams {
                    loss: 0.2,
                    corrupt: 0.1,
                    ..LinkParams::default()
                },
            );
            w.run_until_idle(100_000);
            let delivered = w.node::<Echo>(b).seen.len();
            (delivered, w.stats())
        };
        let (d1, s1) = run(42);
        let (d2, s2) = run(42);
        assert_eq!(d1, d2, "same seed, same outcome");
        assert_eq!(s1, s2);
        assert!(s1.frames_dropped_loss > 100 && s1.frames_dropped_loss < 300);
        assert!(s1.frames_corrupted > 30 && s1.frames_corrupted < 200);
        let (d3, _) = run(43);
        assert_ne!(d1, d3, "different seed, different fault pattern");
    }

    #[test]
    fn bandwidth_serialization_orders_backlog() {
        // Two frames sent simultaneously on a 1 Gb/s link arrive
        // back-to-back, separated by the serialization delay.
        let mut w = World::new(5);
        let a = w.add_node(Echo::new("a", SimDuration::ZERO));
        let b = w.add_node(Echo::new("b", SimDuration::ZERO));
        let (_l, pa, _pb) = w.connect(a, b, LinkParams::gigabit(SimDuration::from_micros(5)));
        w.schedule(SimTime::from_millis(1), move |w| {
            let from = Endpoint { node: a, port: pa };
            w.k.emit(from, vec![0u8; 64].into());
            w.k.emit(from, vec![1u8; 64].into());
        });
        w.run_until_idle(100);
        let seen = &w.node::<Echo>(b).seen;
        assert_eq!(seen.len(), 2);
        let gap = seen[1].0 - seen[0].0;
        assert_eq!(gap, SimDuration::from_nanos(512));
    }

    /// A bandwidth change mid-run times the next emission at the new rate:
    /// 1 Gb/s (16 ns for a 2-byte tick), then 10 Mb/s (1,600 ns), then
    /// 3 b/s, which takes the division (5,333,333,333 ns) and queues the
    /// last tick behind the one before it. The literals are
    /// `now + len · 8 · 10⁹ / bps + 10 µs`.
    #[test]
    fn set_link_params_retimes_the_next_emission() {
        let mut w = World::new(12);
        let a = w.add_node(Ticker {
            name: "ticker".into(),
            period: SimDuration::from_millis(1),
            ticks: 0,
            max_ticks: 6,
            out_port: PortId(0),
        });
        let b = w.add_node(Echo::new("sink", SimDuration::ZERO));
        let (l, _, _) = w.connect(a, b, LinkParams::gigabit(SimDuration::from_micros(10)));
        for (at_us, bps) in [(2_500, 10_000_000), (4_500, 3)] {
            w.schedule(SimTime::from_micros(at_us), move |w| {
                let p = w.link_params(l);
                w.set_link_params(
                    l,
                    LinkParams {
                        bandwidth_bps: Some(bps),
                        ..p
                    },
                );
            });
        }
        w.run_until_idle(1_000);
        let arrivals: Vec<u64> = w
            .node::<Echo>(b)
            .seen
            .iter()
            .map(|s| s.0.as_nanos())
            .collect();
        assert_eq!(
            arrivals,
            [
                1_010_016,
                2_010_016,
                3_011_600,
                4_011_600,
                5_338_343_333,
                10_671_676_666
            ]
        );
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut w = World::new(6);
        let _t = w.add_node(Ticker {
            name: "ticker".into(),
            period: SimDuration::from_millis(10),
            ticks: 0,
            max_ticks: 100,
            out_port: PortId(0),
        });
        w.run_until(SimTime::from_millis(35));
        assert_eq!(w.now(), SimTime::from_millis(35));
        // Only ticks at 10,20,30 processed so far.
        assert_eq!(w.stats().timers_fired, 3);
        w.run_until(SimTime::from_millis(100));
        assert_eq!(w.stats().timers_fired, 10);
    }

    #[test]
    fn control_events_interleave_deterministically() {
        let mut w = World::new(7);
        let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for i in 0..5u64 {
            let order = order.clone();
            w.schedule(SimTime::from_millis(10), move |_w| {
                order.borrow_mut().push(i);
            });
        }
        w.run_until_idle(100);
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4], "FIFO at equal time");
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn runaway_guard_trips() {
        struct Forever;
        impl Node for Forever {
            fn name(&self) -> &str {
                "forever"
            }
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer_after(SimDuration::from_nanos(1), TimerToken(0));
            }
            fn on_frame(&mut self, _: &mut Ctx, _: PortId, _: Frame) {}
            fn on_timer(&mut self, ctx: &mut Ctx, _: TimerToken) {
                ctx.set_timer_after(SimDuration::from_nanos(1), TimerToken(0));
            }
        }
        let mut w = World::new(8);
        w.add_node(Forever);
        w.run_until_idle(100);
    }

    /// Six ticker->sink pairs, one lossy link, one scripted mid-run
    /// carrier cut: the canonical kernel workload.
    fn six_pair_world() -> (World, Vec<NodeId>) {
        let mut w = World::new(77);
        let mut sinks = Vec::new();
        for i in 0..6u32 {
            let t = w.add_node(Ticker {
                name: format!("t{i}"),
                period: SimDuration::from_micros(40),
                ticks: 0,
                max_ticks: 200,
                out_port: PortId(0),
            });
            let s = w.add_node(Echo::new(&format!("s{i}"), SimDuration::ZERO));
            let params = LinkParams {
                latency: SimDuration::from_micros(30),
                loss: if i == 0 { 0.1 } else { 0.0 },
                ..LinkParams::default()
            };
            let (l, _, _) = w.connect(t, s, params);
            if i == 2 {
                w.schedule(SimTime::from_millis(3), move |w| w.set_link_up(l, false));
            }
            sinks.push(s);
        }
        (w, sinks)
    }

    /// The wheel pops the six-pair world in the order a heap of keys
    /// would (its order check proves it on every pop in debug builds),
    /// and a rerun reproduces every delivery and counter.
    #[test]
    fn wheel_execution_matches_reference_heap() {
        let run = || {
            let (mut w, sinks) = six_pair_world();
            w.run_until(SimTime::from_millis(10));
            let seen: Vec<Vec<(SimTime, PortId, Frame)>> = sinks
                .iter()
                .map(|&s| w.node::<Echo>(s).seen.clone())
                .collect();
            // The kernel self-profile: per-node counters and their
            // registry export.
            let per_node: Vec<NodeStats> = (0..12).map(|i| w.node_stats(NodeId(i))).collect();
            let mut folded = Registry::enabled();
            w.fold_kernel_metrics(&mut folded);
            (w.stats(), seen, per_node, folded.to_json())
        };
        let (ref_stats, ref_seen, ref_nodes, ref_folded) = run();
        assert!(ref_stats.frames_dropped_loss > 0, "loss stream exercised");
        assert!(
            ref_stats.frames_dropped_link_down > 0,
            "carrier cut exercised"
        );
        assert_eq!(
            ref_nodes.iter().map(|n| n.timers_fired).sum::<u64>(),
            ref_stats.timers_fired
        );
        assert_eq!(
            ref_nodes.iter().map(|n| n.frames_delivered).sum::<u64>(),
            ref_stats.frames_delivered
        );
        // Ticker t1 (node 2) fires its 200 ticks; sinks arm no timers.
        assert_eq!(ref_nodes[2].timers_fired, 200);
        assert_eq!(ref_nodes[3].timers_fired, 0);
        assert!(ref_folded.contains("\"kernel.node.t1.timers_fired\":200"));
        assert!(ref_folded.contains("\"kernel.events.control\":1,"));
        let (stats, seen, nodes, folded) = run();
        assert_eq!(ref_stats, stats, "stats diverge");
        assert_eq!(ref_seen, seen, "deliveries diverge");
        assert_eq!(ref_nodes, nodes, "node stats diverge");
        assert_eq!(ref_folded, folded, "kernel metrics diverge");
    }

    /// The sc-trace determinism contract at the kernel level: JSONL and
    /// Chrome exports (and node-level metrics) of the wheel's run, whose
    /// pops follow heap order, are byte-identical across reruns —
    /// including ring eviction, exercised by the tight bound.
    #[test]
    fn wheel_trace_exports_match_reference_heap() {
        let run = |capacity| {
            let (mut w, _) = six_pair_world();
            w.enable_trace(capacity);
            w.run_until(SimTime::from_millis(10));
            (
                w.trace().to_jsonl(),
                w.trace().to_chrome(),
                (
                    w.metrics().counter("test.ticks"),
                    w.metrics().counter("test.frames"),
                ),
            )
        };
        for capacity in [usize::MAX, 100] {
            let (ref_jsonl, ref_chrome, ref_ctrs) = run(capacity);
            assert!(ref_ctrs.0 > 0 && ref_ctrs.1 > 0);
            let (jsonl, chrome, ctrs) = run(capacity);
            assert_eq!(ref_jsonl, jsonl, "jsonl diverges at capacity {capacity}");
            assert_eq!(ref_chrome, chrome, "chrome diverges at capacity {capacity}");
            assert_eq!(ref_ctrs, ctrs, "counters diverge at capacity {capacity}");
        }
    }

    /// One handler interleaving every kind of effect, over a lossy,
    /// corrupting, slow link: a send on each port, a timer, a zero-delay
    /// and a delayed send, another send. Effects apply in call order, so
    /// origin keys, the fault stream and the busy horizon all advance in
    /// that order; the literals pin what that order produces.
    #[test]
    fn effects_in_one_handler_apply_in_call_order() {
        const ROUNDS: u8 = 6;
        struct Burst {
            round: u8,
        }
        impl Node for Burst {
            fn name(&self) -> &str {
                "burst"
            }
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer_after(SimDuration::from_micros(1), TimerToken(0));
            }
            fn on_frame(&mut self, _: &mut Ctx, _: PortId, _: Frame) {}
            fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
                let (p0, p1, r) = (PortId(0), PortId(1), self.round);
                if token.0 == 1 {
                    ctx.send_frame(p1, vec![b't', r]);
                    return;
                }
                ctx.send_frame(p0, vec![b'a', r]);
                ctx.send_frame(p1, vec![b'b', r]);
                ctx.set_timer_after(SimDuration::from_micros(5), TimerToken(1));
                ctx.send_frame_after(p0, vec![b'c', r], SimDuration::ZERO);
                ctx.send_frame_after(p0, vec![b'd', r], SimDuration::from_micros(5));
                ctx.send_frame(p1, vec![b'e', r]);
                if r < ROUNDS {
                    self.round += 1;
                    ctx.set_timer_after(SimDuration::from_micros(20), TimerToken(0));
                }
            }
        }
        let mut w = World::new(42);
        let src = w.add_node(Burst { round: 1 });
        let s0 = w.add_node(Echo::new("s0", SimDuration::ZERO));
        let s1 = w.add_node(Echo::new("s1", SimDuration::ZERO));
        let lossy = LinkParams {
            latency: SimDuration::from_micros(2),
            bandwidth_bps: Some(10_000_000),
            loss: 0.3,
            corrupt: 0.2,
        };
        w.connect(src, s0, lossy);
        w.connect(
            src,
            s1,
            LinkParams::with_latency(SimDuration::from_micros(3)),
        );
        w.run_until_idle(1_000);
        let seen = |s| -> Vec<(u64, [u8; 2])> {
            w.node::<Echo>(s)
                .seen
                .iter()
                .map(|(t, _, f)| (t.as_nanos(), [f[0], f[1]]))
                .collect()
        };
        // `D`, `` ` ``: a `d` and an `a` with one bit flipped.
        #[rustfmt::skip]
        assert_eq!(seen(s0), [
            (9_600, [b'D', 1]),
            (24_600, [b'a', 2]), (26_200, [b'c', 2]), (29_600, [b'd', 2]),
            (44_600, [b'a', 3]),
            (64_600, [b'`', 4]), (69_600, [b'd', 4]),
            (89_600, [b'd', 5]),
            (104_600, [b'a', 6]), (106_200, [b'c', 6]), (109_600, [b'd', 6]),
        ]);
        // Each round's timer fires after the next round was counted.
        #[rustfmt::skip]
        assert_eq!(seen(s1), [
            (4_000, [b'b', 1]), (4_000, [b'e', 1]), (9_000, [b't', 2]),
            (24_000, [b'b', 2]), (24_000, [b'e', 2]), (29_000, [b't', 3]),
            (44_000, [b'b', 3]), (44_000, [b'e', 3]), (49_000, [b't', 4]),
            (64_000, [b'b', 4]), (64_000, [b'e', 4]), (69_000, [b't', 5]),
            (84_000, [b'b', 5]), (84_000, [b'e', 5]), (89_000, [b't', 6]),
            (104_000, [b'b', 6]), (104_000, [b'e', 6]), (109_000, [b't', 6]),
        ]);
        let stats = w.stats();
        assert_eq!(
            stats.events_by_kind(),
            [
                ("kernel.events.deliver", 29),
                ("kernel.events.emit", 6),
                ("kernel.events.timer", 12),
                ("kernel.events.link_status", 0),
                ("kernel.events.control", 0),
            ]
        );
        assert_eq!(stats.frames_dropped_loss, 7);
        assert_eq!(stats.frames_corrupted, 2);
    }

    /// `Ctx::horizon` reads the queue and the run loop's bound: the next
    /// event inside `run_until`, the deadline + 1 ns past it, and the
    /// handled event's own instant + 1 ns under `step` and
    /// `run_until_idle`. An effect the handler requests can only lower
    /// it.
    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "a test script of fixed instants: no deadline moves"
    )]
    fn horizon_is_the_next_event_or_the_loop_bound() {
        let us = SimTime::from_micros;
        /// Records `(now, horizon)` on every timer; the timer at 10 µs
        /// also arms one at 15 µs and records again.
        struct Horizon {
            at: Vec<SimTime>,
            seen: Vec<(SimTime, SimTime)>,
        }
        impl Node for Horizon {
            fn name(&self) -> &str {
                "horizon"
            }
            fn on_start(&mut self, ctx: &mut Ctx) {
                for (i, &at) in self.at.iter().enumerate() {
                    ctx.set_timer_at(at, TimerToken(i as u64));
                }
            }
            fn on_frame(&mut self, _: &mut Ctx, _: PortId, _: Frame) {}
            fn on_timer(&mut self, ctx: &mut Ctx, _: TimerToken) {
                self.seen.push((ctx.now(), ctx.horizon()));
                if ctx.now() == SimTime::from_micros(10) {
                    ctx.set_timer_at(SimTime::from_micros(15), TimerToken(99));
                    self.seen.push((ctx.now(), ctx.horizon()));
                }
            }
        }
        let mut w = World::new(1);
        let n = w.add_node(Horizon {
            at: [10, 20, 20, 100, 700, 900].map(us).to_vec(),
            seen: Vec::new(),
        });
        w.run_until(us(50));
        assert!(w.step());
        w.run_until_idle(10);
        let ns = SimDuration::from_nanos(1);
        assert_eq!(
            w.node::<Horizon>(n).seen,
            [
                // run_until(50 µs): the next event, lowered by the
                // 15 µs timer just armed; a co-timed event bounds
                // the horizon at `now`; past the deadline, D + 1 ns.
                (us(10), us(20)),
                (us(10), us(15)),
                (us(15), us(20)),
                (us(20), us(20)),
                (us(20), us(50) + ns),
                // step(), then run_until_idle(): the event's own
                // instant + 1 ns, however far the next one lies.
                (us(100), us(100) + ns),
                (us(700), us(700) + ns),
                (us(900), us(900) + ns),
            ]
        );
    }

    #[test]
    fn frames_to_unconnected_port_are_counted() {
        let mut w = World::new(9);
        let a = w.add_node(Echo::new("lonely", SimDuration::ZERO));
        w.schedule(SimTime::from_millis(1), move |w| {
            w.k.emit(
                Endpoint {
                    node: a,
                    port: PortId(0),
                },
                vec![1, 2, 3].into(),
            );
        });
        w.run_until_idle(10);
        assert_eq!(w.stats().frames_dropped_no_link, 1);
    }
}
