//! The [`Node`] trait and the [`Ctx`] handed to nodes.
//!
//! Nodes are pure state machines: a handler receives a [`Ctx`], inspects
//! `ctx.now()`, and requests effects (send a frame, arm a timer). Each
//! effect applies when it is requested, in call order, which is the
//! order deferring them to the handler's return would apply them in: a
//! handler sees neither the links nor the kernel's counters, and of the
//! queue only [`Ctx::horizon`]. An effect already applied can only lower
//! the horizon, so a handler that reads it after requesting effects gets
//! an answer that accounts for them.
//!
//! The horizon is the earliest instant at which anything other than the
//! running handler can happen: the next queued event, or the instant
//! after the last one the current run loop processes, whichever is
//! first. Until then no other node runs and no driver looks, so a
//! handler may do now what it would otherwise have armed a timer for,
//! at any instant before the horizon, stamping its trace records at
//! those instants ([`Ctx::trace_instant_at`]). The FIB walker drains
//! its writes that way.

use crate::link::Endpoint;
use crate::world::Kernel;
use sc_net::{Frame, SimDuration, SimTime};
use std::any::Any;
use std::fmt;

/// Index of a node within a [`crate::World`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// Index of a port local to one node (allocated in connection order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortId(pub usize);

/// An opaque timer cookie chosen by the node; delivered back verbatim.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerToken(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The per-invocation context handed to node handlers: the kernel, lent
/// for the length of one handler call.
pub struct Ctx<'a> {
    pub(crate) k: &'a mut Kernel,
    pub(crate) node: NodeId,
    /// Origin key of the kernel event being dispatched — the causal
    /// stamp for every trace record this invocation emits.
    pub(crate) cause: u64,
}

impl<'a> Ctx<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.k.now
    }

    /// The node being invoked.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The earliest instant at which anything other than this handler
    /// can happen: `min(next queued event, last instant of the running
    /// loop + 1 ns)`. Always `>= now()` unless the loop's last instant
    /// lies behind the clock. `step` and `run_until_idle` end at the
    /// instant of the event they handle, so under them it is at most
    /// `now() + 1 ns`.
    pub fn horizon(&self) -> SimTime {
        let past_loop = self
            .k
            .until
            .checked_add(SimDuration::from_nanos(1))
            .unwrap_or(SimTime::MAX);
        self.k.queue.peek().map_or(past_loop, |t| t.min(past_loop))
    }

    /// Transmit an encoded frame on one of this node's ports, now.
    /// Accepts a [`Frame`] (refcount bump) or a freshly built `Vec<u8>`.
    pub fn send_frame(&mut self, port: PortId, frame: impl Into<Frame>) {
        let from = Endpoint {
            node: self.node,
            port,
        };
        self.k.send(from, frame.into(), self.k.now);
    }

    /// Transmit a frame after a local processing delay (e.g. hardware
    /// table-programming latency before a notification leaves the box).
    pub fn send_frame_after(&mut self, port: PortId, frame: impl Into<Frame>, delay: SimDuration) {
        let from = Endpoint {
            node: self.node,
            port,
        };
        self.k.send(from, frame.into(), self.k.now + delay);
    }

    /// Arm a timer that fires at absolute time `at`.
    pub fn set_timer_at(&mut self, at: SimTime, token: TimerToken) {
        debug_assert!(at >= self.k.now, "timer armed in the past");
        self.k.set_timer(self.node, at, token);
    }

    /// Arm a timer that fires after `delay`.
    pub fn set_timer_after(&mut self, delay: SimDuration, token: TimerToken) {
        let at = self.k.now + delay;
        self.k.set_timer(self.node, at, token);
    }

    /// Record a structured point event. `detail` only renders when
    /// tracing is enabled; the disabled path is a single branch.
    pub fn trace_instant(
        &mut self,
        cat: &'static str,
        name: &'static str,
        id: u64,
        v: u64,
        detail: impl FnOnce() -> String,
    ) {
        self.trace_instant_at(self.k.now, cat, name, id, v, detail);
    }

    /// [`Ctx::trace_instant`] stamped at a later instant `at`, for work a
    /// handler does ahead of time: `now() <= at < horizon()`, so the
    /// trace stays in time order. A handler stamps its records in
    /// ascending `at`.
    pub fn trace_instant_at(
        &mut self,
        at: SimTime,
        cat: &'static str,
        name: &'static str,
        id: u64,
        v: u64,
        detail: impl FnOnce() -> String,
    ) {
        debug_assert!(
            at == self.k.now || (at > self.k.now && at < self.horizon()),
            "trace record at {at:?} outside [now, horizon)"
        );
        self.k.trace.emit(
            at,
            self.cause,
            self.node,
            crate::trace::TracePhase::Instant,
            cat,
            name,
            id,
            v,
            detail,
        );
    }

    /// Open a span; close it with [`Ctx::span_end`] using the same
    /// `name` and correlation `id` (possibly from a later invocation).
    pub fn span_begin(&mut self, cat: &'static str, name: &'static str, id: u64, v: u64) {
        self.k.trace.emit(
            self.k.now,
            self.cause,
            self.node,
            crate::trace::TracePhase::Begin,
            cat,
            name,
            id,
            v,
            String::new,
        );
    }

    /// Close a span opened by [`Ctx::span_begin`].
    pub fn span_end(&mut self, cat: &'static str, name: &'static str, id: u64, v: u64) {
        self.k.trace.emit(
            self.k.now,
            self.cause,
            self.node,
            crate::trace::TracePhase::End,
            cat,
            name,
            id,
            v,
            String::new,
        );
    }

    /// The world's metrics registry (counters). Recording
    /// is a no-op unless the registry is enabled on the world.
    pub fn metrics(&mut self) -> &mut sc_net::metrics::Registry {
        &mut self.k.metrics
    }
}

/// A device attached to the simulated network.
///
/// Implementations must be `'static` so the kernel can own them, and
/// drivers reach a node's concrete type through [`crate::World::node`],
/// which downcasts by trait upcasting (`&dyn Node` to `&dyn Any`).
pub trait Node: Any {
    /// Human-readable name for traces and panics.
    fn name(&self) -> &str;

    /// Called once, at the time the world starts running.
    fn on_start(&mut self, _ctx: &mut Ctx) {}

    /// An encoded Ethernet frame arrived on `port`. The [`Frame`] may be
    /// shared with other in-flight copies (a flood); mutate it through
    /// [`Frame::make_mut`] only.
    fn on_frame(&mut self, ctx: &mut Ctx, port: PortId, frame: Frame);

    /// A previously armed timer fired.
    fn on_timer(&mut self, _ctx: &mut Ctx, _token: TimerToken) {}

    /// The link attached to `port` changed carrier state.
    ///
    /// Real switches see carrier loss when a cable is pulled; the paper's
    /// detection path is BFD instead, so most nodes ignore this.
    fn on_link_status(&mut self, _ctx: &mut Ctx, _port: PortId, _up: bool) {}

    /// Unused by the kernel, which upcasts instead; provided so that
    /// implementations written against the old trait still compile.
    fn as_any(&self) -> &dyn Any
    where
        Self: Sized,
    {
        self
    }
    /// As [`Node::as_any`], mutably.
    fn as_any_mut(&mut self) -> &mut dyn Any
    where
        Self: Sized,
    {
        self
    }
}
