//! Deterministic discrete-event network simulation kernel.
//!
//! The paper's evaluation is a hardware lab; this crate is the substrate
//! that replaces it. Design follows the event-driven, poll-based
//! architecture of the networking guides (smoltcp): **no threads, no
//! wall-clock, no hidden state** — a single ordered event queue over
//! virtual time ([`sc_net::SimTime`]), so every experiment is exactly
//! reproducible from its seed.
//!
//! * [`node::Node`] — anything attached to the network (router, switch,
//!   controller, traffic source/sink). Nodes react to frames, timers and
//!   link status changes through a [`node::Ctx`] that applies effects.
//! * [`link`] — point-to-point links with latency, optional bandwidth
//!   (serialization + FIFO queueing), probabilistic loss and corruption
//!   (fault injection, as the guides' examples recommend).
//! * [`world::World`] — the nodes beside the kernel (links, event queue,
//!   counters); provides failure injection (link down, node crash) and
//!   scripted control events for experiment drivers.
//! * [`wakeup::Wakeup`] — the one timer discipline for state machines
//!   whose deadline moves: one live timer each, re-armed only when the
//!   deadline moves earlier.
//! * `sched` — the event queue: a timer wheel that pops in exact
//!   `(time, origin key)` order and checks that order on every pop in
//!   debug builds.
//! * [`trace`] — sc-trace: a deterministic, causally-keyed flight
//!   recorder whose exports are byte-identical across reruns (plus a
//!   counters registry living in `sc_net::metrics`).

pub mod link;
pub mod netutil;
pub mod node;
mod sched;
pub mod trace;
pub mod wakeup;
pub mod world;

pub use link::{Endpoint, LinkId, LinkParams};
pub use netutil::ChannelPort;
pub use node::{Ctx, Node, NodeId, PortId, TimerToken};
pub use trace::{Trace, TraceEvent, TracePhase};
pub use wakeup::Wakeup;
pub use world::{NodeStats, World, WorldStats};
