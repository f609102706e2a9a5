//! **sc-invariant** — the continuous convergence-invariant engine.
//!
//! Convergence *time* says when the network went quiet; it does not say
//! what broke while it was loud. Following snowcap's `HardPolicy` shape
//! (invariants checked *during* reconfiguration, not just at
//! quiescence), this crate walks the installed FIBs of every router and
//! switch at a fixed cadence inside each measurement window and
//! classifies each (src, prefix) pair as OK, **blackhole** (the probe
//! dies at a live node: no route, unresolved next hop, dark egress),
//! **loop** (the forwarding graph cycles), or **transit violation**
//! (the probe delivers but crosses a node the scenario policy forbids
//! — e.g. a provider that has withdrawn the prefix). Per window and per
//! class it accumulates violation *durations* (first-seen → last-seen,
//! kernel time), which the `sc-scenarios` suite reports as first-class
//! columns next to convergence time.
//!
//! Three layers:
//!
//! * [`walk`] — the pure core: a [`walk::ForwardingView`] trait (one
//!   hop in, next hops out) and a tri-color DFS that traces every
//!   branch, detects cycles, and always terminates — property-testable
//!   without a simulator.
//! * [`view`] — [`view::WorldView`], the view backed by a live
//!   [`sc_sim::World`]: at each hop it asks the device for the decision
//!   its own data plane forwards by (the router's NIC filter and
//!   installed-FIB decision, the switch's flow-table match or L2-learn
//!   miss rule) and adds only link crossing. Those decisions are
//!   read-only, so sampling never perturbs the event stream.
//! * [`record`] — [`record::TransitPolicy`] (time-windowed forbidden
//!   transit rules derived from the event script) and
//!   [`record::InvariantRecorder`], the per-window first/last-seen
//!   duration accounting.
//!
//! Samples are pre-scheduled kernel events
//! (`sc_lab::harness::schedule_window_samples`), so an invariant-
//! checked trial is exactly as deterministic and byte-reproducible as
//! an unchecked one — at the cost of extra (deterministic) kernel
//! events, which is why perf-gated benches keep the engine off.

pub mod record;
pub mod view;
pub mod walk;

pub use record::{
    classify, InvariantRecorder, InvariantReport, TransitPolicy, TransitRule, ViolationClass,
    WindowViolations, CLASSES,
};
pub use view::{sample_flags, NetModel, ProbeSpec, WorldView};
pub use walk::{walk, DropReason, ForwardingView, Hop, Step, WalkReport, MAX_WALK_STATES};
