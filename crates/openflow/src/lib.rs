//! An OpenFlow-like SDN switch substrate.
//!
//! The paper's data-plane trick needs exactly one switch capability: match
//! on a destination MAC (the VMAC tag written by the router) and rewrite
//! it to the real next-hop's MAC while forwarding out the right port.
//! This crate provides that as a faithful-in-spirit OpenFlow subset:
//!
//! * [`types`] — match structure (in-port, L2, EtherType, L3 prefixes,
//!   L4 ports), actions (set-src/dst MAC, output, flood, controller),
//!   and the packet [`types::FlowKey`] extracted by the pipeline;
//! * [`table`] — the priority-ordered flow table with add/modify/delete
//!   semantics and per-entry counters;
//! * [`msg`] — the control-channel protocol (HELLO, FEATURES, FLOW_MOD,
//!   PACKET_IN/OUT, PORT_STATUS, BARRIER, ECHO, STATS) with a compact
//!   binary encoding (version byte, type, length, xid);
//! * [`switch`] — the switch as a simulation node: hardware flow-install
//!   latency (the HP E3800's TCAM programming time is part of the
//!   paper's 150 ms budget), an L2-learning fallback for table misses
//!   (hybrid mode, like the paper's switch), carrier-change PORT_STATUS
//!   notifications, and barriers that wait for pending installs.
//!
//! The control channel runs over the workspace's reliable transport; the
//! wire encoding here is *not* byte-compatible with OpenFlow 1.0 (that
//! would buy nothing for the reproduction) but carries the same message
//! set with the same semantics.

pub mod msg;
pub mod switch;
pub mod table;
pub mod types;

pub use msg::OfMessage;
pub use switch::{Egress, OfSwitch, SwitchConfig, Verdict};
pub use table::{FlowEntry, FlowStats, FlowTable};
pub use types::{Action, FlowKey, FlowMatch};
