//! Base networking types and wire formats for the supercharged-router
//! workspace.
//!
//! This crate is the bottom of the dependency DAG. It provides:
//!
//! * [`time`] — virtual time ([`SimTime`], [`SimDuration`]) shared by the
//!   whole workspace. The discrete-event simulator, every protocol state
//!   machine, and every measurement use these types, so they live here
//!   rather than in the simulator crate.
//! * [`mac`] — Ethernet MAC addresses, including the locally-administered
//!   range used for the paper's *virtual MAC* (VMAC) tags.
//! * [`frame`] — the refcounted copy-on-write frame buffer ([`Frame`])
//!   every simulated packet travels in.
//! * [`fxhash`] — the deterministic fast hasher behind every hot-path
//!   map (flow cache, sink CAM, ARP cache, switch L2 table).
//! * [`prefix`] — IPv4 CIDR prefixes with canonicalization.
//! * [`trie`] — a binary radix trie implementing longest-prefix match, the
//!   data structure backing the router's FIB.
//! * [`wire`] — parse/emit for Ethernet II, ARP, IPv4 and UDP, in the
//!   two-level style of `smoltcp`: raw accessors over byte slices plus a
//!   high-level `Repr` with `parse`/`emit`.
//! * [`checksum`] — the internet checksum (RFC 1071).
//! * [`channel`] — a poll-based reliable, in-order message transport state
//!   machine (a deliberately simplified TCP; see `DESIGN.md` §2).
//! * [`json`] — the one JSON string escaper every hand-written dump
//!   (metrics, trace exports, scenario reports) quotes through.
//! * [`metrics`] — deterministic counters (the metrics half of
//!   sc-trace); lives here so every layer can record.
//!
//! Everything here is deterministic and allocation-conscious; nothing
//! performs I/O.

pub mod channel;
pub mod checksum;
pub mod frame;
pub mod fxhash;
pub mod json;
pub mod mac;
pub mod metrics;
pub mod prefix;
pub mod time;
pub mod trie;
pub mod wire;

pub use frame::Frame;
pub use fxhash::{FxHashMap, FxHashSet};
pub use json::escape_json;
pub use mac::MacAddr;
pub use prefix::{Ipv4Prefix, PrefixParseError};
pub use time::{SimDuration, SimTime};
pub use trie::PrefixTrie;

/// One step of Sebastiano Vigna's splitmix64 generator: advances
/// `state` and returns a well-mixed 64-bit draw. The workspace's one
/// seeded stream for link faults, walker jitter, chaos scripts and
/// retry backoff; a stateless hash of `x` is one step from state `x`.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Re-export of the standard IPv4 address type used throughout the
/// workspace (we do not wrap it; `std`'s type is already exactly right).
pub use std::net::Ipv4Addr;
