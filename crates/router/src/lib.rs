//! The legacy IP router model (Cisco Nexus 7k class, flat FIB).
//!
//! This crate is the *victim* of the paper: a BGP router whose
//! convergence after peer failure is dominated by updating its
//! hardware FIB one entry at a time. It provides:
//!
//! * [`calibration`] — the timing constants, each traced to a number the
//!   paper reports (Fig. 5 slope, the 375 ms best case, BFD settings);
//! * [`fib`] — the flat FIB and the **FIB walker**: a queue of pending
//!   entry updates drained at the calibrated per-entry cost, so the data
//!   plane converges exactly as slowly as the modeled hardware;
//! * [`arp`] — an ARP client with cache, request rate-limiting and
//!   pending-packet queueing (the router resolves the supercharger's
//!   virtual next-hops through this path);
//! * [`node`] — the [`node::LegacyRouter`] simulation node tying it all
//!   together: BGP sessions over reliable channels, optional BFD,
//!   RIB→FIB coupling, static routes, and data-plane forwarding with
//!   TTL/checksum handling.
//!
//! The same type models R1 (the supercharged router), and R2/R3 (the
//! provider routers originating full feeds) — they differ only in
//! configuration, exactly like the paper's lab.

pub mod arp;
pub mod calibration;
pub mod fib;
pub mod flowcache;
pub mod node;

pub use arp::ArpClient;
pub use calibration::{Calibration, PAPER_STOCK_MAX_S};
pub use fib::{Fib, FibEntry, FibOp, FibWalker};
pub use flowcache::{FlowCache, FlowCacheEntry};
pub use node::{Forwarding, Interface, LegacyRouter, PeerConfig, RouterConfig, StaticRoute};
