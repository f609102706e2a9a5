//! **The supercharger** — the paper's contribution.
//!
//! A *supercharged router* is a legacy router whose convergence is
//! boosted by an SDN switch and this controller. The controller
//! interposes on the router's BGP sessions and builds a hierarchical
//! FIB spanning the two devices:
//!
//! 1. For every prefix it ranks the candidate routes with the full BGP
//!    decision process and derives the **backup-group** — the ordered
//!    pair (primary next-hop, backup next-hop) — using the paper's
//!    online algorithm (Listing 1, [`engine`]).
//! 2. Each distinct backup-group gets a **virtual next-hop** (VNH) and
//!    **virtual MAC** (VMAC) from the deterministic allocator
//!    ([`vnh`], [`groups`]). Announcements to the router carry the VNH;
//!    the router resolves it via ARP and the controller answers with
//!    the VMAC ([`engine::Engine::arp_lookup`]).
//! 3. The SDN switch holds one flow rule per backup-group:
//!    `match(dst_mac = VMAC) → set_dst_mac(primary), output(primary)`.
//! 4. On BFD failure detection, only those rules are rewritten to the
//!    backup (Listing 2, [`engine::Engine::failover_plan`]) — a constant
//!    number of updates, giving the paper's prefix-independent ~150 ms
//!    convergence — and the control plane repairs at router pace behind
//!    the healed data plane.
//!
//! [`controller`] packages the engine as a simulation node (BGP speaker,
//! BFD agent, OpenFlow client, ARP responder). The engine is a pure
//! function of its input, which is the paper's §3 reliability argument:
//! replicas fed the same updates hold the same
//! [`engine::Engine::state_digest`], so no synchronization is needed
//! (the property tests run five of them side by side).

pub mod controller;
pub mod engine;
pub mod groups;
pub mod vnh;

pub use controller::{Controller, ControllerConfig, PeerLink, RouterLink, SwitchLink};
pub use engine::{Engine, EngineAction, EngineConfig, FailoverPlan};
pub use groups::{BackupGroup, GroupId, GroupTable};
pub use vnh::VnhAllocator;
