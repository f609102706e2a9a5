//! BGP-4 substrate (RFC 4271).
//!
//! The paper's controller interposes on real BGP sessions (ExaBGP in the
//! prototype), so this crate implements the protocol for real rather than
//! abstracting it away:
//!
//! * [`msg`] — OPEN / UPDATE / KEEPALIVE / NOTIFICATION wire formats with
//!   the 19-byte marker header, prefix encoding, and strict validation;
//! * [`attrs`] — path attributes (ORIGIN, AS_PATH, NEXT_HOP, MED,
//!   LOCAL_PREF, COMMUNITIES) with flag checking;
//! * [`decision`] — the full BGP decision process as a total order over
//!   candidate routes (the controller *must* rank routes exactly like the
//!   router would, otherwise its backup-groups are wrong);
//! * [`rib`] — per-prefix ranked candidate lists ([`rib::LocRib`]) with
//!   change tracking: every update says whether the top-two candidates
//!   moved, which is precisely the input of the paper's Listing 1;
//! * [`session`] — a poll-based session state machine (Idle → OpenSent →
//!   OpenConfirm → Established) with hold/keepalive timers;
//! * [`adj_out`] — the per-peer Adj-RIB-Out (RFC 4271 §3.2), replayed on
//!   every session (re-)establishment so flapped sessions come back with
//!   their routes;
//! * [`pack`] — the run packer that turns a table walk into UPDATEs as
//!   it goes (the Adj-RIB-Out's replay, the controller's re-announcements);
//! * `index` (crate-private) — the prefix index under both RIBs: sorted
//!   blocks searched from where the last lookup landed, since every
//!   UPDATE lists its prefixes in ascending order.
//!
//! Known simplifications (documented in `DESIGN.md`): 2-byte AS numbers
//! (no AS4 capability), no route reflection, MED compared across
//! neighboring ASes, and sessions run over the workspace's reliable
//! channel instead of TCP.

pub mod adj_out;
pub mod attrs;
pub mod decision;
mod index;
pub mod msg;
pub mod pack;
pub mod rib;
pub mod session;

pub use adj_out::AdjRibOut;
pub use attrs::{AsPath, Origin, RouteAttrs};
pub use decision::{compare_routes, PeerInfo, PeerTable, Route};
pub use msg::{BgpMessage, NotificationMsg, OpenMsg, UpdateMsg};
pub use pack::RunPacker;
pub use rib::{Change, Footprint, LocRib};
pub use session::{Session, SessionConfig, SessionEvent, SessionState};

/// A BGP peer is identified by its session IP address.
pub type PeerId = std::net::Ipv4Addr;
