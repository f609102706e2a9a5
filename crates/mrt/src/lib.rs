//! **sc-mrt** — RFC 6396 MRT dumps: how RIS tables enter the simulator.
//!
//! The paper loads its routers with "actual BGP routes collected from
//! the RIPE RIS dataset". RIS publishes those collections as MRT files
//! (RFC 6396): `TABLE_DUMP_V2` RIB snapshots (`bview.*`) and
//! `BGP4MP`/`BGP4MP_ET` timestamped UPDATE streams (`updates.*`). This
//! crate reads and writes both; the simulator consumes the snapshots.
//!
//! Two layers:
//!
//! * [`records`] — the wire format. [`records::MrtReader`] is a
//!   zero-copy iterator over a byte slice (each record is a borrowed
//!   view; nothing is copied until a record is decoded), and
//!   [`records::MrtWriter`] emits the same format so `sc-routegen` can
//!   build deterministic offline fixtures (real archives are not
//!   available offline; encode→decode round-trips are proptest-pinned).
//!   BGP message bodies and path attributes reuse `sc_bgp`'s decoders.
//! * [`replay`] — [`replay::RibSnapshot`] loads a `TABLE_DUMP_V2` dump
//!   into per-peer route lists and tables ([`replay::PeerTable`]: one
//!   prefix list per recorded peer, shared by the providers that replay
//!   it), which `sc-scenarios` turns into the providers' feeds
//!   (`FeedSource::MrtSnapshot`).
//!   [`replay::ReplaySchedule`] compiles a `BGP4MP` stream into timed
//!   events; only the perf ledger's compile kernel calls it.

pub mod records;
pub mod replay;

pub use records::{
    Bgp4mpMessage, MrtError, MrtReader, MrtRecord, MrtWriter, PeerIndexTable, PeerTableEntry,
    RawRecord, RibEntry, RibEntryRecord,
};
pub use replay::{
    pack_feed, NextHopRewriter, PeerTable, ReplayEvent, ReplaySchedule, RibSnapshot, TimeScale,
};
