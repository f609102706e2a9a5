//! **sc-mrt** — RFC 6396 MRT dumps and timed route replay.
//!
//! The paper loads its routers with "actual BGP routes collected from
//! the RIPE RIS dataset". RIS publishes those collections as MRT files
//! (RFC 6396): `TABLE_DUMP_V2` RIB snapshots (`bview.*`) and
//! `BGP4MP`/`BGP4MP_ET` timestamped UPDATE streams (`updates.*`). This
//! crate reads and writes both, and turns an update stream into a
//! replay schedule that preserves the *recorded inter-arrival timing* —
//! the burst structure that actually stresses the event kernel and the
//! batched RIB path, which synthetic table generation alone cannot
//! reproduce.
//!
//! Three layers:
//!
//! * [`records`] — the wire format. [`records::MrtReader`] is a
//!   zero-copy iterator over a byte slice (each record is a borrowed
//!   view; nothing is copied until a record is decoded), and
//!   [`records::MrtWriter`] emits the same format so `sc-routegen` can
//!   build deterministic offline fixtures (real archives are not
//!   available offline; encode→decode round-trips are proptest-pinned).
//!   BGP message bodies and path attributes reuse `sc_bgp`'s decoders.
//! * [`replay`] — [`replay::RibSnapshot`] loads a `TABLE_DUMP_V2` dump
//!   into per-peer route lists (what seeds the provider feeds), and
//!   [`replay::ReplaySchedule`] compiles a `BGP4MP` stream into
//!   pre-scheduled world events with a [`replay::TimeScale`] warp knob.
//! * consumers — `sc-scenarios` wires a schedule in as
//!   `FeedSource::MrtReplay`, and `sc-bench replay` runs a fixture or a
//!   generated paper-scale pair through it from the command line.

pub mod records;
pub mod replay;

pub use records::{
    Bgp4mpMessage, MrtError, MrtReader, MrtRecord, MrtWriter, PeerIndexTable, PeerTableEntry,
    RawRecord, RibEntry, RibEntryRecord,
};
pub use replay::{pack_feed, NextHopRewriter, ReplayEvent, ReplaySchedule, RibSnapshot, TimeScale};
