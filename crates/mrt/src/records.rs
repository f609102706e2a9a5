//! The MRT wire format (RFC 6396).
//!
//! Every record starts with the 12-byte common header — a 4-byte
//! timestamp (seconds), 2-byte type, 2-byte subtype and a 4-byte body
//! length. `BGP4MP_ET` records (RFC 6396 §4.4.3) prepend a 4-byte
//! microsecond field to the body (counted in the length); the reader
//! strips it into [`RawRecord::micros`] so consumers see one uniform
//! `(secs, micros)` timestamp.
//!
//! Supported records — the subset RIS archives are made of:
//!
//! * `TABLE_DUMP_V2` / `PEER_INDEX_TABLE` — the collector's peer table,
//!   referenced by index from every RIB entry;
//! * `TABLE_DUMP_V2` / `RIB_IPV4_UNICAST` — one prefix with its
//!   per-peer attribute entries (a `bview` snapshot row);
//! * `BGP4MP(_ET)` / `MESSAGE` — one timestamped BGP message on a
//!   peering (an `updates` stream row);
//! * `BGP4MP(_ET)` / `STATE_CHANGE` — FSM transitions (parsed so real
//!   archives don't choke the reader; `ReplaySchedule` skips them).
//!
//! Reading is zero-copy: [`MrtReader`] iterates `RawRecord` views whose
//! bodies borrow the input slice — framing only, nothing is copied or
//! parsed until [`MrtRecord::decode`] is called on a record you care
//! about. BGP message bodies and path attributes decode through
//! `sc_bgp`, so MRT-carried routes are bit-compatible with what the
//! simulated sessions speak.

use sc_bgp::attrs::{decode_attrs, encode_attrs, RouteAttrs};
use sc_bgp::msg::{decode_prefixes, encode_prefix, BgpMessage};
use sc_net::wire::{be16, be32, WireError};
use sc_net::Ipv4Prefix;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// MRT record types (RFC 6396 §4).
pub const TYPE_TABLE_DUMP_V2: u16 = 13;
pub const TYPE_BGP4MP: u16 = 16;
pub const TYPE_BGP4MP_ET: u16 = 17;

/// `TABLE_DUMP_V2` subtypes (§4.3).
pub const SUB_PEER_INDEX_TABLE: u16 = 1;
pub const SUB_RIB_IPV4_UNICAST: u16 = 2;

/// `BGP4MP` subtypes (§4.4).
pub const SUB_BGP4MP_STATE_CHANGE: u16 = 0;
pub const SUB_BGP4MP_MESSAGE: u16 = 1;

/// The MRT common header length (timestamp + type + subtype + length).
pub const HEADER_LEN: usize = 12;

/// Errors from reading an MRT stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MrtError {
    /// The stream ends mid-record; `at` is the byte offset of the
    /// record that could not be completed (a writer died mid-record —
    /// everything before `at` parsed fine).
    Truncated { at: usize },
    /// A structurally invalid MRT field.
    Bad(&'static str),
    /// A nested BGP wire-format error (message body or attributes).
    Wire(WireError),
}

impl fmt::Display for MrtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrtError::Truncated { at } => write!(f, "MRT stream truncated at byte {at}"),
            MrtError::Bad(what) => write!(f, "bad MRT field: {what}"),
            MrtError::Wire(e) => write!(f, "bad BGP payload in MRT record: {e}"),
        }
    }
}

impl From<WireError> for MrtError {
    fn from(e: WireError) -> MrtError {
        MrtError::Wire(e)
    }
}

/// One framed record: header fields plus a borrowed body. For
/// `BGP4MP_ET` the leading microsecond field has been stripped into
/// `micros` (zero for every other type), so `(ts_secs, micros)` is the
/// record's uniform timestamp.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RawRecord<'a> {
    pub ts_secs: u32,
    pub micros: u32,
    pub rtype: u16,
    pub subtype: u16,
    pub body: &'a [u8],
}

/// Zero-copy iterator over the records of an MRT byte slice (e.g. a
/// whole mmap'd file). Yields `Err` once on a malformed/truncated
/// record, then fuses.
pub struct MrtReader<'a> {
    buf: &'a [u8],
    pos: usize,
    dead: bool,
}

impl<'a> MrtReader<'a> {
    pub fn new(buf: &'a [u8]) -> MrtReader<'a> {
        MrtReader {
            buf,
            pos: 0,
            dead: false,
        }
    }

    /// Byte offset of the next unread record.
    pub fn offset(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for MrtReader<'a> {
    type Item = Result<RawRecord<'a>, MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.dead || self.pos == self.buf.len() {
            return None;
        }
        let at = self.pos;
        let rest = &self.buf[at..];
        if rest.len() < HEADER_LEN {
            self.dead = true;
            return Some(Err(MrtError::Truncated { at }));
        }
        let ts_secs = be32(rest, 0);
        let rtype = be16(rest, 4);
        let subtype = be16(rest, 6);
        let len = be32(rest, 8) as usize;
        if rest.len() < HEADER_LEN + len {
            self.dead = true;
            return Some(Err(MrtError::Truncated { at }));
        }
        let mut body = &rest[HEADER_LEN..HEADER_LEN + len];
        let mut micros = 0;
        if rtype == TYPE_BGP4MP_ET {
            if body.len() < 4 {
                self.dead = true;
                return Some(Err(MrtError::Truncated { at }));
            }
            micros = be32(body, 0);
            if micros >= 1_000_000 {
                self.dead = true;
                return Some(Err(MrtError::Bad("ET microseconds >= 1s")));
            }
            body = &body[4..];
        }
        self.pos = at + HEADER_LEN + len;
        Some(Ok(RawRecord {
            ts_secs,
            micros,
            rtype,
            subtype,
            body,
        }))
    }
}

/// One peer of a `PEER_INDEX_TABLE` (IPv4 peers only — the workspace
/// models an IPv4 world; both 2- and 4-byte AS entries decode, the
/// latter must fit `u16`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PeerTableEntry {
    pub bgp_id: Ipv4Addr,
    pub addr: Ipv4Addr,
    pub asn: u16,
}

/// The collector's peer table; every RIB entry names a peer by index
/// into it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PeerIndexTable {
    pub collector_id: Ipv4Addr,
    pub view: String,
    pub peers: Vec<PeerTableEntry>,
}

/// One peer's route for a RIB record's prefix.
#[derive(Clone, PartialEq, Debug)]
pub struct RibEntry {
    /// Index into the dump's [`PeerIndexTable`].
    pub peer_index: u16,
    /// When the route was originated (MRT epoch seconds).
    pub originated: u32,
    pub attrs: Arc<RouteAttrs>,
}

/// A `RIB_IPV4_UNICAST` record: one prefix, each peer's route for it.
#[derive(Clone, PartialEq, Debug)]
pub struct RibEntryRecord {
    pub seq: u32,
    pub prefix: Ipv4Prefix,
    pub entries: Vec<RibEntry>,
}

/// A `BGP4MP(_ET)` message record: one timestamped BGP message on one
/// peering.
#[derive(Clone, PartialEq, Debug)]
pub struct Bgp4mpMessage {
    pub peer_as: u16,
    pub local_as: u16,
    pub peer_ip: Ipv4Addr,
    pub local_ip: Ipv4Addr,
    pub msg: BgpMessage,
}

/// A decoded record.
#[derive(Clone, PartialEq, Debug)]
pub enum MrtRecord {
    PeerIndex(PeerIndexTable),
    RibIpv4(RibEntryRecord),
    Message(Bgp4mpMessage),
    /// A `BGP4MP` FSM transition: `(peering, old_state, new_state)`.
    StateChange(Bgp4mpMessage, u16, u16),
    /// A record type/subtype this model doesn't interpret (real
    /// archives interleave e.g. IPv6 RIB records; callers skip these).
    Unknown {
        rtype: u16,
        subtype: u16,
    },
}

/// Peer-type flag: 4-byte AS number follows (RFC 6396 §4.3.1).
const PEER_TYPE_AS4: u8 = 0x02;
/// Peer-type flag: IPv6 peer address.
const PEER_TYPE_IPV6: u8 = 0x01;

fn need(body: &[u8], n: usize, what: &'static str) -> Result<(), MrtError> {
    if body.len() < n {
        Err(MrtError::Bad(what))
    } else {
        Ok(())
    }
}

fn ip4(body: &[u8], at: usize) -> Ipv4Addr {
    Ipv4Addr::new(body[at], body[at + 1], body[at + 2], body[at + 3])
}

/// Decode one NLRI-form prefix at the head of `body`; returns the
/// prefix and the bytes consumed.
fn decode_one_prefix(body: &[u8]) -> Result<(Ipv4Prefix, usize), MrtError> {
    need(body, 1, "rib prefix")?;
    let n = 1 + (body[0] as usize).div_ceil(8);
    need(body, n, "rib prefix")?;
    let mut v = decode_prefixes(&body[..n])?;
    Ok((v.pop().expect("one prefix"), n))
}

impl MrtRecord {
    /// Decode a framed record. Types outside the supported set come
    /// back as [`MrtRecord::Unknown`] rather than an error, so a reader
    /// can skip through a heterogeneous archive.
    pub fn decode(raw: &RawRecord<'_>) -> Result<MrtRecord, MrtError> {
        match (raw.rtype, raw.subtype) {
            (TYPE_TABLE_DUMP_V2, SUB_PEER_INDEX_TABLE) => decode_peer_index(raw.body),
            (TYPE_TABLE_DUMP_V2, SUB_RIB_IPV4_UNICAST) => decode_rib_ipv4(raw.body),
            (TYPE_BGP4MP | TYPE_BGP4MP_ET, SUB_BGP4MP_MESSAGE) => decode_bgp4mp(raw.body, false),
            (TYPE_BGP4MP | TYPE_BGP4MP_ET, SUB_BGP4MP_STATE_CHANGE) => {
                decode_bgp4mp(raw.body, true)
            }
            (rtype, subtype) => Ok(MrtRecord::Unknown { rtype, subtype }),
        }
    }
}

fn decode_peer_index(body: &[u8]) -> Result<MrtRecord, MrtError> {
    need(body, 8, "peer index header")?;
    let collector_id = ip4(body, 0);
    let view_len = be16(body, 4) as usize;
    need(body, 8 + view_len, "peer index view name")?;
    let view = std::str::from_utf8(&body[6..6 + view_len])
        .map_err(|_| MrtError::Bad("peer index view name utf8"))?
        .to_string();
    let count = be16(body, 6 + view_len) as usize;
    let mut at = 8 + view_len;
    let mut peers = Vec::with_capacity(count);
    for _ in 0..count {
        need(body, at + 1, "peer entry type")?;
        let ty = body[at];
        if ty & PEER_TYPE_IPV6 != 0 {
            return Err(MrtError::Bad("IPv6 peer in an IPv4 model"));
        }
        let as_len = if ty & PEER_TYPE_AS4 != 0 { 4 } else { 2 };
        need(body, at + 1 + 4 + 4 + as_len, "peer entry")?;
        let bgp_id = ip4(body, at + 1);
        let addr = ip4(body, at + 5);
        let asn = if as_len == 4 {
            let v = be32(body, at + 9);
            u16::try_from(v).map_err(|_| MrtError::Bad("4-byte AS exceeds u16 model"))?
        } else {
            be16(body, at + 9)
        };
        peers.push(PeerTableEntry { bgp_id, addr, asn });
        at += 1 + 4 + 4 + as_len;
    }
    if at != body.len() {
        return Err(MrtError::Bad("peer index trailing bytes"));
    }
    Ok(MrtRecord::PeerIndex(PeerIndexTable {
        collector_id,
        view,
        peers,
    }))
}

fn decode_rib_ipv4(body: &[u8]) -> Result<MrtRecord, MrtError> {
    need(body, 4, "rib header")?;
    let seq = be32(body, 0);
    let (prefix, plen) = decode_one_prefix(&body[4..])?;
    let mut at = 4 + plen;
    need(body, at + 2, "rib entry count")?;
    let count = be16(body, at) as usize;
    at += 2;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        need(body, at + 8, "rib entry header")?;
        let peer_index = be16(body, at);
        let originated = be32(body, at + 2);
        let alen = be16(body, at + 6) as usize;
        need(body, at + 8 + alen, "rib entry attrs")?;
        let attrs = Arc::new(decode_attrs(&body[at + 8..at + 8 + alen])?);
        entries.push(RibEntry {
            peer_index,
            originated,
            attrs,
        });
        at += 8 + alen;
    }
    if at != body.len() {
        return Err(MrtError::Bad("rib trailing bytes"));
    }
    Ok(MrtRecord::RibIpv4(RibEntryRecord {
        seq,
        prefix,
        entries,
    }))
}

fn decode_bgp4mp(body: &[u8], state_change: bool) -> Result<MrtRecord, MrtError> {
    // peer AS (2), local AS (2), ifindex (2), AFI (2), peer IP, local IP.
    need(body, 8, "bgp4mp header")?;
    let peer_as = be16(body, 0);
    let local_as = be16(body, 2);
    let afi = be16(body, 6);
    if afi != 1 {
        return Err(MrtError::Bad("bgp4mp AFI (IPv4 only)"));
    }
    need(body, 16, "bgp4mp addresses")?;
    let peer_ip = ip4(body, 8);
    let local_ip = ip4(body, 12);
    let rest = &body[16..];
    if state_change {
        need(rest, 4, "state change states")?;
        if rest.len() != 4 {
            return Err(MrtError::Bad("state change trailing bytes"));
        }
        let peering = Bgp4mpMessage {
            peer_as,
            local_as,
            peer_ip,
            local_ip,
            msg: BgpMessage::Keepalive, // placeholder; states carry the info
        };
        Ok(MrtRecord::StateChange(
            peering,
            be16(rest, 0),
            be16(rest, 2),
        ))
    } else {
        let msg = BgpMessage::decode(rest)?;
        Ok(MrtRecord::Message(Bgp4mpMessage {
            peer_as,
            local_as,
            peer_ip,
            local_ip,
            msg,
        }))
    }
}

/// Streaming MRT encoder: the mirror of [`MrtReader`], emitting the
/// exact subset the reader supports. Record lengths are backpatched in
/// place (single pass, like `BgpMessage::encode_into`).
#[derive(Default)]
pub struct MrtWriter {
    out: Vec<u8>,
}

impl MrtWriter {
    pub fn new() -> MrtWriter {
        MrtWriter::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    pub fn len(&self) -> usize {
        self.out.len()
    }

    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Start a record; returns the offset of the length field for
    /// [`MrtWriter::finish_record`].
    fn start_record(&mut self, ts_secs: u32, rtype: u16, subtype: u16) -> usize {
        self.out.extend_from_slice(&ts_secs.to_be_bytes());
        self.out.extend_from_slice(&rtype.to_be_bytes());
        self.out.extend_from_slice(&subtype.to_be_bytes());
        let len_at = self.out.len();
        self.out.extend_from_slice(&[0; 4]);
        len_at
    }

    fn finish_record(&mut self, len_at: usize) {
        let len = (self.out.len() - len_at - 4) as u32;
        self.out[len_at..len_at + 4].copy_from_slice(&len.to_be_bytes());
    }

    /// Emit the `PEER_INDEX_TABLE` (must precede any RIB record, per
    /// RFC 6396 §4.3.1).
    pub fn peer_index_table(
        &mut self,
        ts_secs: u32,
        collector_id: Ipv4Addr,
        view: &str,
        peers: &[PeerTableEntry],
    ) {
        let len_at = self.start_record(ts_secs, TYPE_TABLE_DUMP_V2, SUB_PEER_INDEX_TABLE);
        self.out.extend_from_slice(&collector_id.octets());
        assert!(view.len() <= u16::MAX as usize);
        self.out
            .extend_from_slice(&(view.len() as u16).to_be_bytes());
        self.out.extend_from_slice(view.as_bytes());
        self.out
            .extend_from_slice(&(peers.len() as u16).to_be_bytes());
        for p in peers {
            self.out.push(0); // IPv4 peer, 2-byte AS
            self.out.extend_from_slice(&p.bgp_id.octets());
            self.out.extend_from_slice(&p.addr.octets());
            self.out.extend_from_slice(&p.asn.to_be_bytes());
        }
        self.finish_record(len_at);
    }

    /// Emit one `RIB_IPV4_UNICAST` record.
    pub fn rib_ipv4(&mut self, ts_secs: u32, seq: u32, prefix: Ipv4Prefix, entries: &[RibEntry]) {
        let len_at = self.start_record(ts_secs, TYPE_TABLE_DUMP_V2, SUB_RIB_IPV4_UNICAST);
        self.out.extend_from_slice(&seq.to_be_bytes());
        encode_prefix(prefix, &mut self.out);
        self.out
            .extend_from_slice(&(entries.len() as u16).to_be_bytes());
        for e in entries {
            self.out.extend_from_slice(&e.peer_index.to_be_bytes());
            self.out.extend_from_slice(&e.originated.to_be_bytes());
            let alen_at = self.out.len();
            self.out.extend_from_slice(&[0; 2]);
            encode_attrs(&e.attrs, &mut self.out);
            let alen = (self.out.len() - alen_at - 2) as u16;
            self.out[alen_at..alen_at + 2].copy_from_slice(&alen.to_be_bytes());
        }
        self.finish_record(len_at);
    }

    /// Emit one `BGP4MP` (or, with `micros`, `BGP4MP_ET`) message
    /// record.
    pub fn bgp4mp_message(&mut self, ts_secs: u32, micros: Option<u32>, peering: &Bgp4mpMessage) {
        let rtype = if micros.is_some() {
            TYPE_BGP4MP_ET
        } else {
            TYPE_BGP4MP
        };
        let len_at = self.start_record(ts_secs, rtype, SUB_BGP4MP_MESSAGE);
        if let Some(us) = micros {
            assert!(us < 1_000_000, "ET microseconds must be < 1s");
            self.out.extend_from_slice(&us.to_be_bytes());
        }
        self.out.extend_from_slice(&peering.peer_as.to_be_bytes());
        self.out.extend_from_slice(&peering.local_as.to_be_bytes());
        self.out.extend_from_slice(&0u16.to_be_bytes()); // ifindex
        self.out.extend_from_slice(&1u16.to_be_bytes()); // AFI: IPv4
        self.out.extend_from_slice(&peering.peer_ip.octets());
        self.out.extend_from_slice(&peering.local_ip.octets());
        let mut msg = Vec::new();
        peering.msg.encode_into(&mut msg);
        self.out.extend_from_slice(&msg);
        self.finish_record(len_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_bgp::attrs::AsPath;
    use sc_bgp::msg::UpdateMsg;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn attrs(nh: [u8; 4]) -> Arc<RouteAttrs> {
        RouteAttrs::ebgp(AsPath::sequence(vec![65001, 174]), Ipv4Addr::from(nh)).shared()
    }

    fn sample_stream() -> Vec<u8> {
        let mut w = MrtWriter::new();
        let peers = [
            PeerTableEntry {
                bgp_id: Ipv4Addr::new(10, 0, 0, 2),
                addr: Ipv4Addr::new(10, 0, 0, 2),
                asn: 65002,
            },
            PeerTableEntry {
                bgp_id: Ipv4Addr::new(10, 0, 0, 3),
                addr: Ipv4Addr::new(10, 0, 0, 3),
                asn: 65003,
            },
        ];
        w.peer_index_table(
            1_431_000_000,
            Ipv4Addr::new(192, 0, 2, 1),
            "rrc-sim",
            &peers,
        );
        w.rib_ipv4(
            1_431_000_000,
            0,
            p("1.0.0.0/24"),
            &[
                RibEntry {
                    peer_index: 0,
                    originated: 1_430_000_000,
                    attrs: attrs([10, 0, 0, 2]),
                },
                RibEntry {
                    peer_index: 1,
                    originated: 1_430_000_001,
                    attrs: attrs([10, 0, 0, 3]),
                },
            ],
        );
        let update = BgpMessage::Update(UpdateMsg::announce(
            attrs([10, 0, 0, 2]),
            vec![p("2.0.0.0/16")],
        ));
        w.bgp4mp_message(
            1_431_000_005,
            Some(250_000),
            &Bgp4mpMessage {
                peer_as: 65002,
                local_as: 65001,
                peer_ip: Ipv4Addr::new(10, 0, 0, 2),
                local_ip: Ipv4Addr::new(10, 0, 0, 1),
                msg: update,
            },
        );
        w.into_bytes()
    }

    #[test]
    fn roundtrip_all_record_kinds() {
        let bytes = sample_stream();
        let records: Vec<(RawRecord, MrtRecord)> = MrtReader::new(&bytes)
            .map(|r| {
                let raw = r.unwrap();
                let dec = MrtRecord::decode(&raw).unwrap();
                (raw, dec)
            })
            .collect();
        assert_eq!(records.len(), 3);
        match &records[0].1 {
            MrtRecord::PeerIndex(t) => {
                assert_eq!(t.view, "rrc-sim");
                assert_eq!(t.peers.len(), 2);
                assert_eq!(t.peers[1].asn, 65003);
            }
            other => panic!("{other:?}"),
        }
        match &records[1].1 {
            MrtRecord::RibIpv4(r) => {
                assert_eq!(r.prefix, p("1.0.0.0/24"));
                assert_eq!(r.entries.len(), 2);
                assert_eq!(r.entries[0].attrs, attrs([10, 0, 0, 2]));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(records[2].0.micros, 250_000);
        assert_eq!(records[2].0.ts_secs, 1_431_000_005);
        match &records[2].1 {
            MrtRecord::Message(m) => {
                assert_eq!(m.peer_as, 65002);
                match &m.msg {
                    BgpMessage::Update(u) => assert_eq!(u.nlri, vec![p("2.0.0.0/16")]),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncation_reports_offset_and_fuses() {
        let bytes = sample_stream();
        // Whole-record boundaries parse clean; any cut inside a record
        // reports Truncated at that record's start.
        let mut boundaries = vec![0];
        let mut rd = MrtReader::new(&bytes);
        while rd.next().is_some() {
            boundaries.push(rd.offset());
        }
        for cut in 1..bytes.len() {
            let results: Vec<_> = MrtReader::new(&bytes[..cut]).collect();
            if boundaries.contains(&cut) {
                assert!(results.iter().all(|r| r.is_ok()), "cut={cut}");
            } else {
                let last = results.last().unwrap();
                let at = *boundaries.iter().filter(|&&b| b < cut).max().unwrap();
                assert_eq!(*last, Err(MrtError::Truncated { at }), "cut={cut}");
                // Everything before the truncated record parsed fine.
                assert!(results[..results.len() - 1].iter().all(|r| r.is_ok()));
            }
        }
    }

    #[test]
    fn unknown_types_are_skippable() {
        // Hand-frame a TABLE_DUMP_V2/IPv6 record followed by a good one.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&TYPE_TABLE_DUMP_V2.to_be_bytes());
        bytes.extend_from_slice(&4u16.to_be_bytes()); // RIB_IPV6_UNICAST
        bytes.extend_from_slice(&3u32.to_be_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        bytes.extend_from_slice(&sample_stream());
        let recs: Vec<MrtRecord> = MrtReader::new(&bytes)
            .map(|r| MrtRecord::decode(&r.unwrap()).unwrap())
            .collect();
        assert_eq!(recs.len(), 4);
        assert_eq!(
            recs[0],
            MrtRecord::Unknown {
                rtype: TYPE_TABLE_DUMP_V2,
                subtype: 4
            }
        );
        assert!(matches!(recs[1], MrtRecord::PeerIndex(_)));
    }

    #[test]
    fn et_micros_validated() {
        let mut w = MrtWriter::new();
        w.bgp4mp_message(
            5,
            Some(999_999),
            &Bgp4mpMessage {
                peer_as: 1,
                local_as: 2,
                peer_ip: Ipv4Addr::new(1, 1, 1, 1),
                local_ip: Ipv4Addr::new(2, 2, 2, 2),
                msg: BgpMessage::Keepalive,
            },
        );
        let mut bytes = w.into_bytes();
        assert_eq!(
            MrtReader::new(&bytes).next().unwrap().unwrap().micros,
            999_999
        );
        // Corrupt the micros field past 1s: reader rejects.
        bytes[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&1_000_000u32.to_be_bytes());
        assert_eq!(
            MrtReader::new(&bytes).next().unwrap(),
            Err(MrtError::Bad("ET microseconds >= 1s"))
        );
    }

    #[test]
    fn as4_peer_entries_decode() {
        // Hand-encode a peer table with one AS4 entry.
        let mut w = MrtWriter::new();
        let len_at = w.start_record(0, TYPE_TABLE_DUMP_V2, SUB_PEER_INDEX_TABLE);
        w.out.extend_from_slice(&[192, 0, 2, 1]);
        w.out.extend_from_slice(&0u16.to_be_bytes()); // empty view
        w.out.extend_from_slice(&1u16.to_be_bytes());
        w.out.push(PEER_TYPE_AS4);
        w.out.extend_from_slice(&[9, 9, 9, 9]);
        w.out.extend_from_slice(&[10, 0, 0, 9]);
        w.out.extend_from_slice(&65009u32.to_be_bytes());
        w.finish_record(len_at);
        let bytes = w.into_bytes();
        let raw = MrtReader::new(&bytes).next().unwrap().unwrap();
        match MrtRecord::decode(&raw).unwrap() {
            MrtRecord::PeerIndex(t) => assert_eq!(t.peers[0].asn, 65009),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn state_change_decodes() {
        let mut w = MrtWriter::new();
        let len_at = w.start_record(7, TYPE_BGP4MP, SUB_BGP4MP_STATE_CHANGE);
        w.out.extend_from_slice(&65002u16.to_be_bytes());
        w.out.extend_from_slice(&65001u16.to_be_bytes());
        w.out.extend_from_slice(&0u16.to_be_bytes());
        w.out.extend_from_slice(&1u16.to_be_bytes());
        w.out.extend_from_slice(&[10, 0, 0, 2]);
        w.out.extend_from_slice(&[10, 0, 0, 1]);
        w.out.extend_from_slice(&6u16.to_be_bytes()); // Established
        w.out.extend_from_slice(&1u16.to_be_bytes()); // Idle
        w.finish_record(len_at);
        let bytes = w.into_bytes();
        let raw = MrtReader::new(&bytes).next().unwrap().unwrap();
        match MrtRecord::decode(&raw).unwrap() {
            MrtRecord::StateChange(peering, old, new) => {
                assert_eq!(peering.peer_ip, Ipv4Addr::new(10, 0, 0, 2));
                assert_eq!((old, new), (6, 1));
            }
            other => panic!("{other:?}"),
        }
    }
}
