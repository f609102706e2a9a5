//! Property tests pinning the MRT encoder to the reader: encode→decode
//! identity over arbitrary attrs/NLRI/timestamps (including the
//! `BGP4MP_ET` microsecond extension), and graceful truncated-record
//! handling at every cut point.

use proptest::collection::vec;
use proptest::prelude::*;
use sc_bgp::attrs::{AsPath, AsSegment, Origin, RouteAttrs};
use sc_bgp::msg::{BgpMessage, UpdateMsg};
use sc_bgp::AdjRibOut;
use sc_mrt::{
    pack_feed, Bgp4mpMessage, MrtError, MrtReader, MrtRecord, MrtWriter, NextHopRewriter,
    PeerTableEntry, ReplaySchedule, RibEntry, RibEntryRecord, RibSnapshot, TimeScale,
};
use sc_net::{Ipv4Prefix, SimDuration};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(Ipv4Addr::from(addr), len))
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_attrs() -> impl Strategy<Value = Arc<RouteAttrs>> {
    (
        vec(1u16..65000, 1..6),
        arb_ip(),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u32>()),
        vec(any::<u32>(), 0..4),
        any::<bool>(),
    )
        .prop_map(|(path, nh, med, local_pref, communities, set_seg)| {
            let as_path = if set_seg && path.len() >= 2 {
                AsPath {
                    segments: vec![
                        AsSegment::Sequence(path[..1].to_vec()),
                        AsSegment::Set(path[1..].to_vec()),
                    ],
                }
            } else {
                AsPath::sequence(path)
            };
            Arc::new(RouteAttrs {
                origin: Origin::Igp,
                as_path,
                next_hop: nh,
                med,
                local_pref,
                communities,
            })
        })
}

fn arb_update() -> impl Strategy<Value = UpdateMsg> {
    (
        vec(arb_prefix(), 0..20),
        vec(arb_prefix(), 0..20),
        arb_attrs(),
    )
        .prop_map(|(mut withdrawn, nlri, attrs)| {
            if withdrawn.is_empty() && nlri.is_empty() {
                // An empty UPDATE carries nothing to replay; keep every
                // generated message meaningful.
                withdrawn.push("10.0.0.0/24".parse().unwrap());
            }
            UpdateMsg {
                withdrawn,
                attrs: (!nlri.is_empty()).then_some(attrs),
                nlri,
            }
        })
}

proptest! {
    /// BGP4MP(_ET) encode→decode identity: peering fields, the
    /// timestamp (seconds + optional microseconds), and the embedded
    /// UPDATE all survive.
    #[test]
    fn bgp4mp_roundtrip(
        msgs in vec(
            (any::<u32>(), proptest::option::of(0u32..1_000_000),
             1u16..65000, 1u16..65000, arb_ip(), arb_ip(), arb_update()),
            1..12,
        ),
    ) {
        let mut w = MrtWriter::new();
        for (secs, micros, peer_as, local_as, peer_ip, local_ip, update) in &msgs {
            w.bgp4mp_message(*secs, *micros, &Bgp4mpMessage {
                peer_as: *peer_as,
                local_as: *local_as,
                peer_ip: *peer_ip,
                local_ip: *local_ip,
                msg: BgpMessage::Update(update.clone()),
            });
        }
        let bytes = w.into_bytes();
        let decoded: Vec<_> = MrtReader::new(&bytes)
            .map(|r| {
                let raw = r.unwrap();
                (raw.ts_secs, raw.micros, MrtRecord::decode(&raw).unwrap())
            })
            .collect();
        prop_assert_eq!(decoded.len(), msgs.len());
        for ((secs, micros, peer_as, local_as, peer_ip, local_ip, update), (d_secs, d_micros, rec))
            in msgs.iter().zip(&decoded)
        {
            prop_assert_eq!(*d_secs, *secs);
            prop_assert_eq!(*d_micros, micros.unwrap_or(0));
            let MrtRecord::Message(m) = rec else {
                return Err(TestCaseError::fail(format!("not a message: {rec:?}")));
            };
            prop_assert_eq!(m.peer_as, *peer_as);
            prop_assert_eq!(m.local_as, *local_as);
            prop_assert_eq!(m.peer_ip, *peer_ip);
            prop_assert_eq!(m.local_ip, *local_ip);
            prop_assert_eq!(&m.msg, &BgpMessage::Update(update.clone()));
        }
    }

    /// A recorded peer's table, rewritten to a provider's next hop,
    /// exports what the provider's packed feed seeds: the rewritten
    /// routes packed by [`pack_feed`] into `AdjRibOut::from_updates`.
    /// Each record decodes its own attribute `Arc`s, drawn from three
    /// contents so that equal sets come in rows; the records are in
    /// stream order, prefix-sorted or not, and may repeat a prefix.
    #[test]
    fn a_peer_table_exports_like_its_packed_feed(
        records in vec((0u32..48, 0usize..3, 1u8..4), 0..160),
        sorted in any::<bool>(),
        nh in arb_ip(),
    ) {
        let sets = [65002u16, 65003, 65004].map(|asn| {
            RouteAttrs::ebgp(AsPath::sequence(vec![asn, 174]), Ipv4Addr::new(198, 51, 100, 1))
        });
        let mut routes: Vec<RibEntryRecord> = records
            .iter()
            .enumerate()
            .map(|(seq, &(slot, set, peers))| RibEntryRecord {
                seq: seq as u32,
                prefix: Ipv4Prefix::new(
                    Ipv4Addr::from(0x0a00_0000 + (slot << 8)),
                    if slot.is_multiple_of(4) { 16 } else { 24 },
                ),
                entries: (0..2u16)
                    .filter(|k| peers & (1 << k) != 0)
                    .map(|k| RibEntry {
                        peer_index: k,
                        originated: 0,
                        attrs: Arc::new(sets[(set + k as usize) % 3].clone()),
                    })
                    .collect(),
            })
            .collect();
        if sorted {
            routes.sort_by_key(|r| r.prefix);
        }
        let peer = |k: u8| PeerTableEntry {
            bgp_id: Ipv4Addr::new(198, 51, 100, k),
            addr: Ipv4Addr::new(198, 51, 100, k),
            asn: 64900 + k as u16,
        };
        let snap = RibSnapshot {
            collector_id: Ipv4Addr::new(192, 0, 2, 1),
            view: String::new(),
            peers: vec![peer(1), peer(2)],
            routes,
        };
        for k in 0..2 {
            let table = snap.peer_table(k);
            let rewritten = NextHopRewriter::new(nh).rewrite_routes(&snap.routes_for_peer(k));
            let seeded = AdjRibOut::from_updates(&pack_feed(&rewritten, 300));
            prop_assert_eq!(table.adj_rib_out(nh).export(), seeded.export());
            let mut prefixes: Vec<Ipv4Prefix> = rewritten.iter().map(|(p, _)| *p).collect();
            prefixes.sort();
            prefixes.dedup();
            prop_assert_eq!(&table.prefixes()[..], &prefixes[..]);
        }
    }

    /// TABLE_DUMP_V2 encode→decode identity: peer table + RIB records
    /// with arbitrary per-peer attribute entries.
    #[test]
    fn table_dump_roundtrip(
        peers in vec((arb_ip(), arb_ip(), 1u16..65000), 1..6),
        ribs in vec((arb_prefix(), any::<u32>(), vec(arb_attrs(), 1..4)), 1..10),
    ) {
        let peers: Vec<PeerTableEntry> = peers
            .into_iter()
            .map(|(bgp_id, addr, asn)| PeerTableEntry { bgp_id, addr, asn })
            .collect();
        let mut w = MrtWriter::new();
        w.peer_index_table(0, Ipv4Addr::new(192, 0, 2, 1), "view", &peers);
        let mut want = Vec::new();
        for (seq, (prefix, originated, attrs)) in ribs.iter().enumerate() {
            let entries: Vec<RibEntry> = attrs
                .iter()
                .enumerate()
                .map(|(i, a)| RibEntry {
                    peer_index: (i % peers.len()) as u16,
                    originated: *originated,
                    attrs: a.clone(),
                })
                .collect();
            w.rib_ipv4(0, seq as u32, *prefix, &entries);
            want.push((seq as u32, *prefix, entries));
        }
        let bytes = w.into_bytes();
        let mut rd = MrtReader::new(&bytes);
        let first = MrtRecord::decode(&rd.next().unwrap().unwrap()).unwrap();
        let MrtRecord::PeerIndex(t) = first else {
            return Err(TestCaseError::fail(format!("not a peer index: {first:?}")));
        };
        prop_assert_eq!(&t.peers, &peers);
        for (seq, prefix, entries) in &want {
            let rec = MrtRecord::decode(&rd.next().unwrap().unwrap()).unwrap();
            let MrtRecord::RibIpv4(r) = rec else {
                return Err(TestCaseError::fail(format!("not a rib record: {rec:?}")));
            };
            prop_assert_eq!(r.seq, *seq);
            prop_assert_eq!(r.prefix, *prefix);
            prop_assert_eq!(&r.entries, entries);
        }
        prop_assert!(rd.next().is_none());
    }

    /// Truncating a valid stream anywhere never panics: every record
    /// before the cut parses, the cut record reports `Truncated` at its
    /// own offset, and the reader fuses.
    #[test]
    fn truncation_never_panics(
        msgs in vec((any::<u32>(), proptest::option::of(0u32..1_000_000), arb_update()), 1..6),
        cut_ppm in 0u32..1_000_000,
    ) {
        let mut w = MrtWriter::new();
        for (secs, micros, update) in &msgs {
            w.bgp4mp_message(*secs, *micros, &Bgp4mpMessage {
                peer_as: 65002,
                local_as: 65001,
                peer_ip: Ipv4Addr::new(10, 0, 0, 2),
                local_ip: Ipv4Addr::new(10, 0, 0, 1),
                msg: BgpMessage::Update(update.clone()),
            });
        }
        let bytes = w.into_bytes();
        let cut = bytes.len() * cut_ppm as usize / 1_000_000;
        let results: Vec<_> = MrtReader::new(&bytes[..cut]).collect();
        let errs = results.iter().filter(|r| r.is_err()).count();
        prop_assert!(errs <= 1, "at most one error, then fused");
        if let Some(Err(e)) = results.last() {
            prop_assert!(matches!(e, MrtError::Truncated { .. }), "{e:?}");
        }
        // The compiler surfaces the same error instead of panicking.
        match ReplaySchedule::compile(&bytes[..cut], TimeScale::REAL) {
            Ok(s) => prop_assert!(s.events.len() <= msgs.len()),
            Err(e) => prop_assert!(matches!(e, MrtError::Truncated { .. })),
        }
    }

    /// Replay offsets are exactly the time-scaled recorded deltas, for
    /// any rational scale, and remain non-decreasing.
    #[test]
    fn replay_offsets_are_scaled_deltas(
        gaps_us in vec(0u64..5_000_000, 1..10),
        num in 1u32..50, den in 1u32..50,
    ) {
        let mut w = MrtWriter::new();
        let base: u64 = 1_431_000_000_000_000;
        let mut t = base;
        let mut recorded = Vec::new();
        for gap in &gaps_us {
            t += gap;
            recorded.push(t - base);
            w.bgp4mp_message(
                (t / 1_000_000) as u32,
                Some((t % 1_000_000) as u32),
                &Bgp4mpMessage {
                    peer_as: 65002,
                    local_as: 65001,
                    peer_ip: Ipv4Addr::new(10, 0, 0, 2),
                    local_ip: Ipv4Addr::new(10, 0, 0, 1),
                    msg: BgpMessage::Update(UpdateMsg::withdraw(vec![
                        "1.0.0.0/24".parse().unwrap(),
                    ])),
                },
            );
        }
        let scale = TimeScale::new(num, den);
        let s = ReplaySchedule::compile(&w.into_bytes(), scale).unwrap();
        let origin = recorded[0];
        for (e, rec) in s.events.iter().zip(&recorded) {
            let want = scale.apply(SimDuration::from_micros(rec - origin));
            prop_assert_eq!(e.at, want);
        }
        for pair in s.events.windows(2) {
            prop_assert!(pair[0].at <= pair[1].at);
        }
        prop_assert_eq!(s.end, s.events.last().unwrap().at);
    }
}
