//! Property tests for the base crate: the trie against a naive model,
//! parse∘emit identity for every wire format, and channel delivery
//! under arbitrary loss.

use proptest::collection::vec;
use proptest::prelude::*;
use sc_net::channel::{ChannelConfig, ChannelEvent, Endpoint};
use sc_net::wire::{
    peek_udp_frame, udp_frame, ArpOp, ArpRepr, EtherType, EthernetRepr, Ipv4Repr, UdpEndpoints,
    UdpRepr, WireError,
};
use sc_net::{Ipv4Prefix, MacAddr, PrefixTrie, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// The next segment `ep` wants on the wire, encoded.
fn tx(ep: &mut Endpoint, now: SimTime) -> Option<Vec<u8>> {
    ep.poll_transmit(now).map(|seg| {
        let mut buf = Vec::new();
        seg.write_to(&mut buf);
        buf
    })
}

/// Feed `seg` to `ep`, appending the messages it delivers to `out`.
fn rx(
    ep: &mut Endpoint,
    seg: &[u8],
    now: SimTime,
    out: &mut Vec<Vec<u8>>,
) -> Result<(), WireError> {
    ep.on_segment(seg, now, |ev| {
        if let ChannelEvent::Delivered(m) = ev {
            out.push(m.to_vec());
        }
    })
}

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(Ipv4Addr::from(addr), len))
}

/// Short prefixes over a 5-bit address space: they nest and collide,
/// so valueless split nodes get created, claimed and pruned.
fn arb_nested_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (0u32..32, 0u8..=5).prop_map(|(bits, len)| Ipv4Prefix::new(Ipv4Addr::from(bits << 27), len))
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

proptest! {
    /// Trie ≡ BTreeMap model under arbitrary insert/remove interleaving,
    /// for exact match, LPM, and ordered iteration.
    #[test]
    fn trie_matches_model(
        ops in vec((prop_oneof![arb_prefix(), arb_nested_prefix()], any::<bool>(), any::<u16>()), 1..200),
        lookups in vec(arb_ip(), 1..50),
    ) {
        let mut trie = PrefixTrie::new();
        let mut model: BTreeMap<Ipv4Prefix, u16> = BTreeMap::new();
        for (pfx, insert, val) in ops {
            if insert {
                prop_assert_eq!(trie.insert(pfx, val), model.insert(pfx, val));
            } else {
                prop_assert_eq!(trie.remove(pfx), model.remove(&pfx));
            }
            prop_assert_eq!(trie.get(pfx), model.get(&pfx));
            prop_assert_eq!(trie.len(), model.len());
        }
        for ip in lookups {
            let expect = model
                .iter()
                .filter(|(p, _)| p.contains(ip))
                .max_by_key(|(p, _)| p.len())
                .map(|(p, v)| (*p, *v));
            prop_assert_eq!(trie.lookup(ip).map(|(p, v)| (p, *v)), expect);
        }
        let got: Vec<_> = trie.iter().map(|(p, v)| (p, *v)).collect();
        let want: Vec<_> = model.iter().map(|(p, v)| (*p, *v)).collect();
        prop_assert_eq!(got, want);
    }

    /// Ethernet parse∘emit identity, and rewrite touches only dst.
    #[test]
    fn ethernet_roundtrip(dst in arb_mac(), src in arb_mac(), ty in any::<u16>(),
                          payload in vec(any::<u8>(), 0..256), new_dst in arb_mac()) {
        let repr = EthernetRepr { dst, src, ethertype: EtherType::from_u16(ty) };
        let mut frame = repr.to_frame(&payload);
        let (parsed, pl) = EthernetRepr::parse(&frame).unwrap();
        prop_assert_eq!(parsed, repr);
        prop_assert_eq!(pl, &payload[..]);
        EthernetRepr::rewrite_dst(&mut frame, new_dst).unwrap();
        let (parsed2, pl2) = EthernetRepr::parse(&frame).unwrap();
        prop_assert_eq!(parsed2.dst, new_dst);
        prop_assert_eq!(parsed2.src, src);
        prop_assert_eq!(pl2, &payload[..]);
    }

    /// ARP parse∘emit identity over arbitrary field values.
    #[test]
    fn arp_roundtrip(smac in arb_mac(), sip in arb_ip(), tmac in arb_mac(),
                     tip in arb_ip(), reply in any::<bool>()) {
        let repr = ArpRepr {
            op: if reply { ArpOp::Reply } else { ArpOp::Request },
            sender_mac: smac,
            sender_ip: sip,
            target_mac: tmac,
            target_ip: tip,
        };
        prop_assert_eq!(ArpRepr::parse(&repr.to_bytes()).unwrap(), repr);
    }

    /// IPv4 parse∘emit identity; corrupting any single byte of the
    /// header must be detected (checksum or field validation).
    #[test]
    fn ipv4_roundtrip_and_detection(
        src in arb_ip(), dst in arb_ip(), proto in any::<u8>(), ttl in 1u8..255,
        tos in any::<u8>(), ident in any::<u16>(),
        payload in vec(any::<u8>(), 0..64),
        corrupt_at in 0usize..20, corrupt_bit in 0u8..8,
    ) {
        let repr = Ipv4Repr { src, dst, protocol: proto, ttl, tos, ident };
        let pkt = repr.to_packet(&payload);
        let (parsed, pl) = Ipv4Repr::parse(&pkt).unwrap();
        prop_assert_eq!(parsed, repr);
        prop_assert_eq!(pl, &payload[..]);

        let mut bad = pkt.clone();
        bad[corrupt_at] ^= 1 << corrupt_bit;
        if bad != pkt {
            prop_assert!(Ipv4Repr::parse(&bad).is_err(),
                "single-bit header corruption at {corrupt_at} must be detected");
        }
    }

    /// UDP parse∘emit identity with pseudo-header checksum.
    #[test]
    fn udp_roundtrip(src in arb_ip(), dst in arb_ip(), sp in any::<u16>(),
                     dp in any::<u16>(), payload in vec(any::<u8>(), 0..128)) {
        let repr = UdpRepr { src_port: sp, dst_port: dp };
        let seg = repr.to_segment(src, dst, &payload);
        let (parsed, pl) = UdpRepr::parse(src, dst, &seg).unwrap();
        prop_assert_eq!(parsed, repr);
        prop_assert_eq!(pl, &payload[..]);
    }

    /// Full-stack encap/decap identity.
    #[test]
    fn stack_roundtrip(smac in arb_mac(), dmac in arb_mac(), sip in arb_ip(),
                       dip in arb_ip(), sp in any::<u16>(), dp in any::<u16>(),
                       payload in vec(any::<u8>(), 0..64)) {
        let ep = UdpEndpoints {
            src_mac: smac, dst_mac: dmac, src_ip: sip, dst_ip: dip,
            src_port: sp, dst_port: dp,
        };
        let frame = udp_frame(ep, 64, &payload);
        let d = peek_udp_frame(&frame).unwrap().unwrap();
        prop_assert_eq!(d.payload, payload);
        prop_assert_eq!(d.ip.src, sip);
        prop_assert_eq!(d.udp.dst_port, dp);
        prop_assert_eq!(d.eth.src, smac);
    }

    /// The reliable channel delivers every message exactly once, in
    /// order, under an arbitrary loss pattern (as long as loss is not
    /// total) — the property BGP and OpenFlow sessions rely on.
    #[test]
    fn channel_delivers_in_order_under_loss(
        msgs in vec(vec(any::<u8>(), 0..32), 1..40),
        loss_pattern in vec(any::<bool>(), 64),
    ) {
        let cfg = ChannelConfig { rto: SimDuration::from_millis(50), window: 8 };
        let mut a = Endpoint::connect(cfg);
        let mut b = Endpoint::listen(cfg);
        for m in &msgs {
            a.send(m.clone());
        }
        let mut delivered: Vec<Vec<u8>> = Vec::new();
        let mut drop_idx = 0usize;
        'outer: for round in 0..400u64 {
            let now = SimTime::from_millis(round * 60);
            loop {
                let mut progressed = false;
                while let Some(seg) = tx(&mut a, now) {
                    progressed = true;
                    let lose = loss_pattern[drop_idx % loss_pattern.len()];
                    drop_idx += 1;
                    // Never lose everything: deliver every 3rd regardless.
                    if !lose || drop_idx.is_multiple_of(3) {
                        rx(&mut b, &seg, now, &mut delivered).unwrap();
                    }
                }
                while let Some(seg) = tx(&mut b, now) {
                    progressed = true;
                    let lose = loss_pattern[drop_idx % loss_pattern.len()];
                    drop_idx += 1;
                    if !lose || drop_idx.is_multiple_of(3) {
                        rx(&mut a, &seg, now, &mut Vec::new()).unwrap();
                    }
                }
                if !progressed {
                    break;
                }
            }
            if delivered.len() == msgs.len() {
                break 'outer;
            }
        }
        prop_assert_eq!(delivered, msgs);
    }

    /// The full corruption path over the wire stack: flip any single
    /// bit of a UDP frame carrying a channel segment. The receiver
    /// either rejects the frame (IPv4/UDP checksum, ethertype
    /// validation, addressing mismatch — the drop is repaired by the
    /// RTO retransmit) or, when the flip lands in bytes the checksums
    /// do not cover (MAC fields, padding), delivers the payload intact.
    /// A corrupted payload must never surface as a delivery.
    #[test]
    fn single_bit_corruption_never_corrupts_delivery(
        payload in vec(any::<u8>(), 1..64),
        corrupt_bit in any::<u16>(),
    ) {
        let ep = UdpEndpoints {
            src_mac: MacAddr([2, 0, 0, 0, 0, 1]),
            dst_mac: MacAddr([2, 0, 0, 0, 0, 2]),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 40000,
            dst_port: 179,
        };
        let cfg = ChannelConfig { rto: SimDuration::from_millis(50), window: 8 };
        let mut a = Endpoint::connect(cfg);
        let mut b = Endpoint::listen(cfg);
        a.send(payload.clone());

        let mut delivered: Vec<Vec<u8>> = Vec::new();
        let mut first = true;
        for round in 0..20u64 {
            let now = SimTime::from_millis(round * 60);
            while let Some(seg) = tx(&mut a, now) {
                let mut frame = udp_frame(ep, 64, &seg);
                if first {
                    // Corrupt exactly one bit of the first frame on the
                    // wire, position chosen by the fuzzer.
                    first = false;
                    let idx = corrupt_bit as usize % (frame.len() * 8);
                    frame[idx / 8] ^= 1 << (idx % 8);
                }
                // The receive pipeline a node runs: parse (checksums
                // validate here), then check addressing, then hand the
                // segment to the channel (which drops malformed ones).
                match peek_udp_frame(&frame) {
                    Ok(Some(d))
                        if d.udp.dst_port == ep.dst_port
                            && d.udp.src_port == ep.src_port
                            && d.ip.src == ep.src_ip
                            && d.ip.dst == ep.dst_ip =>
                    {
                        // A malformed segment is dropped by the channel.
                        let _ = rx(&mut b, d.payload, now, &mut delivered);
                    }
                    // Checksum failure, foreign ethertype, or misrouted
                    // datagram: dropped on the floor, like real hardware.
                    _ => {}
                }
            }
            while let Some(seg) = tx(&mut b, now) {
                let _ = rx(&mut a, &seg, now, &mut Vec::new());
            }
            if !delivered.is_empty() {
                break;
            }
        }
        prop_assert_eq!(delivered, vec![payload]);
    }

    /// Quantization never shrinks a duration and always lands on a
    /// multiple of the quantum.
    #[test]
    fn quantize_up_properties(ns in any::<u32>(), quantum_us in 1u64..1000) {
        let d = SimDuration::from_nanos(ns as u64);
        let q = SimDuration::from_micros(quantum_us);
        let out = d.quantize_up(q);
        prop_assert!(out >= d);
        prop_assert_eq!(out.as_nanos() % q.as_nanos(), 0);
        prop_assert!(out - d < q);
    }

    /// `Ipv4Prefix`'s order is the lexicographic `(bits, len)` order and
    /// agrees with `Eq`, over random prefixes, the default route, /32s
    /// and equal bits at different lengths.
    #[test]
    fn prefix_order_is_bits_then_len(
        pairs in vec(
            (
                prop_oneof![
                    arb_prefix(),
                    arb_nested_prefix(),
                    Just(Ipv4Prefix::DEFAULT),
                    arb_ip().prop_map(Ipv4Prefix::host),
                ],
                prop_oneof![arb_prefix(), arb_nested_prefix(), Just(Ipv4Prefix::DEFAULT)],
                0u8..=32,
            ),
            1..64,
        ),
    ) {
        for (a, b, len) in pairs {
            // `same_bits` shares `a`'s network bits where its length allows.
            let same_bits = Ipv4Prefix::new(a.network(), len);
            for (x, y) in [(a, b), (a, same_bits), (same_bits, a), (a, a)] {
                let lexicographic = (x.raw_bits(), x.len()).cmp(&(y.raw_bits(), y.len()));
                prop_assert_eq!(x.cmp(&y), lexicographic, "{:?} vs {:?}", x, y);
                prop_assert_eq!(x.partial_cmp(&y), Some(lexicographic));
                prop_assert_eq!(x == y, lexicographic.is_eq());
            }
        }
    }
}

/// The canonical corruption narrative, step by step: a payload byte of
/// an in-flight segment is damaged, the UDP pseudo-header checksum
/// rejects the frame at parse time, the segment is therefore never fed
/// to the channel, and the sender's RTO retransmission delivers the
/// message intact on the next round.
#[test]
fn payload_corruption_is_detected_dropped_and_repaired_by_retransmit() {
    let ep = UdpEndpoints {
        src_mac: MacAddr([2, 0, 0, 0, 0, 1]),
        dst_mac: MacAddr([2, 0, 0, 0, 0, 2]),
        src_ip: Ipv4Addr::new(10, 0, 0, 1),
        dst_ip: Ipv4Addr::new(10, 0, 0, 2),
        src_port: 40000,
        dst_port: 179,
    };
    let cfg = ChannelConfig {
        rto: SimDuration::from_millis(50),
        window: 8,
    };
    let mut a = Endpoint::connect(cfg);
    let mut b = Endpoint::listen(cfg);
    a.send(b"flow-mod batch 7".to_vec());

    // First transmission: corrupt a byte *inside the UDP payload*
    // (eth 14 + ip 20 + udp 8 = offset 42 onward) — the checksum must
    // catch it and the parse must fail.
    let t0 = SimTime::from_millis(0);
    let seg = tx(&mut a, t0).expect("segment due");
    let mut frame = udp_frame(ep, 64, &seg);
    frame[42] ^= 0x10;
    assert!(
        peek_udp_frame(&frame).is_err(),
        "corrupted payload must fail the UDP checksum"
    );
    // Nothing reached the receiver; drain the rest of the first flight
    // cleanly (flow control may have split the handshake across
    // segments) without delivering — the damaged segment is simply gone.
    while a.poll_transmit(t0).is_some() {}

    // Past the RTO the sender retransmits; this time the wire is clean
    // and the message arrives exactly once, intact.
    let t1 = t0 + SimDuration::from_millis(120);
    let mut delivered = Vec::new();
    for _ in 0..4 {
        while let Some(seg) = tx(&mut a, t1) {
            let frame = udp_frame(ep, 64, &seg);
            let d = peek_udp_frame(&frame).unwrap().expect("clean frame parses");
            rx(&mut b, d.payload, t1, &mut delivered).unwrap();
        }
        while let Some(seg) = tx(&mut b, t1) {
            rx(&mut a, &seg, t1, &mut Vec::new()).unwrap();
        }
    }
    assert_eq!(delivered, vec![b"flow-mod batch 7".to_vec()]);
}
