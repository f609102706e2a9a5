//! Property tests: control-message parse∘emit identity over arbitrary
//! matches/actions, and flow-table semantics against a naive model.

use proptest::collection::vec;
use proptest::prelude::*;
use sc_net::{Ipv4Prefix, MacAddr};
use sc_openflow::msg::{FlowModCommand, FlowStatsRow, OfMessage};
use sc_openflow::{Action, FlowEntry, FlowKey, FlowMatch, FlowTable};
use std::net::Ipv4Addr;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::from_octets)
}

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Ipv4Prefix::new(Ipv4Addr::from(a), l))
}

fn arb_match() -> impl Strategy<Value = FlowMatch> {
    (
        proptest::option::of(any::<u16>()),
        proptest::option::of(arb_mac()),
        proptest::option::of(arb_mac()),
        proptest::option::of(any::<u16>()),
        proptest::option::of(arb_prefix()),
        proptest::option::of(arb_prefix()),
        proptest::option::of(any::<u16>()),
        proptest::option::of(any::<u16>()),
    )
        .prop_map(
            |(in_port, eth_src, eth_dst, eth_type, ip_src, ip_dst, udp_src, udp_dst)| FlowMatch {
                in_port,
                eth_src,
                eth_dst,
                eth_type,
                ip_src,
                ip_dst,
                udp_src,
                udp_dst,
            },
        )
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        arb_mac().prop_map(Action::SetDstMac),
        arb_mac().prop_map(Action::SetSrcMac),
        any::<u16>().prop_map(Action::Output),
        Just(Action::Flood),
        Just(Action::ToController),
        Just(Action::Drop),
    ]
}

fn arb_key() -> impl Strategy<Value = FlowKey> {
    (
        any::<u16>(),
        arb_mac(),
        arb_mac(),
        any::<u16>(),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u16>()),
        proptest::option::of(any::<u16>()),
    )
        .prop_map(|(in_port, s, d, ty, ips, ipd, us, ud)| FlowKey {
            in_port,
            eth_src: s,
            eth_dst: d,
            eth_type: ty,
            ip_src: ips.map(Ipv4Addr::from),
            ip_dst: ipd.map(Ipv4Addr::from),
            udp_src: us,
            udp_dst: ud,
        })
}

proptest! {
    #[test]
    fn flow_mod_roundtrip(
        cmd in 0u8..3, prio in any::<u16>(), cookie in any::<u64>(),
        m in arb_match(), actions in vec(arb_action(), 0..6), xid in any::<u32>(),
    ) {
        let msg = OfMessage::FlowMod {
            command: match cmd { 0 => FlowModCommand::Add, 1 => FlowModCommand::Modify, _ => FlowModCommand::Delete },
            priority: prio,
            cookie,
            matcher: m,
            actions,
        };
        let enc = msg.encode(xid);
        let (x2, dec) = OfMessage::decode(&enc).unwrap();
        prop_assert_eq!(x2, xid);
        prop_assert_eq!(dec, msg);
    }

    #[test]
    fn stats_reply_roundtrip(
        lookups in any::<u64>(), misses in any::<u64>(),
        rows in vec((any::<u16>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..20),
    ) {
        let msg = OfMessage::StatsReply {
            lookups,
            misses,
            flows: rows.into_iter().map(|(priority, cookie, packets, bytes)| FlowStatsRow { priority, cookie, packets, bytes }).collect(),
        };
        let (_, dec) = OfMessage::decode(&msg.encode(7)).unwrap();
        prop_assert_eq!(dec, msg);
    }

    /// The table always returns the highest-priority matching entry
    /// (first-inserted among equals) — checked against brute force.
    #[test]
    fn table_lookup_matches_brute_force(
        entries in vec((any::<u16>(), arb_match(), vec(arb_action(), 0..3)), 0..24),
        keys in vec(arb_key(), 1..16),
    ) {
        let mut table = FlowTable::new();
        let mut model: Vec<FlowEntry> = Vec::new();
        for (i, (priority, matcher, actions)) in entries.into_iter().enumerate() {
            let e = FlowEntry { priority, cookie: i as u64, matcher, actions, stats: Default::default() };
            // Model ADD semantics: overwrite same (priority, match).
            if let Some(existing) = model.iter_mut().find(|x| x.priority == e.priority && x.matcher == e.matcher) {
                let stats = existing.stats;
                *existing = e.clone();
                existing.stats = stats;
            } else {
                model.push(e.clone());
            }
            table.add(e);
        }
        for key in keys {
            let brute = model
                .iter()
                .filter(|e| e.matcher.matches(&key))
                .max_by(|a, b| {
                    a.priority.cmp(&b.priority).then(
                        // earlier-inserted wins among equals: compare by
                        // position, reversed.
                        model.iter().position(|x| std::ptr::eq(x, *b)).cmp(
                            &model.iter().position(|x| std::ptr::eq(x, *a)),
                        ),
                    )
                })
                .map(|e| e.cookie);
            prop_assert_eq!(table.peek(&key).map(|e| e.cookie), brute);
        }
    }

    /// Barrier/ack and echo control messages survive encode→decode for
    /// arbitrary tokens, xids, and echo payloads — the acked
    /// flow-programming path depends on tokens round-tripping exactly.
    #[test]
    fn barrier_and_echo_roundtrip(
        token in any::<u64>(), xid in any::<u32>(),
        echo in vec(any::<u8>(), 0..48),
    ) {
        for msg in [
            OfMessage::BarrierRequest { token },
            OfMessage::BarrierReply { token },
            OfMessage::EchoRequest(echo.clone()),
            OfMessage::EchoReply(echo.clone()),
        ] {
            let enc = msg.encode(xid);
            let (x2, dec) = OfMessage::decode(&enc).unwrap();
            prop_assert_eq!(x2, xid);
            prop_assert_eq!(dec, msg);
        }
    }

    /// A wildcard-only match accepts every key; a fully-specified match
    /// accepts exactly its own key.
    #[test]
    fn match_specificity(key in arb_key()) {
        prop_assert!(FlowMatch::any().matches(&key));
        let exact = FlowMatch {
            in_port: Some(key.in_port),
            eth_src: Some(key.eth_src),
            eth_dst: Some(key.eth_dst),
            eth_type: Some(key.eth_type),
            ip_src: key.ip_src.map(Ipv4Prefix::host),
            ip_dst: key.ip_dst.map(Ipv4Prefix::host),
            udp_src: key.udp_src,
            udp_dst: key.udp_dst,
        };
        prop_assert!(exact.matches(&key));
        let mut other = key;
        other.in_port = key.in_port.wrapping_add(1);
        prop_assert!(!exact.matches(&other));
    }
}
