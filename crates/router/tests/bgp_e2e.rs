//! End-to-end legacy-router behavior over the simulated network:
//! session establishment through an L2 switch, full-feed loading,
//! data-plane forwarding, and the paper's stock convergence behavior
//! (BFD detection + linear FIB walk) — everything the non-supercharged
//! half of Fig. 5 relies on.

use sc_bfd::BfdConfig;
use sc_bgp::attrs::{AsPath, RouteAttrs};
use sc_bgp::msg::UpdateMsg;
use sc_bgp::AdjRibOut;
use sc_net::wire::{peek_udp_frame, udp_frame, UdpEndpoints};
use sc_net::{Ipv4Prefix, MacAddr, SimDuration, SimTime};
use sc_openflow::{OfSwitch, SwitchConfig};
use sc_router::{Calibration, Interface, LegacyRouter, PeerConfig, RouterConfig, StaticRoute};
use sc_sim::{Ctx, LinkParams, Node, NodeId, PortId, TimerToken, World};
use std::net::Ipv4Addr;

// ---------------------------------------------------------------- MACs/IPs

const MAC_R1: MacAddr = MacAddr::from_octets([0x02, 0x10, 0, 0, 0, 1]);
const MAC_R2: MacAddr = MacAddr::from_octets([0x02, 0x10, 0, 0, 0, 2]);
const MAC_R3: MacAddr = MacAddr::from_octets([0x02, 0x10, 0, 0, 0, 3]);
const MAC_SRC: MacAddr = MacAddr::from_octets([0x02, 0x10, 0, 0, 0, 0xa]);
const MAC_SINK: MacAddr = MacAddr::from_octets([0x02, 0x10, 0, 0, 0, 0xb]);

const IP_R1: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_R2: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const IP_R3: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const IP_SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const IP_SINK2: Ipv4Addr = Ipv4Addr::new(192, 168, 2, 100);
const IP_SINK3: Ipv4Addr = Ipv4Addr::new(192, 168, 3, 100);

fn lan() -> Ipv4Prefix {
    "10.0.0.0/24".parse().unwrap()
}

// ------------------------------------------------------------------- stubs

/// Sends scripted probe frames; records received frames with timestamps.
struct Host {
    name: String,
    script: Vec<(SimTime, Vec<u8>)>,
    port: PortId,
    received: Vec<(SimTime, Vec<u8>)>,
}

impl Host {
    fn new(name: &str) -> Host {
        Host {
            name: name.into(),
            script: Vec::new(),
            port: PortId(0),
            received: Vec::new(),
        }
    }
}

impl Node for Host {
    fn name(&self) -> &str {
        &self.name
    }
    #[allow(
        clippy::disallowed_methods,
        reason = "a test script of fixed instants: no deadline moves"
    )]
    fn on_start(&mut self, ctx: &mut Ctx) {
        for (i, (at, _)) in self.script.iter().enumerate() {
            ctx.set_timer_at(*at, TimerToken(i as u64));
        }
    }
    fn on_frame(&mut self, ctx: &mut Ctx, _port: PortId, frame: sc_net::Frame) {
        self.received.push((ctx.now(), frame.to_vec()));
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
        let (_, frame) = self.script[token.0 as usize].clone();
        let port = self.port;
        ctx.send_frame(port, frame);
    }
}

// ---------------------------------------------------------------- builders

/// `n_prefixes` synthetic /24s starting at 1.0.0.0, packed into UPDATEs
/// and seeded into an Adj-RIB-Out.
fn feed(n_prefixes: u32, next_hop: Ipv4Addr, first_as: u16) -> AdjRibOut {
    let prefixes: Vec<Ipv4Prefix> = (0..n_prefixes)
        .map(|i| Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000u32 + (i << 8)), 24))
        .collect();
    let attrs = RouteAttrs::ebgp(AsPath::sequence(vec![first_as, 174, 3356]), next_hop).shared();
    let updates: Vec<UpdateMsg> = prefixes
        .chunks(256)
        .map(|chunk| UpdateMsg::announce(attrs.clone(), chunk.to_vec()))
        .collect();
    AdjRibOut::from_updates(&updates)
}

struct Lab {
    world: World,
    r1: NodeId,
    r2: NodeId,
    r3: NodeId,
    sink2: NodeId,
    sink3: NodeId,
    source: NodeId,
    r2_switch_link: sc_sim::LinkId,
}

/// The Fig. 4 topology without the supercharger: R1, R2, R3 on an L2
/// switch; R2/R3 statically default-route to their own sinks; a probe
/// source sits on the LAN.
fn build(n_prefixes: u32, with_bfd: bool, cal: Calibration) -> Lab {
    let mut world = World::new(7);
    let lanp = LinkParams::gigabit(SimDuration::from_micros(10));

    let sw = world.add_node(OfSwitch::new(SwitchConfig::paper_defaults("hp-e3800")));
    let r1 = world.add_node(LegacyRouter::new(RouterConfig {
        name: "r1-nexus7k".into(),
        asn: 65001,
        router_id: Ipv4Addr::new(1, 1, 1, 1),
        cal,
    }));
    let r2 = world.add_node(LegacyRouter::new(RouterConfig {
        name: "r2-provider1".into(),
        asn: 65002,
        router_id: Ipv4Addr::new(2, 2, 2, 2),
        cal: Calibration::instant(), // providers' own FIBs are not under test
    }));
    let r3 = world.add_node(LegacyRouter::new(RouterConfig {
        name: "r3-provider2".into(),
        asn: 65003,
        router_id: Ipv4Addr::new(3, 3, 3, 3),
        cal: Calibration::instant(),
    }));
    let source = world.add_node(Host::new("fpga-source"));
    let sink2 = world.add_node(Host::new("sink-via-r2"));
    let sink3 = world.add_node(Host::new("sink-via-r3"));

    let (_, sw_r1, r1_port) = world.connect(sw, r1, lanp);
    let (r2_link, sw_r2, r2_port) = world.connect(sw, r2, lanp);
    let (_, sw_r3, r3_port) = world.connect(sw, r3, lanp);
    let (_, sw_src, src_port) = world.connect(sw, source, lanp);
    let (_, r2_sink_port, _) = world.connect(r2, sink2, lanp);
    let (_, r3_sink_port, _) = world.connect(r3, sink3, lanp);

    for p in [sw_r1, sw_r2, sw_r3, sw_src] {
        world.node_mut::<OfSwitch>(sw).register_data_port(p);
    }
    world.node_mut::<Host>(source).port = src_port;

    // --- R1: edge router preferring R2 ($) over R3 ($$) ---
    {
        let r1n = world.node_mut::<LegacyRouter>(r1);
        r1n.add_interface(Interface {
            port: r1_port,
            ip: IP_R1,
            mac: MAC_R1,
            subnet: lan(),
        });
        r1n.add_peer(PeerConfig {
            local_pref: 200,
            local_port: 40000,
            remote_port: 179,
            bfd: with_bfd.then(|| BfdConfig::paper_defaults(12)),
            ..PeerConfig::ebgp(IP_R2, MAC_R2, true)
        });
        r1n.add_peer(PeerConfig {
            local_pref: 100,
            local_port: 40001,
            remote_port: 179,
            ..PeerConfig::ebgp(IP_R3, MAC_R3, true)
        });
    }
    // --- R2: provider 1, originates the feed, defaults to its sink ---
    {
        let r2n = world.node_mut::<LegacyRouter>(r2);
        r2n.add_interface(Interface {
            port: r2_port,
            ip: IP_R2,
            mac: MAC_R2,
            subnet: lan(),
        });
        r2n.add_interface(Interface {
            port: r2_sink_port,
            ip: Ipv4Addr::new(192, 168, 2, 1),
            mac: MacAddr::from_octets([0x02, 0x20, 0, 0, 0, 2]),
            subnet: "192.168.2.0/24".parse().unwrap(),
        });
        r2n.add_static_arp(IP_SINK2, MAC_SINK);
        r2n.add_static_route(StaticRoute {
            prefix: Ipv4Prefix::DEFAULT,
            next_hop: IP_SINK2,
        });
        r2n.add_peer(PeerConfig {
            local_port: 179,
            remote_port: 40000,
            bfd: with_bfd.then(|| BfdConfig::paper_defaults(21)),
            originate: feed(n_prefixes, IP_R2, 65002),
            ..PeerConfig::ebgp(IP_R1, MAC_R1, false)
        });
    }
    // --- R3: provider 2, same feed, defaults to its sink ---
    {
        let r3n = world.node_mut::<LegacyRouter>(r3);
        r3n.add_interface(Interface {
            port: r3_port,
            ip: IP_R3,
            mac: MAC_R3,
            subnet: lan(),
        });
        r3n.add_interface(Interface {
            port: r3_sink_port,
            ip: Ipv4Addr::new(192, 168, 3, 1),
            mac: MacAddr::from_octets([0x02, 0x20, 0, 0, 0, 3]),
            subnet: "192.168.3.0/24".parse().unwrap(),
        });
        r3n.add_static_arp(IP_SINK3, MAC_SINK);
        r3n.add_static_route(StaticRoute {
            prefix: Ipv4Prefix::DEFAULT,
            next_hop: IP_SINK3,
        });
        r3n.add_peer(PeerConfig {
            local_port: 179,
            remote_port: 40001,
            originate: feed(n_prefixes, IP_R3, 65003),
            ..PeerConfig::ebgp(IP_R1, MAC_R1, false)
        });
    }
    Lab {
        world,
        r1,
        r2,
        r3,
        sink2,
        sink3,
        source,
        r2_switch_link: r2_link,
    }
}

fn probe(dst: Ipv4Addr, marker: u16) -> Vec<u8> {
    // 64-byte-class UDP probe addressed (L2) to R1, like the FPGA source.
    udp_frame(
        UdpEndpoints {
            src_mac: MAC_SRC,
            dst_mac: MAC_R1,
            src_ip: IP_SRC,
            dst_ip: dst,
            src_port: 49152,
            dst_port: marker,
        },
        64,
        &[0xab; 18],
    )
}

// ------------------------------------------------------------------- tests

#[test]
fn sessions_establish_and_feed_converges() {
    let mut lab = build(500, false, Calibration::nexus7k());
    lab.world.run_until(SimTime::from_secs(10));
    let r1 = lab.world.node::<LegacyRouter>(lab.r1);
    assert_eq!(
        r1.peer_session_state(IP_R2),
        Some(sc_bgp::SessionState::Established)
    );
    assert_eq!(
        r1.peer_session_state(IP_R3),
        Some(sc_bgp::SessionState::Established)
    );
    assert!(r1.is_quiescent(), "FIB walker drained");
    // 500 feed prefixes + 1 connected subnet.
    assert_eq!(r1.fib().len(), 501);
    assert_eq!(r1.rib().prefix_count(), 500);
    assert_eq!(r1.rib().route_count(), 1000, "two candidates per prefix");
    // Everything prefers R2 (local-pref 200).
    let first: Ipv4Prefix = "1.0.0.0/24".parse().unwrap();
    assert_eq!(r1.fib().get(first).unwrap().next_hop, IP_R2);
    let best = r1.rib().best(first).unwrap();
    assert_eq!(best.peer, IP_R2);
    assert_eq!(r1.rib().candidates(first)[1].peer, IP_R3);
}

#[test]
fn data_plane_forwards_through_preferred_provider() {
    let mut lab = build(100, false, Calibration::nexus7k());
    // Probe at t=10s (after convergence) toward a feed prefix.
    lab.world.node_mut::<Host>(lab.source).script = vec![
        (SimTime::from_secs(10), probe(Ipv4Addr::new(1, 0, 5, 1), 1)),
        (
            SimTime::from_secs(10),
            probe(Ipv4Addr::new(99, 99, 99, 99), 2),
        ), // no route
    ];
    lab.world.run_until(SimTime::from_secs(11));
    let sink2 = lab.world.node::<Host>(lab.sink2);
    assert_eq!(sink2.received.len(), 1, "routed probe reached R2's sink");
    let d = peek_udp_frame(&sink2.received[0].1).unwrap().unwrap();
    assert_eq!(d.ip.dst, Ipv4Addr::new(1, 0, 5, 1));
    assert_eq!(d.eth.dst, MAC_SINK);
    assert_eq!(d.ip.ttl, 62, "two router hops decrement TTL twice");
    assert!(lab.world.node::<Host>(lab.sink3).received.is_empty());
    let r1 = lab.world.node::<LegacyRouter>(lab.r1);
    assert_eq!(r1.stats.dropped_no_route, 1, "unroutable probe dropped");
}

#[test]
fn bfd_failure_triggers_linear_fib_walk_to_backup() {
    let n: u32 = 1_000;
    let mut lab = build(n, true, Calibration::nexus7k());
    lab.world.run_until(SimTime::from_secs(10));
    assert!(lab.world.node::<LegacyRouter>(lab.r1).is_quiescent());

    // Pull R2's cable at exactly t=10s (the paper disconnects R2 from
    // the switch).
    let link = lab.r2_switch_link;
    lab.world.schedule(SimTime::from_secs(10), move |w| {
        w.set_link_up(link, false);
    });
    lab.world.run_until(SimTime::from_secs(30));

    let r1 = lab.world.node::<LegacyRouter>(lab.r1);
    // BFD detected the failure within its 90ms budget.
    let down_at = r1
        .events
        .iter()
        .find_map(|(t, e)| match e {
            sc_router::node::RouterEvent::PeerDown { peer, reason } if *peer == IP_R2 => {
                assert_eq!(
                    *reason,
                    sc_bgp::session::DownReason::BfdDown,
                    "BFD teardown must be logged as BfdDown, not AdminDown"
                );
                Some(*t)
            }
            _ => None,
        })
        .expect("peer down observed");
    let detection = down_at - SimTime::from_secs(10);
    assert!(
        detection <= SimDuration::from_millis(91),
        "BFD detection took {detection}"
    );
    // All prefixes now point at R3.
    assert!(r1.is_quiescent());
    let first: Ipv4Prefix = "1.0.0.0/24".parse().unwrap();
    assert_eq!(r1.fib().get(first).unwrap().next_hop, IP_R3);
    let mut checked = 0;
    for (_, entry) in r1.fib().iter() {
        if entry.next_hop == IP_R3 {
            checked += 1;
        }
    }
    assert_eq!(checked, n as usize);
    // The walk took ≈ detection + 285ms + n × 281µs (±jitter): the
    // calibrated linear model of Fig. 5.
    let walk_done = r1.walker().last_apply_at.expect("walker ran");
    let total = walk_done - SimTime::from_secs(10);
    let expected = Calibration::nexus7k().expected_full_walk(n as u64);
    let lo = expected.as_nanos() as f64 * 0.85;
    let hi = expected.as_nanos() as f64 * 1.25;
    let got = total.as_nanos() as f64;
    assert!(
        got >= lo && got <= hi,
        "stock convergence {total} vs model {expected}"
    );
}

#[test]
fn without_bfd_detection_waits_for_hold_timer() {
    let mut lab = build(50, false, Calibration::nexus7k());
    lab.world.run_until(SimTime::from_secs(10));
    let link = lab.r2_switch_link;
    lab.world.schedule(SimTime::from_secs(10), move |w| {
        w.set_link_up(link, false);
    });
    // The hold timer runs from the last received BGP message. The feed
    // completes within the first second and the cut at t=10s swallows
    // all later keepalives, so expiry lands shortly after t≈90.6s.
    // Before that, nothing may be detected.
    lab.world.run_until(SimTime::from_secs(85));
    {
        let r1 = lab.world.node::<LegacyRouter>(lab.r1);
        assert!(
            r1.events.iter().all(
                |(_, e)| !matches!(e, sc_router::node::RouterEvent::PeerDown { peer, .. } if *peer == IP_R2)
            ),
            "no BFD: peer still considered up before hold expiry"
        );
        let first: Ipv4Prefix = "1.0.0.0/24".parse().unwrap();
        assert_eq!(
            r1.fib().get(first).unwrap().next_hop,
            IP_R2,
            "traffic still blackholed"
        );
    }
    lab.world.run_until(SimTime::from_secs(140));
    let r1 = lab.world.node::<LegacyRouter>(lab.r1);
    let down_at = r1
        .events
        .iter()
        .find_map(|(t, e)| match e {
            sc_router::node::RouterEvent::PeerDown { peer, reason } if *peer == IP_R2 => {
                assert_eq!(*reason, sc_bgp::session::DownReason::HoldTimerExpired);
                Some(*t)
            }
            _ => None,
        })
        .expect("hold timer eventually fired");
    assert!(
        down_at >= SimTime::from_secs(90) && down_at <= SimTime::from_secs(95),
        "hold expiry expected shortly after t=90s, got {down_at}"
    );
    let first: Ipv4Prefix = "1.0.0.0/24".parse().unwrap();
    assert_eq!(r1.fib().get(first).unwrap().next_hop, IP_R3);
}

#[test]
fn injections_while_session_down_still_update_adj_rib_out() {
    // The Adj-RIB-Out is advertised *intent*: a withdraw injected while
    // the session is down must not be forgotten — the restart replay
    // carries the post-withdraw state, not the boot-time feed.
    let mut r = LegacyRouter::new(RouterConfig {
        name: "r2".into(),
        asn: 65002,
        router_id: Ipv4Addr::new(2, 2, 2, 2),
        cal: Calibration::instant(),
    });
    r.add_interface(Interface {
        port: PortId(0),
        ip: IP_R2,
        mac: MAC_R2,
        subnet: lan(),
    });
    r.add_peer(PeerConfig {
        local_port: 179,
        remote_port: 40000,
        originate: feed(10, IP_R2, 65002),
        ..PeerConfig::ebgp(IP_R1, MAC_R1, false)
    });
    assert_eq!(r.adj_rib_out_len(IP_R1), Some(10));
    let withdraw = UpdateMsg::withdraw(vec!["1.0.0.0/24".parse().unwrap()]);
    let tokens = r.inject_updates(&[withdraw]);
    assert!(
        tokens.is_empty(),
        "session down: nothing queued on the wire"
    );
    assert_eq!(
        r.adj_rib_out_len(IP_R1),
        Some(9),
        "withdraw recorded for the next replay"
    );
}

#[test]
fn flap_reestablishes_and_reannounces_feed_once_per_establishment() {
    // The RFC 4271 restart cycle end-to-end: cut R2's cable, let BFD
    // tear the session down, restore the cable, and require (a) the
    // session re-establishes over a fresh transport, (b) R2 replays its
    // Adj-RIB-Out exactly once per establishment, and (c) R1's FIB
    // converges back to R2 — the behavior the old one-shot `feed_sent`
    // latch made impossible.
    let n: u32 = 300;
    let mut lab = build(n, true, Calibration::nexus7k());
    lab.world.run_until(SimTime::from_secs(10));
    let link = lab.r2_switch_link;
    lab.world
        .schedule(SimTime::from_secs(10), move |w| w.set_link_up(link, false));
    lab.world
        .schedule(SimTime::from_secs(11), move |w| w.set_link_up(link, true));
    lab.world.run_until(SimTime::from_secs(25));

    let r2 = lab.world.node::<LegacyRouter>(lab.r2);
    assert_eq!(
        r2.peer_establishments(IP_R1),
        Some(2),
        "one establishment per restart cycle"
    );
    let feeds_sent = r2
        .events
        .iter()
        .filter(|(_, e)| {
            matches!(e, sc_router::node::RouterEvent::FeedAnnounced { peer, .. } if *peer == IP_R1)
        })
        .count();
    assert_eq!(
        feeds_sent, 2,
        "feed replayed exactly once per establishment"
    );
    assert_eq!(r2.adj_rib_out_len(IP_R1), Some(n as usize));

    // The bystander session was untouched by R2's flap.
    let r3 = lab.world.node::<LegacyRouter>(lab.r3);
    assert_eq!(r3.peer_establishments(IP_R1), Some(1));

    let r1 = lab.world.node::<LegacyRouter>(lab.r1);
    assert_eq!(
        r1.peer_session_state(IP_R2),
        Some(sc_bgp::SessionState::Established),
        "session back up after the flap"
    );
    assert_eq!(r1.peer_establishments(IP_R2), Some(2));
    // Down (BFD) then up again, visible in the event log.
    let downs = r1
        .events
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                sc_router::node::RouterEvent::PeerDown {
                    peer,
                    reason: sc_bgp::session::DownReason::BfdDown,
                } if *peer == IP_R2
            )
        })
        .count();
    assert_eq!(downs, 1, "exactly one BFD teardown");
    // The RIB re-learned R2's routes and the FIB walked back to it.
    assert!(r1.is_quiescent());
    let first: Ipv4Prefix = "1.0.0.0/24".parse().unwrap();
    assert_eq!(
        r1.fib().get(first).unwrap().next_hop,
        IP_R2,
        "converged back to the preferred provider"
    );
    assert_eq!(r1.rib().route_count(), 2 * n as usize, "both feeds present");
}

#[test]
fn provider_failure_data_plane_blackhole_then_recovery() {
    // The full stock story, measured at the data plane: probes flow via
    // R2's sink, stall during the walk, then arrive at R3's sink.
    let mut lab = build(200, true, Calibration::nexus7k());
    let dst = Ipv4Addr::new(1, 0, 10, 1); // prefix #10 of the feed
    let script: Vec<(SimTime, Vec<u8>)> = (0..200u64)
        .map(|i| {
            (
                SimTime::from_secs(9) + SimDuration::from_millis(i * 10),
                probe(dst, 7),
            )
        })
        .collect();
    lab.world.node_mut::<Host>(lab.source).script = script;
    let link = lab.r2_switch_link;
    lab.world.schedule(SimTime::from_secs(10), move |w| {
        w.set_link_up(link, false);
    });
    lab.world.run_until(SimTime::from_secs(12));
    let sink2 = lab.world.node::<Host>(lab.sink2);
    let sink3 = lab.world.node::<Host>(lab.sink3);
    assert!(!sink2.received.is_empty(), "pre-failure probes via R2");
    assert!(
        sink2
            .received
            .iter()
            .all(|(t, _)| *t <= SimTime::from_secs(10)),
        "nothing reaches R2's sink after the cut"
    );
    assert!(!sink3.received.is_empty(), "post-recovery probes via R3");
    let first_via_r3 = sink3.received.first().unwrap().0;
    let gap = first_via_r3 - SimTime::from_secs(10);
    // Recovery for one of 200 prefixes: detection + processing + walk
    // position; must be between 300ms and ~500ms.
    assert!(
        gap >= SimDuration::from_millis(300) && gap <= SimDuration::from_millis(500),
        "stock recovery took {gap}"
    );
}
