//! End-to-end switch behavior: L2 learning, the controller handshake,
//! flow installation latency, barriers, PACKET_IN/OUT and failover-style
//! flow modification — all over the real simulated network.

mod common;

use common::{build, probe_frame, Host, Lab, StubController, CTRL_MAC, MAC_A, MAC_B};
use proptest::collection::vec;
use proptest::prelude::*;
use sc_net::wire::peek_udp_frame;
use sc_net::{MacAddr, SimDuration, SimTime};
use sc_openflow::msg::{FlowModCommand, OfMessage};
use sc_openflow::{Action, FlowMatch, OfSwitch};
use sc_sim::{PortId, TimerToken};

// ----------------------------------------------------------------- tests

#[test]
fn l2_learning_floods_then_forwards() {
    let mut lab = build();
    // A -> B (unknown): flood. B -> A (A now known): direct. A -> B again:
    // direct.
    lab.world.node_mut::<Host>(lab.host_a).script = vec![
        (
            SimTime::from_millis(1),
            PortId(0),
            probe_frame(MAC_A, MAC_B, 1),
        ),
        (
            SimTime::from_millis(3),
            PortId(0),
            probe_frame(MAC_A, MAC_B, 3),
        ),
    ];
    lab.world.node_mut::<Host>(lab.host_b).script = vec![(
        SimTime::from_millis(2),
        PortId(0),
        probe_frame(MAC_B, MAC_A, 2),
    )];
    lab.world.run_until(SimTime::from_millis(10));

    let b = lab.world.node::<Host>(lab.host_b);
    let markers_b: Vec<u8> = b.received.iter().map(|(_, f)| f[f.len() - 1]).collect();
    assert_eq!(markers_b, vec![1, 3], "B saw both frames from A");
    let a = lab.world.node::<Host>(lab.host_a);
    let markers_a: Vec<u8> = a.received.iter().map(|(_, f)| f[f.len() - 1]).collect();
    assert_eq!(markers_a, vec![2]);
    // First frame flooded (B unknown), later ones switched directly.
    let sw = lab.world.node::<OfSwitch>(lab.sw);
    assert_eq!(sw.stats.flooded, 1);
    assert_eq!(sw.l2_table().len(), 2);
}

#[test]
fn controller_handshake_features() {
    let mut lab = build();
    lab.world.node_mut::<StubController>(lab.ctrl).script = vec![
        (SimTime::from_millis(1), OfMessage::Hello),
        (SimTime::from_millis(2), OfMessage::FeaturesRequest),
        (SimTime::from_millis(3), OfMessage::EchoRequest(vec![9, 9])),
    ];
    lab.world.run_until(SimTime::from_millis(20));
    let ctrl = lab.world.node::<StubController>(lab.ctrl);
    let kinds: Vec<&OfMessage> = ctrl.received.iter().map(|(_, _, m)| m).collect();
    assert!(kinds.iter().any(|m| matches!(m, OfMessage::Hello)));
    assert!(kinds.iter().any(|m| matches!(
        m,
        OfMessage::FeaturesReply {
            datapath_id: 0xe3800,
            n_ports: 3
        }
    )));
    assert!(kinds
        .iter()
        .any(|m| matches!(m, OfMessage::EchoReply(d) if d == &vec![9, 9])));
}

#[test]
fn flow_install_latency_gates_rule_application() {
    let mut lab = build();
    let vmac = MacAddr::virtual_mac(1);
    // Install at t=1ms a rule rewriting VMAC -> MAC_B, output port B.
    lab.world.node_mut::<StubController>(lab.ctrl).script = vec![(
        SimTime::from_millis(1),
        OfMessage::FlowMod {
            command: FlowModCommand::Add,
            priority: 100,
            cookie: 1,
            matcher: FlowMatch::dst_mac(vmac),
            actions: vec![
                Action::SetDstMac(MAC_B),
                Action::Output(lab.sw_port_b.0 as u16),
            ],
        },
    )];
    // Probe before install completes (t=2ms < 1ms + 15ms base) and after.
    lab.world.node_mut::<Host>(lab.host_a).script = vec![
        (
            SimTime::from_millis(2),
            PortId(0),
            probe_frame(MAC_A, vmac, 1),
        ),
        (
            SimTime::from_millis(30),
            PortId(0),
            probe_frame(MAC_A, vmac, 2),
        ),
    ];
    lab.world.run_until(SimTime::from_millis(50));
    // Before the install the VMAC is an unknown destination: the probe
    // floods as it came. After it, the rule rewrites the VMAC to B's
    // real MAC.
    let b = lab.world.node::<Host>(lab.host_b);
    let seen: Vec<(u8, MacAddr)> = b
        .received
        .iter()
        .map(|(_, f)| (f[f.len() - 1], peek_udp_frame(f).unwrap().unwrap().eth.dst))
        .collect();
    assert_eq!(seen, vec![(1, vmac), (2, MAC_B)]);
    assert!(b.received[1].0 >= SimTime::from_millis(30));
    let sw = lab.world.node::<OfSwitch>(lab.sw);
    assert_eq!((sw.stats.flooded, sw.stats.dropped), (1, 0));
}

#[test]
fn modify_redirects_traffic_like_failover() {
    let mut lab = build();
    let vmac = MacAddr::virtual_mac(7);
    let ctrl = lab.world.node_mut::<StubController>(lab.ctrl);
    ctrl.script = vec![
        (
            SimTime::from_millis(1),
            OfMessage::FlowMod {
                command: FlowModCommand::Add,
                priority: 100,
                cookie: 7,
                matcher: FlowMatch::dst_mac(vmac),
                actions: vec![
                    Action::SetDstMac(MAC_A),
                    Action::Output(lab.sw_port_a.0 as u16),
                ],
            },
        ),
        // Failover at t=50ms: same match, now to B.
        (
            SimTime::from_millis(50),
            OfMessage::FlowMod {
                command: FlowModCommand::Modify,
                priority: 100,
                cookie: 7,
                matcher: FlowMatch::dst_mac(vmac),
                actions: vec![
                    Action::SetDstMac(MAC_B),
                    Action::Output(lab.sw_port_b.0 as u16),
                ],
            },
        ),
    ];
    // host_b probes continuously toward the VMAC.
    let frames: Vec<(SimTime, PortId, Vec<u8>)> = (0..10)
        .map(|i| {
            (
                SimTime::from_millis(20 + i * 10),
                PortId(0),
                probe_frame(MAC_B, vmac, i as u8),
            )
        })
        .collect();
    lab.world.node_mut::<Host>(lab.host_b).script = frames;
    lab.world.run_until(SimTime::from_millis(200));

    let a = lab.world.node::<Host>(lab.host_a);
    let b = lab.world.node::<Host>(lab.host_b);
    assert!(!a.received.is_empty(), "pre-failover traffic went to A");
    assert!(!b.received.is_empty(), "post-failover traffic went to B");
    // All of A's frames arrived before all of B's (single switchover).
    let last_a = a.received.last().unwrap().0;
    let first_b = b.received.first().unwrap().0;
    assert!(
        last_a < first_b,
        "no interleaving across the failover point"
    );
}

#[test]
fn barrier_completes_after_pending_installs() {
    let mut lab = build();
    let t0 = SimTime::from_millis(1);
    lab.world.node_mut::<StubController>(lab.ctrl).script = vec![
        (
            t0,
            OfMessage::FlowMod {
                command: FlowModCommand::Add,
                priority: 1,
                cookie: 0,
                matcher: FlowMatch::any(),
                actions: vec![Action::Drop],
            },
        ),
        (t0, OfMessage::BarrierRequest { token: 42 }),
    ];
    lab.world.run_until(SimTime::from_millis(100));
    let ctrl = lab.world.node::<StubController>(lab.ctrl);
    let barrier = ctrl
        .received
        .iter()
        .find(|(_, _, m)| matches!(m, OfMessage::BarrierReply { token: 42 }))
        .expect("barrier reply received");
    // Barrier must not complete before the 15ms install finishes.
    assert!(barrier.0 >= t0 + SimDuration::from_millis(15));
}

#[test]
fn stale_install_timer_does_not_arm_a_duplicate() {
    // Two pipelined installs (done at ~16 ms and one per-rule cost later)
    // and, in one of the two runs, a superseded `TIMER_INSTALL` fire
    // while they are pending. It must cost exactly itself: a stale fire
    // that forgot the pending timer would re-arm the 16 ms deadline a
    // second time, and the duplicate would re-arm every later one.
    const TIMER_INSTALL: TimerToken = TimerToken(2); // private to switch.rs
    let timers_at_switch = |stale_fire: bool| {
        let mut lab = build();
        let add = |priority| OfMessage::FlowMod {
            command: FlowModCommand::Add,
            priority,
            cookie: 0,
            matcher: FlowMatch::any(),
            actions: vec![Action::Drop],
        };
        let t0 = SimTime::from_millis(1);
        lab.world.node_mut::<StubController>(lab.ctrl).script = vec![(t0, add(1)), (t0, add(2))];
        if stale_fire {
            lab.world
                .wake_node(SimTime::from_millis(5), lab.sw, TIMER_INSTALL);
        }
        lab.world.run_until(SimTime::from_millis(100));
        let sw = lab.world.node::<OfSwitch>(lab.sw);
        assert_eq!(sw.stats.flow_mods_applied, 2);
        assert_eq!(sw.pending_ops(), 0);
        lab.world.node_stats(lab.sw).timers_fired
    };
    assert_eq!(timers_at_switch(true), timers_at_switch(false) + 1);
}

#[test]
fn packet_in_and_packet_out_roundtrip() {
    let mut lab = build();
    // Rule: anything from MAC_A goes to the controller (the ARP-resolver
    // punt path). Later, the controller injects a frame toward host B.
    lab.world.node_mut::<StubController>(lab.ctrl).script = vec![
        (
            SimTime::from_millis(1),
            OfMessage::FlowMod {
                command: FlowModCommand::Add,
                priority: 10,
                cookie: 0,
                matcher: FlowMatch {
                    eth_src: Some(MAC_A),
                    ..FlowMatch::default()
                },
                actions: vec![Action::ToController],
            },
        ),
        (
            SimTime::from_millis(60),
            OfMessage::PacketOut {
                actions: vec![Action::Output(lab.sw_port_b.0 as u16)],
                frame: probe_frame(CTRL_MAC, MAC_B, 9),
            },
        ),
    ];
    lab.world.node_mut::<Host>(lab.host_a).script = vec![(
        SimTime::from_millis(30),
        PortId(0),
        probe_frame(MAC_A, MacAddr::BROADCAST, 5),
    )];
    lab.world.run_until(SimTime::from_millis(200));

    let ctrl = lab.world.node::<StubController>(lab.ctrl);
    let (_, _, pkt_in) = ctrl
        .received
        .iter()
        .find(|(_, _, m)| matches!(m, OfMessage::PacketIn { .. }))
        .expect("controller got PACKET_IN");
    match pkt_in {
        OfMessage::PacketIn { in_port, frame } => {
            assert_eq!(*in_port, lab.sw_port_a.0 as u16);
            assert_eq!(frame[frame.len() - 1], 5);
        }
        _ => unreachable!(),
    }
    let b = lab.world.node::<Host>(lab.host_b);
    assert_eq!(b.received.len(), 1, "PACKET_OUT was forwarded to host B");
    let (_, frame) = &b.received[0];
    assert_eq!(frame[frame.len() - 1], 9);
}

#[test]
fn port_status_reported_on_carrier_loss() {
    let mut lab = build();
    // Handshake first so the channel is up.
    lab.world.node_mut::<StubController>(lab.ctrl).script =
        vec![(SimTime::from_millis(1), OfMessage::Hello)];
    let host_b = lab.host_b;
    let sw = lab.sw;
    lab.world.schedule(SimTime::from_millis(10), move |w| {
        w.crash_node(host_b);
        let _ = sw;
    });
    lab.world.run_until(SimTime::from_millis(100));
    let ctrl = lab.world.node::<StubController>(lab.ctrl);
    let port_down = ctrl.received.iter().find_map(|(t, _, m)| match m {
        OfMessage::PortStatus { port, up: false } => Some((*t, *port)),
        _ => None,
    });
    let (t, port) = port_down.expect("controller learned about the dead port");
    assert_eq!(port, lab.sw_port_b.0 as u16);
    assert!(t >= SimTime::from_millis(10));
}

// ------------------------------------------------- L2 learning, memoised
//
// The switch skips the map write when a port repeats the source MAC it
// last taught. From outside, the table must read as if every frame had
// been inserted.

const MAC_X: MacAddr = MacAddr([2, 0, 0, 0, 0, 0x77]);

/// Host `host` sends one frame from `src` at `at_ms`.
fn say(lab: &mut Lab, host: sc_sim::NodeId, at_ms: u64, src: MacAddr) {
    lab.world.node_mut::<Host>(host).script.push((
        SimTime::from_millis(at_ms),
        PortId(0),
        probe_frame(src, MAC_B, 0),
    ));
}

fn learned(lab: &Lab, mac: MacAddr) -> Option<PortId> {
    lab.world
        .node::<OfSwitch>(lab.sw)
        .l2_table()
        .get(&mac)
        .copied()
}

#[test]
fn l2_follows_a_mac_that_moves_away_and_back() {
    let mut lab = build();
    let (a, b) = (lab.host_a, lab.host_b);
    // Twice on A (the second is the memo hit), then B, then A again: the
    // memo A holds from before the move must not swallow the return.
    say(&mut lab, a, 1, MAC_X);
    say(&mut lab, a, 2, MAC_X);
    say(&mut lab, b, 3, MAC_X);
    say(&mut lab, a, 4, MAC_X);
    for (until_ms, port) in [
        (2, lab.sw_port_a),
        (3, lab.sw_port_a),
        (4, lab.sw_port_b),
        (5, lab.sw_port_a),
    ] {
        lab.world.run_until(SimTime::from_millis(until_ms));
        assert_eq!(learned(&lab, MAC_X), Some(port), "by {until_ms} ms");
    }
}

#[test]
fn port_down_purges_and_port_up_relearns_from_the_next_frame() {
    let mut lab = build();
    let a = lab.host_a;
    say(&mut lab, a, 1, MAC_A);
    say(&mut lab, a, 4, MAC_A);
    lab.world.run_until(SimTime::from_millis(2));
    assert_eq!(learned(&lab, MAC_A), Some(lab.sw_port_a));
    lab.world.set_link_up(lab.link_a, false);
    lab.world.run_until(SimTime::from_millis(3));
    assert_eq!(learned(&lab, MAC_A), None, "carrier loss purges the port");
    lab.world.set_link_up(lab.link_a, true);
    lab.world.run_until(SimTime::from_millis(5));
    assert_eq!(
        learned(&lab, MAC_A),
        Some(lab.sw_port_a),
        "the same (MAC, port) as before the flap is learned again"
    );
}

#[derive(Clone, Copy, Debug)]
enum L2Step {
    /// Host 0/1 sends from one of three MACs.
    Frame {
        host: usize,
        mac: u8,
    },
    Carrier {
        host: usize,
        up: bool,
    },
}

fn arb_l2_step() -> impl Strategy<Value = L2Step> {
    prop_oneof![
        (0usize..2, 0u8..3).prop_map(|(host, mac)| L2Step::Frame { host, mac }),
        (0usize..2, 0u8..3).prop_map(|(host, mac)| L2Step::Frame { host, mac }),
        (0usize..2, 0u8..3).prop_map(|(host, mac)| L2Step::Frame { host, mac }),
        (0usize..2, any::<bool>()).prop_map(|(host, up)| L2Step::Carrier { host, up }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Frames from a few MACs on two ports, with carrier flaps between
    /// them: the table equals a model that inserts on every frame.
    #[test]
    fn l2_table_equals_an_insert_on_every_frame_model(steps in vec(arb_l2_step(), 1..40)) {
        let mut lab = build();
        let hosts = [lab.host_a, lab.host_b];
        let ports = [lab.sw_port_a, lab.sw_port_b];
        let links = [lab.link_a, lab.link_b];
        let mut model = std::collections::BTreeMap::new();
        let mut carrier = [true; 2];
        for (k, step) in steps.iter().enumerate() {
            let at_ms = k as u64 + 1;
            match *step {
                L2Step::Frame { host, mac } => {
                    let mac = MacAddr([2, 0, 0, 0, 1, mac]);
                    say(&mut lab, hosts[host], at_ms, mac);
                    if carrier[host] {
                        model.insert(mac, ports[host]);
                    }
                }
                L2Step::Carrier { host, up } => {
                    let link = links[host];
                    lab.world
                        .schedule(SimTime::from_millis(at_ms), move |w| w.set_link_up(link, up));
                    carrier[host] = up;
                    if !up {
                        model.retain(|_, port| *port != ports[host]);
                    }
                }
            }
        }
        lab.world.run_until(SimTime::from_millis(steps.len() as u64 + 2));
        let table = lab.world.node::<OfSwitch>(lab.sw).l2_table();
        let table: std::collections::BTreeMap<_, _> = table.iter().map(|(m, p)| (*m, *p)).collect();
        prop_assert_eq!(table, model);
    }
}
