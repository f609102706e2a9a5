//! End-to-end switch behavior: L2 learning, the controller handshake,
//! flow installation latency, barriers, PACKET_IN/OUT and failover-style
//! flow modification — all over the real simulated network.

use sc_net::channel::{ChannelConfig, ChannelEvent};
use sc_net::wire::{peek_udp_frame, udp_frame, UdpEndpoints};
use sc_net::{MacAddr, SimDuration, SimTime};
use sc_openflow::msg::{FlowModCommand, OfMessage};
use sc_openflow::{Action, FlowMatch, OfSwitch, SwitchConfig, TableMiss};
use sc_sim::{ChannelPort, Ctx, LinkParams, Node, NodeId, PortId, TimerToken, World};
use std::any::Any;
use std::net::Ipv4Addr;

// ---------------------------------------------------------------- stubs

/// A host that sends scripted frames and records everything it receives.
struct Host {
    name: String,
    script: Vec<(SimTime, PortId, Vec<u8>)>,
    received: Vec<(SimTime, Vec<u8>)>,
}

impl Host {
    fn new(name: &str) -> Host {
        Host {
            name: name.into(),
            script: Vec::new(),
            received: Vec::new(),
        }
    }
}

impl Node for Host {
    fn name(&self) -> &str {
        &self.name
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        for (i, (at, _, _)) in self.script.iter().enumerate() {
            ctx.set_timer_at(*at, TimerToken(i as u64 + 100));
        }
    }
    fn on_frame(&mut self, ctx: &mut Ctx, _port: PortId, frame: sc_net::Frame) {
        self.received.push((ctx.now(), frame.to_vec()));
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
        let idx = (token.0 - 100) as usize;
        let (_, port, frame) = self.script[idx].clone();
        ctx.send_frame(port, frame);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A scripted OpenFlow controller stub.
struct StubController {
    name: String,
    chan: Option<ChannelPort>,
    script: Vec<(SimTime, OfMessage)>,
    received: Vec<(SimTime, u32, OfMessage)>,
    xid: u32,
}

impl StubController {
    fn new(name: &str) -> StubController {
        StubController {
            name: name.into(),
            chan: None,
            script: Vec::new(),
            received: Vec::new(),
            xid: 1000,
        }
    }
}

impl Node for StubController {
    fn name(&self) -> &str {
        &self.name
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        for (i, (at, _)) in self.script.iter().enumerate() {
            ctx.set_timer_at(*at, TimerToken(i as u64 + 100));
        }
        if let Some(chan) = &mut self.chan {
            chan.flush(ctx); // kick off the channel handshake
        }
    }
    fn on_frame(&mut self, ctx: &mut Ctx, _port: PortId, frame: sc_net::Frame) {
        let Ok(Some(d)) = peek_udp_frame(&frame) else {
            return;
        };
        let chan = self.chan.as_mut().unwrap();
        if !chan.matches(&d) {
            return;
        }
        let now = ctx.now();
        chan.on_datagram(&d, now, |ev| {
            if let ChannelEvent::Delivered(bytes) = ev {
                let (xid, msg) = OfMessage::decode(bytes).expect("switch sent valid message");
                self.received.push((now, xid, msg));
            }
        });
        chan.flush(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
        let chan = self.chan.as_mut().unwrap();
        if token == chan.timer() {
            chan.on_timer(ctx);
            return;
        }
        let idx = (token.0 - 100) as usize;
        let msg = self.script[idx].1.clone();
        self.xid += 1;
        let xid = self.xid;
        chan.send(msg.encode(xid));
        chan.flush(ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ------------------------------------------------------------- builders

const SW_MAC: MacAddr = MacAddr([0x00, 0x5c, 0, 0, 0, 0xee]);
const SW_IP: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);
const CTRL_MAC: MacAddr = MacAddr([0x00, 0x5c, 0, 0, 0, 0xcc]);
const CTRL_IP: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 2);

struct Lab {
    world: World,
    sw: NodeId,
    ctrl: NodeId,
    host_a: NodeId,
    host_b: NodeId,
    /// Switch-side port numbers.
    sw_port_a: PortId,
    sw_port_b: PortId,
}

fn build(table_miss: TableMiss) -> Lab {
    let mut world = World::new(42);
    let sw = world.add_node(OfSwitch::new(SwitchConfig {
        table_miss,
        ..SwitchConfig::paper_defaults("hp-e3800")
    }));
    let ctrl = world.add_node(StubController::new("floodlight"));
    let host_a = world.add_node(Host::new("host-a"));
    let host_b = world.add_node(Host::new("host-b"));

    let lan = LinkParams::with_latency(SimDuration::from_micros(10));
    let (_, sw_port_a, _) = world.connect(sw, host_a, lan);
    let (_, sw_port_b, _) = world.connect(sw, host_b, lan);
    let (_, sw_port_c, ctrl_port) = world.connect(sw, ctrl, lan);

    let ctrl_addr = UdpEndpoints {
        src_mac: CTRL_MAC,
        dst_mac: SW_MAC,
        src_ip: CTRL_IP,
        dst_ip: SW_IP,
        src_port: 40001,
        dst_port: sc_net::wire::udp::port::OPENFLOW,
    };
    world.node_mut::<StubController>(ctrl).chan = Some(ChannelPort::connect(
        ChannelConfig::default(),
        ctrl_addr,
        ctrl_port,
        TimerToken(1),
    ));
    {
        let sw_node = world.node_mut::<OfSwitch>(sw);
        sw_node.register_data_port(sw_port_a);
        sw_node.register_data_port(sw_port_b);
        sw_node.register_data_port(sw_port_c);
        sw_node.attach_controller(ChannelPort::listen(
            ChannelConfig::default(),
            ctrl_addr.flipped(),
            sw_port_c,
            TimerToken(1),
        ));
    }
    Lab {
        world,
        sw,
        ctrl,
        host_a,
        host_b,
        sw_port_a,
        sw_port_b,
    }
}

const MAC_A: MacAddr = MacAddr([2, 0, 0, 0, 0, 0xa]);
const MAC_B: MacAddr = MacAddr([2, 0, 0, 0, 0, 0xb]);

fn probe_frame(src: MacAddr, dst: MacAddr, marker: u8) -> Vec<u8> {
    udp_frame(
        UdpEndpoints {
            src_mac: src,
            dst_mac: dst,
            src_ip: Ipv4Addr::new(192, 0, 2, 1),
            dst_ip: Ipv4Addr::new(198, 51, 100, 1),
            src_port: 5000,
            dst_port: 7,
        },
        64,
        &[marker; 26],
    )
}

// ----------------------------------------------------------------- tests

#[test]
fn l2_learning_floods_then_forwards() {
    let mut lab = build(TableMiss::L2Learn);
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
    let mut lab = build(TableMiss::L2Learn);
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
    let mut lab = build(TableMiss::Drop);
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
    let b = lab.world.node::<Host>(lab.host_b);
    assert_eq!(b.received.len(), 1, "only the post-install probe arrives");
    let (t, frame) = &b.received[0];
    assert!(*t >= SimTime::from_millis(30));
    assert_eq!(frame[frame.len() - 1], 2);
    // The VMAC was rewritten to B's real MAC.
    let d = peek_udp_frame(frame).unwrap().unwrap();
    assert_eq!(d.eth.dst, MAC_B);
    assert_eq!(lab.world.node::<OfSwitch>(lab.sw).stats.dropped, 1);
}

#[test]
fn modify_redirects_traffic_like_failover() {
    let mut lab = build(TableMiss::Drop);
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
    let mut lab = build(TableMiss::Drop);
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
        let mut lab = build(TableMiss::Drop);
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
    let mut lab = build(TableMiss::Drop);
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
    let mut lab = build(TableMiss::L2Learn);
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
