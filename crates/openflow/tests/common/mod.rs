//! The stubs and the four-node lab the switch's integration tests share:
//! two scripted hosts and a scripted controller around one [`OfSwitch`].
#![allow(dead_code, reason = "each test binary uses its own part")]

use sc_net::channel::ChannelEvent;
use sc_net::wire::{peek_udp_frame, udp_frame, UdpEndpoints};
use sc_net::{MacAddr, SimDuration, SimTime};
use sc_openflow::msg::OfMessage;
use sc_openflow::{OfSwitch, SwitchConfig};
use sc_sim::{ChannelPort, Ctx, LinkId, LinkParams, Node, NodeId, PortId, TimerToken, World};
use std::any::Any;
use std::net::Ipv4Addr;

// ---------------------------------------------------------------- stubs

/// A host that sends scripted frames and records everything it receives.
pub struct Host {
    pub name: String,
    pub script: Vec<(SimTime, PortId, Vec<u8>)>,
    pub received: Vec<(SimTime, Vec<u8>)>,
}

impl Host {
    pub fn new(name: &str) -> Host {
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
    #[allow(
        clippy::disallowed_methods,
        reason = "a test script of fixed instants: no deadline moves"
    )]
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
pub struct StubController {
    pub name: String,
    pub chan: Option<ChannelPort>,
    pub script: Vec<(SimTime, OfMessage)>,
    pub received: Vec<(SimTime, u32, OfMessage)>,
    pub xid: u32,
}

impl StubController {
    pub fn new(name: &str) -> StubController {
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
    #[allow(
        clippy::disallowed_methods,
        reason = "a test script of fixed instants: no deadline moves"
    )]
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

pub const SW_MAC: MacAddr = MacAddr([0x00, 0x5c, 0, 0, 0, 0xee]);
pub const SW_IP: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);
pub const CTRL_MAC: MacAddr = MacAddr([0x00, 0x5c, 0, 0, 0, 0xcc]);
pub const CTRL_IP: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 2);

pub struct Lab {
    pub world: World,
    pub sw: NodeId,
    pub ctrl: NodeId,
    pub host_a: NodeId,
    pub host_b: NodeId,
    /// Switch-side port numbers.
    pub sw_port_a: PortId,
    pub sw_port_b: PortId,
    /// The hosts' links to the switch.
    pub link_a: LinkId,
    pub link_b: LinkId,
}

pub fn build() -> Lab {
    build_around(|switch| switch)
}

/// [`build`] with the switch inside a node of the caller's, which must
/// hand out the [`OfSwitch`] as its `as_any`/`as_any_mut`.
pub fn build_around<N: Node>(wrap: impl FnOnce(OfSwitch) -> N) -> Lab {
    let mut world = World::new(42);
    let sw = world.add_node(wrap(OfSwitch::new(SwitchConfig::paper_defaults(
        "hp-e3800",
    ))));
    let ctrl = world.add_node(StubController::new("floodlight"));
    let host_a = world.add_node(Host::new("host-a"));
    let host_b = world.add_node(Host::new("host-b"));

    let lan = LinkParams::with_latency(SimDuration::from_micros(10));
    let (link_a, sw_port_a, _) = world.connect(sw, host_a, lan);
    let (link_b, sw_port_b, _) = world.connect(sw, host_b, lan);
    let (_, sw_port_c, ctrl_port) = world.connect(sw, ctrl, lan);

    let ctrl_addr = UdpEndpoints {
        src_mac: CTRL_MAC,
        dst_mac: SW_MAC,
        src_ip: CTRL_IP,
        dst_ip: SW_IP,
        src_port: 40001,
        dst_port: sc_net::wire::udp::port::OPENFLOW,
    };
    world.node_mut::<StubController>(ctrl).chan =
        Some(ChannelPort::connect(ctrl_addr, ctrl_port, TimerToken(1)));
    {
        let sw_node = world.node_mut::<OfSwitch>(sw);
        sw_node.register_data_port(sw_port_a);
        sw_node.register_data_port(sw_port_b);
        sw_node.register_data_port(sw_port_c);
        sw_node.attach_controller(ChannelPort::listen(
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
        link_a,
        link_b,
    }
}

pub const MAC_A: MacAddr = MacAddr([2, 0, 0, 0, 0, 0xa]);
pub const MAC_B: MacAddr = MacAddr([2, 0, 0, 0, 0, 0xb]);

pub fn probe_frame(src: MacAddr, dst: MacAddr, marker: u8) -> Vec<u8> {
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
