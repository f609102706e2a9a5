//! [`WorldView`]: a [`ForwardingView`] backed by a live
//! [`sc_sim::World`].
//!
//! The view asks each device for the forwarding decision its own data
//! plane takes for a probe frame — [`sc_router::LegacyRouter::accepts`]
//! (the NIC filter) and [`sc_router::LegacyRouter::decide`] (installed-FIB
//! LPM, interface scan, ARP binding), and [`sc_openflow::OfSwitch::decide`]
//! (flow-table match and actions, or the L2-learn miss rule) — and adds
//! only link crossing and the mapping to [`DropReason`]. The decisions
//! are read-only: nothing is sent, learned, or counted, so sampling the
//! view any number of times leaves the event stream byte-identical.

use crate::record::{classify, TransitPolicy};
use crate::walk::{walk, DropReason, ForwardingView, Hop, Step, MAX_WALK_STATES};
use sc_net::wire::ethernet::EtherType;
use sc_net::MacAddr;
use sc_openflow::{Egress, FlowKey, OfSwitch};
use sc_router::{Forwarding, LegacyRouter};
use sc_sim::{NodeId, PortId, World};
use std::net::Ipv4Addr;

/// Which node plays which role — the only topology knowledge the
/// engine needs beyond the world's own wiring.
#[derive(Clone, Debug)]
pub struct NetModel {
    /// Every [`LegacyRouter`] (edge router, providers, forwarders).
    pub routers: Vec<NodeId>,
    /// Every [`OfSwitch`].
    pub switches: Vec<NodeId>,
    /// The probe origin (walks start at its port 0 uplink).
    pub source: NodeId,
    /// The destination: a walk arriving here has delivered.
    pub sink: NodeId,
}

/// The constant header fields of the probe traffic whose forwarding
/// the walk predicts (flow rules may match on any of them).
#[derive(Clone, Copy, Debug)]
pub struct ProbeSpec {
    pub src_mac: MacAddr,
    pub src_ip: Ipv4Addr,
    /// The first-hop gateway the source addresses frames to.
    pub gateway_mac: MacAddr,
    pub udp_src: u16,
    pub udp_dst: u16,
}

/// A read-only forwarding view over a world.
pub struct WorldView<'a> {
    world: &'a World,
    model: &'a NetModel,
    probe: ProbeSpec,
}

impl<'a> WorldView<'a> {
    pub fn new(world: &'a World, model: &'a NetModel, probe: ProbeSpec) -> WorldView<'a> {
        WorldView {
            world,
            model,
            probe,
        }
    }

    /// Cross the link out of `(node, port)`: `None` when the egress is
    /// dark (no link, link down, or dead peer).
    fn cross(&self, node: NodeId, port: PortId, src_mac: MacAddr, dst_mac: MacAddr) -> Option<Hop> {
        let link = self.world.link_at(node, port)?;
        if !self.world.is_link_up(link) {
            return None;
        }
        let peer = self.world.peer_of(node, port)?;
        if !self.world.is_alive(peer.node) {
            return None;
        }
        Some(Hop {
            node: peer.node,
            in_port: peer.port,
            src_mac,
            dst_mac,
        })
    }

    /// The probe's first hop: the source transmits on port 0, addressed
    /// to its gateway. `None` when the source uplink itself is dark.
    pub fn start(&self) -> Option<Hop> {
        self.cross(
            self.model.source,
            PortId(0),
            self.probe.src_mac,
            self.probe.gateway_mac,
        )
    }

    /// Walk one flow destination from the source.
    pub fn walk_flow(&self, dst: Ipv4Addr) -> crate::walk::WalkReport {
        match self.start() {
            Some(start) => walk(self, start, dst, MAX_WALK_STATES),
            None => crate::walk::WalkReport::default(), // undelivered
        }
    }

    fn router_step(&self, hop: &Hop, dst: Ipv4Addr) -> Step {
        let r = self.world.node::<LegacyRouter>(hop.node);
        if !r.accepts(hop.in_port, hop.dst_mac) {
            return Step::Drop(DropReason::NicFilter);
        }
        // The flow cache is a memo of the same decision, so asking the
        // decision itself changes nothing.
        match r.decide(dst, self.world.now()) {
            Forwarding::NoRoute => Step::Drop(DropReason::NoRoute),
            Forwarding::NoInterface => Step::Drop(DropReason::NoInterface),
            Forwarding::Via { arp: None, .. } => Step::Drop(DropReason::ArpUnresolved),
            Forwarding::Via {
                port,
                src_mac,
                arp: Some((mac, _)),
                ..
            } => Step::Forward(
                self.cross(hop.node, port, src_mac, mac)
                    .into_iter()
                    .collect(),
            ),
        }
    }

    fn switch_step(&self, hop: &Hop, dst: Ipv4Addr) -> Step {
        let sw = self.world.node::<OfSwitch>(hop.node);
        let key = FlowKey {
            in_port: hop.in_port.0 as u16,
            eth_src: hop.src_mac,
            eth_dst: hop.dst_mac,
            eth_type: EtherType::Ipv4.to_u16(),
            ip_src: Some(self.probe.src_ip),
            ip_dst: Some(dst),
            udp_src: Some(self.probe.udp_src),
            udp_dst: Some(self.probe.udp_dst),
        };
        let (mut named, mut next) = (false, Vec::new());
        let verdict = sw.decide(&key, |egress| {
            if let Egress::Port { port, src, dst } = egress {
                named = true;
                next.extend(self.cross(hop.node, port, src, dst));
            }
        });
        if !named && verdict.floods == 0 {
            // A drop action or an L2 entry back out the ingress, or a
            // rule that sends to no port.
            return Step::Drop(DropReason::Dropped);
        }
        Step::Forward(next)
    }
}

impl ForwardingView for WorldView<'_> {
    fn step(&self, hop: &Hop, dst: Ipv4Addr) -> Step {
        if hop.node == self.model.sink {
            return Step::Deliver;
        }
        if self.model.routers.contains(&hop.node) {
            return self.router_step(hop, dst);
        }
        if self.model.switches.contains(&hop.node) {
            return self.switch_step(hop, dst);
        }
        // Controller, source, or anything else: not a forwarder.
        Step::Drop(DropReason::NotForwarding)
    }
}

/// One engine sample: walk every flow, classify against the policy,
/// and return per-class "≥1 flow in violation" flags in
/// [`crate::record::CLASSES`] order — the shape
/// [`crate::record::InvariantRecorder::record`] consumes.
pub fn sample_flags(
    world: &World,
    model: &NetModel,
    probe: ProbeSpec,
    policy: &TransitPolicy,
    flows: &[Ipv4Addr],
) -> [bool; 3] {
    let view = WorldView::new(world, model, probe);
    let now = world.now();
    let mut flags = [false; 3];
    for &dst in flows {
        let report = view.walk_flow(dst);
        let forbidden = policy.forbids(&report.visited, dst, now);
        if let Some(class) = classify(&report, forbidden) {
            flags[class as usize] = true;
        }
    }
    flags
}
