//! Node-side plumbing for running a reliable channel over UDP/IPv4/
//! Ethernet on a simulated port.
//!
//! Every control-plane session in the workspace (BGP, OpenFlow, the
//! controller's REST-like API) is a [`sc_net::channel::Endpoint`] whose
//! segments ride UDP datagrams. This helper owns the endpoint, the
//! addressing, and the retransmission timer bookkeeping, so node
//! implementations stay focused on their protocol logic.

use crate::node::{Ctx, PortId, TimerToken};
use crate::wakeup::Wakeup;
use sc_net::channel::{ChannelConfig, ChannelEvent, Endpoint};
use sc_net::wire::{udp_frame_with, UdpDatagram, UdpEndpoints};
use sc_net::SimTime;
use std::net::Ipv4Addr;

/// A reliable message channel bound to a UDP endpoint pair on one port,
/// with the transport's default [`ChannelConfig`].
#[derive(Debug)]
pub struct ChannelPort {
    ep: Endpoint,
    /// True for the active opener (reconnects with a SYN after
    /// [`ChannelPort::reset`]); false for the passive listener.
    active: bool,
    /// Our (src) → peer (dst) addressing.
    pub addr: UdpEndpoints,
    /// The simulated port frames leave through.
    pub port: PortId,
    /// The channel's one live retransmission timer (every ACK moves the
    /// deadline later, which arms nothing).
    rto: Wakeup,
}

impl ChannelPort {
    /// Active opener (client side).
    pub fn connect(addr: UdpEndpoints, port: PortId, timer: TimerToken) -> ChannelPort {
        ChannelPort::new(true, addr, port, timer)
    }

    /// Passive listener (server side).
    pub fn listen(addr: UdpEndpoints, port: PortId, timer: TimerToken) -> ChannelPort {
        ChannelPort::new(false, addr, port, timer)
    }

    fn new(active: bool, addr: UdpEndpoints, port: PortId, timer: TimerToken) -> ChannelPort {
        ChannelPort {
            ep: fresh_endpoint(active),
            active,
            addr,
            port,
            rto: Wakeup::new(timer),
        }
    }

    /// Tear the transport down and prepare a fresh connection on the
    /// same 5-tuple: the active side will emit a SYN at the next
    /// [`ChannelPort::flush`] (retransmitted until the peer answers),
    /// the passive side returns to listening. This is the BGP notion of
    /// dropping the TCP connection when the session resets — without it
    /// a reliable channel survives carrier flaps by retransmission and
    /// [`sc_net::channel::ChannelEvent::Connected`] would never fire
    /// again, so the session could never re-establish.
    pub fn reset(&mut self) {
        self.ep = fresh_endpoint(self.active);
        self.rto.reset();
    }

    /// Timer token the owner dedicates to this channel's retransmissions.
    pub fn timer(&self) -> TimerToken {
        self.rto.token()
    }

    /// Re-home the channel on another token (an owner numbering its
    /// channels as they are attached). Only before the first flush.
    pub fn set_timer(&mut self, timer: TimerToken) {
        self.rto = Wakeup::new(timer);
    }

    /// Does this datagram belong to this channel (right 5-tuple)?
    pub fn matches(&self, d: &UdpDatagram) -> bool {
        self.matches_tuple(d.ip.src, d.ip.dst, d.udp.src_port, d.udp.dst_port)
    }

    /// [`ChannelPort::matches`] on the bare IPv4/UDP 4-tuple of a frame
    /// whose checksums were already verified — an owner that has parsed
    /// the headers for another reason (a switch's flow key) asks without
    /// parsing them again.
    pub fn matches_tuple(
        &self,
        ip_src: Ipv4Addr,
        ip_dst: Ipv4Addr,
        udp_src: u16,
        udp_dst: u16,
    ) -> bool {
        udp_dst == self.addr.src_port
            && udp_src == self.addr.dst_port
            && ip_src == self.addr.dst_ip
            && ip_dst == self.addr.src_ip
    }

    /// Queue an application message for reliable delivery. Call
    /// [`ChannelPort::flush`] afterwards (or at end of handler).
    pub fn send(&mut self, msg: Vec<u8>) {
        self.ep.send(msg);
    }

    /// A cleared recycled buffer to encode the next message into; hand
    /// it back via [`ChannelPort::send`] (zero-alloc, zero-copy: the
    /// endpoint returns acknowledged messages' buffers to its pool).
    pub fn take_buffer(&mut self) -> Vec<u8> {
        self.ep.take_buffer()
    }

    /// Feed a matching datagram; `on_event` receives the delivered
    /// events in order.
    pub fn on_datagram(
        &mut self,
        d: &UdpDatagram,
        now: SimTime,
        on_event: impl FnMut(ChannelEvent<'_>),
    ) {
        // A corrupted segment that survived the UDP checksum (or a
        // malformed peer) is dropped; retransmission repairs it.
        let _ = self.ep.on_segment(d.payload, now, on_event);
    }

    /// Transmit everything due and make sure a retransmission timer is
    /// pending at or before the earliest deadline.
    pub fn flush(&mut self, ctx: &mut Ctx) {
        while let Some(seg) = self.ep.poll_transmit(ctx.now()) {
            let frame = udp_frame_with(self.addr, 64, |buf| seg.write_to(buf));
            ctx.send_frame(self.port, frame);
        }
        self.rto.arm(ctx, self.ep.next_wakeup());
    }

    /// Handle the channel's retransmission timer (call from `on_timer`
    /// when the token matches).
    pub fn on_timer(&mut self, ctx: &mut Ctx) {
        self.rto.fired(ctx.now());
        self.flush(ctx);
    }
}

/// A new transport endpoint with the default [`ChannelConfig`]: an
/// active opener or a passive listener.
fn fresh_endpoint(active: bool) -> Endpoint {
    let cfg = ChannelConfig::default();
    if active {
        Endpoint::connect(cfg)
    } else {
        Endpoint::listen(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::node::{Node, NodeId};
    use crate::world::World;
    use sc_net::wire::peek_udp_frame;
    use sc_net::MacAddr;

    /// A node that reliably sends `to_send` messages to its peer and
    /// records everything it receives.
    struct Talker {
        name: String,
        chan: Option<ChannelPort>,
        to_send: Vec<Vec<u8>>,
        received: Vec<Vec<u8>>,
        connected: bool,
        /// Every timer this node arms is its channel's, and each fires
        /// once: fires counted here are `set_timer_at` calls.
        timer_fires: u64,
    }

    impl Talker {
        fn new(name: &str) -> Talker {
            Talker {
                name: name.into(),
                chan: None,
                to_send: Vec::new(),
                received: Vec::new(),
                connected: false,
                timer_fires: 0,
            }
        }
    }

    impl Node for Talker {
        fn name(&self) -> &str {
            &self.name
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            if let Some(chan) = &mut self.chan {
                for m in self.to_send.drain(..) {
                    chan.send(m);
                }
                chan.flush(ctx);
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
            chan.on_datagram(&d, ctx.now(), |ev| match ev {
                ChannelEvent::Delivered(m) => self.received.push(m.to_vec()),
                ChannelEvent::Connected => self.connected = true,
                ChannelEvent::PeerClosed => {}
            });
            chan.flush(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
            self.timer_fires += 1;
            let chan = self.chan.as_mut().unwrap();
            if token == chan.timer() {
                chan.on_timer(ctx);
            }
        }
    }

    fn wire_up(loss: f64) -> (World, NodeId, NodeId) {
        let mut w = World::new(77);
        let a = w.add_node(Talker::new("client"));
        let b = w.add_node(Talker::new("server"));
        let (_l, pa, pb) = w.connect(
            a,
            b,
            LinkParams {
                loss,
                ..LinkParams::with_latency(sc_net::SimDuration::from_micros(50))
            },
        );
        let addr_a = UdpEndpoints {
            src_mac: MacAddr::from_octets([0, 0, 0, 0, 0, 1]),
            dst_mac: MacAddr::from_octets([0, 0, 0, 0, 0, 2]),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 40000,
            dst_port: 6653,
        };
        w.node_mut::<Talker>(a).chan = Some(ChannelPort::connect(addr_a, pa, TimerToken(1)));
        w.node_mut::<Talker>(b).chan =
            Some(ChannelPort::listen(addr_a.flipped(), pb, TimerToken(1)));
        (w, a, b)
    }

    #[test]
    fn lossless_delivery_in_order() {
        let (mut w, a, b) = wire_up(0.0);
        w.node_mut::<Talker>(a).to_send = (0..20u8).map(|i| vec![i]).collect();
        w.run_until_idle(100_000);
        let got: Vec<u8> = w.node::<Talker>(b).received.iter().map(|m| m[0]).collect();
        assert_eq!(got, (0..20).collect::<Vec<u8>>());
        assert!(w.node::<Talker>(a).connected);
        assert!(w.node::<Talker>(b).connected);
    }

    #[test]
    fn lossless_channel_keeps_one_timer_per_rto() {
        // 2,000 messages behind a 32-segment window: ~60 ACK rounds,
        // each moving the earliest deadline later. One timer per RTO
        // period may be armed, not one per ACK.
        let (mut w, a, b) = wire_up(0.0);
        w.node_mut::<Talker>(a).to_send = (0..2000u32).map(|i| i.to_be_bytes().to_vec()).collect();
        w.run_until_idle(1_000_000);
        assert_eq!(w.node::<Talker>(b).received.len(), 2000);
        let rto_periods = w.now().as_nanos() / ChannelConfig::default().rto.as_nanos() + 1;
        for node in [a, b] {
            let fires = w.node::<Talker>(node).timer_fires;
            assert!(
                fires <= rto_periods,
                "{fires} channel timers in {rto_periods} RTO periods"
            );
        }
    }

    #[test]
    fn lossy_link_repaired_by_retransmission() {
        let (mut w, a, b) = wire_up(0.25);
        w.node_mut::<Talker>(a).to_send = (0..50u8).map(|i| vec![i]).collect();
        w.run_until_idle(1_000_000);
        let got: Vec<u8> = w.node::<Talker>(b).received.iter().map(|m| m[0]).collect();
        assert_eq!(
            got,
            (0..50).collect::<Vec<u8>>(),
            "in order despite 25% loss"
        );
        assert!(w.stats().frames_dropped_loss > 0, "loss actually happened");
    }

    #[test]
    fn bidirectional_traffic() {
        let (mut w, a, b) = wire_up(0.0);
        w.node_mut::<Talker>(a).to_send = vec![b"ping".to_vec()];
        w.node_mut::<Talker>(b).to_send = vec![b"pong".to_vec()];
        w.run_until_idle(100_000);
        assert_eq!(w.node::<Talker>(b).received, vec![b"ping".to_vec()]);
        assert_eq!(w.node::<Talker>(a).received, vec![b"pong".to_vec()]);
    }
}
