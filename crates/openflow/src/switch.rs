//! The SDN switch as a simulation node.
//!
//! Models the paper's HP E3800 in hybrid mode:
//!
//! * a hardware flow table (priority match + rewrite actions) with
//!   realistic **install latency** — programming a TCAM entry is not
//!   free, and this cost is part of the supercharged router's 150 ms
//!   convergence budget (see `sc-router::calibration`);
//! * an **L2-learning fallback** for table-miss frames, so ordinary
//!   traffic (BGP sessions, probe packets toward the router) is switched
//!   like on any Ethernet switch;
//! * a reliable **control channel** carrying [`OfMessage`]s: FLOW_MOD
//!   (queued behind the install latency), BARRIER (completes only after
//!   the installs that preceded it), PACKET_IN/OUT (the controller's ARP
//!   resolver path), PORT_STATUS on carrier changes, FEATURES, ECHO and
//!   STATS.

use crate::msg::{FlowModCommand, FlowStatsRow, OfMessage};
use crate::table::{FlowEntry, FlowStats, FlowTable};
use crate::types::{Action, FlowKey, FlowMatch};
use sc_net::channel::ChannelEvent;
use sc_net::wire::{peek_udp_frame, EthernetRepr, UdpDatagram};
use sc_net::{Frame, FxHashMap, MacAddr, SimDuration, SimTime};
use sc_sim::{ChannelPort, Ctx, Node, PortId, TimerToken, Wakeup};
use std::any::Any;
use std::collections::VecDeque;

/// Timer token for the flow-install completion queue.
const TIMER_INSTALL: TimerToken = TimerToken(2);
/// Timer tokens for controller channels: BASE + index.
const TIMER_CHANNEL_BASE: u64 = 10;
/// Timer tokens for controller liveness deadlines: BASE + index.
const TIMER_DEADLINE_BASE: u64 = 1000;

/// What to do with a frame no flow entry matches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TableMiss {
    /// Drop silently (pure OpenFlow switch without a default rule).
    Drop,
    /// Flood out every data port except the ingress.
    Flood,
    /// Behave like a learning L2 switch (the paper's hybrid mode).
    L2Learn,
    /// Punt to the controller as PACKET_IN.
    PacketIn,
}

/// Static switch configuration.
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    pub name: String,
    pub datapath_id: u64,
    /// Install latency for the first FLOW_MOD of a burst (TCAM program
    /// setup).
    pub install_base: SimDuration,
    /// Install latency for each subsequent back-to-back FLOW_MOD.
    pub install_per_rule: SimDuration,
    pub table_miss: TableMiss,
    /// Controller liveness deadline: if a controller channel stays
    /// silent this long after having spoken, the switch declares that
    /// controller dead, resets the channel back to listening, and keeps
    /// its installed rules (fail-secure). `None` disables the watchdog.
    pub controller_deadline: Option<SimDuration>,
}

impl SwitchConfig {
    /// The paper's calibration for an HP E3800-class switch.
    pub fn paper_defaults(name: &str) -> SwitchConfig {
        SwitchConfig {
            name: name.to_string(),
            datapath_id: 0xe3800,
            install_base: SimDuration::from_millis(15),
            install_per_rule: SimDuration::from_millis(2),
            table_miss: TableMiss::L2Learn,
            controller_deadline: None,
        }
    }
}

/// Data-plane counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SwitchStats {
    pub frames_in: u64,
    pub frames_out: u64,
    pub flooded: u64,
    pub dropped: u64,
    pub packet_ins: u64,
    pub flow_mods_applied: u64,
    /// Controllers declared dead (deadline miss or channel reset by a
    /// restarted peer).
    pub controller_deaths: u64,
    /// FLOW_MODs discarded by the scripted chaos budget
    /// ([`OfSwitch::set_drop_flowmods`]).
    pub chaos_dropped_mods: u64,
}

/// A queued hardware operation (FLOW_MOD waiting for TCAM programming,
/// or a barrier fencing the operations before it).
#[derive(Debug)]
enum PendingOp {
    Install {
        done_at: SimTime,
        command: FlowModCommand,
        priority: u16,
        cookie: u64,
        matcher: FlowMatch,
        actions: Vec<Action>,
    },
    Barrier {
        done_at: SimTime,
        xid: u32,
        token: u64,
        controller: usize,
    },
}

impl PendingOp {
    fn done_at(&self) -> SimTime {
        match self {
            PendingOp::Install { done_at, .. } | PendingOp::Barrier { done_at, .. } => *done_at,
        }
    }
}

/// The switch node.
pub struct OfSwitch {
    cfg: SwitchConfig,
    table: FlowTable,
    l2: FxHashMap<MacAddr, PortId>,
    /// The source MAC each ingress port last taught `l2`, by port index:
    /// `l2_taught[p] == Some(m)` implies `l2[m] == p`, so a frame that
    /// repeats it (every probe of a flow) has nothing to write.
    l2_taught: Vec<Option<MacAddr>>,
    data_ports: Vec<PortId>,
    /// Control channels — redundant controllers each get one (§3 of the
    /// paper: data-plane reliability via redundant switches, control
    /// reliability via redundant controllers).
    controllers: Vec<ChannelPort>,
    /// Per-controller liveness: has this channel ever spoken, and when
    /// was it last heard from (any datagram counts — data, ack or
    /// keepalive all prove the peer's process is alive).
    ctrl_live: Vec<bool>,
    last_heard: Vec<SimTime>,
    /// One liveness watchdog per controller: re-armed from its own
    /// expiry while traffic keeps pushing the deadline out.
    deadline_wakeup: Vec<Wakeup>,
    /// Scripted chaos: discard this many incoming FLOW_MODs (and any
    /// barriers that arrive while the budget is open, so the loss is
    /// not silently acked).
    drop_flowmods: u32,
    pending: VecDeque<PendingOp>,
    install_busy_until: SimTime,
    install_wakeup: Wakeup,
    xid_counter: u32,
    /// The matched rule's actions while [`OfSwitch::forward`] runs them:
    /// executing needs all of `self`, so they are copied out of the
    /// table — into a buffer kept across packets, not a fresh one each.
    matched_actions: Vec<Action>,
    pub stats: SwitchStats,
}

impl OfSwitch {
    pub fn new(cfg: SwitchConfig) -> OfSwitch {
        OfSwitch {
            cfg,
            table: FlowTable::new(),
            l2: FxHashMap::default(),
            l2_taught: Vec::new(),
            data_ports: Vec::new(),
            controllers: Vec::new(),
            ctrl_live: Vec::new(),
            last_heard: Vec::new(),
            deadline_wakeup: Vec::new(),
            drop_flowmods: 0,
            pending: VecDeque::new(),
            install_busy_until: SimTime::ZERO,
            install_wakeup: Wakeup::new(TIMER_INSTALL),
            xid_counter: 1,
            matched_actions: Vec::new(),
            stats: SwitchStats::default(),
        }
    }

    /// Register a port as a data port (done by the topology builder after
    /// `World::connect`).
    pub fn register_data_port(&mut self, port: PortId) {
        if !self.data_ports.contains(&port) {
            self.data_ports.push(port);
        }
    }

    /// Attach a controller's reliable channel (listening side; the
    /// controller initiates). May be called multiple times for
    /// redundant controllers.
    pub fn attach_controller(&mut self, mut chan: ChannelPort) {
        let idx = self.controllers.len() as u64;
        chan.set_timer(TimerToken(TIMER_CHANNEL_BASE + idx));
        self.controllers.push(chan);
        self.ctrl_live.push(false);
        self.last_heard.push(SimTime::ZERO);
        self.deadline_wakeup
            .push(Wakeup::new(TimerToken(TIMER_DEADLINE_BASE + idx)));
    }

    /// Scripted chaos: silently discard the next `count` FLOW_MODs.
    pub fn set_drop_flowmods(&mut self, count: u32) {
        self.drop_flowmods = count;
    }

    /// Read-only view of the flow table (for tests/experiments).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// The learned L2 table (for tests).
    pub fn l2_table(&self) -> &FxHashMap<MacAddr, PortId> {
        &self.l2
    }

    /// The registered data ports, in registration order — the flood
    /// domain observers need to replay the table-miss broadcast.
    pub fn data_ports(&self) -> &[PortId] {
        &self.data_ports
    }

    /// Number of hardware operations still pending.
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    fn next_xid(&mut self) -> u32 {
        self.xid_counter += 1;
        self.xid_counter
    }

    /// Asynchronous switch-to-controller notifications go to *every*
    /// attached controller (PACKET_IN, PORT_STATUS).
    fn send_to_controllers(&mut self, ctx: &mut Ctx, msg: OfMessage) {
        let xid = self.next_xid();
        for chan in &mut self.controllers {
            chan.send(msg.encode(xid));
            chan.flush(ctx);
        }
    }

    /// Replies go only to the controller that asked.
    fn reply_to_controller(&mut self, ctx: &mut Ctx, idx: usize, xid: u32, msg: OfMessage) {
        if let Some(chan) = self.controllers.get_mut(idx) {
            chan.send(msg.encode(xid));
            chan.flush(ctx);
        }
    }

    /// Process a control message from controller `idx`.
    fn on_control(&mut self, ctx: &mut Ctx, idx: usize, xid: u32, msg: OfMessage) {
        if self.drop_flowmods > 0 {
            match msg {
                OfMessage::FlowMod { .. } => {
                    // Chaos budget: eat the mod. Only FLOW_MODs consume
                    // the budget; fencing barriers are swallowed too so
                    // the controller sees a missing ack, not a lie.
                    self.drop_flowmods -= 1;
                    self.stats.chaos_dropped_mods += 1;
                    return;
                }
                OfMessage::BarrierRequest { .. } => return,
                _ => {}
            }
        }
        match msg {
            OfMessage::Hello => {
                self.reply_to_controller(ctx, idx, xid, OfMessage::Hello);
            }
            OfMessage::EchoRequest(d) => {
                self.reply_to_controller(ctx, idx, xid, OfMessage::EchoReply(d));
            }
            OfMessage::FeaturesRequest => {
                let reply = OfMessage::FeaturesReply {
                    datapath_id: self.cfg.datapath_id,
                    n_ports: self.data_ports.len() as u16,
                };
                self.reply_to_controller(ctx, idx, xid, reply);
            }
            OfMessage::FlowMod {
                command,
                priority,
                cookie,
                matcher,
                actions,
            } => {
                // Queue behind the TCAM programming latency. The first
                // rule of a burst pays the base latency; back-to-back
                // rules pipeline at the per-rule cost.
                let now = ctx.now();
                let start = self.install_busy_until.max(now);
                let cost = if start == now && self.pending.is_empty() {
                    self.cfg.install_base
                } else {
                    self.cfg.install_per_rule
                };
                let done_at = start + cost;
                self.install_busy_until = done_at;
                self.pending.push_back(PendingOp::Install {
                    done_at,
                    command,
                    priority,
                    cookie,
                    matcher,
                    actions,
                });
                self.arm_install_timer(ctx);
            }
            OfMessage::BarrierRequest { token } => {
                let done_at = self.install_busy_until.max(ctx.now());
                self.pending.push_back(PendingOp::Barrier {
                    done_at,
                    xid,
                    token,
                    controller: idx,
                });
                self.arm_install_timer(ctx);
            }
            OfMessage::PacketOut { actions, frame } => {
                // Controller-injected frame (e.g. an ARP reply). No
                // ingress port; flood excludes nothing but the controller
                // channel.
                self.execute_actions(ctx, None, &actions, frame.into());
            }
            OfMessage::StatsRequest => {
                let flows = self
                    .table
                    .entries()
                    .iter()
                    .map(|e| FlowStatsRow {
                        priority: e.priority,
                        cookie: e.cookie,
                        packets: e.stats.packets,
                        bytes: e.stats.bytes,
                    })
                    .collect();
                let reply = OfMessage::StatsReply {
                    lookups: self.table.lookups,
                    misses: self.table.misses,
                    flows,
                };
                self.reply_to_controller(ctx, idx, xid, reply);
            }
            // Switch-to-controller messages arriving at the switch are
            // protocol errors; ignore them rather than crash the lab.
            OfMessage::FeaturesReply { .. }
            | OfMessage::PacketIn { .. }
            | OfMessage::PortStatus { .. }
            | OfMessage::BarrierReply { .. }
            | OfMessage::StatsReply { .. }
            | OfMessage::EchoReply(_) => {}
        }
    }

    /// Arm the liveness watchdog for controller `idx`.
    fn arm_deadline(&mut self, ctx: &mut Ctx, idx: usize) {
        if let Some(deadline) = self.cfg.controller_deadline {
            self.deadline_wakeup[idx].arm(ctx, Some(self.last_heard[idx] + deadline));
        }
    }

    fn check_deadline(&mut self, ctx: &mut Ctx, idx: usize) {
        let Some(deadline) = self.cfg.controller_deadline else {
            return;
        };
        if idx >= self.controllers.len() {
            return;
        }
        self.deadline_wakeup[idx].fired(ctx.now());
        if !self.ctrl_live[idx] {
            return;
        }
        let due = self.last_heard[idx] + deadline;
        if due <= ctx.now() {
            // Silent past the deadline: the controller is gone. Keep the
            // installed rules (fail-secure — the data plane must not
            // blink) but stop believing in FlowModify service.
            self.mark_controller_dead(idx);
        } else {
            self.deadline_wakeup[idx].arm(ctx, Some(due));
        }
    }

    fn mark_controller_dead(&mut self, idx: usize) {
        if self.ctrl_live[idx] {
            self.ctrl_live[idx] = false;
            self.stats.controller_deaths += 1;
        }
        // Back to listening: a restarted controller re-handshakes from
        // scratch. Undelivered queue state from the old incarnation is
        // discarded with the endpoint.
        self.controllers[idx].reset();
    }

    fn arm_install_timer(&mut self, ctx: &mut Ctx) {
        let next = self.pending.front().map(PendingOp::done_at);
        self.install_wakeup.arm(ctx, next);
    }

    fn drain_installs(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        self.install_wakeup.fired(now);
        while let Some(front) = self.pending.front() {
            if front.done_at() > now {
                break;
            }
            match self.pending.pop_front().unwrap() {
                PendingOp::Install {
                    command,
                    priority,
                    cookie,
                    matcher,
                    actions,
                    ..
                } => {
                    self.stats.flow_mods_applied += 1;
                    match command {
                        FlowModCommand::Add => self.table.add(FlowEntry {
                            priority,
                            cookie,
                            matcher,
                            actions,
                            stats: FlowStats::default(),
                        }),
                        FlowModCommand::Modify => {
                            // Modify-or-add: the controller's failover
                            // path must work even if the add was lost.
                            if self.table.modify(priority, &matcher, actions.clone()) == 0 {
                                self.table.add(FlowEntry {
                                    priority,
                                    cookie,
                                    matcher,
                                    actions,
                                    stats: FlowStats::default(),
                                });
                            }
                        }
                        FlowModCommand::Delete => {
                            self.table.delete(Some(priority), &matcher);
                        }
                    }
                }
                PendingOp::Barrier {
                    xid,
                    token,
                    controller,
                    ..
                } => {
                    self.reply_to_controller(
                        ctx,
                        controller,
                        xid,
                        OfMessage::BarrierReply { token },
                    );
                }
            }
        }
        self.arm_install_timer(ctx);
    }

    /// Hybrid-mode source learning: `mac` lives behind `port`. Only a
    /// `(mac, port)` pair that differs from what `port` last taught
    /// reaches the map.
    fn learn(&mut self, mac: MacAddr, port: PortId) {
        if self.l2_taught.len() <= port.0 {
            self.l2_taught.resize(port.0 + 1, None);
        }
        if self.l2_taught[port.0] == Some(mac) {
            return;
        }
        if let Some(prev) = self.l2.insert(mac, port) {
            // The MAC moved here from `prev`: that port's memo no longer
            // describes the map and must not suppress its next frame.
            if prev != port && self.l2_taught[prev.0] == Some(mac) {
                self.l2_taught[prev.0] = None;
            }
        }
        self.l2_taught[port.0] = Some(mac);
    }

    /// A datagram on controller `idx`'s channel.
    fn on_channel_datagram(&mut self, ctx: &mut Ctx, idx: usize, d: &UdpDatagram<'_>) {
        // Any datagram from the controller — data, ack or keepalive —
        // proves its process is alive.
        self.ctrl_live[idx] = true;
        self.last_heard[idx] = ctx.now();
        self.arm_deadline(ctx, idx);
        let chan = &mut self.controllers[idx];
        // Handling a message needs all of `self`, so decode inside the
        // channel's borrow and act after it; a malformed control message
        // is dropped.
        let mut msgs = Vec::new();
        let mut peer_closed = false;
        chan.on_datagram(d, ctx.now(), |ev| match ev {
            ChannelEvent::Delivered(bytes) => msgs.extend(OfMessage::decode(bytes)),
            ChannelEvent::PeerClosed => peer_closed = true,
            ChannelEvent::Connected => {}
        });
        chan.flush(ctx);
        for (xid, msg) in msgs {
            self.on_control(ctx, idx, xid, msg);
        }
        if peer_closed {
            // A fresh SYN hit our established endpoint: the controller
            // process restarted. Declare the old incarnation dead and
            // fall back to listening — the replacement's SYN
            // retransmission completes the new handshake.
            self.mark_controller_dead(idx);
        }
        self.controllers[idx].flush(ctx);
    }

    /// Run the data-plane pipeline on a frame whose key `on_frame`
    /// extracted (`None`: not even an Ethernet header).
    fn forward(&mut self, ctx: &mut Ctx, in_port: PortId, key: Option<&FlowKey>, frame: Frame) {
        self.stats.frames_in += 1;
        let Some(key) = key else {
            self.stats.dropped += 1;
            return;
        };
        // Hybrid mode learns source MACs from every frame.
        if self.cfg.table_miss == TableMiss::L2Learn && key.eth_src.is_unicast() {
            self.learn(key.eth_src, in_port);
        }
        if let Some(entry) = self.table.lookup(key, frame.len()) {
            let mut actions = std::mem::take(&mut self.matched_actions);
            actions.clear();
            actions.extend_from_slice(&entry.actions);
            self.execute_actions(ctx, Some(in_port), &actions, frame);
            self.matched_actions = actions;
            return;
        }
        // Table miss.
        match self.cfg.table_miss {
            TableMiss::Drop => {
                self.stats.dropped += 1;
            }
            TableMiss::Flood => {
                self.flood(ctx, Some(in_port), frame);
            }
            TableMiss::L2Learn => {
                if key.eth_dst.is_unicast() {
                    if let Some(&out) = self.l2.get(&key.eth_dst) {
                        if out != in_port {
                            self.stats.frames_out += 1;
                            ctx.send_frame(out, frame);
                        } else {
                            self.stats.dropped += 1;
                        }
                        return;
                    }
                }
                self.flood(ctx, Some(in_port), frame);
            }
            TableMiss::PacketIn => {
                self.stats.packet_ins += 1;
                let msg = OfMessage::PacketIn {
                    in_port: in_port.0 as u16,
                    frame: frame.to_vec(),
                };
                self.send_to_controllers(ctx, msg);
            }
        }
    }

    fn flood(&mut self, ctx: &mut Ctx, except: Option<PortId>, frame: Frame) {
        self.stats.flooded += 1;
        // Every egress shares one buffer: N ports cost N refcount
        // bumps, not N byte copies.
        for &p in &self.data_ports {
            if Some(p) != except {
                self.stats.frames_out += 1;
                ctx.send_frame(p, frame.clone());
            }
        }
    }

    fn execute_actions(
        &mut self,
        ctx: &mut Ctx,
        in_port: Option<PortId>,
        actions: &[Action],
        mut frame: Frame,
    ) {
        let last = actions.len().wrapping_sub(1);
        for (i, action) in actions.iter().enumerate() {
            match action {
                Action::SetDstMac(m) => {
                    let _ = EthernetRepr::rewrite_dst(frame.make_mut(), *m);
                }
                Action::SetSrcMac(m) => {
                    let _ = EthernetRepr::rewrite_src(frame.make_mut(), *m);
                }
                Action::Output(p) => {
                    self.stats.frames_out += 1;
                    if i == last {
                        // Nothing left to run on it: the frame itself
                        // goes to the wire, not a clone of it.
                        ctx.send_frame(PortId(*p as usize), frame);
                        return;
                    }
                    ctx.send_frame(PortId(*p as usize), frame.clone());
                }
                Action::Flood => {
                    self.flood(ctx, in_port, frame.clone());
                }
                Action::ToController => {
                    self.stats.packet_ins += 1;
                    let msg = OfMessage::PacketIn {
                        in_port: in_port.map(|p| p.0 as u16).unwrap_or(u16::MAX),
                        frame: frame.to_vec(),
                    };
                    self.send_to_controllers(ctx, msg);
                }
                Action::Drop => {
                    self.stats.dropped += 1;
                    return;
                }
            }
        }
    }
}

/// The controller channel a frame with this key belongs to: the key
/// carries UDP ports only when the Ethernet, IPv4 and UDP layers all
/// verified — when [`peek_udp_frame`] would hand out a datagram — so
/// matching its 4-tuple is [`ChannelPort::matches`] without the parse.
fn channel_of(controllers: &[ChannelPort], key: &FlowKey) -> Option<usize> {
    let (ip_src, ip_dst) = (key.ip_src?, key.ip_dst?);
    let (udp_src, udp_dst) = (key.udp_src?, key.udp_dst?);
    controllers
        .iter()
        .position(|c| c.matches_tuple(ip_src, ip_dst, udp_src, udp_dst))
}

impl Node for OfSwitch {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn on_frame(&mut self, ctx: &mut Ctx, port: PortId, frame: Frame) {
        // Control-channel traffic is any UDP datagram matching one of
        // the controller channels' 5-tuples; everything else is data
        // plane. The frame is parsed once, into the flow key: only a
        // frame the key says is a channel's pays a second parse, for the
        // payload.
        let key = FlowKey::extract(port.0 as u16, &frame);
        if let Some(idx) = key.as_ref().and_then(|k| channel_of(&self.controllers, k)) {
            if let Ok(Some(d)) = peek_udp_frame(&frame) {
                self.on_channel_datagram(ctx, idx, &d);
                return;
            }
        }
        self.forward(ctx, port, key.as_ref(), frame);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
        match token {
            TIMER_INSTALL => self.drain_installs(ctx),
            TimerToken(t) if t >= TIMER_DEADLINE_BASE => {
                self.check_deadline(ctx, (t - TIMER_DEADLINE_BASE) as usize);
            }
            TimerToken(t) if t >= TIMER_CHANNEL_BASE => {
                let idx = (t - TIMER_CHANNEL_BASE) as usize;
                if let Some(chan) = self.controllers.get_mut(idx) {
                    chan.on_timer(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_link_status(&mut self, ctx: &mut Ctx, port: PortId, up: bool) {
        // Carrier change: purge L2 entries learned on that port and tell
        // the controller (PORT_STATUS) — real switches do both.
        if !up {
            self.l2.retain(|_, &mut p| p != port);
            if let Some(taught) = self.l2_taught.get_mut(port.0) {
                *taught = None;
            }
        }
        let msg = OfMessage::PortStatus {
            port: port.0 as u16,
            up,
        };
        self.send_to_controllers(ctx, msg);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use sc_net::wire::{udp_frame, EtherType, Ipv4Repr, UdpEndpoints, UdpRepr};
    use std::net::Ipv4Addr;

    const SW_IP: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);
    const CTRL_IP: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 2);
    const SW_PORT: u16 = 6653;
    const CTRL_PORT: u16 = 40001;

    /// The switch's side of a controller channel.
    fn channel() -> ChannelPort {
        let addr = UdpEndpoints {
            src_mac: MacAddr([0, 0x5c, 0, 0, 0, 0xee]),
            dst_mac: MacAddr([0, 0x5c, 0, 0, 0, 0xcc]),
            src_ip: SW_IP,
            dst_ip: CTRL_IP,
            src_port: SW_PORT,
            dst_port: CTRL_PORT,
        };
        ChannelPort::listen(addr, PortId(2), TimerToken(1))
    }

    /// What is done to a well-formed frame before the switch sees it.
    #[derive(Clone, Debug)]
    enum Damage {
        None,
        /// Cut to this share (in 256ths) of its length.
        Truncate(u8),
        /// One bit, anywhere: a header field, either checksum, the
        /// EtherType, the protocol number, the payload.
        FlipBit(usize),
        /// The same bytes behind a valid IPv4 header that says TCP.
        NotUdp,
    }

    /// Frames at and around the channel — its own 4-tuple with at most
    /// one field off (a wrong address under the right ports, a wrong
    /// port, the reverse direction) — then damaged; and plain noise.
    fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
        let damage = prop_oneof![
            Just(Damage::None),
            Just(Damage::None),
            any::<u8>().prop_map(Damage::Truncate),
            any::<usize>().prop_map(Damage::FlipBit),
            Just(Damage::NotUdp),
        ];
        let near = (0u8..6, vec(any::<u8>(), 0..24), damage).prop_map(|(off, payload, damage)| {
            let mut ep = UdpEndpoints {
                src_mac: MacAddr([0, 0x5c, 0, 0, 0, 0xcc]),
                dst_mac: MacAddr([0, 0x5c, 0, 0, 0, 0xee]),
                src_ip: CTRL_IP,
                dst_ip: SW_IP,
                src_port: CTRL_PORT,
                dst_port: SW_PORT,
            };
            match off {
                0 => {}
                1 => ep.src_ip = Ipv4Addr::new(10, 99, 0, 3),
                2 => ep.dst_ip = Ipv4Addr::new(10, 99, 0, 3),
                3 => ep.src_port = 7,
                4 => ep.dst_port = 7,
                _ => ep = ep.flipped(),
            }
            let mut frame = udp_frame(ep, 64, &payload);
            match damage {
                Damage::None => {}
                Damage::Truncate(share) => frame.truncate(frame.len() * share as usize / 256),
                Damage::FlipBit(at) => {
                    let bit = at % (frame.len() * 8);
                    frame[bit / 8] ^= 1 << (bit % 8);
                }
                Damage::NotUdp => {
                    let segment = UdpRepr {
                        src_port: ep.src_port,
                        dst_port: ep.dst_port,
                    }
                    .to_segment(ep.src_ip, ep.dst_ip, &payload);
                    let packet = Ipv4Repr {
                        src: ep.src_ip,
                        dst: ep.dst_ip,
                        protocol: 6,
                        ttl: 64,
                        tos: 0,
                        ident: 0,
                    }
                    .to_packet(&segment);
                    frame = EthernetRepr {
                        dst: ep.dst_mac,
                        src: ep.src_mac,
                        ethertype: EtherType::Ipv4,
                    }
                    .to_frame(&packet);
                }
            }
            frame
        });
        prop_oneof![near.boxed(), vec(any::<u8>(), 0..80).boxed()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The flow key picks out exactly the frames a full
        /// `peek_udp_frame` + `ChannelPort::matches` would.
        #[test]
        fn key_candidates_are_the_channel_frames(frame in arb_frame()) {
            let chan = channel();
            let by_parse = peek_udp_frame(&frame)
                .ok()
                .flatten()
                .map(|d| chan.matches(&d))
                .unwrap_or(false);
            let by_key = FlowKey::extract(0, &frame)
                .and_then(|key| channel_of(std::slice::from_ref(&chan), &key));
            prop_assert_eq!(by_key, by_parse.then_some(0));
        }
    }
}
